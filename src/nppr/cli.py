"""Command-line entry point.

Subcommands:
  train           run the full pipeline (dataset, classifier, generator,
                  evaluation, ordering verdicts) for one config
  evaluate        recompute the report for an existing checkpoint
  sweep           expand config lists over {K, epsilon, dependency} into
                  independent runs with derived seeds
  verify          check metric orderings across one or more report files
  export-samples  dump exact perturbation draws from a checkpoint to CSV
                  (samples_latent.csv, samples_input.csv); no other command
                  writes them

A command writes to --out, or else to its run name (train-seed3, say) under
the output root: the config's output_dir, then $NPPR_OUTPUT_ROOT, then
./runs, so commands that share an output_dir keep their files apart.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, ExperimentConfig, parse_config
from .datasets import stratified_split
from .experiment import (evaluate_generator, export_perturbation_samples, fit_classifier,
                         make_dataset, run_experiment)
from .metrics import RobustnessReport
from .oracle import verdict_to_json, verify_propositions
from .serialize import SnapshotError
from .trainer import build_from_checkpoint, read_checkpoint

OUTPUT_ROOT_ENV = "NPPR_OUTPUT_ROOT"


def _load_config(args) -> ExperimentConfig:
    if args.config is None:
        doc = "{}"
    else:
        try:
            doc = Path(args.config).read_text()
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigError(f"{args.config}: {err}") from err
    cfg = parse_config(doc, strict=args.strict)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
        cfg.dataset.seed = args.seed
        cfg.train.seed = args.seed
    return cfg


def _out_dir(args, cfg: ExperimentConfig, run_name: str) -> Path:
    if args.out is not None:
        return Path(args.out)
    root = cfg.output_dir
    if root is None:
        root = os.environ.get(OUTPUT_ROOT_ENV, "runs")
    return Path(root) / run_name


def _add_common(sub) -> None:
    sub.add_argument("--config", type=str, default=None, help="path to a JSON config")
    sub.add_argument("--seed", type=_int_at_least(0), help="override every seed in the config")
    sub.add_argument("--out", type=str, default=None, help="output directory")
    sub.add_argument("--strict", action=argparse.BooleanOptionalAction, default=True,
                     help="reject unknown config keys (default: on)")


def cmd_train(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg, f"train-seed{cfg.seed}")
    report, verdict = run_experiment(cfg, out)
    print(f"run artifacts in {out}")
    for line in report.summary_lines():
        print(line)
    print(f"ordering verdicts: {'PASS' if verdict['all_pass'] else 'FAIL'}")
    return 0 if verdict["all_pass"] else 1


class CheckpointError(Exception):
    """A checkpoint that is missing, corrupt or does not fit the config."""


def _restore(cfg: ExperimentConfig, checkpoint: str):
    """Read `checkpoint`, whose head and upsampler settings (budget included)
    must be the config's, then rebuild the run's split and frozen classifier
    and the checkpoint's generator against them. A checkpoint that cannot be
    read, or that does not match the config, is refused before the fit."""
    try:
        stored = read_checkpoint(checkpoint)
    except (SnapshotError, OSError) as err:
        raise CheckpointError(err) from err
    if differ := stored.mismatches(head=cfg.head, upsampler=cfg.upsampler):
        raise CheckpointError(f"{checkpoint}: checkpoint settings differ from the config "
                              f"(checkpoint != config): {', '.join(differ)}")
    split = stratified_split(make_dataset(cfg.dataset), cfg.train_frac, cfg.seed)
    clf = fit_classifier(cfg, split)
    try:
        generator = build_from_checkpoint(stored, clf)
    except SnapshotError as err:
        raise CheckpointError(err) from err
    return split, clf, generator


def cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg, f"evaluate-seed{cfg.seed}")
    split, clf, generator = _restore(cfg, args.checkpoint)
    out.mkdir(parents=True, exist_ok=True)
    report = evaluate_generator(cfg, clf, generator, split)
    (out / "report.json").write_text(report.to_json())
    for line in report.summary_lines():
        print(line)
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    modes = cfg.sweep.modes or (cfg.head.K,)
    epsilons = cfg.sweep.epsilons or (cfg.epsilon,)
    dependencies = cfg.sweep.dependencies or (cfg.head.mode,)
    root = _out_dir(args, cfg, "sweep")
    worst = 0
    run_index = 0
    for dep in dependencies:
        for k in modes:
            for eps in epsilons:
                sub_cfg = replace(
                    cfg,
                    head=replace(cfg.head, mode=dep, K=k),
                    upsampler=replace(cfg.upsampler, gamma=float(eps)),
                    train=replace(cfg.train, seed=cfg.train.seed + run_index),
                    epsilon=eps,
                    seed=cfg.seed + run_index,
                    sweep=cfg.sweep,
                )
                name = f"{dep.value}-K{k}-eps{eps.numerator}_{eps.denominator}"
                print(f"[sweep] {name}")
                _, verdict = run_experiment(sub_cfg, root / name)
                worst = max(worst, 0 if verdict["all_pass"] else 1)
                run_index += 1
    return worst


class ReportError(Exception):
    """An unreadable report, or reports from different experiments."""


def cmd_verify(args) -> int:
    reports = []
    for path in args.reports:
        try:
            reports.append(RobustnessReport.from_dict(json.loads(Path(path).read_text())))
        except (OSError, TypeError, ValueError) as err:  # JSONDecodeError is a ValueError
            raise ReportError(f"{path}: {err}") from err
    try:
        verdict = verify_propositions(reports)
    except ValueError as err:  # the reports' experiment keys differ
        raise ReportError(err) from err
    text = verdict_to_json(verdict)
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "verdict.json").write_text(text)
    print(text)
    return 0 if verdict["all_pass"] else 1


def cmd_export_samples(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg, f"samples-seed{cfg.seed}")
    split, _, generator = _restore(cfg, args.checkpoint)
    out.mkdir(parents=True, exist_ok=True)
    export_perturbation_samples(generator, split, args.per_input, out, cfg.seed)
    print(f"wrote {out / 'samples_latent.csv'} and {out / 'samples_input.csv'}")
    return 0


def _int_at_least(minimum: int):
    def integer(text: str) -> int:
        if int(text) < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {text}")
        return int(text)
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nppr", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("train", help="train a generator and emit all artifacts")
    _add_common(p)
    p.set_defaults(fn=cmd_train)

    p = subs.add_parser("evaluate", help="evaluate a checkpointed generator")
    _add_common(p)
    p.add_argument("--checkpoint", type=str, required=True)
    p.set_defaults(fn=cmd_evaluate)

    p = subs.add_parser("sweep", help="expand sweep lists into independent runs")
    _add_common(p)
    p.set_defaults(fn=cmd_sweep)

    p = subs.add_parser("verify", help="check metric orderings across report files")
    p.add_argument("reports", nargs="+", help="report.json paths")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(fn=cmd_verify)

    p = subs.add_parser("export-samples", help="dump perturbation draws to CSV")
    _add_common(p)
    p.add_argument("--checkpoint", type=str, required=True)
    p.add_argument("--per-input", type=_int_at_least(1), default=8,
                   help="draws per input (default: 8)")
    p.set_defaults(fn=cmd_export_samples)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except CheckpointError as err:
        print(f"checkpoint error: {err}", file=sys.stderr)
        return 2
    except ReportError as err:
        print(f"report error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
