"""Experiment orchestration: dataset -> classifier -> generator -> report.

Artifacts per run directory:
  config.json       the run's config, in canonical form (`config_to_json`)
  epochs.csv        per-epoch training dynamics
  report.json       final RobustnessReport (full precision)
  summary.txt       human-readable percentages (2 decimals)
  verdict.json      metric-ordering checks for this run's report
  manifest.json     stages completed / failure point
  ckpt_latest.json / ckpt_best.json
                    generator checkpoints (format v2, tensors as base64 float64),
                    each a resume point: the generator's tensors (the head's
                    `head.{pi,mu,chol}_b` biases, with the layers, trunk and
                    embedding its mode gives it, and the upsampler's) and their
                    Adam moments, Adam's step count, its head and upsampler
                    configs, the run's loop state (`trainer.RunState`,
                    TrainConfig included) and the sha256 fingerprint of the
                    classifier it was trained against; its temperatures are not
                    written, as they follow from its TrainConfig and epoch
Draws to CSV (samples_latent.csv, samples_input.csv) come only from
`nppr export-samples`, which reads a checkpoint.
"""

from __future__ import annotations

import csv
import json
import logging
from contextlib import ExitStack
from pathlib import Path

from . import tensor as T
from .config import ExperimentConfig, config_to_json
from .datasets import (LabeledDataset, SplitDataset, make_blobs, make_grid_image,
                       make_rings, stratified_split)
from .generator import Generator, build_generator
from .metrics import (CLIPPED_GAUSSIAN, UNIFORM_BALL, RobustnessReport, _pieces, ar_cw,
                      ar_pgd, mixture_statistics, nppr_estimate, pr_estimate)
from .models import Classifier, train_classifier
from .oracle import verdict_to_json, verify_propositions
from .rng import ATTACK, EVAL, substream
from .trainer import train_generator, write_epoch_csv

log = logging.getLogger(__name__)


def make_dataset(spec) -> LabeledDataset:
    if spec.kind == "blobs":
        return make_blobs(spec.dim, spec.classes, spec.n, spec.seed,
                          separation=spec.separation, sigma=spec.sigma)
    if spec.kind == "rings":
        return make_rings(spec.classes, spec.n, spec.seed,
                          radius_step=spec.radius_step, sigma_r=spec.noise)
    if spec.kind == "grid-image":
        return make_grid_image(spec.image_shape, spec.classes, spec.n, spec.seed,
                               noise=spec.noise)
    raise ValueError(f"unknown dataset kind '{spec.kind}'")


def dataset_key(spec) -> str:
    if spec.kind == "grid-image":
        shape = "x".join(str(v) for v in spec.image_shape)
        return f"grid-image-{shape}-C{spec.classes}-n{spec.n}-s{spec.seed}"
    return f"{spec.kind}-d{spec.dim}-C{spec.classes}-n{spec.n}-s{spec.seed}"


def fit_classifier(cfg: ExperimentConfig, split: SplitDataset) -> Classifier:
    return train_classifier(split.train.x, split.train.y, cfg.classifier, cfg.seed,
                            split.train.image_shape)


def evaluate_generator(cfg: ExperimentConfig, clf: Classifier, generator: Generator,
                       split: SplitDataset) -> RobustnessReport:
    """Final metrics on both splits, all with exact sampling, of the mixture at
    the generator's temperatures. NPPR, PR, the attacks and the report share
    one budget, the generator's gamma."""
    gamma = generator.gamma
    M = cfg.baselines.eval_samples
    test, train = split.test, split.train

    nppr_test = nppr_estimate(clf, generator, test.x, test.y, M, substream(cfg.seed, EVAL, 0))
    nppr_train = nppr_estimate(clf, generator, train.x, train.y, M, substream(cfg.seed, EVAL, 1))
    pr_u = pr_estimate(clf, test.x, test.y, UNIFORM_BALL, gamma, M,
                       substream(cfg.seed, EVAL, 2))
    pr_g = pr_estimate(clf, test.x, test.y, CLIPPED_GAUSSIAN, gamma, M,
                       substream(cfg.seed, EVAL, 3))
    ar_p = ar_pgd(clf, test.x, test.y, gamma, steps=cfg.baselines.pgd_steps,
                  rng=substream(cfg.seed, ATTACK, 0))
    ar_c = ar_cw(clf, test.x, test.y, gamma, steps=cfg.baselines.cw_steps,
                 kappa=cfg.train.kappa, rng=substream(cfg.seed, ATTACK, 1))

    with T.no_grad():
        params = generator.gmm_params(test.x, test.y)
    stats = mixture_statistics(params.pi())

    return RobustnessReport(
        nppr_test=nppr_test, nppr_train=nppr_train,
        pr_gaussian=pr_g, pr_uniform=pr_u, ar_pgd=ar_p, ar_cw=ar_c,
        entropy_ratio=stats["entropy_ratio"],
        pi_max=stats["pi_max"], pi_min=stats["pi_min"], pi_std=stats["pi_std"],
        clean_accuracy=clf.accuracy(test.x, test.y),
        model_key=f"mlp-{'-'.join(str(h) for h in cfg.classifier.hidden)}",
        dataset_key=dataset_key(cfg.dataset),
        mode=generator.mode.value, gamma=gamma, mixture_components=generator.head.cfg.K,
        seed=cfg.seed, nppr_draws=test.n * M, pr_draws=test.n * M, ar_points=test.n)


def export_perturbation_samples(generator: Generator, split: SplitDataset, per_input: int,
                                out_dir: Path, seed: int) -> None:
    """CSV rows (input_id, sample_id, component_argmax, values...) for exact
    latent draws at the generator's temperatures and their budget-constrained
    input-space images, for the first (up to) 64 test inputs, drawn and
    written in the estimators' pieces (no row depends on the tiling)."""
    n = min(split.test.n, 64)
    x, y, pieces = _pieces(split.test.x[:n], split.test.y[:n], per_input,
                          "export_perturbation_samples")
    rng = substream(seed, EVAL, 9)
    dims = {"samples_latent.csv": generator.head.cfg.latent_dim,
            "samples_input.csv": generator.upsampler.input_dim}
    with ExitStack() as files, T.no_grad():
        writers = [csv.writer(files.enter_context(open(out_dir / name, "w", newline="")))
                   for name in dims]
        for writer, dim in zip(writers, dims.values()):
            writer.writerow(["input_id", "sample_id", "component_argmax"]
                            + [f"value_{i}" for i in range(dim)])
        params = generator.gmm_params(x, y)
        for part in pieces:
            batch = generator.perturb_exact(params.rows(part), per_input,
                                            rng.spawn(len(x[part])))
            comp = batch.relaxed_weights.data.argmax(axis=2)
            for writer, values in zip(writers, (batch.latent.data, batch.images.data)):
                writer.writerows([part.start + i, j, int(comp[i, j])]
                                 + [repr(v) for v in values[i, j].tolist()]
                                 for i in range(len(comp)) for j in range(per_input))


def run_experiment(cfg: ExperimentConfig, out_dir) -> tuple[RobustnessReport, dict]:
    """Full pipeline; partial artifacts are kept and the failure stage recorded."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {"stages": {}, "config": None}
    (out_dir / "config.json").write_text(config_to_json(cfg))
    manifest["config"] = "config.json"

    def stage(name):
        manifest["stages"][name] = "running"
        _write_manifest(out_dir, manifest)

    def done(name):
        manifest["stages"][name] = "done"
        _write_manifest(out_dir, manifest)

    try:
        stage("dataset")
        ds = make_dataset(cfg.dataset)
        split = stratified_split(ds, cfg.train_frac, cfg.seed)
        done("dataset")

        stage("classifier")
        clf = fit_classifier(cfg, split)
        manifest["classifier_train_accuracy"] = clf.train_accuracy
        done("classifier")

        stage("train_generator")
        generator = build_generator(clf, cfg.head, cfg.upsampler, seed=cfg.seed)
        events: list[str] = []
        generator, records = train_generator(clf, split, cfg.train, generator,
                                             out_dir=out_dir, events=events)
        write_epoch_csv(records, out_dir / "epochs.csv")
        if events:
            manifest["training_events"] = events
        done("train_generator")

        stage("evaluate")
        report = evaluate_generator(cfg, clf, generator, split)
        (out_dir / "report.json").write_text(report.to_json())
        (out_dir / "summary.txt").write_text("\n".join(report.summary_lines()) + "\n")
        done("evaluate")

        stage("verify")
        verdict = verify_propositions([report])
        (out_dir / "verdict.json").write_text(verdict_to_json(verdict))
        done("verify")
    except Exception as err:
        failed = next((k for k, v in manifest["stages"].items() if v == "running"), "unknown")
        manifest["stages"][failed] = f"failed: {err}"
        _write_manifest(out_dir, manifest)
        raise

    _write_manifest(out_dir, manifest)
    return report, verdict


def _write_manifest(out_dir: Path, manifest: dict) -> None:
    (out_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2))
