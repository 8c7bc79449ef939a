"""Experiment orchestration: report bookkeeping and the failure manifest."""

import csv
import io
import json
from dataclasses import replace
from fractions import Fraction

import pytest

import nppr.experiment
import nppr.generator
import nppr.metrics
from nppr import tensor as T
from nppr.config import parse_config
from nppr.datasets import stratified_split
from nppr.experiment import (evaluate_generator, export_perturbation_samples, fit_classifier,
                             make_dataset, run_experiment)
from nppr.generator import build_generator
from nppr.metrics import UNIFORM_BALL, ar_cw, ar_pgd, mixture_statistics, nppr_estimate, pr_estimate
from nppr.models import Temperatures
from nppr.rng import ATTACK, EVAL, substream
from nppr.trainer import build_from_checkpoint, read_checkpoint

import test_cli

TINY = {
    "dataset": {"dim": 4, "classes": 3, "n": 60, "seed": 2},
    "classifier": {"hidden": [8], "epochs": 20, "accuracy_threshold": 0.5},
    "dependency": "label",
    "gmm": {"modes": 3, "latent_dim": 2, "label_emb_dim": 4},
    "budget": {"epsilon": "1/4"},
    "baselines": {"eval_samples": 6, "pgd_steps": 2, "cw_steps": 2},
}


def test_evaluate_generator_bookkeeping():
    cfg = parse_config(TINY)
    split = stratified_split(make_dataset(cfg.dataset), cfg.train_frac, cfg.seed)
    clf = fit_classifier(cfg, split)
    generator = build_generator(clf, cfg.head, cfg.upsampler, seed=cfg.seed)
    report = evaluate_generator(cfg, clf, generator, split)
    assert report.nppr_draws == report.pr_draws == split.test.n * 6
    assert report.ar_points == split.test.n
    assert report.model_key == "mlp-8"
    assert report.dataset_key == "blobs-d4-C3-n60-s2"
    assert report.mode == "label"
    assert report.gamma == 0.25
    assert report.mixture_components == 3


def test_evaluate_generator_reads_one_budget_from_the_generator():
    # A config whose epsilon has moved off its upsampler's gamma: the PR
    # estimates, the attacks and the report all use the generator's budget,
    # the one its NPPR draws are squashed into.
    cfg = parse_config(TINY)
    split = stratified_split(make_dataset(cfg.dataset), cfg.train_frac, cfg.seed)
    clf = fit_classifier(cfg, split)
    generator = build_generator(clf, cfg.head, cfg.upsampler, seed=cfg.seed)
    report = evaluate_generator(replace(cfg, epsilon=Fraction(1)), clf, generator, split)
    x, y, steps = split.test.x, split.test.y, cfg.baselines.pgd_steps
    assert report.gamma == generator.gamma == 0.25
    assert report.pr_uniform == pr_estimate(clf, x, y, UNIFORM_BALL, 0.25,
                                            cfg.baselines.eval_samples, substream(cfg.seed, EVAL, 2))
    assert report.ar_pgd == ar_pgd(clf, x, y, 0.25, steps, substream(cfg.seed, ATTACK, 0))
    assert report.ar_cw == ar_cw(clf, x, y, 0.25, steps, cfg.train.kappa,
                                 substream(cfg.seed, ATTACK, 1))


def test_report_reads_the_mixture_at_the_final_temperatures(tmp_path):
    # The run's report reads the mixture at the last epoch's temperatures,
    # the ones ckpt_latest.json (written after that epoch) restores; it must
    # not estimate the mixture at T = 1.
    anneal = {name: [1, 2] for name in ("T_pi", "T_mu", "T_sigma", "T_shared")}
    cfg = parse_config({**test_cli.TINY, "budget": {"epsilon": 1},
                        "train": {**test_cli.TINY["train"], "anneal": anneal}})
    run_experiment(cfg, tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    split = stratified_split(make_dataset(cfg.dataset), cfg.train_frac, cfg.seed)
    clf = fit_classifier(cfg, split)
    generator = build_from_checkpoint(read_checkpoint(tmp_path / "ckpt_latest.json"), clf)
    test = split.test

    def nppr_test(temps):
        generator.temps = temps
        return nppr_estimate(clf, generator, test.x, test.y, cfg.baselines.eval_samples,
                             substream(cfg.seed, EVAL, 0))

    final = cfg.train.anneal.at(cfg.train.epochs - 1, cfg.train.epochs)
    assert final.T_pi == final.T_mu == final.T_sigma == final.T_shared == 2.0
    assert report["nppr_test"] == nppr_test(final) != nppr_test(Temperatures())
    generator.temps = final
    with T.no_grad():
        pi = generator.gmm_params(test.x, test.y).pi()
    assert report["pi_std"] == mixture_statistics(pi)["pi_std"]


@pytest.mark.parametrize("per_input", [3, 40])
def test_export_draws_in_pieces(tmp_path, monkeypatch, per_input):
    # With 16 rows a piece, TINY's 11 test inputs at 3 draws come in pieces of
    # 5, 5 and 1 inputs, and at 40 draws one input at a time; the CSVs must be
    # the rows of one draw over all inputs.
    cfg = parse_config(TINY)
    split = stratified_split(make_dataset(cfg.dataset), cfg.train_frac, cfg.seed)
    clf = fit_classifier(cfg, split)
    generator = build_generator(clf, cfg.head, cfg.upsampler, seed=cfg.seed)
    generator.temps = Temperatures(T_pi=2.0, T_mu=0.5, T_sigma=1.5)
    x, y = split.test.x, split.test.y
    with T.no_grad():
        whole = generator.perturb_exact(generator.gmm_params(x, y), per_input,
                                        substream(cfg.seed, EVAL, 9).spawn(len(x)))
    comp = whole.relaxed_weights.data.argmax(axis=2)

    rows = []
    real_sample = nppr.generator.sample_exact
    monkeypatch.setattr(nppr.generator, "sample_exact",
                        lambda params, M, streams: rows.append(params.batch * M)
                        or real_sample(params, M, streams))
    monkeypatch.setattr(nppr.metrics, "_ROWS", 16)
    export_perturbation_samples(generator, split, per_input, tmp_path, cfg.seed)
    assert len(rows) > 1 and max(rows) <= max(16, per_input)

    for name, values in (("samples_latent.csv", whole.latent.data),
                         ("samples_input.csv", whole.images.data)):
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["input_id", "sample_id", "component_argmax"]
                        + [f"value_{i}" for i in range(values.shape[2])])
        for i in range(len(x)):
            for j in range(per_input):
                writer.writerow([i, j, int(comp[i, j])] + [repr(v) for v in values[i, j].tolist()])
        assert (tmp_path / name).read_bytes() == expected.getvalue().encode()


def test_export_pieces_equal_the_estimate_pieces(tmp_path, monkeypatch):
    # At 16 rows a piece and 3 draws, the export and a two-worker NPPR
    # estimate of TINY's 11 test inputs both draw pieces of 5, 5 and 1 inputs.
    cfg = parse_config(TINY)
    split = stratified_split(make_dataset(cfg.dataset), cfg.train_frac, cfg.seed)
    clf = fit_classifier(cfg, split)
    generator = build_generator(clf, cfg.head, cfg.upsampler, seed=cfg.seed)
    rows = []
    real_sample = nppr.generator.sample_exact
    monkeypatch.setattr(nppr.generator, "sample_exact",
                        lambda params, M, streams: rows.append(params.batch)
                        or real_sample(params, M, streams))
    monkeypatch.setattr(nppr.metrics, "_ROWS", 16)
    monkeypatch.setattr(nppr.metrics, "_WORKERS", 2)
    export_perturbation_samples(generator, split, 3, tmp_path, cfg.seed)
    exported = sorted(rows)
    rows.clear()
    nppr_estimate(clf, generator, split.test.x, split.test.y, 3, substream(cfg.seed, EVAL, 0))
    assert exported == sorted(rows) == [1, 5, 5]


def test_failed_stage_recorded_and_raised(tmp_path, monkeypatch):
    def refuse(cfg, split):
        raise RuntimeError("classifier refused")

    monkeypatch.setattr(nppr.experiment, "fit_classifier", refuse)
    with pytest.raises(RuntimeError, match="classifier refused"):
        run_experiment(parse_config(TINY), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["stages"] == {"dataset": "done",
                                  "classifier": "failed: classifier refused"}


def test_blobs_that_cannot_be_drawn_fail_the_dataset_stage(tmp_path):
    cfg = parse_config({**TINY, "dataset": {"dim": 2, "classes": 10, "n": 60}})
    with pytest.raises(ValueError, match="no 10 class means"):
        run_experiment(cfg, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert list(manifest["stages"]) == ["dataset"]
    assert manifest["stages"]["dataset"].startswith("failed: blobs: no 10 class means")
