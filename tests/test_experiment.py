"""Experiment orchestration: report bookkeeping and the failure manifest."""

import json

import pytest

import nppr.experiment
from nppr.config import parse_config
from nppr.datasets import stratified_split
from nppr.experiment import evaluate_generator, fit_classifier, make_dataset, run_experiment
from nppr.generator import build_generator

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
