"""The `nppr` command line, end to end on a tiny config."""

import csv
import json
import logging

import pytest

from nppr import cli

TINY = {
    "dataset": {"n": 200},
    "classifier": {"epochs": 40},
    "train": {"epochs": 2, "eval_every": 1, "samples_per_input": 8,
              "probe_size": 16, "probe_samples": 16},
    "baselines": {"eval_samples": 16, "pgd_steps": 3, "cw_steps": 3},
}


def _write(tmp_path, doc) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A config and the directory of one `nppr train` run of it at seed 3."""
    tmp_path = tmp_path_factory.mktemp("trained")
    config, run = _write(tmp_path, TINY), tmp_path / "run"
    assert cli.main(["train", "--config", config, "--seed", "3", "--out", str(run)]) == 0
    return config, run


def test_evaluate_reproduces_train_report(trained, tmp_path):
    config, run = trained
    again = tmp_path / "again"
    assert cli.main(["evaluate", "--config", config, "--seed", "3", "--out", str(again),
                     "--checkpoint", str(run / "ckpt_latest.json")]) == 0
    assert (again / "report.json").read_bytes() == (run / "report.json").read_bytes()
    assert cli.main(["verify", str(again / "report.json")]) == 0


def test_export_samples_writes_every_draw_reproducibly(trained, tmp_path):
    config, run = trained
    n = min(json.loads((run / "report.json").read_text())["ar_points"], 64)
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        assert cli.main(["export-samples", "--config", config, "--seed", "3", "--out", str(out),
                         "--checkpoint", str(run / "ckpt_latest.json"),
                         "--per-input", "3"]) == 0
    for name in ("samples_latent.csv", "samples_input.csv"):
        with open(outs[0] / name, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:3] == ["input_id", "sample_id", "component_argmax"]
        assert [(int(r[0]), int(r[1])) for r in rows[1:]] == [
            (i, j) for i in range(n) for j in range(3)]
        assert (outs[1] / name).read_bytes() == (outs[0] / name).read_bytes()
        values = [float(v) for r in rows[1:] for v in r[3:]]
        if name == "samples_input.csv":  # TINY's budget is the default 16/255
            assert max(abs(v) for v in values) <= 16 / 255


def test_output_dir_is_a_root_each_command_writes_under(tmp_path):
    # Without --out, each command writes its own run directory under the
    # config's output_dir, so evaluating and exporting leave the training
    # run's files as they were.
    root = tmp_path / "runs" / "x"
    config = _write(tmp_path, {**TINY, "output_dir": str(root)})
    common = ["--config", config, "--seed", "3"]
    assert cli.main(["train", *common]) == 0
    run = root / "train-seed3"
    written = {p.name: p.read_bytes() for p in run.iterdir()}
    checkpoint = ["--checkpoint", str(run / "ckpt_latest.json")]
    assert cli.main(["evaluate", *common, *checkpoint]) == 0
    assert cli.main(["export-samples", *common, *checkpoint, "--per-input", "2"]) == 0
    assert sorted(p.name for p in root.iterdir()) == [
        "evaluate-seed3", "samples-seed3", "train-seed3"]
    assert {p.name: p.read_bytes() for p in run.iterdir()} == written
    assert (root / "evaluate-seed3" / "report.json").read_bytes() == written["report.json"]


def test_export_samples_draws_eight_per_input_by_default(trained, tmp_path):
    config, run = trained
    out = tmp_path / "samples"
    assert cli.main(["export-samples", "--config", config, "--seed", "3", "--out", str(out),
                     "--checkpoint", str(run / "ckpt_latest.json")]) == 0
    with open(out / "samples_latent.csv", newline="") as fh:
        assert sorted({int(r[1]) for r in list(csv.reader(fh))[1:]}) == list(range(8))


# The settings every run used at one value, since removed, each in the
# section it sat in, at the value that differed from what every run used.
REMOVED = {"export_samples": 4, "gmm": {"label_emb_normalized": False},
           "upsampler": {"learnable_premap": False},
           "train": {**TINY["train"], "gumbel": {"anneal": False}}}
ARTIFACTS = ("config.json", "report.json", "epochs.csv", "verdict.json", "summary.txt",
             "manifest.json")


def test_removed_setting_is_refused_or_ignored(trained, tmp_path, capsys, caplog):
    # Strict mode refuses an old document that names one; --no-strict warns
    # once per removed key and runs the document as if it lacked them.
    _, run = trained
    config = _write(tmp_path, {**TINY, **REMOVED})
    out = tmp_path / "strict"
    assert cli.main(["train", "--config", config, "--seed", "3", "--out", str(out)]) == 2
    assert "unknown key(s) ['label_emb_normalized']" in capsys.readouterr().err
    assert not out.exists()
    out = tmp_path / "lax"
    with caplog.at_level(logging.WARNING, logger="nppr.config"):
        assert cli.main(["train", "--config", config, "--seed", "3", "--out", str(out),
                         "--no-strict"]) == 0
    assert sorted(r.getMessage() for r in caplog.records if r.name == "nppr.config") == [
        "<root>: unknown key(s) ['export_samples'] (ignored)",
        "gmm: unknown key(s) ['label_emb_normalized'] (ignored)",
        "train.gumbel: unknown key(s) ['anneal'] (ignored)",
        "upsampler: unknown key(s) ['learnable_premap'] (ignored)"]
    for name in ARTIFACTS:
        assert (out / name).read_bytes() == (run / name).read_bytes(), name
    assert not (out / "samples_latent.csv").exists()


def _best_epoch_next(run) -> int:
    return json.loads((run / "ckpt_best.json").read_text())["extra"]["epoch_next"]


def test_best_checkpoint_keeps_the_later_of_equal_probe_npprs(trained):
    # Seed 3's probe NPPR reads 1.0 at both epochs.
    _, run = trained
    assert _best_epoch_next(run) == 2
    assert (run / "ckpt_best.json").read_bytes() == (run / "ckpt_latest.json").read_bytes()


@pytest.mark.parametrize("seed, epoch_next", [(12, 2), (1, 1)])
def test_best_checkpoint_at_a_wide_budget(tmp_path, seed, epoch_next):
    # At epsilon 1 the probe NPPR of seed 12 ties below 1 (0.9765625 at both
    # epochs), and that of seed 1 rises (0.96875, then 0.98046875).
    config, run = _write(tmp_path, {**TINY, "budget": {"epsilon": "1"}}), tmp_path / "run"
    assert cli.main(["train", "--config", config, "--seed", str(seed), "--out", str(run)]) == 0
    assert _best_epoch_next(run) == epoch_next


# What the one-line error says for each bad checkpoint.
BAD_CHECKPOINTS = {
    "missing": "No such file or directory",
    "corrupt": "corrupt snapshot file",
    "directory": "Is a directory",
    "not_utf8": "corrupt snapshot file",
    "other_mode": "head.mode joint != independent",
    "other_budget": "upsampler.gamma 0.06274509803921569 != 0.25",
    "other_K": "head.K 7 != 3",
    "K_as_text": "stored settings cannot be read: ValueError: HeadConfig.K: expected int, got str",
    "K_fractional": "stored settings cannot be read: ValueError: HeadConfig.K: expected int, "
                    "got float",
    "extra_list": "extra is not an object",
    "no_upsampler_settings": "stored settings cannot be read: KeyError: 'ups_cfg'",
    "no_fingerprint": "stored settings cannot be read: KeyError: 'classifier_sha256'",
    "no_anneal": "stored settings cannot be read: KeyError: 'anneal'",
    "other_classifier": "checkpoint was trained against another classifier (classifier_sha256 ",
    "shape_overflow": "bytes for shape (4294967296, 4294967296)",
}


def _bad_checkpoint(trained, tmp_path, case):
    """The config and the checkpoint of one BAD_CHECKPOINTS case."""
    config, run = trained
    checkpoint = run / "ckpt_latest.json"
    if case == "missing":
        checkpoint = tmp_path / "absent.json"
    elif case == "corrupt":
        checkpoint = tmp_path / "corrupt.json"
        checkpoint.write_text("{ not json")
    elif case == "directory":
        checkpoint = tmp_path
    elif case == "not_utf8":
        checkpoint = tmp_path / "binary.json"
        checkpoint.write_bytes(b"\xff\xfe{}")
    elif case == "other_mode":  # a joint-head checkpoint under an independent-head config
        config = _write(tmp_path, {**TINY, "dependency": "independent"})
    elif case == "other_budget":  # the checkpoint's NPPR was drawn at gamma 16/255
        config = _write(tmp_path, {**TINY, "budget": {"epsilon": "1/4"}})
    elif case == "other_K":
        config = _write(tmp_path, {**TINY, "gmm": {"modes": 3}})
    elif case == "other_classifier":  # same widths, refit to other weights
        config = _write(tmp_path, {**TINY, "classifier": {"lr": 0.05, "epochs": 3}})
    else:
        doc = json.loads(checkpoint.read_text())
        if case == "K_as_text":
            doc["extra"]["head_cfg"]["K"] = "7"
        elif case == "K_fractional":
            doc["extra"]["head_cfg"]["K"] = 2.5
        elif case == "extra_list":
            doc["extra"] = [doc["extra"]]
        elif case == "no_fingerprint":  # as written before checkpoints carried one
            del doc["extra"]["classifier_sha256"]
        elif case == "no_anneal":  # its temperatures cannot be derived
            del doc["extra"]["train_cfg"]["anneal"]
        elif case == "shape_overflow":  # its element count wraps to 0 in int64
            next(iter(doc["tensors"].values())).update(shape=[2 ** 32, 2 ** 32], data="")
        else:
            del doc["extra"]["ups_cfg"]
        checkpoint = tmp_path / "malformed.json"
        checkpoint.write_text(json.dumps(doc))
    return config, checkpoint


@pytest.mark.parametrize("command", ["evaluate", "export-samples"])
@pytest.mark.parametrize("case", list(BAD_CHECKPOINTS))
def test_bad_checkpoint_is_a_checkpoint_error(trained, tmp_path, capsys, command, case):
    config, checkpoint = _bad_checkpoint(trained, tmp_path, case)
    out = tmp_path / "out"
    assert cli.main([command, "--config", config, "--seed", "3", "--out", str(out),
                     "--checkpoint", str(checkpoint)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("checkpoint error: ") and err.count("\n") == 1
    assert BAD_CHECKPOINTS[case] in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "export-samples"])
@pytest.mark.parametrize("case", [c for c in BAD_CHECKPOINTS if c != "other_classifier"])
def test_bad_checkpoint_is_refused_before_the_classifier_fit(trained, tmp_path, capsys,
                                                             monkeypatch, command, case):
    # Only the fingerprint needs the refit classifier; every other fault is
    # found in the checkpoint or against the config first.
    def no_fit(*args):
        raise AssertionError("the classifier was fit")

    monkeypatch.setattr(cli, "fit_classifier", no_fit)
    config, checkpoint = _bad_checkpoint(trained, tmp_path, case)
    out = tmp_path / "out"
    assert cli.main([command, "--config", config, "--seed", "3", "--out", str(out),
                     "--checkpoint", str(checkpoint)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("checkpoint error: ") and BAD_CHECKPOINTS[case] in err
    assert not out.exists()


# What the one-line error says for each unreadable report.
BAD_REPORTS = {
    "missing": "No such file or directory",
    "not_json": "Expecting value: line 1 column 1",
    "missing_field": "missing 1 required positional argument: 'nppr_test'",
    "extra_field": "unexpected keyword argument 'classifier_sha256'",
    "gamma_text": "RobustnessReport.gamma: expected float, got str",
    "rate_bool": "RobustnessReport.nppr_test: expected float, got bool",
    "draws_text": "RobustnessReport.nppr_draws: expected int, got str",
    "draws_negative": "RobustnessReport.nppr_draws: must be >= 0",
    "pi_nan": "RobustnessReport.pi_max: must be finite, got nan",
    "mode_typo": "RobustnessReport.mode: must be one of ['', 'independent', 'input', 'joint', "
                 "'label']",
}

# The value one field of a good report is given in each case above that
# edits one; each once passed with exit 0 or ended in a traceback.
REPORT_EDITS = {"gamma_text": ("gamma", "x"), "rate_bool": ("nppr_test", True),
                "draws_text": ("nppr_draws", "many"), "draws_negative": ("nppr_draws", -5),
                "pi_nan": ("pi_max", float("nan")), "mode_typo": ("mode", "jiont")}


@pytest.mark.parametrize("case", list(BAD_REPORTS))
def test_unreadable_report_is_a_report_error(trained, tmp_path, capsys, case):
    # Exit 1 means an ordering failed; input that is not a report exits 2.
    _, run = trained
    doc = json.loads((run / "report.json").read_text())
    report = tmp_path / "report.json"
    if case == "not_json":
        report.write_text("not json")
    elif case == "missing_field":
        del doc["nppr_test"]
        report.write_text(json.dumps(doc))
    elif case == "extra_field":
        report.write_text(json.dumps({**doc, "classifier_sha256": "0" * 64}))
    elif case in REPORT_EDITS:
        name, value = REPORT_EDITS[case]
        report.write_text(json.dumps({**doc, name: value}))
    assert cli.main(["verify", str(run / "report.json"), str(report)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"report error: {report}: ") and err.count("\n") == 1
    assert BAD_REPORTS[case] in err


def test_reports_of_different_experiments_are_a_report_error(trained, tmp_path, capsys):
    # Once a traceback with exit 1, the code of a failed ordering.
    _, run = trained
    other = tmp_path / "report.json"
    other.write_text(json.dumps({**json.loads((run / "report.json").read_text()),
                                 "model_key": "mlp-8"}))
    assert cli.main(["verify", str(run / "report.json"), str(other)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("report error: verify_propositions: report keys differ: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("form", ["config", "flag"])
def test_negative_seed_is_refused_before_the_run(tmp_path, capsys, form):
    # Once parsed and written to config.json and manifest.json, then a
    # traceback from the seed sequence.
    out = tmp_path / "run"
    doc = {**TINY, "seed": -2} if form == "config" else TINY
    args = ["train", "--config", _write(tmp_path, doc), "--out", str(out)]
    if form == "config":
        assert cli.main(args) == 2
        assert capsys.readouterr().err == "config error: seed: must be >= 0\n"
    else:
        with pytest.raises(SystemExit) as exit_info:
            cli.main(args + ["--seed", "-1"])
        assert exit_info.value.code == 2
        assert "--seed: must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_grid_image_with_too_many_classes_is_refused_before_the_run(tmp_path, capsys):
    out = tmp_path / "run"
    doc = {**TINY, "dataset": {"kind": "grid-image", "classes": 5}}
    assert cli.main(["train", "--config", _write(tmp_path, doc), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("config error: dataset.classes: grid-image data has "
                                       "at most 4 classes, got 5\n")
    assert not out.exists()


@pytest.mark.parametrize("case, message", [("missing", "No such file or directory"),
                                           ("directory", "Is a directory"),
                                           ("not_utf8", "can't decode byte 0xff")])
def test_unreadable_config_is_a_config_error(tmp_path, capsys, case, message):
    # Each once a traceback with exit 1.
    config = tmp_path / "config.json"
    if case == "directory":
        config.mkdir()
    elif case == "not_utf8":
        config.write_bytes(b"\xff\xfe{}")
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {config}: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("per_input", ["0", "-3"])
def test_per_input_below_one_rejected(tmp_path, capsys, per_input):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["export-samples", "--checkpoint", str(tmp_path / "ckpt.json"),
                  "--per-input", per_input])
    assert exit_info.value.code == 2
    assert "--per-input: must be >= 1" in capsys.readouterr().err


def test_sweep_runs_each_dependency_with_its_own_seed(tmp_path):
    config = _write(tmp_path, {**TINY, "sweep": {"dependencies": ["independent", "joint"]}})
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--config", config, "--seed", "3", "--out", str(out)])
    names = ["independent-K7-eps16_255", "joint-K7-eps16_255"]
    assert sorted(p.name for p in out.iterdir()) == names
    passed = []
    for index, name in enumerate(names):
        report = json.loads((out / name / "report.json").read_text())
        assert (report["mode"], report["seed"]) == (name.split("-")[0], 3 + index)
        passed.append(json.loads((out / name / "verdict.json").read_text())["all_pass"])
    assert rc == (0 if all(passed) else 1)


@pytest.mark.parametrize("sweep", [{"modes": [2, 0]}, {"modes": ["a"]},
                                   {"epsilons": ["0"]}, {"epsilons": [-0.5]},
                                   {"modes": [3, 3]}, {"epsilons": ["1/2", "2/4"]},
                                   {"epsilons": ["1/2", 0.5]},
                                   {"dependencies": ["joint", "joint"]}])
def test_sweep_with_bad_entry_is_a_config_error(tmp_path, capsys, sweep):
    config = _write(tmp_path, {**TINY, "sweep": sweep})
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", config, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: sweep.")
    assert not out.exists()
