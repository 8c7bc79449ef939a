"""The `nppr` command line, end to end on a tiny config."""

import json

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


def test_evaluate_reproduces_train_report(tmp_path):
    config = _write(tmp_path, TINY)
    run, again = tmp_path / "run", tmp_path / "again"
    assert cli.main(["train", "--config", config, "--seed", "3", "--out", str(run)]) == 0
    assert cli.main(["evaluate", "--config", config, "--seed", "3", "--out", str(again),
                     "--checkpoint", str(run / "ckpt_latest.json")]) == 0
    assert (again / "report.json").read_bytes() == (run / "report.json").read_bytes()
    assert cli.main(["verify", str(again / "report.json")]) == 0


@pytest.mark.parametrize("sweep", [{"modes": [2, 0]}, {"modes": ["a"]},
                                   {"epsilons": ["0"]}, {"epsilons": [-0.5]}])
def test_sweep_with_bad_entry_is_a_config_error(tmp_path, capsys, sweep):
    config = _write(tmp_path, {**TINY, "sweep": sweep})
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", config, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: sweep.")
    assert not out.exists()
