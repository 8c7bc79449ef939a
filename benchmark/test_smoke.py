"""Smoke test of the benchmark itself; not part of tier-1.

Run from the repository root:  python3 -m pytest benchmark/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from nppr.metrics import RobustnessReport  # noqa: E402
from workloads import WORKLOADS, check_report  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# The per-layer metrics the benchmark promises; BENCHMARK.json must list them all.
PROMISED = [
    "experiment.dataset_s", "experiment.classifier_s", "experiment.train_s",
    "experiment.train_self_s", "experiment.evaluate_s",
    "models.head_forward_s", "models.head_forward_calls", "models.clf_logits_s", "models.clf_rows",
    "sampling.relaxed_s", "sampling.relaxed_calls",
    "sampling.exact_s", "sampling.exact_calls", "sampling.exact_mb",
    "upsample.forward_s", "upsample.rows", "upsample.budget_s",
    "tensor.backward_s", "tensor.backward_calls", "tensor.backward_ms.p50",
    "tensor.backward_ms.p90", "tensor.log_clamped", "tensor.sqrt_clamped",
    "optim.skipped_steps", "optim.step_s", "optim.steps",
    "trainer.probe_s", "trainer.epochs", "trainer.epochs_aborted", "trainer.samples_per_s",
    "serialize.save_s", "serialize.saves", "serialize.bytes_written",
    "serialize.load_s", "serialize.loads",
    "metrics.nppr_s", "metrics.pr_s", "metrics.attack_s", "metrics.margin_loss_s",
    "metrics.draws_per_s", "bench.trace_overhead_s",
]


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_lists_every_promised_metric():
    names = {m["name"] for m in SPEC["per_layer"]}
    assert not set(PROMISED) - names
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end" if trace == 0 else "per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def _report(**fields) -> RobustnessReport:
    base = RobustnessReport(
        nppr_test=0.9, nppr_train=0.9, pr_gaussian=0.98, pr_uniform=0.95, ar_pgd=0.5,
        ar_cw=0.5, entropy_ratio=0.7, pi_max=0.4, pi_min=0.05, pi_std=0.1,
        clean_accuracy=1.0, mode="joint", gamma=1.0, nppr_draws=100_000,
        pr_draws=100_000, ar_points=200)
    return replace(base, **fields)


def test_gate_passes_an_ordered_report():
    assert check_report(_report().to_json(), interior=True) == []


def test_gate_fires_when_nppr_exceeds_pr_uniform():
    problems = check_report(_report(pr_uniform=0.5).to_json(), interior=False)
    assert any("nppr<=pr_uniform" in p for p in problems)


def test_gate_fires_on_a_vacuous_verdict():
    vacuous = _report(nppr_test=1.0, pr_uniform=1.0, pr_gaussian=1.0)
    assert check_report(vacuous.to_json(), interior=False) == []
    assert check_report(vacuous.to_json(), interior=True)


def test_missing_sources_exit_nonzero():
    bare = ROOT / ".bench_out" / "no-sources"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "benchmark/run.py", "--workload", "desk-joint", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120, check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
