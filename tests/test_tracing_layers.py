"""The traced benchmark wraps package attributes by name; a rename, a change
of `sample_exact`'s result or a layer the package no longer calls must fail
here, not only in a benchmark run.

`benchmark/tracing.py` and `benchmark/workloads.py` are imported read-only;
only the reachability test installs the tracer, and it uninstalls it again.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from nppr.models import DependencyMode, GmmHead, HeadConfig
from nppr.sampling import sample_exact

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCHMARK / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


def test_every_layer_target_exists(tracing):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracing.LAYERS if attr not in vars(owner)]
    assert missing == []


def test_exact_bytes_counts_a_sample_exact_result(tracing):
    head = GmmHead(HeadConfig(mode=DependencyMode.INDEPENDENT, K=3, latent_dim=4))
    batch = sample_exact(head.forward(batch_size=5), 6, np.random.default_rng(0).spawn(5))
    counted = tracing._exact_bytes(batch)["bytes"]
    assert counted == batch.latent.data.nbytes + batch.relaxed_weights.data.nbytes \
        + batch.component_draws.nbytes
    assert counted > 0


def test_every_span_is_reached(tracing, tmp_path):
    # A training call reaches every span but `serialize.load`; the evaluate
    # call restores a checkpoint and covers it.
    workloads = _load("workloads")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name in ("desk-joint", "evaluate-wide"):
            workload = workloads.WORKLOADS[name]
            state = workloads.set_up(workload, 1, tmp_path / name, tiny=True)
            workloads.call(workload, state, tmp_path / name / "run")
    finally:
        tracer.uninstall()
    assert set(tracing.SPAN_NAMES) - {s["name"] for s in tracer.spans} == set()
