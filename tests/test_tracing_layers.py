"""The traced benchmark wraps package attributes by name; a rename or a change
of `sample_exact`'s result must fail here, not only in a benchmark run.

`benchmark/tracing.py` is imported read-only: nothing is installed or wrapped.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from nppr.models import DependencyMode, GmmHead, HeadConfig
from nppr.sampling import sample_exact

TRACING = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_target_exists(tracing):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracing.LAYERS if attr not in vars(owner)]
    assert missing == []


def test_exact_bytes_counts_a_sample_exact_result(tracing):
    head = GmmHead(HeadConfig(mode=DependencyMode.INDEPENDENT, K=3, latent_dim=4))
    batch = sample_exact(head.forward(batch_size=5), 6, np.random.default_rng(0))
    counted = tracing._exact_bytes(batch)["bytes"]
    assert counted == batch.latent.data.nbytes + batch.relaxed_weights.data.nbytes \
        + batch.component_draws.nbytes
    assert counted > 0
