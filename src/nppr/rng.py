"""Deterministic random-stream derivation.

Every source of randomness in a run is a substream keyed by the run seed plus
a small integer path (purpose code, epoch, batch index, ...). Substreams are
independent of execution order, which is what makes checkpoint-resume replay
possible. The estimators draw input i under `substream(seed, *path)` from
`substream(seed, *path, i)` (its i-th spawned child, which
`sampling.sample_exact` takes), so no estimate depends on how it tiles inputs.
"""

from __future__ import annotations

import numpy as np

# Purpose codes for substream paths; values are arbitrary but frozen.
CLASSIFIER = 1
GENERATOR_INIT = 2
SHUFFLE = 3
GUMBEL = 4
PROBE = 6
EVAL = 7
ATTACK = 8
DATASET = 9


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream at `path` under `seed`."""
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.PCG64(ss))
