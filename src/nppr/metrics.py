"""Training surrogate, Monte-Carlo robustness estimators, and attack baselines.

The estimators report the probability of *retaining* the correct label:
  - nppr_estimate: under the learned perturbation distribution (exact draws)
  - pr_estimate:   under a fixed baseline distribution clipped into the ball
  - ar_pgd/ar_cw:  one attacked point per input (fraction still correct)
All indicator evaluations resolve argmax ties toward the lowest class index.

The training loss (`margin_loss`) and the CW attack's objective are one logit
margin with opposite signs, and both are the engine op `tensor.margin`. PGD
ascends the engine op `tensor.cross_entropy`, the loss the classifier is fit on.

The Monte-Carlo estimators cut their inputs into pieces of max(1, _ROWS // M)
inputs, about _ROWS (input, draw) rows (an input with more draws is a piece
of its own), and sum the pieces' hits as integers; the sample export draws
in the same pieces. The workers, the calling thread and up to `_WORKERS - 1`
threads of `_POOL` (one per usable core, at most one per piece), each take
the next piece under one lock and run it, until none is left or one failed.
One BLAS rule holds: while they run, even alone, the BLAS thread count is 1,
so that each product runs on its worker's core, and it is restored after
the last piece, also when one raises; where it cannot be set, the calling
thread runs every piece. No draw depends on the workers: NPPR spawns each
input's stream in input order, and a piece draws from its inputs' streams
(`sample_exact`) where it runs; PR draws each piece's noise from its one
generator as the piece is taken, so in piece order. Nor does the row count
of a classifier call, which can move its logits' rounding. A worker holds
one piece's draws at a time.

NPPR's head runs once over all of an estimate's inputs, since its bits
depend on how many rows its products have (see `models`), and its Cholesky
factors stay packed; each piece unpacks its own inputs' factors, so the
estimate holds the full D x D factors of one piece per worker, not of every
input. Every estimator adds a piece's inputs to its perturbations in place,
so a piece holds one (inputs, draws, width) array of perturbed rows.

The estimators record no autograd tape: each worker runs its pieces under
`tensor.no_grad()` (the flag is per thread) and classifies with
`Classifier.predict`, the classifier's `tensor.dense` forward, and
`nppr_estimate` runs the head and the upsampler there too. Only the attacks,
which need input gradients, record a tape.
"""

from __future__ import annotations

import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from . import tensor as T
from .generator import Generator
from .models import Classifier, DependencyMode
from .rng import ATTACK, substream
from .serialize import at_least, check_fields, checked, one_of, rate
from .tensor import Tensor
from .upsample import check_budget

UNIFORM_BALL = "uniform_ball"
CLIPPED_GAUSSIAN = "clipped_gaussian"

# (input, draw) rows in the one piece a worker draws, perturbs and classifies
# at a time (4 MiB per array at d=256); a piece unpacks the factors of its own
# inputs only.
_ROWS = 1 << 11

# Workers for the estimators' pieces: one per usable core, the calling thread
# among them, so the pool has one thread fewer. Its threads start with the
# first piece handed out.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
_POOL = ThreadPoolExecutor(max_workers=max(_WORKERS - 1, 1), thread_name_prefix="nppr-piece")


def margin_loss(logits: Tensor, y: np.ndarray, kappa: float = 1.0) -> Tensor:
    """softplus(h_y - max_{j!=y} h_j + kappa), averaged over all rows.

    Minimizing this drives perturbed inputs across the decision boundary;
    softplus keeps the surrogate smooth and bounded below by zero.
    """
    if logits.ndim != 2 or logits.shape[1] < 2:
        raise ValueError(f"margin_loss: need (N, C>=2) logits, got {logits.shape}")
    return T.margin(logits, y, kappa, 1)


def entropy_ratio(pi: np.ndarray, K: int) -> float:
    """Shannon entropy of mixture weights over log K, with 0 log 0 := 0."""
    if K < 2:
        raise ValueError("entropy_ratio: undefined for K < 2")
    p = np.asarray(pi, dtype=np.float64)
    if p.shape != (K,):
        raise ValueError(f"entropy_ratio: expected ({K},) weights, got {p.shape}")
    # Written so that a NaN fails it: every comparison with NaN is False.
    if not (np.all(p >= -1e-12) and abs(p.sum() - 1.0) <= 1e-9):
        raise ValueError("entropy_ratio: weights must be finite and lie on the simplex")
    nz = p[p > 0.0]
    h = -float(np.sum(nz * np.log(nz)))
    return h / float(np.log(K))


def mc_half_width(p: float, draws: int) -> float:
    """3-sigma binomial half-width for an indicator mean from `draws` samples;
    0.0 when there are none."""
    if draws <= 0:
        return 0.0
    p = min(max(p, 0.0), 1.0)
    return 3.0 * float(np.sqrt(p * (1.0 - p) / draws))


def _inputs(x: np.ndarray, y: np.ndarray, name: str):
    """`x` as (N, width) floats and `y` as its N int labels, N >= 1."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 2 or y.shape != x.shape[:1]:
        raise ValueError(f"{name}: need (N, width) inputs and N labels, got {x.shape}, {y.shape}")
    if x.shape[0] == 0:
        raise ValueError(f"{name}: empty dataset")
    return x, y


def _pieces(x: np.ndarray, y: np.ndarray, M: int, name: str):
    """Checked inputs (`_inputs`), then slices of max(1, _ROWS // M) inputs
    covering them."""
    x, y = _inputs(x, y, name)
    if M < 1:
        raise ValueError(f"{name}: M must be >= 1")
    step = max(1, _ROWS // M)
    return x, y, [slice(lo, lo + step) for lo in range(0, x.shape[0], step)]


def _hits(clf: Classifier, yb: np.ndarray, perturbed: np.ndarray, xb: np.ndarray) -> int:
    """Correct predictions on one piece's inputs `xb` under its perturbations,
    (inputs, draws, width), each draw labelled with its input's label. The
    inputs are added to the perturbations in place, so the piece holds one
    such array. `Classifier.predict` classifies the rows without a tape."""
    perturbed += xb[:, None, :]
    preds = clf.predict(perturbed.reshape(-1, perturbed.shape[-1]))
    return int(np.sum(preds.reshape(perturbed.shape[:2]) == yb[:, None]))


def _total_hits(tasks, workers: int) -> int:
    """Sum of the hit counts of `tasks`, zero-argument callables that the
    workers take from the one iterable in order, one at a time under a lock
    (a lazy iterable makes each piece's draws as it is taken), and run under
    `no_grad` outside it: the calling thread and `workers - 1` threads of
    `_POOL` at one BLAS thread, or the calling thread alone where that count
    cannot be set. Once a task or the iterable raises, no worker takes another
    task, and the exception reaches the caller once every worker stopped."""
    tasks = iter(tasks)
    lock = threading.Lock()
    failed = threading.Event()

    def take():
        with lock:
            return None if failed.is_set() else next(tasks, None)

    def work() -> int:
        total = 0
        try:
            with T.no_grad():
                while (task := take()) is not None:
                    total += task()
                    del task  # a worker holds one piece's draws, not two
            return total
        except BaseException:
            failed.set()
            raise

    if T.BLAS_THREADS is None:
        return work()
    get_threads, set_threads = T.BLAS_THREADS
    previous = get_threads()
    set_threads(1)
    try:
        helpers = [_POOL.submit(work) for _ in range(workers - 1)]
        try:
            total = work()
        finally:
            wait(helpers)
        return total + sum(f.result() for f in helpers)
    finally:
        set_threads(previous)


def _nppr_hits(clf: Classifier, generator: Generator, xb: np.ndarray, yb: np.ndarray,
               params, M: int, streams: list) -> int:
    """One NPPR piece: exact draws from the inputs' own streams, mapped to
    input space, added to their inputs and classified."""
    return _hits(clf, yb, generator.perturb_exact(params, M, streams).images.data, xb)


def nppr_estimate(clf: Classifier, generator: Generator, x: np.ndarray, y: np.ndarray,
                  M: int, rng: np.random.Generator) -> float:
    """Fraction of (input, draw) pairs classified correctly under the learned
    distribution, the head read at the generator's temperatures; exact
    sampling, hard 0-1 indicator. The head runs once over all inputs, and
    its factors stay packed; then each piece is drawn (its factors unpacked
    there), mapped to input space and classified; input i draws from the
    i-th stream `rng` spawns."""
    x, y, pieces = _pieces(x, y, M, "nppr_estimate")
    with T.no_grad():
        params = generator.gmm_params(x, y)
    streams = rng.spawn(x.shape[0])
    tasks = (partial(_nppr_hits, clf, generator, x[part], y[part], params.rows(part), M,
                     streams[part]) for part in pieces)
    return _total_hits(tasks, min(_WORKERS, len(pieces))) / (x.shape[0] * M)


def baseline_noise(dist: str, shape: tuple, gamma: float, rng: np.random.Generator) -> np.ndarray:
    """Draws of a fixed baseline: uniform on [-gamma, gamma], or normal with
    sd gamma / 3 clipped into [-gamma, gamma]."""
    if dist == UNIFORM_BALL:
        return rng.uniform(-gamma, gamma, size=shape)
    if dist == CLIPPED_GAUSSIAN:
        noise = rng.normal(0.0, gamma / 3.0, size=shape)
        return np.clip(noise, -gamma, gamma, out=noise)
    raise ValueError(f"pr_estimate: unknown distribution '{dist}'")


def pr_estimate(clf: Classifier, x: np.ndarray, y: np.ndarray, dist: str,
                gamma: float, M: int, rng: np.random.Generator) -> float:
    """Monte-Carlo retention probability under a fixed baseline distribution
    (`baseline_noise`), drawn from `rng` piece by piece."""
    check_budget(gamma, "pr_estimate")
    x, y, pieces = _pieces(x, y, M, "pr_estimate")
    # A piece's noise is drawn as a worker takes its task, so in piece order;
    # the generator keeps no name for it, so it is freed with its task.
    tasks = (partial(_hits, clf, y[part],
                     baseline_noise(dist, (len(y[part]), M, x.shape[1]), gamma, rng), x[part])
             for part in pieces)
    return _total_hits(tasks, min(_WORKERS, len(pieces))) / (x.shape[0] * M)


def _attack(clf: Classifier, x: np.ndarray, y: np.ndarray, gamma: float, steps: int,
            rng: np.random.Generator, loss, name: str) -> float:
    """Shared L-infinity sign-ascent loop for both attack baselines, with
    step size 2.5 * gamma / steps, ascending `loss` of the logits; at gamma 0
    it is the clean accuracy."""
    if steps < 1:
        raise ValueError(f"{name}: steps must be >= 1")
    x, y = _inputs(x, y, name)
    if gamma == 0.0:
        return clf.accuracy(x, y)
    check_budget(gamma, name)
    alpha = 2.5 * gamma / steps

    delta = rng.uniform(-gamma, gamma, size=x.shape)
    for _ in range(steps):
        adv = Tensor(x + delta, requires_grad=True)
        loss(clf.logits(adv)).backward()
        delta = np.clip(delta + alpha * np.sign(adv.grad), -gamma, gamma)
    return _hits(clf, y, delta[:, None, :], x) / len(x)


def ar_pgd(clf: Classifier, x: np.ndarray, y: np.ndarray, gamma: float,
           steps: int = 20, rng: np.random.Generator | None = None) -> float:
    """Fraction still correct after L-infinity PGD with random start and
    sign-gradient ascent on cross-entropy."""
    rng = rng if rng is not None else substream(0, ATTACK, 0)
    return _attack(clf, x, y, gamma, steps, rng, lambda h: T.cross_entropy(h, y), "ar_pgd")


def ar_cw(clf: Classifier, x: np.ndarray, y: np.ndarray, gamma: float,
          steps: int = 20, kappa: float = 1.0,
          rng: np.random.Generator | None = None) -> float:
    """Same loop as ar_pgd but ascending the logit-margin objective."""
    rng = rng if rng is not None else substream(0, ATTACK, 1)
    return _attack(clf, x, y, gamma, steps, rng, lambda h: T.margin(h, y, kappa, -1), "ar_cw")


@dataclass
class RobustnessReport:
    """Final metrics for one trained generator on one model/dataset/budget."""
    nppr_test: float = checked(check=rate, kind=float)
    nppr_train: float = checked(check=rate, kind=float)
    pr_gaussian: float = checked(check=rate, kind=float)
    pr_uniform: float = checked(check=rate, kind=float)
    ar_pgd: float = checked(check=rate, kind=float)
    ar_cw: float = checked(check=rate, kind=float)
    entropy_ratio: float = checked(check=rate, kind=float)
    pi_max: float = checked(kind=float)
    pi_min: float = checked(kind=float)
    pi_std: float = checked(kind=float)
    clean_accuracy: float = checked(check=rate, kind=float)
    # Experiment key + draw counts for half-width bookkeeping.
    model_key: str = ""
    dataset_key: str = ""
    mode: str = checked("", one_of({""} | {m.value for m in DependencyMode}))
    gamma: float = checked(0.0, at_least(0))
    mixture_components: int = checked(0, at_least(0))
    seed: int = checked(0, at_least(0))
    nppr_draws: int = checked(0, at_least(0))
    pr_draws: int = checked(0, at_least(0))
    ar_points: int = checked(0, at_least(0))

    def __post_init__(self):
        check_fields(self)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, doc: dict) -> "RobustnessReport":
        return cls(**doc)

    def summary_lines(self) -> list[str]:
        """Human-readable percentages, two decimals."""
        pct = lambda v: f"{100.0 * v:.2f}"
        return [
            f"clean accuracy      {pct(self.clean_accuracy)}",
            f"NPPR (test)         {pct(self.nppr_test)}",
            f"NPPR (train)        {pct(self.nppr_train)}",
            f"PR uniform          {pct(self.pr_uniform)}",
            f"PR clipped gaussian {pct(self.pr_gaussian)}",
            f"AR PGD              {pct(self.ar_pgd)}",
            f"AR CW               {pct(self.ar_cw)}",
            f"entropy ratio       {self.entropy_ratio:.4f}",
            f"pi max/min/std      {pct(self.pi_max)} / {pct(self.pi_min)} / {pct(self.pi_std)}",
        ]


def mixture_statistics(pi_rows: np.ndarray) -> dict:
    """Per-row weight statistics averaged over the batch: max, min, std of the
    weight vector plus the mean entropy ratio, which reads NaN when any row is
    not finite."""
    pi_rows = np.atleast_2d(pi_rows)
    K = pi_rows.shape[1]
    if K < 2:
        ers = [0.0]
    elif not np.all(np.isfinite(pi_rows)):
        ers = [float("nan")]
    else:
        ers = [entropy_ratio(row, K) for row in pi_rows]
    return {
        "pi_max": float(pi_rows.max(axis=1).mean()),
        "pi_min": float(pi_rows.min(axis=1).mean()),
        "pi_std": float(pi_rows.std(axis=1).mean()),
        "entropy_ratio": float(np.mean(ers)),
    }
