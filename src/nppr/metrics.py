"""Training surrogate, Monte-Carlo robustness estimators, and attack baselines.

The estimators report the probability of *retaining* the correct label:
  - nppr_estimate: under the learned perturbation distribution (exact draws)
  - pr_estimate:   under a fixed baseline distribution clipped into the ball
  - ar_pgd/ar_cw:  one attacked point per input (fraction still correct)
All indicator evaluations resolve argmax ties toward the lowest class index.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .generator import Generator
from .models import Classifier, Temperatures, cross_entropy
from .rng import ATTACK, substream
from .tensor import Tensor

UNIFORM_BALL = "uniform_ball"
CLIPPED_GAUSSIAN = "clipped_gaussian"

# Inputs per forward chunk when expanding B x M Monte-Carlo samples.
_CHUNK = 1 << 16
# Rows the estimators perturb and classify at a time: 8 MiB per array at
# d=256, where a whole block of up to _CHUNK rows took 128 MiB per array, and
# several at once. The draws are still made per block, so the estimates do
# not depend on _ROWS.
_ROWS = 1 << 12


def margin_loss(logits: Tensor, y: np.ndarray, kappa: float = 1.0) -> Tensor:
    """softplus(h_y - max_{j!=y} h_j + kappa), averaged over all rows.

    Minimizing this drives perturbed inputs across the decision boundary;
    softplus keeps the surrogate smooth and bounded below by zero.
    """
    if logits.ndim != 2 or logits.shape[1] < 2:
        raise ValueError(f"margin_loss: need (N, C>=2) logits, got {logits.shape}")
    y = np.asarray(y, dtype=np.int64)
    true_logit = T.gather_row(logits, y)
    mask = np.zeros(logits.shape)
    mask[np.arange(logits.shape[0]), y] = -1e30
    runner_up = T.row_max(T.add(logits, T.constant(mask)), axis=-1)
    gap = T.add(T.sub(true_logit, runner_up), T.constant(float(kappa)))
    return T.reduce_mean(T.softplus(gap))


def entropy_ratio(pi: np.ndarray, K: int) -> float:
    """Shannon entropy of mixture weights over log K, with 0 log 0 := 0."""
    if K < 2:
        raise ValueError("entropy_ratio: undefined for K < 2")
    p = np.asarray(pi, dtype=np.float64)
    if p.shape != (K,):
        raise ValueError(f"entropy_ratio: expected ({K},) weights, got {p.shape}")
    if np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("entropy_ratio: weights must lie on the simplex")
    nz = p[p > 0.0]
    h = -float(np.sum(nz * np.log(nz)))
    return h / float(np.log(K))


def mc_half_width(p: float, draws: int) -> float:
    """3-sigma binomial half-width for an indicator mean from `draws` samples."""
    p = min(max(p, 0.0), 1.0)
    return 3.0 * float(np.sqrt(p * (1.0 - p) / max(draws, 1)))


def _hits(clf: Classifier, xb: np.ndarray, yb: np.ndarray, draws: np.ndarray,
          to_input=None) -> int:
    """Correct predictions on the (input, draw) rows of a block, classified
    _ROWS rows at a time: row r perturbs input r // M by draws[r], mapped to
    input space by `to_input` (a Tensor -> Tensor map) when it is given."""
    M = len(draws) // len(xb)
    hits = 0
    for lo in range(0, len(draws), _ROWS):
        delta = draws[lo:lo + _ROWS]
        if to_input is not None:
            delta = to_input(T.constant(delta)).data
        owner = np.arange(lo, lo + len(delta)) // M
        hits += int(np.sum(clf.predict(xb[owner] + delta) == yb[owner]))
    return hits


def nppr_estimate(clf: Classifier, generator: Generator, x: np.ndarray, y: np.ndarray,
                  M: int, rng: np.random.Generator,
                  temps: Temperatures | None = None) -> float:
    """Fraction of (input, draw) pairs classified correctly under the learned
    distribution; exact sampling, hard 0-1 indicator."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.shape[0] == 0:
        raise ValueError("nppr_estimate: empty dataset")
    if M < 1:
        raise ValueError("nppr_estimate: M must be >= 1")
    block = max(1, _CHUNK // M)
    hits = 0
    for start in range(0, x.shape[0], block):
        xb, yb = x[start:start + block], y[start:start + block]
        params = generator.gmm_params(xb, yb, temps=temps)
        hits += _hits(clf, xb, yb, generator.exact_draws(params, M, rng),
                      to_input=generator.images)
    return hits / (x.shape[0] * M)


def baseline_noise(dist: str, shape: tuple, gamma: float, rng: np.random.Generator,
                   sigma: float | None = None) -> np.ndarray:
    if dist == UNIFORM_BALL:
        return rng.uniform(-gamma, gamma, size=shape)
    if dist == CLIPPED_GAUSSIAN:
        s = gamma / 3.0 if sigma is None else sigma
        return np.clip(rng.normal(0.0, s, size=shape), -gamma, gamma)
    raise ValueError(f"pr_estimate: unknown distribution '{dist}'")


def pr_estimate(clf: Classifier, x: np.ndarray, y: np.ndarray, dist: str,
                gamma: float, M: int, rng: np.random.Generator,
                sigma: float | None = None) -> float:
    """Monte-Carlo retention probability under a fixed baseline distribution."""
    if gamma <= 0:
        raise ValueError("pr_estimate: gamma must be > 0")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.shape[0] == 0:
        raise ValueError("pr_estimate: empty dataset")
    if M < 1:
        raise ValueError("pr_estimate: M must be >= 1")
    block = max(1, _CHUNK // M)
    hits = 0
    for start in range(0, x.shape[0], block):
        xb, yb = x[start:start + block], y[start:start + block]
        noise = baseline_noise(dist, (len(xb), M, x.shape[1]), gamma, rng, sigma)
        hits += _hits(clf, xb, yb, noise.reshape(-1, x.shape[1]))
    return hits / (x.shape[0] * M)


def _attack(clf: Classifier, x: np.ndarray, y: np.ndarray, gamma: float, steps: int,
            step_size: float | None, rng: np.random.Generator, objective: str,
            kappa: float = 1.0) -> float:
    """Shared L-infinity sign-ascent loop for both attack baselines."""
    if steps < 1:
        raise ValueError("attack: steps must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if gamma == 0.0:
        return clf.accuracy(x, y)
    alpha = 2.5 * gamma / steps if step_size is None else step_size

    delta = rng.uniform(-gamma, gamma, size=x.shape)
    for _ in range(steps):
        adv = Tensor(x + delta, requires_grad=True)
        logits = clf.logits(adv)
        if objective == "cross_entropy":
            loss = cross_entropy(logits, y)
        else:  # margin: push the runner-up above the true class
            mask = np.zeros(logits.shape)
            mask[np.arange(len(y)), y] = -1e30
            runner_up = T.row_max(T.add(logits, T.constant(mask)), axis=-1)
            gap = T.add(T.sub(runner_up, T.gather_row(logits, y)), T.constant(kappa))
            loss = T.reduce_mean(T.softplus(gap))
        loss.backward()
        delta = np.clip(delta + alpha * np.sign(adv.grad), -gamma, gamma)
    return _hits(clf, x, y, delta) / len(x)


def ar_pgd(clf: Classifier, x: np.ndarray, y: np.ndarray, gamma: float,
           steps: int = 20, step_size: float | None = None,
           rng: np.random.Generator | None = None) -> float:
    """Fraction still correct after L-infinity PGD with random start and
    sign-gradient ascent on cross-entropy."""
    rng = rng if rng is not None else substream(0, ATTACK, 0)
    return _attack(clf, x, y, gamma, steps, step_size, rng, "cross_entropy")


def ar_cw(clf: Classifier, x: np.ndarray, y: np.ndarray, gamma: float,
          steps: int = 20, step_size: float | None = None, kappa: float = 1.0,
          rng: np.random.Generator | None = None) -> float:
    """Same loop as ar_pgd but ascending the logit-margin objective."""
    rng = rng if rng is not None else substream(0, ATTACK, 1)
    return _attack(clf, x, y, gamma, steps, step_size, rng, "margin", kappa)


@dataclass
class RobustnessReport:
    """Final metrics for one trained generator on one model/dataset/budget."""
    nppr_test: float
    nppr_train: float
    pr_gaussian: float
    pr_uniform: float
    ar_pgd: float
    ar_cw: float
    entropy_ratio: float
    pi_max: float
    pi_min: float
    pi_std: float
    clean_accuracy: float
    # Experiment key + draw counts for half-width bookkeeping.
    model_key: str = ""
    dataset_key: str = ""
    mode: str = ""
    gamma: float = 0.0
    mixture_components: int = 0
    seed: int = 0
    nppr_draws: int = 0
    pr_draws: int = 0
    ar_points: int = 0

    def __post_init__(self):
        for name in ("nppr_test", "nppr_train", "pr_gaussian", "pr_uniform",
                     "ar_pgd", "ar_cw", "entropy_ratio", "clean_accuracy"):
            v = getattr(self, name)
            if not (-1e-9 <= v <= 1.0 + 1e-9):
                raise ValueError(f"report: {name}={v} outside [0, 1]")

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
    weight vector plus the mean entropy ratio."""
    pi_rows = np.atleast_2d(pi_rows)
    K = pi_rows.shape[1]
    ers = [entropy_ratio(row, K) for row in pi_rows] if K >= 2 else [0.0]
    return {
        "pi_max": float(pi_rows.max(axis=1).mean()),
        "pi_min": float(pi_rows.min(axis=1).mean()),
        "pi_std": float(pi_rows.std(axis=1).mean()),
        "entropy_ratio": float(np.mean(ers)),
    }
