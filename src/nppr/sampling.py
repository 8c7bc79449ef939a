"""Differentiable and exact sampling from the learned mixture.

Training uses the Gumbel-softmax relaxation so gradients reach the mixture
weights; every reported metric uses the exact categorical sampler instead, so
no relaxation bias enters the numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .models import GmmParams
from .tensor import Tensor

GUMBEL_FLOOR = 1e-12
# Draw rows per stacked product in sample_exact: inputs are taken
# max(1, _STACKED_ROWS // M) at a time.
_STACKED_ROWS = 1 << 12


@dataclass
class GumbelConfig:
    """Relaxation temperature and its schedule."""
    tau_init: float = 1.0
    tau_final: float = 0.1
    anneal: bool = True

    def __post_init__(self):
        if not (self.tau_init >= self.tau_final > 0):
            raise ValueError("gumbel: need tau_init >= tau_final > 0")


@dataclass
class AnnealSchedule:
    """Per-group temperature divisors, each interpolated (init -> final).

    warmup_epochs == 0 spreads the interpolation over the whole run;
    otherwise values clamp at their final level once the window ends.
    """
    T_pi: tuple = (3.0, 1.0)
    T_mu: tuple = (3.0, 1.0)
    T_sigma: tuple = (1.5, 1.0)
    T_shared: tuple = (1.5, 1.0)
    warmup_epochs: int = 0

    def __post_init__(self):
        for name in ("T_pi", "T_mu", "T_sigma", "T_shared"):
            pair = tuple(float(v) for v in getattr(self, name))
            if len(pair) != 2 or not all(0 < v < np.inf for v in pair):
                raise ValueError(f"anneal: {name} must be a positive (init, final) pair")
            setattr(self, name, pair)


def _interp(init: float, final: float, epoch: int, window: int) -> float:
    if window <= 1:
        return float(final)
    t = min(epoch, window - 1) / (window - 1)
    return float(init + t * (final - init))


def anneal_value(pair: tuple, epoch: int, total_epochs: int, warmup_epochs: int = 0) -> float:
    """Linear interpolation from pair[0] to pair[1]; epoch 0 gives the initial
    value, the end of the window (warmup if set, else the full run) the final."""
    if not (0 <= epoch < total_epochs):
        raise ValueError(f"anneal_value: epoch {epoch} outside [0, {total_epochs})")
    window = warmup_epochs if warmup_epochs > 0 else total_epochs
    return _interp(pair[0], pair[1], epoch, window)


def gumbel_tau(cfg: GumbelConfig, epoch: int, total_epochs: int) -> float:
    if not cfg.anneal:
        return cfg.tau_init
    return anneal_value((cfg.tau_init, cfg.tau_final), epoch, total_epochs)


@dataclass
class PerturbationBatch:
    """M latent draws per input plus (optionally) their input-space images."""
    latent: Tensor            # (B, M, D)
    relaxed_weights: Tensor   # (B, M, K); exact draws store one-hot rows
    component_draws: np.ndarray  # standard-normal noise: (B, M, K, D) relaxed,
                                 # (B, M, D) exact (for the drawn component only)
    images: Tensor | None = None  # (B, M, input_dim), inside the budget

    @property
    def batch(self) -> int:
        return self.latent.shape[0]

    @property
    def samples_per_input(self) -> int:
        return self.latent.shape[1]


def gumbel_noise(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Gumbel(0,1) via -log(-log U), with U floored away from zero."""
    u = np.maximum(rng.random(shape), GUMBEL_FLOOR)
    return -np.log(-np.log(u))


def gumbel_softmax_sample(pi_logits: Tensor, tau: float, rng: np.random.Generator) -> Tensor:
    """Relaxed one-hot draws: softmax((log softmax(pi_logits) + g) / tau).

    One Gumbel vector is drawn per row of `pi_logits` (last axis = components);
    the result is differentiable w.r.t. the logits.
    """
    if tau <= 0:
        raise ValueError("gumbel_softmax_sample: tau must be > 0")
    if not np.all(np.isfinite(pi_logits.data)):
        raise ValueError("gumbel_softmax_sample: logits must be finite")
    g = T.constant(gumbel_noise(rng, pi_logits.shape))
    log_pi = T.log_softmax(pi_logits, axis=-1)
    return T.softmax(T.scale(T.add(log_pi, g), 1.0 / tau), axis=-1)


def sample_perturbations(params: GmmParams, M: int, tau: float,
                         rng: np.random.Generator) -> PerturbationBatch:
    """Draw M relaxed latent perturbations per input.

    latent = sum_k z_k mu_k + sum_k z_k (L_k xi_k) with relaxed weights z,
    keeping a differentiable path to weights, means and factors.
    """
    if M < 1:
        raise ValueError("sample_perturbations: M must be >= 1")
    B, K, D = params.batch, params.K, params.latent_dim
    pi_b = T.broadcast_to(T.reshape(params.pi_logits, (B, 1, K)), (B, M, K))
    z = gumbel_softmax_sample(pi_b, tau, rng)                     # (B, M, K)

    xi = rng.standard_normal((B, M, K, D))
    lx = T.chol_apply(params.chol, xi)                            # L_k xi_k
    mu_b = T.reshape(params.means, (B, 1, K, D))
    comp = T.add(mu_b, lx)                                        # (B, M, K, D)
    z_col = T.reshape(z, (B, M, K, 1))
    latent = T.reduce_sum(T.mul(z_col, comp), axis=2)             # (B, M, D)
    return PerturbationBatch(latent=latent, relaxed_weights=z, component_draws=xi)


def categorical_exact(pi: np.ndarray, rng: np.random.Generator, size: tuple) -> np.ndarray:
    """Exact categorical draws per row of `pi` via inverse CDF.

    The draw is the number of cumulative masses below u, the index a
    left-sided search would return, so at an exact cumulative-mass boundary the
    lower component index wins. The last mass is set to 1 > u, so no draw
    passes component K - 1.
    """
    B, K = pi.shape
    cum = np.cumsum(pi, axis=1)
    cum[:, -1] = 1.0  # guard against round-off excluding the last bin
    u = rng.random((B, *size))
    z = np.zeros((B, *size), dtype=np.int64)
    cum = cum.reshape(B, *(1,) * len(size), K)
    for k in range(K - 1):
        z += cum[..., k] < u
    return z


def sample_exact(params: GmmParams, M: int, rng: np.random.Generator) -> PerturbationBatch:
    """Exact (non-relaxed) draws used by every evaluation-time estimator.

    latent = mu_z + L_z xi for the drawn component z. L_z xi comes from one
    matrix product per input: its (M, D) noise against all K of its factors
    stacked side by side, a (D, K*D) matrix; each draw then keeps the D columns
    of its own component. Inputs are taken max(1, _STACKED_ROWS // M) at a
    time, so a product's temporary is at most max(M, _STACKED_ROWS) rows of
    K*D floats. The means and each draw's columns are picked with `np.take` on
    a flat row index (component z of input b is row b*K + z), which copies
    the same floats as a two-array index at a fraction of its cost.
    """
    if M < 1:
        raise ValueError("sample_exact: M must be >= 1")
    bad = params.non_finite()
    if bad is not None:
        raise ValueError(f"sample_exact: {bad} must be finite")
    B, K, D = params.batch, params.K, params.latent_dim
    pi = params.pi()
    z = categorical_exact(pi, rng, (M,))                          # (B, M)
    xi = rng.standard_normal((B, M, D))

    means = params.means.data.reshape(B * K, D)
    latent = np.take(means, np.arange(B)[:, None] * K + z, axis=0)  # (B, M, D)
    # Row (b*M + m)*K + z of a (B*M*K, ...) array belongs to draw m of input b.
    drawn = np.arange(B * M).reshape(B, M) * K + z
    # Column k*D + d of stacked[b] is row d of L_k, so (xi @ stacked[b])
    # holds L_k xi for every k side by side.
    stacked = np.swapaxes(params.chol.data.reshape(B, K * D, D), 1, 2)  # (B, D, K*D)
    step = max(1, _STACKED_ROWS // M)
    for lo in range(0, B, step):
        part = slice(lo, lo + step)
        every = (xi[part] @ stacked[part]).reshape(-1, D)               # (n*K, D)
        latent[part] += np.take(every, drawn[part] - lo * M * K, axis=0)

    onehot = np.zeros((B, M, K))
    onehot.reshape(-1)[drawn.ravel()] = 1.0
    return PerturbationBatch(latent=T.constant(latent),
                             relaxed_weights=T.constant(onehot),
                             component_draws=xi)
