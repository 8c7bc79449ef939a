"""Differentiable and exact sampling from the learned mixture.

Training uses the Gumbel-softmax relaxation so gradients reach the mixture
weights; every reported metric uses the exact categorical sampler instead, so
no relaxation bias enters the numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .models import GmmParams, Temperatures
from .serialize import check_fields, checked, positive, value_error
from .tensor import Tensor

GUMBEL_FLOOR = 1e-12


@dataclass
class GumbelConfig:
    """Relaxation temperature, annealed linearly from tau_init to tau_final
    over the run; equal ends give a constant tau."""
    tau_init: float = checked(1.0, positive)
    tau_final: float = checked(0.1, positive)

    def __post_init__(self):
        check_fields(self)
        if self.tau_init < self.tau_final:
            raise ValueError("tau_init must be >= tau_final")


def _positive_pair(value):
    if len(value) != 2:
        return "must be an (init, final) pair"
    if not all(value_error(v, float, positive) is None for v in value):
        return "must be a positive (init, final) pair"


@dataclass
class AnnealSchedule:
    """Per-group temperature divisors, each interpolated (init -> final) over
    the whole run."""
    T_pi: tuple = checked((3.0, 1.0), _positive_pair)
    T_mu: tuple = checked((3.0, 1.0), _positive_pair)
    T_sigma: tuple = checked((1.5, 1.0), _positive_pair)
    T_shared: tuple = checked((1.5, 1.0), _positive_pair)

    def __post_init__(self):
        check_fields(self)
        for name in ("T_pi", "T_mu", "T_sigma", "T_shared"):
            setattr(self, name, tuple(float(v) for v in getattr(self, name)))

    def at(self, epoch: int, total_epochs: int) -> Temperatures:
        """The four divisors of `epoch` in a run of `total_epochs` epochs."""
        return Temperatures(*(anneal_value(getattr(self, f.name), epoch, total_epochs)
                              for f in fields(Temperatures)))


def anneal_value(pair: tuple, epoch: int, total_epochs: int) -> float:
    """Linear interpolation from pair[0] at epoch 0 to pair[1] at the last
    epoch; a one-epoch run reads the final value."""
    if not (0 <= epoch < total_epochs):
        raise ValueError(f"anneal_value: epoch {epoch} outside [0, {total_epochs})")
    if total_epochs == 1:
        return float(pair[1])
    t = epoch / (total_epochs - 1)
    return float(pair[0] + t * (pair[1] - pair[0]))


@dataclass
class PerturbationBatch:
    """M latent draws per input plus (optionally) their input-space images."""
    latent: Tensor            # (B, M, D)
    relaxed_weights: Tensor   # (B, M, K); exact draws store one-hot rows
    component_draws: np.ndarray  # standard-normal noise: (B, M, K, D) relaxed, one per k,
                                 # (B, M, D) exact (for the drawn component only)
    images: Tensor | None = None  # (B, M, input_dim): perturbations inside the budget,
                                  # or the inputs plus them (`Generator.images`'s base)


def gumbel_noise(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Gumbel(0,1) via -log(-log U), with U floored away from zero."""
    u = np.maximum(rng.random(shape), GUMBEL_FLOOR)
    return -np.log(-np.log(u))


def gumbel_softmax_sample(pi_logits: Tensor, tau: float, rng: np.random.Generator) -> Tensor:
    """Relaxed one-hot draws: softmax((log softmax(pi_logits) + g) / tau).

    One Gumbel vector is drawn per row of `pi_logits` (last axis = components)
    and fed to the engine op `tensor.gumbel_softmax`, differentiable in the logits.
    """
    if tau <= 0:
        raise ValueError("gumbel_softmax_sample: tau must be > 0")
    if not np.all(np.isfinite(pi_logits.data)):
        raise ValueError("gumbel_softmax_sample: logits must be finite")
    return T.gumbel_softmax(pi_logits, gumbel_noise(rng, pi_logits.shape), tau)


def sample_perturbations(params: GmmParams, M: int, tau: float,
                         rng: np.random.Generator) -> PerturbationBatch:
    """Draw M relaxed latent perturbations per input.

    The Gumbel uniforms come first, then xi_k for every draw and component.
    latent = sum_k z_k (mu_k + L_k xi_k), with relaxed weights z, is one
    `tensor.mixture_latent` op on the factors `tensor.tril_scatter` unpacks,
    differentiable in weights, means and the packed factors.
    """
    if M < 1:
        raise ValueError("sample_perturbations: M must be >= 1")
    B, K, D = params.batch, params.K, params.latent_dim
    pi_b = T.broadcast_to(T.reshape(params.pi_logits, (B, 1, K)), (B, M, K))
    z = gumbel_softmax_sample(pi_b, tau, rng)                     # (B, M, K)
    xi = rng.standard_normal((B, M, K, D))
    chol = T.tril_scatter(params.chol_packed, D)                  # (B, K, D, D)
    latent = T.mixture_latent(z, params.means, chol, xi)          # (B, M, D)
    return PerturbationBatch(latent=latent, relaxed_weights=z, component_draws=xi)


def categorical_exact(pi: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Exact categorical draws per row of `pi` (B, K) by inverse CDF of `u` (B, ...).

    The draw is the number of cumulative masses below u, the index a
    left-sided search would return, so at an exact cumulative-mass boundary the
    lower component index wins. The last mass is set to 1 > u, so no draw
    passes component K - 1.
    """
    B, K = pi.shape
    cum = np.cumsum(pi, axis=1)
    cum[:, -1] = 1.0  # guard against round-off excluding the last bin
    z = np.zeros(u.shape, dtype=np.int64)
    cum = cum.reshape(B, *(1,) * (u.ndim - 1), K)
    for k in range(K - 1):
        z += cum[..., k] < u
    return z


def sample_exact(params: GmmParams, M: int, streams: list) -> PerturbationBatch:
    """Exact (non-relaxed) draws used by every evaluation-time estimator.

    Input b draws its M uniforms, then its (M, D) normals, from `streams[b]`,
    its own generator. The estimators spawn them from one generator in input
    order (`rng.spawn(B)`, whose count carries on across calls), so under
    `substream(seed, *path)` the i-th input draws from `substream(seed, *path,
    i)` however the inputs are cut into calls, and whichever thread draws.

    latent = mu_z + L_z xi for the drawn component z. The packed factors of
    these B inputs are unpacked here (`tensor.tril_scatter`), so a caller that
    cuts its inputs into pieces holds the full (B, K, D, D) factors of one
    piece at a time. L_z xi comes from one product per input: its (M, D)
    noise against its K factors side by side, (D, K*D), of which each draw
    keeps the D columns of its component. Its temporary is M*K*D floats, one
    input's at a time. The picks use `np.take` on a flat row index (component
    z of input b is row b*K + z): the floats of a two-array index at a
    fraction of its cost.
    """
    if M < 1:
        raise ValueError("sample_exact: M must be >= 1")
    bad = params.non_finite()
    if bad is not None:
        raise ValueError(f"sample_exact: {bad} must be finite")
    B, K, D = params.batch, params.K, params.latent_dim
    if len(streams) != B:
        raise ValueError(f"sample_exact: {len(streams)} streams for {B} inputs")
    u = np.empty((B, M))
    xi = np.empty((B, M, D))
    for b, stream in enumerate(streams):
        stream.random(out=u[b])
        stream.standard_normal(out=xi[b])
    z = categorical_exact(params.pi(), u)                          # (B, M)

    means = params.means.data.reshape(B * K, D)
    latent = np.take(means, np.arange(B)[:, None] * K + z, axis=0)  # (B, M, D)
    # Row m*K + z of input b's (M*K, D) product belongs to its draw m.
    picks = np.arange(M) * K + z                                    # (B, M)
    # Column k*D + d of stacked[b] is row d of L_k, so (xi[b] @ stacked[b])
    # holds L_k xi for every k side by side.
    chol = T.tril_scatter(params.chol_packed, D).data                   # (B, K, D, D)
    stacked = np.swapaxes(chol.reshape(B, K * D, D), 1, 2)              # (B, D, K*D)
    for b in range(B):
        latent[b] += np.take((xi[b] @ stacked[b]).reshape(-1, D), picks[b], axis=0)

    onehot = np.zeros((B, M, K))
    np.put_along_axis(onehot.reshape(B, M * K), picks, 1.0, axis=1)
    return PerturbationBatch(latent=T.constant(latent),
                             relaxed_weights=T.constant(onehot),
                             component_draws=xi)
