"""Latent-to-input-space mapping and the hard perturbation budget.

Image-mode latents pass through a linear premap, always trained, and then
bicubic interpolation (Catmull-Rom kernel) up to the input grid: with fixed
taps that is linear, one constant factor per channel, the Kronecker product of
the two axes' weight matrices. Vector-mode latents use a trained affine map
instead. The scaled-tanh budget mapping is applied last so the L-infinity
bound holds exactly in input space; it also adds the clean inputs where the
caller wants perturbed inputs rather than perturbations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .serialize import check_fields, checked, finite, grid, one_of, positive
from .tensor import Tensor

MODE_BICUBIC = "bicubic_image"
MODE_LINEAR = "linear_vector"
MODE_NONE = "none"


def bicubic_kernel(a):
    """Keys cubic convolution kernel (a = -0.5 variant), vectorized.

    w(a) = 1.5|a|^3 - 2.5|a|^2 + 1          for |a| < 1
           -0.5|a|^3 + 2.5|a|^2 - 4|a| + 2  for 1 <= |a| < 2
           0                                 otherwise
    """
    x = np.abs(np.asarray(a, dtype=np.float64))
    inner = 1.5 * x**3 - 2.5 * x**2 + 1.0
    outer = -0.5 * x**3 + 2.5 * x**2 - 4.0 * x + 2.0
    out = np.where(x < 1.0, inner, np.where(x < 2.0, outer, 0.0))
    if np.isscalar(a) or np.ndim(a) == 0:
        return float(out)
    return out


def bicubic_weight_matrix(n_out: int, n_in: int) -> np.ndarray:
    """Dense (n_out, n_in) interpolation matrix for one separable axis.

    Align-corners sample placement: output sample o maps to input coordinate
    o*(n_in-1)/(n_out-1). The 4-tap neighborhood is clamped to the edges, so
    constants are reproduced exactly at the borders.
    """
    if n_out < 1 or n_in < 1:
        raise ValueError(f"bicubic weights: invalid sizes {n_out}x{n_in}")
    weights = np.zeros((n_out, n_in))
    if n_in == 1:
        weights[:, 0] = 1.0
        return weights
    scale = (n_in - 1) / (n_out - 1) if n_out > 1 else 0.0
    for o in range(n_out):
        s = o * scale
        i = int(np.floor(s))
        for m in range(-1, 3):
            j = i + m
            w = bicubic_kernel(s - j)
            weights[o, min(max(j, 0), n_in - 1)] += w
    return weights


@dataclass
class UpsamplerConfig:
    """How latent perturbations reach input space.

    mode: bicubic_image (trained premap, then a constant bicubic factor per
          channel), linear_vector (trained affine map latent_dim -> input_dim),
          or none (identity; latent_dim must equal input_dim).
    latent_grid: (c, h', w') for image mode.
    gamma: L-infinity budget radius for the tanh squashing.
    """

    mode: str = checked(MODE_LINEAR, one_of({MODE_BICUBIC, MODE_LINEAR, MODE_NONE}))
    latent_grid: tuple | None = checked(None, grid("[c, h', w']"))
    gamma: float = checked(16.0 / 255.0, positive)

    def __post_init__(self):
        check_fields(self)
        if self.latent_grid is not None:
            self.latent_grid = tuple(self.latent_grid)
        if self.mode == MODE_BICUBIC and self.latent_grid is None:
            raise ValueError("bicubic_image mode needs latent_grid (c, h', w')")


def fit_error(cfg: UpsamplerConfig, latent_dim: int, input_dim: int,
              image_shape: tuple | None) -> str | None:
    """Why an upsampler of `cfg` cannot map `latent_dim` latents onto inputs of
    width `input_dim` and shape `image_shape` (None when not an image), or None
    when it can."""
    if cfg.mode == MODE_NONE and latent_dim != input_dim:
        return f"upsampler 'none' needs latent_dim == input_dim, got {latent_dim} vs {input_dim}"
    if cfg.mode != MODE_BICUBIC:
        return None
    c, hl, wl = cfg.latent_grid
    if c * hl * wl != latent_dim:
        return f"latent_grid {cfg.latent_grid} does not match latent_dim {latent_dim}"
    if image_shape is None or len(image_shape) != 3:
        return "bicubic_image mode needs an image-shaped input (c, h, w)"
    ci, hi, wi = image_shape
    if ci != c or hi < hl or wi < wl:
        return f"latent grid {cfg.latent_grid} incompatible with input grid {image_shape}"
    return None


def check_budget(gamma: float, caller: str) -> None:
    """Refuse, naming `caller`, a budget radius that is not finite and > 0."""
    if not finite(gamma) or positive(gamma):
        raise ValueError(f"{caller}: gamma must be finite and > 0, got {gamma}")


def apply_budget(u: Tensor, gamma: float, base: np.ndarray | None = None) -> Tensor:
    """gamma * tanh(u), plus `base` when given (a constant that broadcasts to
    u's shape, such as the clean inputs); every perturbation element lands in
    [-gamma, gamma]. The ends are reached: tanh rounds to exactly 1 in float64
    from about u = 19 on. One `tensor.budget` op, which keeps neither tanh(u)
    nor the perturbation for its backward."""
    check_budget(gamma, "apply_budget")
    return T.budget(u, gamma, base)


class Upsampler:
    """Maps flat latent batches (N, latent_dim) to input space (N, input_dim)."""

    def __init__(self, cfg: UpsamplerConfig, latent_dim: int, input_dim: int,
                 image_shape: tuple | None, rng: np.random.Generator):
        self.cfg = cfg
        self.latent_dim = int(latent_dim)
        self.input_dim = int(input_dim)
        self.image_shape = tuple(image_shape) if image_shape else None
        err = fit_error(cfg, self.latent_dim, self.input_dim, self.image_shape)
        if err:
            raise ValueError(err)

        if cfg.mode == MODE_NONE:
            self.weight = None
            self.bias = None
        elif cfg.mode == MODE_LINEAR:
            w = rng.normal(0.0, 1.0 / np.sqrt(self.latent_dim), size=(self.latent_dim, self.input_dim))
            self.weight = Tensor(w, requires_grad=True)
            self.bias = Tensor(np.zeros(self.input_dim), requires_grad=True)
        else:
            _, hl, wl = (int(v) for v in cfg.latent_grid)
            _, hi, wi = self.image_shape
            w = rng.normal(0.0, 1.0 / np.sqrt(self.latent_dim), size=(self.latent_dim, self.latent_dim))
            self.weight = Tensor(w, requires_grad=True)
            self.bias = Tensor(np.zeros(self.latent_dim), requires_grad=True)
            # (h'*w', h*w): row-major latent cells of one channel to its image pixels.
            self._factor = T.constant(np.kron(bicubic_weight_matrix(hi, hl),
                                              bicubic_weight_matrix(wi, wl)).T)

    def named_params(self) -> dict[str, Tensor]:
        if self.weight is None:
            return {}
        return {"upsampler.weight": self.weight, "upsampler.bias": self.bias}

    def forward(self, latent: Tensor) -> Tensor:
        """(N, latent_dim) -> (N, input_dim), pre-budget, differentiable."""
        if latent.ndim != 2 or latent.shape[1] != self.latent_dim:
            raise ValueError(
                f"upsampler: expected (N, {self.latent_dim}) latent, got {latent.shape}")
        if self.cfg.mode == MODE_NONE:
            return latent
        pre = T.dense(latent, (self.weight, self.bias))
        if self.cfg.mode == MODE_LINEAR:
            return pre
        channels = T.reshape(pre, (-1, self._factor.shape[0]))   # (N*c, h'*w')
        return T.reshape(T.matmul(channels, self._factor), (latent.shape[0], self.input_dim))
