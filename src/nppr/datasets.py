"""Synthetic datasets sized for exhaustive verification.

blobs:      Gaussian clusters with class means on a sphere of radius
            separation * sigma (antipodal for two classes, orthogonal axes
            when the dimension allows, rejection-sampled otherwise, and
            refused when the draws find no such set).
rings:      concentric annuli in 2-D; the optimal perturbation direction is
            radial and therefore input-dependent.
grid-image: c x h x w images with a class-specific bump, for exercising the
            bicubic path; at most GRID_IMAGE_CLASSES classes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import DATASET, substream


@dataclass
class LabeledDataset:
    x: np.ndarray              # (N, d) float64, images flattened row-major
    y: np.ndarray              # (N,) int64 labels in [0, C)
    image_shape: tuple | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.x.ndim != 2 or self.x.shape[0] != self.y.shape[0]:
            raise ValueError(f"dataset: bad shapes x{self.x.shape} y{self.y.shape}")

    @property
    def n(self) -> int:
        return self.x.shape[0]


@dataclass
class SplitDataset:
    train: LabeledDataset
    test: LabeledDataset


_DRAWS_PER_CLASS = 1000


def _blob_means(d: int, classes: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    if classes == 2:
        means = np.zeros((2, d))
        means[0, 0] = -radius
        means[1, 0] = radius
        return means
    if classes <= d:
        return radius * np.eye(d)[:classes]
    # More classes than axes: rejection sampling on the sphere. The sphere may
    # not hold `classes` points this far apart, so the draws are bounded.
    means = []
    min_gap = radius * 0.8
    for _ in range(_DRAWS_PER_CLASS * classes):
        v = rng.normal(size=d)
        v *= radius / np.linalg.norm(v)
        if all(np.linalg.norm(v - m) >= min_gap for m in means):
            means.append(v)
            if len(means) == classes:
                return np.stack(means)
    raise ValueError(f"blobs: no {classes} class means at least {min_gap:g} apart on the "
                     f"sphere in d={d} (found {len(means)} in {_DRAWS_PER_CLASS * classes} draws)")


def make_blobs(d: int, classes: int, n: int, seed: int,
               separation: float = 6.0, sigma: float = 1.0) -> LabeledDataset:
    rng = substream(seed, DATASET, 0)
    means = _blob_means(d, classes, separation * sigma, rng)
    y = rng.integers(0, classes, size=n)
    x = means[y] + sigma * rng.standard_normal((n, d))
    return LabeledDataset(x=x, y=y)


def make_rings(classes: int, n: int, seed: int, radius_step: float = 2.0,
               sigma_r: float = 0.25) -> LabeledDataset:
    """Concentric 2-D rings; class k sits at radius (k + 1) * radius_step."""
    rng = substream(seed, DATASET, 1)
    y = rng.integers(0, classes, size=n)
    radius = (y + 1.0) * radius_step + sigma_r * rng.standard_normal(n)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    x = np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1)
    return LabeledDataset(x=x, y=y)


GRID_IMAGE_CLASSES = 4


def make_grid_image(image_shape: tuple, classes: int, n: int, seed: int,
                    noise: float = 0.3, amplitude: float = 2.0) -> LabeledDataset:
    """Images with one smooth bump per class, in quadrant (k % 2, k // 2) for class
    k; a fifth class would repeat the first one's image, so more are refused."""
    if classes > GRID_IMAGE_CLASSES:
        raise ValueError(f"grid-image: at most {GRID_IMAGE_CLASSES} classes, got {classes}")
    c, h, w = image_shape
    rng = substream(seed, DATASET, 2)
    centers = [(h * (0.25 + 0.5 * (k % 2)), w * (0.25 + 0.5 * (k // 2))) for k in range(classes)]
    ii, jj = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    patterns = []
    for k in range(classes):
        ci, cj = centers[k]
        bump = amplitude * np.exp(-(((ii - ci) ** 2) + ((jj - cj) ** 2)) / (0.08 * h * w))
        patterns.append(np.broadcast_to(bump, (c, h, w)).ravel())
    patterns = np.stack(patterns)
    y = rng.integers(0, classes, size=n)
    x = patterns[y] + noise * rng.standard_normal((n, c * h * w))
    return LabeledDataset(x=x, y=y, image_shape=(c, h, w))


def stratified_split(ds: LabeledDataset, train_frac: float = 0.8,
                     seed: int = 0) -> SplitDataset:
    """Per-label shuffle and split, so both sides see every class."""
    rng = substream(seed, DATASET, 3)
    train_idx, test_idx = [], []
    for label in np.unique(ds.y):
        idx = np.nonzero(ds.y == label)[0]
        idx = idx[rng.permutation(len(idx))]
        cut = max(1, int(round(train_frac * len(idx))))
        cut = min(cut, len(idx) - 1) if len(idx) > 1 else len(idx)
        train_idx.extend(idx[:cut])
        test_idx.extend(idx[cut:])
    train_idx = np.sort(np.asarray(train_idx))
    test_idx = np.sort(np.asarray(test_idx))
    make = lambda sel: LabeledDataset(ds.x[sel], ds.y[sel], ds.image_shape)
    return SplitDataset(train=make(train_idx), test=make(test_idx))

