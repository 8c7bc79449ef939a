"""Synthetic datasets and the stratified split: shapes, label range, determinism."""

import time

import numpy as np
import pytest

from nppr.datasets import make_blobs, make_grid_image, make_rings, stratified_split

MAKERS = {
    "blobs": (lambda seed: make_blobs(d=3, classes=4, n=60, seed=seed), (60, 3), 4, None),
    "blobs_crowded": (lambda seed: make_blobs(d=2, classes=5, n=50, seed=seed), (50, 2), 5, None),
    "rings": (lambda seed: make_rings(classes=3, n=40, seed=seed), (40, 2), 3, None),
    "grid_image": (lambda seed: make_grid_image((2, 5, 6), classes=4, n=30, seed=seed),
                   (30, 60), 4, (2, 5, 6)),
}


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_shapes_and_label_range(name):
    make, shape, classes, image_shape = MAKERS[name]
    ds = make(3)
    assert ds.x.shape == shape and ds.x.dtype == np.float64
    assert ds.y.shape == (shape[0],) and ds.y.dtype == np.int64
    assert ds.y.min() >= 0 and ds.y.max() < classes
    assert ds.image_shape == image_shape
    assert np.all(np.isfinite(ds.x))


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_fixed_seed_repeats_exactly(name):
    make = MAKERS[name][0]
    first, again, other = make(7), make(7), make(8)
    np.testing.assert_array_equal(first.x, again.x)
    np.testing.assert_array_equal(first.y, again.y)
    assert not np.array_equal(first.x, other.x)


@pytest.mark.parametrize("train_frac", [0.5, 0.7, 0.8])
def test_stratified_split_is_deterministic_and_per_class(train_frac):
    ds = make_blobs(d=2, classes=3, n=97, seed=4)
    split = stratified_split(ds, train_frac, seed=2)
    again = stratified_split(ds, train_frac, seed=2)
    for a, b in ((split.train, again.train), (split.test, again.test)):
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)
    assert split.train.n + split.test.n == ds.n
    for label in np.unique(ds.y):
        total = np.count_nonzero(ds.y == label)
        train = np.count_nonzero(split.train.y == label)
        assert abs(train - train_frac * total) <= 1
        assert 0 < train < total
    rows = np.concatenate([split.train.x, split.test.x])
    np.testing.assert_array_equal(np.unique(rows, axis=0), np.unique(ds.x, axis=0))


@pytest.mark.parametrize("d,classes", [(1, 3), (2, 10)])
def test_blobs_that_do_not_fit_the_sphere_are_refused_promptly(d, classes):
    # Rejection sampling once looped forever here: the sphere in d dimensions
    # holds fewer than `classes` points 0.8 * radius apart.
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"no {classes} class means at least 4.8 apart "
                                         f"on the sphere in d={d}"):
        make_blobs(d, classes, 20, 0)
    assert time.perf_counter() - start < 10.0
