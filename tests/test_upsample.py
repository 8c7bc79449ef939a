"""Bicubic kernel exactness, interpolation properties, the upsampler's constant
per-channel factor against a separable reference, and the tanh budget."""

import numpy as np
import pytest

from nppr import tensor as T
from nppr.generator import build_generator
from nppr.models import Classifier, ClassifierConfig, DependencyMode, HeadConfig
from nppr.rng import substream
from nppr.tensor import Tensor
from nppr.upsample import (MODE_BICUBIC, MODE_LINEAR, MODE_NONE, Upsampler,
                           UpsamplerConfig, apply_budget, bicubic_kernel,
                           bicubic_weight_matrix)

from test_tensor import check_grads


class TestKernel:
    def test_center(self):
        assert bicubic_kernel(0.0) == 1.0

    def test_zeros_at_integers(self):
        assert bicubic_kernel(1.0) == pytest.approx(0.0, abs=1e-12)
        assert bicubic_kernel(2.0) == pytest.approx(0.0, abs=1e-12)
        assert bicubic_kernel(-1.0) == pytest.approx(0.0, abs=1e-12)

    def test_half(self):
        # 1.5 * 0.125 - 2.5 * 0.25 + 1
        assert bicubic_kernel(0.5) == pytest.approx(0.5625, abs=1e-15)

    def test_branch_continuity_at_one(self):
        inner = 1.5 * (1 - 1e-9) ** 3 - 2.5 * (1 - 1e-9) ** 2 + 1
        outer = -0.5 * (1 + 1e-9) ** 3 + 2.5 * (1 + 1e-9) ** 2 - 4 * (1 + 1e-9) + 2
        assert inner == pytest.approx(outer, abs=1e-8)

    def test_partition_of_unity(self):
        # sum_k w(a + k) over the four contributing taps, for a in [0, 1)
        for a in np.linspace(0.0, 1.0, 513, endpoint=False):
            total = sum(bicubic_kernel(a - k) for k in (-1, 0, 1, 2))
            assert abs(total - 1.0) <= 1e-12

    def test_compact_support(self):
        assert bicubic_kernel(2.5) == 0.0
        assert bicubic_kernel(-7.0) == 0.0


class TestWeightMatrix:
    def test_rows_sum_to_one(self):
        w = bicubic_weight_matrix(16, 5)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_factor_one_identity(self):
        np.testing.assert_allclose(bicubic_weight_matrix(6, 6), np.eye(6), atol=1e-12)

    def test_constant_reproduction(self):
        w = bicubic_weight_matrix(17, 6)
        out = w @ np.full(6, 3.25)
        np.testing.assert_allclose(out, 3.25, atol=1e-9)

    def test_linear_ramp_interior(self):
        # Cubic convolution with a = -0.5 reproduces linear signals exactly
        # away from the clamped borders.
        n_in, n_out = 9, 33
        w = bicubic_weight_matrix(n_out, n_in)
        ramp = np.arange(n_in, dtype=float)
        out = w @ ramp
        coords = np.arange(n_out) * (n_in - 1) / (n_out - 1)
        interior = (coords >= 1.0) & (coords <= n_in - 2.0)
        assert interior.sum() > 10
        np.testing.assert_allclose(out[interior], coords[interior], atol=1e-9)


def _image_upsampler(seed=0):
    cfg = UpsamplerConfig(mode=MODE_BICUBIC, latent_grid=(1, 4, 4), gamma=0.1)
    return Upsampler(cfg, latent_dim=16, input_dim=64, image_shape=(1, 8, 8),
                     rng=substream(seed, 99))


class TestUpsampler:
    def test_bicubic_constant_image(self):
        ups = _image_upsampler()
        # Bypass the premap by feeding a constant through identity weights.
        ups.weight.data = np.eye(16)
        ups.bias.data = np.zeros(16)
        out = ups.forward(Tensor(np.full((2, 16), 1.7)))
        np.testing.assert_allclose(out.data, 1.7, atol=1e-9)

    def test_vector_mode_shapes(self):
        cfg = UpsamplerConfig(mode=MODE_LINEAR, gamma=0.1)
        ups = Upsampler(cfg, latent_dim=3, input_dim=7, image_shape=None,
                        rng=substream(0, 99))
        out = ups.forward(Tensor(np.ones((5, 3))))
        assert out.shape == (5, 7)

    def test_none_mode_identity(self):
        cfg = UpsamplerConfig(mode=MODE_NONE, gamma=0.1)
        ups = Upsampler(cfg, latent_dim=4, input_dim=4, image_shape=None,
                        rng=substream(0, 99))
        x = np.random.default_rng(3).normal(size=(2, 4))
        np.testing.assert_array_equal(ups.forward(Tensor(x)).data, x)

    def test_none_mode_dim_guard(self):
        cfg = UpsamplerConfig(mode=MODE_NONE, gamma=0.1)
        with pytest.raises(ValueError, match="latent_dim == input_dim"):
            Upsampler(cfg, latent_dim=4, input_dim=6, image_shape=None,
                      rng=substream(0, 99))

    def test_gradient_matches_finite_difference(self):
        ups = _image_upsampler()
        probe = np.random.default_rng(5).normal(size=(3, 64))

        def build(ts):
            return T.reduce_sum(T.mul(ups.forward(ts[0]), T.constant(probe)))

        check_grads(build, [np.random.default_rng(6).normal(size=(3, 16))], tol=1e-5)

    def test_two_channel_non_square_matches_separable_reference(self):
        # Square single-channel grids cannot tell kron(W_h, W_w) from kron(W_w, W_h).
        cfg = UpsamplerConfig(mode=MODE_BICUBIC, latent_grid=(2, 3, 5), gamma=0.1)
        ups = Upsampler(cfg, latent_dim=30, input_dim=154, image_shape=(2, 7, 11),
                        rng=substream(0, 99))
        rng = np.random.default_rng(7)
        ups.bias.data = rng.normal(size=30)
        latent = rng.normal(size=(4, 30))
        pre = (latent @ ups.weight.data + ups.bias.data).reshape(4, 2, 3, 5)
        ref = np.einsum("ip,ncpq,jq->ncij", bicubic_weight_matrix(7, 3), pre,
                        bicubic_weight_matrix(11, 5))
        np.testing.assert_allclose(ups.forward(Tensor(latent)).data, ref.reshape(4, 154),
                                   rtol=0, atol=1e-14)

        probe = rng.normal(size=(4, 154))

        def build(ts):
            ups.weight, ups.bias = ts[1], ts[2]
            return T.reduce_sum(T.mul(ups.forward(ts[0]), T.constant(probe)))

        check_grads(build, [latent, ups.weight.data, ups.bias.data], tol=1e-5)

    def test_shape_guard(self):
        ups = _image_upsampler()
        with pytest.raises(ValueError, match="expected"):
            ups.forward(Tensor(np.ones((2, 9))))


class TestBudget:
    def test_zero_maps_to_zero(self):
        assert apply_budget(Tensor(0.0), 16 / 255).item() == 0.0

    def test_large_input_stays_inside(self):
        gamma = 16 / 255
        out = apply_budget(Tensor(10.0), gamma).item()
        assert out == pytest.approx(gamma * np.tanh(10.0), abs=1e-15)
        assert out < gamma

    def test_linf_bound_any_input(self):
        rng = np.random.default_rng(8)
        u = rng.normal(scale=50.0, size=(1000,))
        out = apply_budget(Tensor(u), 0.3).data
        assert np.max(np.abs(out)) <= 0.3

    def test_saturated_inputs_land_exactly_on_the_bound(self):
        # tanh rounds to exactly +-1 here, so the images reach +-gamma and no further.
        u = np.array([40.0, -40.0, 1e308, -1e308, np.inf, -np.inf])
        out = apply_budget(Tensor(u), 16 / 255).data
        np.testing.assert_array_equal(out, np.sign(u) * (16 / 255))

    def test_gamma_guard(self):
        with pytest.raises(ValueError, match="gamma"):
            apply_budget(Tensor(1.0), 0.0)

    def test_saturated_latent_reaches_the_bound(self):
        # tanh(40) rounds to exactly 1, so the images sit on the ball's boundary.
        clf = Classifier(ClassifierConfig(input_dim=2, num_classes=2, hidden=(2,)), seed=0)
        gen = build_generator(clf, HeadConfig(mode=DependencyMode.INDEPENDENT, K=1, latent_dim=2),
                              UpsamplerConfig(mode=MODE_NONE, gamma=0.3))
        images = gen.images(Tensor(np.array([[40.0, -40.0]]))).data
        np.testing.assert_array_equal(images, [[0.3, -0.3]])
