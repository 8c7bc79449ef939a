"""Sampler laws: relaxation correctness, exact-draw statistics, annealing."""

import numpy as np
import pytest
from scipy import stats

import nppr.sampling
from nppr import tensor as T
from nppr.models import GmmParams
from nppr.sampling import (AnnealSchedule, GumbelConfig, anneal_value, categorical_exact,
                           gumbel_softmax_sample, gumbel_tau, sample_exact,
                           sample_perturbations)
from nppr.tensor import Tensor


def _params(pi_logits, means, chol):
    return GmmParams(pi_logits=Tensor(np.asarray(pi_logits, dtype=float)),
                     means=Tensor(np.asarray(means, dtype=float)),
                     chol=Tensor(np.asarray(chol, dtype=float)))


def _diag_chol(B, K, D, value=1.0):
    chol = np.zeros((B, K, D, D))
    chol[..., np.arange(D), np.arange(D)] = value
    return chol


class TestGumbelSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.normal(size=(6, 4)))
        z = gumbel_softmax_sample(logits, tau=0.7, rng=rng)
        assert np.all(z.data >= 0)
        np.testing.assert_allclose(z.data.sum(axis=1), 1.0, atol=1e-9)

    def test_dominated_logit_is_one_hot(self):
        logits = Tensor(np.array([[35.0, 0.0, -2.0]]))
        z = gumbel_softmax_sample(logits, tau=1.0, rng=np.random.default_rng(1))
        np.testing.assert_allclose(z.data, [[1.0, 0.0, 0.0]], atol=1e-9)

    def test_argmax_frequency_matches_pi(self):
        # Gumbel-argmax is exactly Categorical(pi); tau only smooths the vector.
        pi = np.array([0.7, 0.3])
        logits = Tensor(np.log(pi)[None, :].repeat(10_000, axis=0))
        z = gumbel_softmax_sample(logits, tau=0.1, rng=np.random.default_rng(2))
        freq = float(np.mean(z.data.argmax(axis=1) == 0))
        assert abs(freq - 0.7) <= 0.02

    def test_tau_to_zero_recovers_argmax(self):
        # With frozen noise, the relaxed vector at tau=1e-3 puts <= 1e-6 mass
        # off the argmax of (log pi + g) whenever the top-two gap is >= 0.1.
        from nppr.sampling import gumbel_noise
        base = np.random.default_rng(3).normal(size=(200, 5))
        g = gumbel_noise(np.random.default_rng(4), base.shape)
        log_pi = base - np.log(np.exp(base).sum(axis=1, keepdims=True))
        perturbed = log_pi + g
        top2 = np.sort(perturbed, axis=1)[:, -2:]
        keep = (top2[:, 1] - top2[:, 0]) >= 0.1
        assert keep.sum() > 100
        z = T.softmax(T.scale(Tensor(perturbed), 1.0 / 1e-3)).data
        onehot = np.zeros_like(z)
        onehot[np.arange(len(z)), perturbed.argmax(axis=1)] = 1.0
        assert np.abs(z - onehot)[keep].max() <= 1e-6

    def test_gradient_with_frozen_noise(self):
        """d(loss)/d(pi_logits) through the relaxation vs finite differences,
        with common random numbers."""
        probe = np.random.default_rng(5).normal(size=(4, 3))

        def run(logits_arr, requires_grad):
            logits = Tensor(logits_arr, requires_grad=requires_grad)
            z = gumbel_softmax_sample(logits, tau=0.5, rng=np.random.default_rng(42))
            return logits, T.reduce_mean(T.mul(z, T.constant(probe)))

        base = np.random.default_rng(6).normal(size=(4, 3))
        logits, loss = run(base, True)
        loss.backward()
        h = 1e-6
        fd = np.zeros_like(base)
        for idx in np.ndindex(base.shape):
            up = base.copy()
            up[idx] += h
            down = base.copy()
            down[idx] -= h
            fd[idx] = (run(up, False)[1].item() - run(down, False)[1].item()) / (2 * h)
        err = np.abs(logits.grad - fd)
        assert np.all(err <= 1e-4 * (1.0 + np.abs(fd)))

    def test_tau_guard(self):
        with pytest.raises(ValueError, match="tau"):
            gumbel_softmax_sample(Tensor(np.zeros((1, 2))), 0.0, np.random.default_rng(0))


class TestSamplePerturbations:
    def test_single_component_is_mu_plus_lxi(self):
        mu = np.array([[[0.5, -0.25]]])
        chol = _diag_chol(1, 1, 2, 0.7)
        params = _params(np.zeros((1, 1)), mu, chol)
        batch = sample_perturbations(params, M=4, tau=5.0, rng=np.random.default_rng(7))
        expected = mu[0, 0] + 0.7 * batch.component_draws[0, :, 0, :]
        np.testing.assert_allclose(batch.latent.data[0], expected, atol=1e-12)

    def test_standard_normal_mean(self):
        params = _params(np.zeros((1, 1)), np.zeros((1, 1, 2)), _diag_chol(1, 1, 2))
        batch = sample_perturbations(params, M=100_000, tau=1.0,
                                     rng=np.random.default_rng(8))
        mean = batch.latent.data.mean(axis=(0, 1))
        assert np.all(np.abs(mean) <= 0.02)  # 3 sigma / sqrt(N) < 0.01, padded

    def test_relaxed_weights_on_simplex(self):
        params = _params(np.random.default_rng(9).normal(size=(3, 4)),
                         np.zeros((3, 4, 2)), _diag_chol(3, 4, 2))
        batch = sample_perturbations(params, M=6, tau=0.5, rng=np.random.default_rng(10))
        np.testing.assert_allclose(batch.relaxed_weights.data.sum(axis=2), 1.0, atol=1e-9)
        assert np.all(batch.relaxed_weights.data >= 0)

    def test_reproducible(self):
        params = _params(np.zeros((2, 3)), np.zeros((2, 3, 2)), _diag_chol(2, 3, 2))
        a = sample_perturbations(params, M=5, tau=0.7, rng=np.random.default_rng(11))
        b = sample_perturbations(params, M=5, tau=0.7, rng=np.random.default_rng(11))
        np.testing.assert_array_equal(a.latent.data, b.latent.data)

    def test_full_path_gradients(self):
        """End-to-end FD through sampling into pi, mu and chol (frozen noise)."""
        rng_seed = 12
        pi0 = np.random.default_rng(13).normal(size=(2, 3))
        mu0 = np.random.default_rng(14).normal(size=(2, 3, 2))
        ch0 = np.random.default_rng(15).normal(0.0, 0.3, size=(2, 3, 2, 2)) + _diag_chol(2, 3, 2)
        probe = np.random.default_rng(16).normal(size=(2, 4, 2))

        def run(pi_a, mu_a, ch_a, requires_grad):
            params = GmmParams(Tensor(pi_a, requires_grad=requires_grad),
                               Tensor(mu_a, requires_grad=requires_grad),
                               Tensor(ch_a, requires_grad=requires_grad))
            batch = sample_perturbations(params, M=4, tau=0.8,
                                         rng=np.random.default_rng(rng_seed))
            return params, T.reduce_mean(T.mul(batch.latent, T.constant(probe)))

        params, loss = run(pi0, mu0, ch0, True)
        loss.backward()
        h = 1e-6
        for arr, tensor in ((pi0, params.pi_logits), (mu0, params.means), (ch0, params.chol)):
            fd = np.zeros_like(arr)
            for idx in np.ndindex(arr.shape):
                up, down = arr.copy(), arr.copy()
                up[idx] += h
                down[idx] -= h
                args_up = [pi0, mu0, ch0]
                args_dn = [pi0, mu0, ch0]
                for i, a in enumerate((pi0, mu0, ch0)):
                    if a is arr:
                        args_up[i], args_dn[i] = up, down
                fd[idx] = (run(*args_up, False)[1].item() - run(*args_dn, False)[1].item()) / (2 * h)
            err = np.abs(tensor.grad - fd)
            assert np.all(err <= 1e-4 * (1.0 + np.abs(fd)))

    def test_m_default_from_table(self):
        from nppr.trainer import TrainConfig
        assert TrainConfig().samples_per_input == 32


class TestSampleExact:
    def test_degenerate_pi_uses_single_component(self):
        logits = np.array([[30.0, 0.0, 0.0]])
        mu = np.array([[[5.0], [0.0], [0.0]]])
        params = _params(logits, mu, _diag_chol(1, 3, 1, 1e-9))
        batch = sample_exact(params, M=200, rng=np.random.default_rng(17))
        np.testing.assert_allclose(batch.latent.data, 5.0, atol=1e-6)
        assert np.all(batch.relaxed_weights.data.argmax(axis=2) == 0)

    def test_two_component_symmetric_means(self):
        a = 2.0
        logits = np.zeros((1, 2))
        mu = np.array([[[-a], [a]]])
        params = _params(logits, mu, _diag_chol(1, 2, 1, 1e-12))
        batch = sample_exact(params, M=40_000, rng=np.random.default_rng(18))
        vals = batch.latent.data.ravel()
        assert abs(vals.mean()) <= 3 * a / np.sqrt(len(vals)) + 1e-9
        np.testing.assert_allclose(np.abs(vals), a, atol=1e-9)

    def test_frequencies_chi_square(self):
        pi = np.array([0.5, 0.3, 0.15, 0.05])
        params = _params(np.log(pi)[None, :], np.zeros((1, 4, 1)), _diag_chol(1, 4, 1))
        batch = sample_exact(params, M=10_000, rng=np.random.default_rng(19))
        z = batch.relaxed_weights.data.argmax(axis=2).ravel()
        observed = np.bincount(z, minlength=4)
        chi2 = float(np.sum((observed - 10_000 * pi) ** 2 / (10_000 * pi)))
        assert chi2 <= stats.chi2.ppf(0.99, df=3)

    def test_marginal_mean_matches_mixture(self):
        rng = np.random.default_rng(20)
        pi = np.array([0.6, 0.4])
        mu = rng.normal(size=(1, 2, 3))
        params = _params(np.log(pi)[None, :], mu, _diag_chol(1, 2, 3, 0.5))
        N = 200_000
        batch = sample_exact(params, M=N, rng=np.random.default_rng(21))
        expected = (pi[:, None] * mu[0]).sum(axis=0)
        # Mixture std per coordinate bounds the MC error.
        var = (pi[:, None] * (0.25 + mu[0] ** 2)).sum(axis=0) - expected**2
        bound = 3 * np.sqrt(var / N)
        got = batch.latent.data.mean(axis=(0, 1))
        assert np.all(np.abs(got - expected) <= bound)

    def test_tie_break_lowest_index(self):
        pi = np.array([[0.25, 0.25, 0.5]])  # boundary between comps 0/1 at 0.25

        class FakeRng:
            def random(self, shape):
                return np.full(shape, 0.25)  # lands exactly on the boundary

        z = categorical_exact(pi, FakeRng(), (4,))
        assert np.all(z == 0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_row_search(self, seed):
        # About half the u values sit exactly on a cumulative-mass boundary
        # below 1 (rng.random never returns 1), and some weights are zero, so
        # equal boundaries repeat within a row.
        rng = np.random.default_rng(40 + seed)
        B, M, K = 30, 50, 6
        pi = rng.dirichlet(np.ones(K), size=B)
        pi[rng.random((B, K)) < 0.3] = 0.0
        pi[:, 0] += 1.0 - pi.sum(axis=1)
        cum = np.cumsum(pi, axis=1)
        cum[:, -1] = 1.0
        u = rng.random((B, M))
        edges = cum[np.arange(B)[:, None], rng.integers(0, K - 1, size=(B, M))]
        on_edge = (rng.random((B, M)) < 0.5) & (edges < 1.0)
        u[on_edge] = edges[on_edge]
        u[:, 0] = 0.0

        class FixedRng:
            def random(self, shape):
                assert shape == (B, M)
                return u

        assert on_edge.sum() > B * M // 4
        expected = np.empty((B, M), dtype=np.int64)  # the per-row search it replaces
        for b in range(B):
            expected[b] = np.searchsorted(cum[b], u[b], side="left")
        z = categorical_exact(pi, FixedRng(), (M,))
        assert z.dtype == np.int64
        np.testing.assert_array_equal(z, np.minimum(expected, K - 1))

    def test_reproducible(self):
        params = _params(np.zeros((2, 3)), np.zeros((2, 3, 2)), _diag_chol(2, 3, 2))
        a = sample_exact(params, M=7, rng=np.random.default_rng(22))
        b = sample_exact(params, M=7, rng=np.random.default_rng(22))
        np.testing.assert_array_equal(a.latent.data, b.latent.data)


    @pytest.mark.parametrize("stacked_rows", [1, 7, 1 << 12])
    def test_gathered_blocks_equal_one_gather(self, stacked_rows, monkeypatch):
        rng = np.random.default_rng(23)
        B, K, D, M = 9, 3, 4, 5
        params = _params(rng.normal(size=(B, K)), rng.normal(size=(B, K, D)),
                         np.tril(rng.normal(size=(B, K, D, D))))
        _check_stacked_parts(params, M, stacked_rows, monkeypatch)

    @pytest.mark.parametrize("stacked_rows", [1, 7, 1 << 12])
    def test_shared_factors_stacked_parts(self, stacked_rows, monkeypatch):
        # Independent and label heads broadcast one set of K factors to every row.
        rng = np.random.default_rng(25)
        B, K, D, M = 11, 4, 3, 6
        means = np.broadcast_to(rng.normal(size=(K, D)), (B, K, D))
        chol = np.broadcast_to(np.tril(rng.normal(size=(K, D, D))), (B, K, D, D))
        params = _params(rng.normal(size=(B, K)), means, chol)
        _check_stacked_parts(params, M, stacked_rows, monkeypatch)

    @pytest.mark.parametrize("stacked_rows", [1, 7, 1 << 12])
    def test_input_longer_than_a_part(self, stacked_rows, monkeypatch):
        # M exceeds every part size, so each part holds one input of M rows.
        rng = np.random.default_rng(26)
        B, K, D, M = 3, 2, 3, (1 << 12) + 3
        params = _params(rng.normal(size=(B, K)), rng.normal(size=(B, K, D)),
                         np.tril(rng.normal(size=(B, K, D, D))))
        _check_stacked_parts(params, M, stacked_rows, monkeypatch)

    @pytest.mark.parametrize("field", ["pi_logits", "means", "chol"])
    def test_non_finite_mixture_refused(self, field):
        values = {"pi_logits": np.zeros((2, 3)), "means": np.zeros((2, 3, 2)),
                  "chol": _diag_chol(2, 3, 2)}
        values[field].flat[0] = np.nan
        with pytest.raises(ValueError, match=f"sample_exact: {field} must be finite"):
            sample_exact(_params(**values), M=4, rng=np.random.default_rng(27))


def _einsum_reference(params, batch):
    """Per-draw reference: gather each draw's own factor and contract it."""
    z = batch.relaxed_weights.data.argmax(axis=2)
    rows = np.arange(params.batch)[:, None]
    return params.means.data[rows, z] + np.einsum(
        "bmde,bme->bmd", params.chol.data[rows, z], batch.component_draws)


def _fancy_index_reference(params, batch, stacked_rows):
    """The same stacked products, each pick made with a two-array index."""
    B, K, D = params.batch, params.K, params.latent_dim
    M = batch.samples_per_input
    z = batch.relaxed_weights.data.argmax(axis=2)
    latent = params.means.data[np.arange(B)[:, None], z]
    stacked = np.swapaxes(params.chol.data.reshape(B, K * D, D), 1, 2)
    step = max(1, stacked_rows // M)
    for lo in range(0, B, step):
        part = slice(lo, lo + step)
        every = (batch.component_draws[part] @ stacked[part]).reshape(-1, K, D)
        latent[part] += every[np.arange(len(every)), z[part].ravel()].reshape(-1, M, D)
    return latent


def _check_stacked_parts(params, M, stacked_rows, monkeypatch):
    """Inputs taken a few at a time give the latents of one whole-block
    product bit for bit, the flat-index picks equal two-array picks bit for
    bit, and the latents agree with the per-draw gather to round-off."""
    monkeypatch.setattr(nppr.sampling, "_STACKED_ROWS", params.batch * M)
    whole = sample_exact(params, M, rng=np.random.default_rng(24))
    monkeypatch.setattr(nppr.sampling, "_STACKED_ROWS", stacked_rows)
    batch = sample_exact(params, M, rng=np.random.default_rng(24))
    z = categorical_exact(params.pi(), np.random.default_rng(24), (M,))
    onehot = np.zeros((params.batch, M, params.K))
    np.put_along_axis(onehot, z[..., None], 1.0, axis=2)
    np.testing.assert_array_equal(batch.relaxed_weights.data, onehot)
    np.testing.assert_array_equal(batch.latent.data, whole.latent.data)
    np.testing.assert_array_equal(batch.latent.data,
                                  _fancy_index_reference(params, batch, stacked_rows))
    np.testing.assert_allclose(batch.latent.data, _einsum_reference(params, batch),
                               rtol=1e-12, atol=1e-12)


class TestAnnealing:
    def test_epoch_zero_is_init(self):
        assert anneal_value((3.0, 1.0), 0, 50) == 3.0

    def test_final_epoch_is_final(self):
        assert anneal_value((3.0, 1.0), 49, 50) == 1.0

    def test_midpoint(self):
        # 3.0 -> 1.0 over 51 epochs: epoch 25 sits exactly halfway.
        assert anneal_value((3.0, 1.0), 25, 51) == pytest.approx(2.0)

    def test_warmup_clamps_at_final(self):
        assert anneal_value((2.0, 0.5), 30, 100, warmup_epochs=10) == 0.5

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            anneal_value((1.0, 0.5), 50, 50)

    def test_gumbel_defaults_match_table(self):
        cfg = GumbelConfig()
        assert (cfg.tau_init, cfg.tau_final, cfg.anneal) == (1.0, 0.1, True)
        assert gumbel_tau(cfg, 0, 50) == 1.0
        assert gumbel_tau(cfg, 49, 50) == pytest.approx(0.1)

    def test_schedule_defaults_match_table(self):
        s = AnnealSchedule()
        assert s.T_pi == (3.0, 1.0)
        assert s.T_mu == (3.0, 1.0)
        assert s.T_sigma == (1.5, 1.0)
        assert s.T_shared == (1.5, 1.0)

    def test_no_anneal_constant(self):
        cfg = GumbelConfig(tau_init=0.8, tau_final=0.2, anneal=False)
        assert gumbel_tau(cfg, 25, 50) == 0.8

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            GumbelConfig(tau_init=0.1, tau_final=1.0)
