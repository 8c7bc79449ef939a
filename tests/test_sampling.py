"""Sampler laws: relaxation correctness, exact-draw statistics, annealing."""

import tracemalloc

import numpy as np
import pytest
from scipy import stats

import nppr.metrics
from nppr import tensor as T
from nppr.generator import build_generator
from nppr.metrics import nppr_estimate
from nppr.models import (Classifier, ClassifierConfig, DependencyMode, GmmParams, HeadConfig,
                         Temperatures)
from nppr.rng import EVAL, substream
from nppr.sampling import (AnnealSchedule, GumbelConfig, anneal_value, categorical_exact,
                           gumbel_softmax_sample, sample_exact, sample_perturbations)
from nppr.tensor import Tensor
from nppr.upsample import UpsamplerConfig


def _pack(chol):
    """The row-major lower triangles of (..., D, D) factors."""
    chol = np.asarray(chol, dtype=float)
    rows, cols = np.tril_indices(chol.shape[-1])
    return chol[..., rows, cols]


def _params(pi_logits, means, chol):
    """Mixture parameters from full lower-triangular (..., D, D) factors."""
    return GmmParams(pi_logits=Tensor(np.asarray(pi_logits, dtype=float)),
                     means=Tensor(np.asarray(means, dtype=float)),
                     chol_packed=Tensor(_pack(chol)))


def _full(params):
    """The (B, K, D, D) factors of packed mixture parameters."""
    return T.tril_scatter(params.chol_packed, params.latent_dim).data


def _rows(params, part):
    return GmmParams(*(Tensor(t.data[part])
                       for t in (params.pi_logits, params.means, params.chol_packed)))


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
        e = np.exp((perturbed - perturbed.max(axis=1, keepdims=True)) / 1e-3)
        z = e / e.sum(axis=1, keepdims=True)
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
            return logits, T.reduce_sum(T.mul(z, T.constant(probe)))

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
        ch0 = _pack(np.random.default_rng(15).normal(0.0, 0.3, size=(2, 3, 2, 2))
                    + _diag_chol(2, 3, 2))
        probe = np.random.default_rng(16).normal(size=(2, 4, 2))

        def run(pi_a, mu_a, ch_a, requires_grad):
            params = GmmParams(Tensor(pi_a, requires_grad=requires_grad),
                               Tensor(mu_a, requires_grad=requires_grad),
                               Tensor(ch_a, requires_grad=requires_grad))
            batch = sample_perturbations(params, M=4, tau=0.8,
                                         rng=np.random.default_rng(rng_seed))
            return params, T.reduce_sum(T.mul(batch.latent, T.constant(probe)))

        params, loss = run(pi0, mu0, ch0, True)
        loss.backward()
        h = 1e-6
        for arr, tensor in ((pi0, params.pi_logits), (mu0, params.means),
                            (ch0, params.chol_packed)):
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


def _head_params(mode):
    """The mixture of a generator head moved off its symmetric init, for 5
    inputs, as leaves: a backward keeps no gradient on the head's outputs."""
    clf = Classifier(ClassifierConfig(input_dim=3, num_classes=3, hidden=(6,)), seed=0)
    head_cfg = HeadConfig(mode=mode, K=3, latent_dim=4, hidden_dim=8, label_emb_dim=4)
    gen = build_generator(clf, head_cfg, UpsamplerConfig(mode="linear_vector", gamma=1.0))
    rng = np.random.default_rng(17)
    for p in gen.head.named_params().values():
        p.data = p.data + rng.normal(0.0, 0.5, size=p.data.shape)
    with T.no_grad():
        params = gen.gmm_params(rng.normal(size=(5, 3)), np.array([0, 1, 2, 1, 0]))
    return GmmParams(*(Tensor(t.data, requires_grad=True)
                       for t in (params.pi_logits, params.means, params.chol_packed)))


def _four_op_latent(params, z, xi):
    """The generic route to sum_k z_k (mu_k + L_k xi_k): factors unpacked by a
    product with a 0/1 selection matrix and applied by a batched matmul, then
    add, mul and reduce_sum over the components."""
    B, M, K, D = xi.shape
    rows, cols = np.tril_indices(D)
    select = np.zeros((rows.size, D * D))
    select[np.arange(rows.size), rows * D + cols] = 1.0
    chol_b = T.reshape(T.matmul(params.chol_packed, T.constant(select)), (B, 1, K, D, D))
    lx = T.reshape(T.matmul(chol_b, T.constant(xi.reshape(B, M, K, D, 1))), (B, M, K, D))
    comp = T.add(T.reshape(params.means, (B, 1, K, D)), lx)
    return T.reduce_sum(T.mul(T.reshape(z, (B, M, K, 1)), comp), axis=2)


class TestMixtureLatentSampler:
    def test_draws_follow_the_gumbel_uniforms(self):
        params = _params(np.zeros((2, 3)), np.zeros((2, 3, 4)), _diag_chol(2, 3, 4))
        batch = sample_perturbations(params, M=5, tau=0.7, rng=np.random.default_rng(18))
        twin = np.random.default_rng(18)
        twin.random((2, 5, 3))
        np.testing.assert_array_equal(batch.component_draws, twin.standard_normal((2, 5, 3, 4)))

    @pytest.mark.parametrize("mode", [DependencyMode.JOINT, DependencyMode.LABEL],
                             ids=lambda m: m.value)
    def test_matches_four_op_chain(self, mode):
        probe = T.constant(np.random.default_rng(19).normal(size=(5, 6, 4)))
        results = []
        for fused in (True, False):
            params = _head_params(mode)
            rng = np.random.default_rng(20)
            if fused:
                latent = sample_perturbations(params, M=6, tau=0.6, rng=rng).latent
            else:
                pi_b = T.broadcast_to(T.reshape(params.pi_logits, (5, 1, 3)), (5, 6, 3))
                z = gumbel_softmax_sample(pi_b, 0.6, rng)
                latent = _four_op_latent(params, z, rng.standard_normal((5, 6, 3, 4)))
            T.reduce_sum(T.mul(latent, probe)).backward()
            results.append([latent.data, params.pi_logits.grad, params.means.grad,
                            params.chol_packed.grad])
        for got, want in zip(*results):
            assert want is not None
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestSampleExact:
    def test_degenerate_pi_uses_single_component(self):
        logits = np.array([[30.0, 0.0, 0.0]])
        mu = np.array([[[5.0], [0.0], [0.0]]])
        params = _params(logits, mu, _diag_chol(1, 3, 1, 1e-9))
        batch = sample_exact(params, M=200, streams=np.random.default_rng(17).spawn(params.batch))
        np.testing.assert_allclose(batch.latent.data, 5.0, atol=1e-6)
        assert np.all(batch.relaxed_weights.data.argmax(axis=2) == 0)

    def test_two_component_symmetric_means(self):
        a = 2.0
        logits = np.zeros((1, 2))
        mu = np.array([[[-a], [a]]])
        params = _params(logits, mu, _diag_chol(1, 2, 1, 1e-12))
        batch = sample_exact(params, M=40_000, streams=np.random.default_rng(18).spawn(params.batch))
        vals = batch.latent.data.ravel()
        assert abs(vals.mean()) <= 3 * a / np.sqrt(len(vals)) + 1e-9
        np.testing.assert_allclose(np.abs(vals), a, atol=1e-9)

    def test_frequencies_chi_square(self):
        pi = np.array([0.5, 0.3, 0.15, 0.05])
        params = _params(np.log(pi)[None, :], np.zeros((1, 4, 1)), _diag_chol(1, 4, 1))
        batch = sample_exact(params, M=10_000, streams=np.random.default_rng(19).spawn(params.batch))
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
        batch = sample_exact(params, M=N, streams=np.random.default_rng(21).spawn(params.batch))
        expected = (pi[:, None] * mu[0]).sum(axis=0)
        # Mixture std per coordinate bounds the MC error.
        var = (pi[:, None] * (0.25 + mu[0] ** 2)).sum(axis=0) - expected**2
        bound = 3 * np.sqrt(var / N)
        got = batch.latent.data.mean(axis=(0, 1))
        assert np.all(np.abs(got - expected) <= bound)

    def test_tie_break_lowest_index(self):
        pi = np.array([[0.25, 0.25, 0.5]])  # boundary between comps 0/1 at 0.25
        z = categorical_exact(pi, np.full((1, 4), 0.25))  # exactly on the boundary
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
        assert on_edge.sum() > B * M // 4
        expected = np.empty((B, M), dtype=np.int64)  # the per-row search it replaces
        for b in range(B):
            expected[b] = np.searchsorted(cum[b], u[b], side="left")
        z = categorical_exact(pi, u)
        assert z.dtype == np.int64
        np.testing.assert_array_equal(z, np.minimum(expected, K - 1))

    def test_reproducible(self):
        params = _params(np.zeros((2, 3)), np.zeros((2, 3, 2)), _diag_chol(2, 3, 2))
        a = sample_exact(params, M=7, streams=np.random.default_rng(22).spawn(params.batch))
        b = sample_exact(params, M=7, streams=np.random.default_rng(22).spawn(params.batch))
        np.testing.assert_array_equal(a.latent.data, b.latent.data)

    def test_gathered_blocks_equal_one_gather(self):
        _check_exact_draws(*_shape(_GATHERED))

    def test_shared_factors_stacked_parts(self):
        _check_exact_draws(*_shape(_SHARED))

    def test_input_longer_than_a_part(self):
        _check_exact_draws(*_shape(_LONG))

    @pytest.mark.parametrize("field", ["pi_logits", "means", "chol_packed"])
    def test_non_finite_mixture_refused(self, field):
        values = {"pi_logits": np.zeros((2, 3)), "means": np.zeros((2, 3, 2)),
                  "chol_packed": _pack(_diag_chol(2, 3, 2))}
        values[field].flat[0] = np.nan
        params = GmmParams(**{name: Tensor(v) for name, v in values.items()})
        with pytest.raises(ValueError, match=f"sample_exact: {field} must be finite"):
            sample_exact(params, M=4, streams=np.random.default_rng(27).spawn(2))


def _einsum_reference(params, batch):
    """Per-draw reference: gather each draw's own factor and contract it."""
    z = batch.relaxed_weights.data.argmax(axis=2)
    rows = np.arange(params.batch)[:, None]
    return params.means.data[rows, z] + np.einsum(
        "bmde,bme->bmd", _full(params)[rows, z], batch.component_draws)


def _fancy_index_reference(params, batch):
    """The same stacked product, each pick made with a two-array index."""
    B, K, D = params.batch, params.K, params.latent_dim
    M = batch.latent.shape[1]
    z = batch.relaxed_weights.data.argmax(axis=2)
    latent = params.means.data[np.arange(B)[:, None], z]
    stacked = np.swapaxes(_full(params).reshape(B, K * D, D), 1, 2)
    every = (batch.component_draws @ stacked).reshape(-1, K, D)
    return latent + every[np.arange(len(every)), z.ravel()].reshape(B, M, D)


def _check_exact_draws(params, M):
    """The one-hot rows are the categorical draws of each input's own
    uniforms, the flat-index picks equal two-array picks bit for bit, and the
    latents agree with the per-draw gather to round-off."""
    batch = sample_exact(params, M, np.random.default_rng(24).spawn(params.batch))
    u = np.stack([s.random(M) for s in np.random.default_rng(24).spawn(params.batch)])
    onehot = np.zeros((params.batch, M, params.K))
    np.put_along_axis(onehot, categorical_exact(params.pi(), u)[..., None], 1.0, axis=2)
    np.testing.assert_array_equal(batch.relaxed_weights.data, onehot)
    np.testing.assert_array_equal(batch.latent.data, _fancy_index_reference(params, batch))
    np.testing.assert_allclose(batch.latent.data, _einsum_reference(params, batch),
                               rtol=1e-12, atol=1e-12)


# (seed, B, K, D, M, shared): the last broadcasts one set of K means and
# factors to every row, as the independent and label heads do; _LONG has more
# draws per input than the estimators' _ROWS, so each of its inputs is a piece.
_GATHERED = (23, 9, 3, 4, 5, False)
_SHARED = (25, 11, 4, 3, 6, True)
_LONG = (26, 3, 2, 3, (1 << 12) + 3, False)


def _shape(spec):
    seed, B, K, D, M, shared = spec
    rng = np.random.default_rng(seed)
    if shared:
        means = np.broadcast_to(rng.normal(size=(K, D)), (B, K, D))
        chol = np.broadcast_to(np.tril(rng.normal(size=(K, D, D))), (B, K, D, D))
    else:
        means, chol = rng.normal(size=(B, K, D)), np.tril(rng.normal(size=(B, K, D, D)))
    return _params(rng.normal(size=(B, K)), means, chol), M


class TestPerInputStreams:
    """Each input draws from its own child stream, so an input's rows depend
    only on the caller's stream and the input's position."""

    @pytest.mark.parametrize("spec", [_GATHERED, _SHARED, _LONG])
    @pytest.mark.parametrize("size", [1, 2, -1])
    def test_consecutive_slices_equal_one_call(self, spec, size):
        params, M = _shape(spec)
        size %= params.batch  # -1: all inputs but the last, then the last
        whole = sample_exact(params, M, np.random.default_rng(30).spawn(params.batch))
        rng = np.random.default_rng(30)
        parts = [sample_exact(rows, M, rng.spawn(rows.batch))
                 for rows in (_rows(params, slice(lo, lo + size))
                              for lo in range(0, params.batch, size))]
        for field in ("latent", "relaxed_weights"):
            np.testing.assert_array_equal(
                np.concatenate([getattr(b, field).data for b in parts]),
                getattr(whole, field).data)
        np.testing.assert_array_equal(
            np.concatenate([b.component_draws for b in parts]), whole.component_draws)

    @pytest.mark.parametrize("spec", [_GATHERED, _SHARED, _LONG])
    def test_prefix_draws_equal_leading_rows(self, spec):
        params, M = _shape(spec)
        whole = sample_exact(params, M, np.random.default_rng(31).spawn(params.batch))
        for n in (1, params.batch - 1):
            prefix = sample_exact(_rows(params, slice(0, n)), M,
                                  np.random.default_rng(31).spawn(n))
            np.testing.assert_array_equal(prefix.latent.data, whole.latent.data[:n])
            np.testing.assert_array_equal(prefix.component_draws, whole.component_draws[:n])

    def test_input_stream_is_its_substream(self):
        params, M = _shape(_GATHERED)
        batch = sample_exact(params, M, substream(5, EVAL, 0).spawn(params.batch))
        for i in (0, params.batch - 1):
            own = substream(5, EVAL, 0, i)
            own.random(M)
            np.testing.assert_array_equal(batch.component_draws[i],
                                          own.standard_normal((M, params.latent_dim)))


class TestAnnealing:
    def test_epoch_zero_is_init(self):
        assert anneal_value((3.0, 1.0), 0, 50) == 3.0

    def test_final_epoch_is_final(self):
        assert anneal_value((3.0, 1.0), 49, 50) == 1.0
        assert anneal_value((3.0, 1.0), 0, 1) == 1.0  # a one-epoch run

    def test_midpoint(self):
        # 3.0 -> 1.0 over 51 epochs: epoch 25 sits exactly halfway.
        assert anneal_value((3.0, 1.0), 25, 51) == pytest.approx(2.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            anneal_value((1.0, 0.5), 50, 50)

    def test_gumbel_defaults_match_table(self):
        cfg = GumbelConfig()
        assert (cfg.tau_init, cfg.tau_final) == (1.0, 0.1)
        assert anneal_value((cfg.tau_init, cfg.tau_final), 0, 50) == 1.0
        assert anneal_value((cfg.tau_init, cfg.tau_final), 49, 50) == pytest.approx(0.1)

    def test_schedule_defaults_match_table(self):
        s = AnnealSchedule()
        assert s.T_pi == (3.0, 1.0)
        assert s.T_mu == (3.0, 1.0)
        assert s.T_sigma == (1.5, 1.0)
        assert s.T_shared == (1.5, 1.0)

    def test_equal_ends_give_a_constant_tau(self):
        cfg = GumbelConfig(tau_init=0.8, tau_final=0.8)
        assert {anneal_value((cfg.tau_init, cfg.tau_final), e, 50) for e in range(50)} == {0.8}

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            GumbelConfig(tau_init=0.1, tau_final=1.0)


def _mode_generator(mode, input_dim=3):
    """A generator of the given head mode, moved off its symmetric init."""
    clf = Classifier(ClassifierConfig(input_dim=input_dim, num_classes=3, hidden=(6,)), seed=0)
    head_cfg = HeadConfig(mode=mode, K=3, latent_dim=4, hidden_dim=8, label_emb_dim=4)
    gen = build_generator(clf, head_cfg, UpsamplerConfig(mode="linear_vector", gamma=1.0))
    rng = np.random.default_rng(41)
    for p in gen.head.named_params().values():
        p.data = p.data + rng.normal(0.0, 0.5, size=p.data.shape)
    return gen


class TestPackedFactors:
    """The mixture keeps its factors packed; each sampler unpacks them where
    it applies them, with the bits of the factors unpacked for every input."""

    @pytest.mark.parametrize("mode", list(DependencyMode), ids=lambda m: m.value)
    def test_rows_unpack_to_rows_of_the_full_factors(self, mode):
        gen = _mode_generator(mode)
        rng = np.random.default_rng(42)
        x, y = rng.normal(size=(11, 3)), rng.integers(0, 3, 11)
        with T.no_grad():
            params = gen.gmm_params(x, y)
        assert params.chol_packed.shape == (11, 3, 10)
        full = T.tril_scatter(params.chol_packed, 4).data
        whole = sample_exact(params, 6, np.random.default_rng(43).spawn(11))
        streams = np.random.default_rng(43).spawn(11)
        for lo, hi in ((0, 1), (1, 3), (3, 10), (10, 11)):
            rows = params.rows(slice(lo, hi))
            np.testing.assert_array_equal(T.tril_scatter(rows.chol_packed, 4).data, full[lo:hi])
            piece = sample_exact(rows, 6, streams[lo:hi])
            np.testing.assert_array_equal(piece.latent.data, whole.latent.data[lo:hi])

    @pytest.mark.parametrize("mode", [DependencyMode.LABEL, DependencyMode.INDEPENDENT],
                             ids=lambda m: m.value)
    def test_global_factor_bias_gradient_keeps_its_bits(self, mode):
        # Before, the head unpacked the one global factor set, broadcast the
        # (K, D, D) factors over the batch, and its backward summed their
        # gradient over the batch before gathering the triangle. Now the
        # packed entries are broadcast and unpacked per row; the gradient must
        # sum the same elements in the same order.
        gen = _mode_generator(mode)
        B, M, K, D = 7, 5, 3, 4
        labels = np.array([0, 1, 2, 1, 0, 2, 2])
        probe = T.constant(np.random.default_rng(44).normal(size=(B, M, D)))
        params = gen.head.forward(labels=labels, batch_size=B, temps=Temperatures(T_sigma=1.3))
        T.reduce_sum(T.mul(sample_perturbations(params, M, 0.7, np.random.default_rng(45)).latent,
                           probe)).backward()
        new = gen.head.named_params()["head.chol_b"].grad

        # The old chain's gradient, from the one reaching the full factors.
        with T.no_grad():
            params = gen.head.forward(labels=labels, batch_size=B,
                                      temps=Temperatures(T_sigma=1.3))
        full = Tensor(T.tril_scatter(params.chol_packed, D).data, requires_grad=True)
        rng = np.random.default_rng(45)
        pi_b = T.broadcast_to(T.reshape(params.pi_logits, (B, 1, K)), (B, M, K))
        z = gumbel_softmax_sample(pi_b, 0.7, rng)
        latent = T.mixture_latent(z, params.means, full, rng.standard_normal((B, M, K, D)))
        T.reduce_sum(T.mul(latent, probe)).backward()
        rows, cols = np.tril_indices(D)
        diag = np.flatnonzero(rows == cols)
        c = 1.0 / 1.3
        scaled_diag = (gen.head.named_params()["head.chol_b"].data.reshape(K, -1) * c)[:, diag]
        old = full.grad.sum(axis=(0,))[..., rows, cols]
        old[..., diag] *= T._sigmoid(scaled_diag)
        np.testing.assert_array_equal(new, (old * c).reshape(-1))

    @pytest.mark.parametrize("mode", [DependencyMode.LABEL, DependencyMode.INDEPENDENT],
                             ids=lambda m: m.value)
    def test_global_outputs_are_one_row_for_every_input(self, mode):
        # An output that is its bias alone is numpy's read-only broadcast view
        # of one row. Every reader gives the bits it gives on a contiguous copy.
        gen = _mode_generator(mode)
        B, M, K, D = 7, 5, 3, 4
        labels = np.array([0, 1, 2, 1, 0, 2, 2])
        params = gen.head.forward(labels=labels, batch_size=B)
        views = [t.data for t in (params.pi_logits, params.means, params.chol_packed)
                 if t.data.strides[0] == 0]
        assert len(views) == (3 if mode == DependencyMode.INDEPENDENT else 2)
        for view in views:
            assert not view.flags.writeable and np.shares_memory(view[0], view[-1])

        def readers(params, leaves):
            rows = params.rows(slice(2, 5))
            exact = sample_exact(params, M, np.random.default_rng(47).spawn(B))
            means, chol = (Tensor(t.data, requires_grad=True) for t in leaves)
            rng = np.random.default_rng(48)
            z = T.constant(rng.dirichlet(np.ones(K), size=(B, M)))
            latent = T.mixture_latent(z, means, T.tril_scatter(chol, D),
                                      rng.standard_normal((B, M, K, D)))
            T.reduce_sum(T.mul(latent, T.constant(rng.normal(size=(B, M, D))))).backward()
            return [*(t.data for t in (rows.pi_logits, rows.means, rows.chol_packed)),
                    exact.latent.data, exact.relaxed_weights.data,
                    T.tril_scatter(params.chol_packed, D).data, latent.data, means.grad,
                    chol.grad]

        copied = GmmParams(*(T.constant(np.ascontiguousarray(t.data))
                             for t in (params.pi_logits, params.means, params.chol_packed)))
        for got, want in zip(readers(params, (params.means, params.chol_packed)),
                             readers(copied, (copied.means, copied.chol_packed))):
            np.testing.assert_array_equal(got, want)


class TestEstimateMemory:
    """nppr_estimate holds the packed factors of every input and the full
    factors of one piece, never the full factors of every input."""

    @staticmethod
    def _peak(clf, gen, x, y, M):
        tracemalloc.start()
        try:
            nppr_estimate(clf, gen, x, y, M, np.random.default_rng(1))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_grows_by_less_than_the_full_factors(self, monkeypatch):
        # K 8 and D 16, 64 draws of width 256: the full factors of 448 more
        # inputs are 7 MiB, their packed mixture 4.2 MiB, and the pieces'
        # rows about 9 MiB whatever the inputs, more than the head's peak.
        # One worker: with two, whether two pieces overlap moves the peak.
        monkeypatch.setattr(nppr.metrics, "_WORKERS", 1)
        rng = np.random.default_rng(46)
        x, y = rng.normal(size=(512, 256)), rng.integers(0, 3, 512)
        clf = Classifier(ClassifierConfig(input_dim=256, num_classes=3, hidden=(8,)), seed=0)
        clf.freeze()
        K, D = 8, 16
        head = HeadConfig(mode=DependencyMode.JOINT, K=K, latent_dim=D, hidden_dim=8,
                          label_emb_dim=4)
        gen = build_generator(clf, head, UpsamplerConfig(mode="linear_vector", gamma=0.5))
        small, large = (self._peak(clf, gen, x[:n], y[:n], 64) for n in (64, 512))
        assert large - small < 0.75 * (512 - 64) * K * D * D * 8
