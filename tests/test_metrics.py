"""Margin loss values, estimator laws, attack baselines, entropy ratio."""

import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nppr import tensor as T
import nppr.metrics
import nppr.trainer
from nppr.config import parse_config
from nppr.datasets import make_blobs, stratified_split
from nppr.experiment import evaluate_generator
from nppr.generator import build_generator
from nppr.metrics import (CLIPPED_GAUSSIAN, UNIFORM_BALL, RobustnessReport, ar_cw,
                          ar_pgd, baseline_noise, entropy_ratio, margin_loss, mc_half_width,
                          mixture_statistics, nppr_estimate, pr_estimate)
from nppr.models import (CHOL_DIAG_FLOOR, Classifier, ClassifierConfig, ClassifierSpec,
                         DependencyMode, HeadConfig, train_classifier)
from nppr.oracle import GridSpec
from nppr.rng import EVAL, substream
from nppr.tensor import Tensor
from nppr.upsample import UpsamplerConfig, apply_budget


def linear_clf(w, b=0.0):
    """Exact binary classifier with logits [0, w.x + b] built from relu pairs."""
    w = np.asarray(w, dtype=float)
    d = w.shape[0]
    clf = Classifier(ClassifierConfig(input_dim=d, num_classes=2, hidden=(2,)), seed=0)
    clf.weights[0].data = np.stack([w, -w], axis=1)          # h = [relu(u), relu(-u)]
    clf.biases[0].data = np.array([b, -b])
    clf.weights[1].data = np.array([[0.0, 1.0], [0.0, -1.0]])
    clf.biases[1].data = np.zeros(2)
    clf.freeze()
    return clf


class TestMarginLoss:
    def test_zero_gap_zero_kappa(self):
        logits = Tensor(np.array([[1.0, 1.0]]))
        assert margin_loss(logits, np.array([0]), kappa=0.0).item() == pytest.approx(
            np.log(2.0), abs=1e-12)

    def test_large_negative_gap(self):
        logits = Tensor(np.array([[0.0, 10.0]]))
        val = margin_loss(logits, np.array([0]), kappa=1.0).item()
        assert val == pytest.approx(np.log1p(np.exp(-9.0)), rel=1e-9)
        assert val == pytest.approx(1.234e-4, rel=1e-3)

    def test_mean_over_rows(self):
        logits = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        y = np.array([0, 0])
        per_row = [np.logaddexp(0, 1.0 - 0.0 + 1.0), np.logaddexp(0, 0.0 - 1.0 + 1.0)]
        assert margin_loss(logits, y, kappa=1.0).item() == pytest.approx(np.mean(per_row))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="C>=2"):
            margin_loss(Tensor(np.ones((3, 1))), np.zeros(3, dtype=int))

    @pytest.mark.parametrize("sign", [1, -1], ids=["loss", "cw"])
    def test_runner_up_tie_lowest_index(self, sign):
        logits = Tensor(np.array([[2.0, 5.0, 5.0, 1.0]]), requires_grad=True)
        T.margin(logits, np.array([0]), 0.0, sign).backward()
        # Gradient of the runner-up term lands on column 1, not column 2.
        assert logits.grad[0, 1] != 0.0
        assert logits.grad[0, 2] == 0.0

    @pytest.mark.parametrize("sign", [1, -1], ids=["loss", "cw"])
    def test_largest_true_logit_is_not_runner_up(self, sign):
        logits = Tensor(np.array([[5.0, 2.0, 3.0, 1.0]]), requires_grad=True)
        loss = T.margin(logits, np.array([0]), 1.0, sign)
        loss.backward()
        assert loss.item() == pytest.approx(np.logaddexp(0.0, sign * 2.0 + 1.0), rel=1e-15)
        assert logits.grad[0, 0] == -logits.grad[0, 2] != 0.0
        assert np.sign(logits.grad[0, 0]) == sign
        assert logits.grad[0, 1] == logits.grad[0, 3] == 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 3), st.floats(0.05, 3.0), st.integers(0, 10**6))
    def test_monotone_in_true_logit(self, y, bump, seed):
        logits = np.random.default_rng(seed).normal(size=(1, 4))
        lo = margin_loss(Tensor(logits), np.array([y])).item()
        logits2 = logits.copy()
        logits2[0, y] += bump
        hi = margin_loss(Tensor(logits2), np.array([y])).item()
        assert hi >= lo - 1e-12


class TestNpprEstimate:
    """The real estimator on a sign classifier with a 1-D unit mixture: the
    latent draw is N(0, s^2) with s = 0.5 + CHOL_DIAG_FLOOR, and the
    perturbation is tanh of it (gamma 1, `none` upsampler)."""

    @staticmethod
    def _estimate(x, M):
        clf = linear_clf(np.array([1.0]))
        gen = build_generator(clf, HeadConfig(mode=DependencyMode.INDEPENDENT, K=1, latent_dim=1),
                              UpsamplerConfig(mode="none", gamma=1.0))
        return nppr_estimate(clf, gen, np.array([[x]]), np.array([1]), M,
                             np.random.default_rng(0))

    def test_always_correct_gives_one(self):
        assert self._estimate(5.0, M=200) == 1.0

    def test_always_wrong_gives_zero(self):
        assert self._estimate(-5.0, M=200) == 0.0

    def test_near_threshold_matches_normal_law(self):
        # Correct iff 0.1 + tanh(z) > 0, i.e. z > -atanh(0.1).
        M = 20_000
        p = 0.5 * (1.0 + math.erf(math.atanh(0.1) / (0.5 + CHOL_DIAG_FLOOR) / math.sqrt(2.0)))
        assert p == pytest.approx(0.5795, abs=1e-4)
        assert abs(self._estimate(0.1, M) - p) <= mc_half_width(p, M)

    def test_empty_dataset_rejected(self):
        clf = linear_clf(np.array([1.0]))
        with pytest.raises(ValueError, match="empty"):
            nppr_estimate(clf, None, np.zeros((0, 1)), np.zeros(0, dtype=int), 4,
                          np.random.default_rng(0))


class TestPiecewiseEvaluation:
    """The estimators draw and classify a piece of inputs at a time; the
    pieces must reproduce the whole-batch draws and estimates exactly."""

    @pytest.fixture(scope="class")
    def setup(self):
        ds = make_blobs(d=3, classes=3, n=60, seed=4, separation=1.5)
        spec = ClassifierSpec(hidden=(8,), epochs=60, accuracy_threshold=0.5)
        clf = train_classifier(ds.x, ds.y, spec, seed=0)
        head = HeadConfig(mode=DependencyMode.JOINT, K=3, latent_dim=2, hidden_dim=8,
                          label_emb_dim=4)
        gen = build_generator(clf, head, UpsamplerConfig(mode="linear_vector", gamma=1.5),
                              seed=2)
        return clf, gen, ds.x, ds.y

    def test_pieces_equal_whole_batch(self, setup):
        _, gen, x, y = setup
        params = gen.gmm_params(x, y)
        whole = gen.perturb_exact(params, 5, np.random.default_rng(8).spawn(60))
        draws = whole.latent.data.reshape(300, 2)
        pieces = [gen.images(T.constant(draws[lo:lo + 7])).data for lo in range(0, 300, 7)]
        np.testing.assert_array_equal(np.concatenate(pieces), whole.images.data.reshape(300, 3))
        rng = np.random.default_rng(8)
        parts = [gen.perturb_exact(params.rows(slice(lo, lo + 7)), 5,
                                   rng.spawn(len(range(60)[lo:lo + 7]))).images.data
                 for lo in range(0, 60, 7)]
        np.testing.assert_array_equal(np.concatenate(parts), whole.images.data)

    def test_estimate_independent_of_piece_size(self, setup, monkeypatch):
        clf, gen, x, y = setup
        params = gen.gmm_params(x, y)
        images = gen.perturb_exact(params, 5, np.random.default_rng(8).spawn(60)).images.data
        preds = clf.predict((x[:, None, :] + images).reshape(-1, 3)).reshape(60, 5)
        expected = float(np.mean(preds == y[:, None]))
        assert 0.0 < expected < 1.0
        for rows in (1, 7, 300, 1 << 12):
            monkeypatch.setattr(nppr.metrics, "_ROWS", rows)
            assert nppr_estimate(clf, gen, x, y, 5, np.random.default_rng(8)) == expected

    @pytest.mark.parametrize("rows", [1, 7, 300, 1 << 12, 1 << 16])
    def test_wide_estimate_independent_of_piece_size(self, setup, rows, monkeypatch):
        # 2048 draws for 60 inputs: every piece size splits the inputs
        # differently, down to one input per piece.
        clf, gen, x, y = setup
        rng = substream(3, EVAL, 0)
        images = gen.perturb_exact(gen.gmm_params(x, y), 2048, rng.spawn(60)).images.data
        preds = clf.predict((x[:, None, :] + images).reshape(-1, 3)).reshape(60, 2048)
        expected = float(np.mean(preds == y[:, None]))
        assert 0.0 < expected < 1.0
        monkeypatch.setattr(nppr.metrics, "_ROWS", rows)
        assert nppr_estimate(clf, gen, x, y, 2048, substream(3, EVAL, 0)) == expected

    @pytest.mark.parametrize("dist", [UNIFORM_BALL, CLIPPED_GAUSSIAN])
    def test_pr_independent_of_piece_size(self, setup, dist, monkeypatch):
        clf, _, x, y = setup
        noise = baseline_noise(dist, (60, 5, 3), 1.5, np.random.default_rng(9))
        preds = clf.predict((x[:, None, :] + noise).reshape(-1, 3)).reshape(60, 5)
        expected = float(np.mean(preds == y[:, None]))
        assert 0.0 < expected < 1.0
        for rows in (1, 7, 300, 1 << 12):
            monkeypatch.setattr(nppr.metrics, "_ROWS", rows)
            got = pr_estimate(clf, x, y, dist, 1.5, 5, np.random.default_rng(9))
            assert got == expected


class TestTapeFreeEvaluation:
    """The estimators record no tape, and leave training able to record one."""

    @pytest.fixture(scope="class")
    def setup(self):
        ds = make_blobs(d=3, classes=3, n=60, seed=4, separation=1.5)
        spec = ClassifierSpec(hidden=(8,), epochs=60, accuracy_threshold=0.5)
        clf = train_classifier(ds.x, ds.y, spec, seed=0)
        return clf, ds.x, ds.y

    @staticmethod
    def _gen(clf):
        head = HeadConfig(mode=DependencyMode.JOINT, K=3, latent_dim=2, hidden_dim=8,
                          label_emb_dim=4)
        ups = UpsamplerConfig(mode="linear_vector", gamma=1.5)
        return build_generator(clf, head, ups, seed=2)

    @staticmethod
    def _step_grads(clf, gen, x, y):
        """Gradients of one relaxed training step's loss."""
        batch = gen.perturb_relaxed(gen.gmm_params(x, y), 4, 0.5, np.random.default_rng(5),
                                    x[:, None, :])
        perturbed = T.reshape(batch.images, (len(x) * 4, 3))
        margin_loss(clf.logits(perturbed), np.repeat(y, 4)).backward()
        return {name: p.grad for name, p in gen.named_params().items()}

    @staticmethod
    def _recorded(gen, names, monkeypatch) -> list:
        """Wrap the named methods of `gen`; the list gets every value they return."""
        made = []

        def recorded(method):
            def wrapper(*args, **kwargs):
                made.append(method(*args, **kwargs))
                return made[-1]
            return wrapper

        for name in names:
            monkeypatch.setattr(gen, name, recorded(getattr(gen, name)))
        return made

    @staticmethod
    def _assert_no_tape(gen, tensors):
        for t in tensors:
            assert not t.requires_grad and t._parents == ()
        assert all(p.grad is None for p in gen.params())

    def test_nppr_estimate_records_no_tape(self, setup, monkeypatch):
        clf, x, y = setup
        gen = self._gen(clf)
        assert gen.upsampler.weight.requires_grad
        made = self._recorded(gen, ("gmm_params", "images"), monkeypatch)
        nppr_estimate(clf, gen, x, y, 5, np.random.default_rng(8))
        params, images = made  # 300 rows: one piece
        self._assert_no_tape(gen, (params.pi_logits, params.means, params.chol_packed, images))

    def test_probe_records_no_tape(self, setup, monkeypatch):
        clf, x, y = setup
        gen = self._gen(clf)
        made = self._recorded(gen, ("gmm_params",), monkeypatch)
        nppr.trainer._probe_metrics(gen, x, y, 5, np.random.default_rng(8))
        assert len(made) == 2  # the weight statistics' forward, then the estimate's
        self._assert_no_tape(gen, [t for p in made for t in (p.pi_logits, p.means, p.chol_packed)])

    def test_evaluate_generator_records_no_tape(self, setup, monkeypatch):
        clf, _, _ = setup
        gen = self._gen(clf)
        made = self._recorded(gen, ("gmm_params",), monkeypatch)
        cfg = parse_config({"dataset": {"dim": 3, "classes": 3, "n": 60, "seed": 4},
                            "baselines": {"eval_samples": 4, "pgd_steps": 2, "cw_steps": 2}})
        split = stratified_split(make_blobs(d=3, classes=3, n=60, seed=4, separation=1.5),
                                 cfg.train_frac, 0)
        evaluate_generator(cfg, clf, gen, split)
        assert len(made) == 3  # NPPR on test and train, then the weight statistics
        self._assert_no_tape(gen, [t for p in made for t in (p.pi_logits, p.means, p.chol_packed)])

    def test_training_step_after_probe_gets_gradients(self, setup):
        clf, x, y = setup
        fresh = self._step_grads(clf, self._gen(clf), x, y)
        gen = self._gen(clf)
        nppr_estimate(clf, gen, x, y, 5, np.random.default_rng(8))
        after = self._step_grads(clf, gen, x, y)
        assert set(after) == set(fresh) and "upsampler.weight" in after
        for name, grad in after.items():
            assert grad is not None, name
            np.testing.assert_array_equal(grad, fresh[name])
        assert any(np.any(grad != 0.0) for grad in after.values())


needs_blas_setter = pytest.mark.skipif(
    T.BLAS_THREADS is None, reason="numpy's BLAS exports no thread-count calls")


class TestPool:
    """The estimators' pieces on the worker pool: the same numbers as in the
    calling thread, one BLAS thread while the pool runs, and every piece
    stopped before an estimate returns or raises."""

    @pytest.fixture(scope="class")
    def setup(self):
        ds = make_blobs(d=3, classes=3, n=60, seed=4, separation=1.5)
        spec = ClassifierSpec(hidden=(8,), epochs=60, accuracy_threshold=0.5)
        clf = train_classifier(ds.x, ds.y, spec, seed=0)
        head = HeadConfig(mode=DependencyMode.JOINT, K=3, latent_dim=2, hidden_dim=8,
                          label_emb_dim=4)
        gen = build_generator(clf, head, UpsamplerConfig(mode="linear_vector", gamma=1.5),
                              seed=2)
        return clf, gen, ds.x, ds.y

    @staticmethod
    def _estimates(clf, gen, x, y, M):
        return (nppr_estimate(clf, gen, x, y, M, substream(3, EVAL, 0)),
                pr_estimate(clf, x, y, UNIFORM_BALL, 1.5, M, substream(3, EVAL, 2)),
                pr_estimate(clf, x, y, CLIPPED_GAUSSIAN, 1.5, M, substream(3, EVAL, 3)),
                nppr.trainer._probe_metrics(gen, x, y, M, substream(3, EVAL, 4)))

    @staticmethod
    def _threads(monkeypatch, name):
        """Wrap the metrics function `name`; the list gets each call's thread."""
        threads = []
        real = getattr(nppr.metrics, name)

        def wrapper(*args):
            threads.append(threading.get_ident())
            return real(*args)

        monkeypatch.setattr(nppr.metrics, name, wrapper)
        return threads

    # (M, _ROWS): 60 inputs in pieces of 7 at two workers (the last holds 4)
    # and of 14 at one; then more draws than _ROWS, one input a piece.
    @pytest.mark.parametrize("M,rows", [(5, 70), (2048, 1 << 10)])
    def test_two_workers_equal_one(self, setup, M, rows, monkeypatch):
        clf, gen, x, y = setup
        monkeypatch.setattr(nppr.metrics, "_ROWS", rows)
        monkeypatch.setattr(nppr.metrics, "_WORKERS", 1)
        alone = self._estimates(clf, gen, x, y, M)
        monkeypatch.setattr(nppr.metrics, "_WORKERS", 2)
        threads = self._threads(monkeypatch, "_hits")
        pooled = self._estimates(clf, gen, x, y, M)
        assert pooled == alone
        assert 0.0 < alone[0] < 1.0 and 0.0 < alone[1] < 1.0
        # The calling thread and the pool's: one worker per core in all.
        assert len(set(threads)) <= 1 + nppr.metrics._POOL._max_workers
        assert T._grad.enabled

    def test_pool_leaves_one_worker_to_the_calling_thread(self):
        assert nppr.metrics._POOL._max_workers == max(nppr.metrics._WORKERS - 1, 1)

    @needs_blas_setter
    def test_calling_thread_runs_pieces_beside_the_pool(self, setup, monkeypatch):
        # Slowed pieces keep the pool busy, so the calling thread takes some,
        # and the pool takes some: nine pieces of 7 inputs, the last of 4.
        clf, gen, x, y = setup
        monkeypatch.setattr(nppr.metrics, "_ROWS", 70)
        monkeypatch.setattr(nppr.metrics, "_WORKERS", 2)
        alone = nppr_estimate(clf, gen, x, y, 5, substream(3, EVAL, 0))
        real = nppr.metrics._nppr_hits
        threads = []

        def slowed(*args):
            threads.append(threading.get_ident())
            time.sleep(0.02)
            return real(*args)

        monkeypatch.setattr(nppr.metrics, "_nppr_hits", slowed)
        assert nppr_estimate(clf, gen, x, y, 5, substream(3, EVAL, 0)) == alone
        assert len(threads) == 9
        assert threading.get_ident() in threads and len(set(threads)) >= 2

    @needs_blas_setter
    def test_pr_noise_is_drawn_on_the_calling_thread(self, setup, monkeypatch):
        clf, _, x, y = setup
        monkeypatch.setattr(nppr.metrics, "_ROWS", 70)
        monkeypatch.setattr(nppr.metrics, "_WORKERS", 2)
        pieces = self._threads(monkeypatch, "_hits")
        draws = self._threads(monkeypatch, "baseline_noise")
        pr_estimate(clf, x, y, UNIFORM_BALL, 1.5, 5, substream(3, EVAL, 2))
        assert len(draws) == len(pieces) == 9
        assert set(draws) == {threading.get_ident()}

    def test_stress_more_workers_than_cores(self, setup, monkeypatch):
        # Four workers switching threads every microsecond give the numbers
        # of one; a lost hit count or a shared tape flag would show.
        clf, gen, x, y = setup
        monkeypatch.setattr(nppr.metrics, "_ROWS", 20)
        monkeypatch.setattr(nppr.metrics, "_WORKERS", 1)
        alone = self._estimates(clf, gen, x, y, 5)
        pool = ThreadPoolExecutor(max_workers=4)
        monkeypatch.setattr(nppr.metrics, "_POOL", pool)
        monkeypatch.setattr(nppr.metrics, "_WORKERS", 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = self._estimates(clf, gen, x, y, 5)
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown()
        assert pooled == alone

    def test_no_blas_setter_runs_in_calling_thread(self, setup, monkeypatch):
        clf, gen, x, y = setup
        monkeypatch.setattr(nppr.metrics, "_ROWS", 70)
        monkeypatch.setattr(nppr.metrics, "_WORKERS", 2)
        monkeypatch.setattr(T, "BLAS_THREADS", None)
        threads = self._threads(monkeypatch, "_hits")
        self._estimates(clf, gen, x, y, 5)
        assert len(threads) == 4 * 5  # pieces of 14, the last of 4, per estimate
        assert set(threads) == {threading.get_ident()}

    @needs_blas_setter
    def test_blas_threads_restored(self, setup, monkeypatch):
        clf, gen, x, y = setup
        get_threads, set_threads = T.BLAS_THREADS
        monkeypatch.setattr(nppr.metrics, "_ROWS", 70)
        monkeypatch.setattr(nppr.metrics, "_WORKERS", 2)
        inside = []
        real = nppr.metrics._hits
        monkeypatch.setattr(nppr.metrics, "_hits",
                            lambda *args: inside.append(get_threads()) or real(*args))
        previous = get_threads()
        set_threads(2)
        try:
            self._estimates(clf, gen, x, y, 5)
            assert get_threads() == 2
        finally:
            set_threads(previous)
        assert set(inside) == {1}

    @needs_blas_setter
    def test_failing_piece_stops_every_piece(self, setup, monkeypatch):
        # Input 3's mixture is not finite, so the first of nine pieces raises;
        # the error reaches the caller only after the slowed pieces beside it
        # stopped, and the pieces not yet started never start.
        clf, gen, x, y = setup
        get_threads, _ = T.BLAS_THREADS
        before = get_threads()
        monkeypatch.setattr(nppr.metrics, "_ROWS", 70)
        monkeypatch.setattr(nppr.metrics, "_WORKERS", 2)
        real_params = gen.gmm_params

        def broken(*args):
            params = real_params(*args)
            params.means.data[3] = np.nan
            return params

        monkeypatch.setattr(gen, "gmm_params", broken)
        lock = threading.Lock()
        state = {"running": 0, "started": 0}
        real = nppr.metrics._nppr_hits

        def counted(*args):
            with lock:
                state["running"] += 1
                state["started"] += 1
            try:
                time.sleep(0.05)
                return real(*args)
            finally:
                with lock:
                    state["running"] -= 1

        monkeypatch.setattr(nppr.metrics, "_nppr_hits", counted)
        with pytest.raises(ValueError, match="sample_exact: means must be finite"):
            nppr_estimate(clf, gen, x, y, 5, np.random.default_rng(8))
        assert state["running"] == 0 and 0 < state["started"] < 9
        assert get_threads() == before
        assert T._grad.enabled

    def test_failed_piece_stops_the_drain(self, monkeypatch):
        # Two pool threads, four pieces handed out: the first fails once all
        # are, its thread takes the third, the second runs, and the fourth
        # waits in the queue. The calling thread must not run it.
        pool = ThreadPoolExecutor(max_workers=2)
        monkeypatch.setattr(nppr.metrics, "_POOL", pool)
        monkeypatch.setattr(T, "BLAS_THREADS", (lambda: 1, lambda n: None))
        handed_out, third_started = threading.Event(), threading.Event()
        ran = []

        def fail():
            assert handed_out.wait(5.0)
            raise ValueError("piece 0 failed")

        def slow(i):
            ran.append(i)
            if i == 2:
                third_started.set()
            time.sleep(0.3)
            return 1

        def tasks():
            yield fail
            yield from (partial(slow, i) for i in (1, 2, 3))
            handed_out.set()
            assert third_started.wait(5.0)

        try:
            with pytest.raises(ValueError, match="piece 0 failed"):
                nppr.metrics._total_hits(tasks(), 3, 4)
        finally:
            pool.shutdown()
        assert sorted(ran) == [1, 2]


class TestPrEstimate:
    def test_tiny_gamma_equals_clean_accuracy(self):
        ds = make_blobs(d=2, classes=2, n=120, seed=1, separation=4.0)
        clf = train_classifier(ds.x, ds.y, ClassifierSpec(hidden=(8,), epochs=120), seed=0)
        clean = clf.accuracy(ds.x, ds.y)
        for dist in (UNIFORM_BALL, CLIPPED_GAUSSIAN):
            val = pr_estimate(clf, ds.x, ds.y, dist, gamma=1e-9, M=64,
                              rng=np.random.default_rng(2))
            assert val == pytest.approx(clean, abs=1e-12)

    def test_sign_flip_invariance_on_symmetric_instance(self):
        # Even classifier (label 1 iff |x| > 0.4) at the symmetric point x=0:
        # every draw and its negation give identical indicators, so the paired
        # estimates agree exactly.
        clf = Classifier(ClassifierConfig(input_dim=1, num_classes=2, hidden=(2,)), seed=0)
        clf.weights[0].data = np.array([[1.0, -1.0]])
        clf.biases[0].data = np.zeros(2)
        clf.weights[1].data = np.array([[0.0, 1.0], [0.0, 1.0]])
        clf.biases[1].data = np.array([0.0, -0.4])
        clf.freeze()
        x = np.array([[0.0]])
        y = np.array([0])

        class FlipRng:
            def __init__(self, seed):
                self.inner = np.random.default_rng(seed)

            def uniform(self, lo, hi, size=None):
                return -self.inner.uniform(lo, hi, size=size)

        a = pr_estimate(clf, x, y, UNIFORM_BALL, gamma=1.0, M=4000,
                        rng=np.random.default_rng(7))
        b = pr_estimate(clf, x, y, UNIFORM_BALL, gamma=1.0, M=4000, rng=FlipRng(7))
        assert a == b

    def test_gamma_guard(self):
        clf = linear_clf(np.array([1.0]))
        with pytest.raises(ValueError, match="gamma"):
            pr_estimate(clf, np.ones((1, 1)), np.ones(1, dtype=int), UNIFORM_BALL,
                        gamma=0.0, M=4, rng=np.random.default_rng(0))

    def test_unknown_dist_rejected(self):
        clf = linear_clf(np.array([1.0]))
        with pytest.raises(ValueError, match="unknown distribution"):
            pr_estimate(clf, np.ones((1, 1)), np.ones(1, dtype=int), "laplace",
                        gamma=0.1, M=4, rng=np.random.default_rng(0))

    def test_no_draws_rejected(self):
        clf = linear_clf(np.array([1.0]))
        with pytest.raises(ValueError, match="M must be >= 1"):
            pr_estimate(clf, np.ones((1, 1)), np.ones(1, dtype=int), UNIFORM_BALL,
                        gamma=0.1, M=0, rng=np.random.default_rng(0))


def _random_linear_instance(rng, d):
    w = rng.normal(size=d)
    w[np.abs(w) < 0.2] += 0.3 * np.sign(w[np.abs(w) < 0.2] + 1e-12)
    b = rng.normal() * 0.3
    x = rng.normal(size=d)
    clf = linear_clf(w, b)
    y = int(clf.predict(x[None, :])[0])
    margin = abs(float(x @ w + b))
    reach = float(np.abs(w).sum())
    return clf, x, y, margin, reach


class TestAttacks:
    def test_zero_gamma_is_clean_accuracy(self):
        ds = make_blobs(d=2, classes=2, n=60, seed=4, separation=4.0)
        clf = train_classifier(ds.x, ds.y, ClassifierSpec(hidden=(8,), epochs=100), seed=0)
        clean = clf.accuracy(ds.x, ds.y)
        assert ar_pgd(clf, ds.x, ds.y, gamma=0.0) == clean
        assert ar_cw(clf, ds.x, ds.y, gamma=0.0) == clean

    def test_pgd_default_steps(self):
        import inspect
        assert inspect.signature(ar_pgd).parameters["steps"].default == 20

    @pytest.mark.parametrize("attack", [ar_pgd, ar_cw])
    def test_linear_closed_form(self, attack):
        rng = np.random.default_rng(11)
        agree = 0
        total = 0
        for _ in range(25):
            clf, x, y, margin, reach = _random_linear_instance(rng, d=3)
            gamma = margin / reach * rng.uniform(0.5, 1.6)
            if abs(margin - gamma * reach) < 0.02 * margin + 1e-9:
                continue  # skip knife-edge instances
            flip_expected = margin <= gamma * reach
            surv = attack(clf, x[None, :], np.array([y]), gamma=gamma,
                          rng=np.random.default_rng(total))
            total += 1
            agree += int((surv == 0.0) == flip_expected)
        assert total >= 15
        assert agree == total

    def test_cw_close_to_pgd_on_trained_model(self):
        ds = make_blobs(d=4, classes=3, n=240, seed=5, separation=3.0)
        clf = train_classifier(ds.x, ds.y, ClassifierSpec(hidden=(16,), epochs=150), seed=0)
        gamma = 0.8
        p = ar_pgd(clf, ds.x, ds.y, gamma, rng=np.random.default_rng(1))
        c = ar_cw(clf, ds.x, ds.y, gamma, rng=np.random.default_rng(2))
        assert abs(p - c) <= 0.02 + mc_half_width(p, ds.n) + mc_half_width(c, ds.n)


_BUDGET_USERS = {
    "apply_budget": lambda clf, x, y, gamma: apply_budget(Tensor(x), gamma),
    "pr_estimate": lambda clf, x, y, gamma: pr_estimate(clf, x, y, UNIFORM_BALL, gamma, 4,
                                                        np.random.default_rng(0)),
    "ar_pgd": lambda clf, x, y, gamma: ar_pgd(clf, x, y, gamma, steps=1),
    "ar_cw": lambda clf, x, y, gamma: ar_cw(clf, x, y, gamma, steps=1),
    # NaN and inf once built a grid of NaN points, on which oracle_pr read 0.0.
    "grid": lambda clf, x, y, gamma: GridSpec(dims=1, points_per_dim=5, gamma=gamma),
}


# The attacks read gamma 0 as no attack (clean accuracy, tested above).
@pytest.mark.parametrize("name, gamma", [
    *((name, gamma) for name in _BUDGET_USERS for gamma in (np.nan, np.inf, -np.inf, -0.5)),
    ("apply_budget", 0.0), ("pr_estimate", 0.0), ("grid", 0.0)])
def test_budget_must_be_finite_and_positive(name, gamma):
    x, y = np.ones((3, 2)), np.array([0, 1, 1])
    with pytest.raises(ValueError, match=rf"^{name}: gamma must be finite and > 0, got "):
        _BUDGET_USERS[name](linear_clf([1.0, -1.0]), x, y, gamma)


@pytest.mark.parametrize("gamma", [0.25, 1.0, 16 / 255])
def test_clipped_gaussian_has_sd_a_third_of_the_budget(gamma):
    noise = baseline_noise(CLIPPED_GAUSSIAN, (50, 4), gamma, np.random.default_rng(3))
    twin = np.random.default_rng(3).normal(0, gamma / 3, (50, 4))
    np.testing.assert_array_equal(noise, np.clip(twin, -gamma, gamma))


class TestEntropyRatio:
    def test_uniform_is_one(self):
        assert entropy_ratio(np.full(4, 0.25), 4) == pytest.approx(1.0, abs=1e-12)

    def test_one_hot_is_zero(self):
        assert entropy_ratio(np.array([1.0, 0.0, 0.0]), 3) == 0.0

    def test_half_half(self):
        assert entropy_ratio(np.array([0.5, 0.5, 0.0, 0.0]), 4) == pytest.approx(
            0.5, abs=1e-12)

    def test_k_one_rejected(self):
        with pytest.raises(ValueError, match="K"):
            entropy_ratio(np.array([1.0]), 1)

    def test_non_simplex_rejected(self):
        with pytest.raises(ValueError, match="simplex"):
            entropy_ratio(np.array([0.9, 0.3]), 2)

    @pytest.mark.parametrize("weights", [[np.nan] * 3, [np.nan, 0.5, 0.5],
                                         [np.inf, 0.0, 0.0], [-np.inf, 1.0, 1.0]],
                             ids=["all_nan", "one_nan", "inf", "minus_inf"])
    def test_non_finite_rejected(self, weights):
        with pytest.raises(ValueError, match="finite"):
            entropy_ratio(np.array(weights), 3)

    def test_logit_shift_invariance(self):
        logits = np.random.default_rng(12).normal(size=5)
        for shift in (0.0, 3.0, -17.5):
            z = logits + shift
            pi = np.exp(z - z.max())
            pi /= pi.sum()
            assert entropy_ratio(pi, 5) == pytest.approx(
                entropy_ratio(np.exp(logits - logits.max()) /
                              np.exp(logits - logits.max()).sum(), 5), abs=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=10))
    def test_fuzz_in_unit_interval(self, raw):
        pi = np.asarray(raw) / np.sum(raw)
        pi = pi / pi.sum()  # renormalize against float drift
        assert 0.0 <= entropy_ratio(pi, len(pi)) <= 1.0 + 1e-12


class TestReport:
    def _report(self, **kw):
        base = dict(nppr_test=0.9, nppr_train=0.92, pr_gaussian=0.99, pr_uniform=0.995,
                    ar_pgd=0.1, ar_cw=0.11, entropy_ratio=0.8, pi_max=0.4, pi_min=0.1,
                    pi_std=0.1, clean_accuracy=0.97)
        base.update(kw)
        return RobustnessReport(**base)

    def test_json_roundtrip(self):
        r = self._report(model_key="m", dataset_key="d", gamma=0.1)
        assert RobustnessReport.from_dict(r.to_dict()) == r

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            self._report(nppr_test=1.5)

    def test_summary_two_decimals(self):
        lines = self._report().summary_lines()
        assert any("90.00" in line for line in lines)

    def test_mixture_statistics(self):
        pi = np.array([[0.5, 0.5], [1.0, 0.0]])
        stats = mixture_statistics(pi)
        assert stats["pi_max"] == pytest.approx(0.75)
        assert stats["pi_min"] == pytest.approx(0.25)
        assert stats["entropy_ratio"] == pytest.approx(0.5)

    @pytest.mark.parametrize("row", [[np.nan] * 3, [np.nan, 0.5, 0.5]],
                             ids=["all_nan", "one_nan"])
    def test_mixture_statistics_non_finite_row(self, row):
        stats = mixture_statistics(np.array([row, [1 / 3] * 3]))
        assert np.isnan(stats["entropy_ratio"])
        assert np.isnan(stats["pi_max"])
