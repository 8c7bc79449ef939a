"""Classifier training/freezing and head-mode semantics."""

import numpy as np
import pytest

from nppr import tensor as T
from nppr.datasets import make_blobs
from nppr.generator import build_generator
from nppr.metrics import margin_loss
from nppr.models import (Classifier, ClassifierConfig, ClassifierSpec, DependencyMode, GmmHead,
                         HeadConfig, Temperatures, train_classifier)
from nppr.optim import Adam
from nppr.rng import CLASSIFIER, substream
from nppr.tensor import Tensor
from nppr.upsample import UpsamplerConfig
from test_tensor import unpack


@pytest.fixture(scope="module")
def blob_classifier():
    ds = make_blobs(d=2, classes=2, n=200, seed=0, separation=4.0)
    clf = train_classifier(ds.x, ds.y, ClassifierSpec(hidden=(16,), epochs=200), seed=0)
    return clf, ds


class TestClassifier:
    def test_separable_blobs_hit_accuracy(self, blob_classifier):
        clf, _ = blob_classifier
        assert clf.train_accuracy >= 0.99

    def test_one_full_batch_step_per_epoch(self):
        # Each epoch is one Adam step on every row, in that epoch's shuffled order.
        ds = make_blobs(d=3, classes=3, n=60, seed=4, separation=3.0)
        spec = ClassifierSpec(hidden=(8,), epochs=5, lr=0.05)
        clf = train_classifier(ds.x, ds.y, spec, seed=2)
        twin = Classifier(ClassifierConfig(input_dim=3, num_classes=3, hidden=(8,)), seed=2)
        opt = Adam(twin.params(), lr=spec.lr)
        for epoch in range(spec.epochs):
            idx = substream(2, CLASSIFIER, 1, epoch).permutation(len(ds.y))
            opt.zero_grad()
            T.cross_entropy(twin.logits(T.constant(ds.x[idx])), ds.y[idx]).backward()
            opt.step()
        assert opt.t == spec.epochs
        for p, q in zip(clf.params(), twin.params()):
            np.testing.assert_array_equal(p.data, q.data)

    def test_constant_labels_trivial(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(50, 3))
        y = np.zeros(50, dtype=int)
        clf = train_classifier(x, y, ClassifierSpec(hidden=(8,), epochs=20), seed=0)
        assert clf.accuracy(x, y) == 1.0

    def test_ten_class_blobs(self):
        ds = make_blobs(d=16, classes=10, n=600, seed=3, separation=6.0)
        clf = train_classifier(ds.x, ds.y, ClassifierSpec(hidden=(32,), epochs=150), seed=1)
        assert clf.train_accuracy >= 0.95

    def test_frozen_weights_bit_identical_after_grad_flow(self, blob_classifier):
        clf, ds = blob_classifier
        snapshot = [p.data.copy() for p in clf.params()]
        x = Tensor(ds.x[:8], requires_grad=True)
        loss = T.reduce_sum(clf.logits(x))
        loss.backward()
        assert x.grad is not None  # gradients still flow to inputs
        for p, data in zip(clf.params(), snapshot):
            np.testing.assert_array_equal(p.data, data)
        assert all(p.grad is None for p in clf.params())

    def test_below_threshold_reported_not_fatal(self, caplog):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(80, 2))
        y = rng.integers(0, 2, size=80)  # unlearnable noise labels
        with caplog.at_level("WARNING"):
            spec = ClassifierSpec(hidden=(4,), epochs=2, accuracy_threshold=0.999)
            clf = train_classifier(x, y, spec, seed=0)
        assert clf.train_accuracy is not None
        assert any("below threshold" in r.message for r in caplog.records)

    def test_spec_rules_hold_for_library_callers(self):
        # The config reader is not the only way in: a spec built in code is
        # refused before the fit, not inside it.
        x, y = np.zeros((8, 2)), np.arange(8) % 2
        with pytest.raises(ValueError, match=r"^ClassifierSpec\.epochs: must be >= 1$"):
            train_classifier(x, y, ClassifierSpec(hidden=(4,), epochs=0), seed=0)

    def test_wrong_input_shape_rejected(self, blob_classifier):
        clf, _ = blob_classifier
        with pytest.raises(ValueError, match="expected"):
            clf.logits(Tensor(np.ones((4, 5))))


class TestPredict:
    """`predict` is the argmax of the logits' `T.dense` forward, run without a
    tape; it must pick exactly the class the taped logits pick."""

    @staticmethod
    def _clf(hidden, seed):
        clf = Classifier(ClassifierConfig(input_dim=4, num_classes=5, hidden=hidden), seed=seed)
        rng = np.random.default_rng(seed)
        for b in clf.biases:
            b.data = rng.normal(size=b.shape)
        return clf

    @pytest.mark.parametrize("hidden", [(7,), (6, 5)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_engine_logits(self, hidden, seed):
        clf = self._clf(hidden, seed)
        x = np.random.default_rng(10 + seed).normal(scale=2.0, size=(500, 4))
        expected = clf.logits(T.constant(x)).data.argmax(axis=1)
        assert len(np.unique(expected)) > 1
        np.testing.assert_array_equal(clf.predict(x), expected)

    @pytest.mark.parametrize("hidden", [(7,), (6, 5)])
    def test_all_tied_picks_index_zero(self, hidden):
        clf = self._clf(hidden, 3)
        clf.weights[-1].data = np.zeros_like(clf.weights[-1].data)
        clf.biases[-1].data = np.zeros_like(clf.biases[-1].data)
        x = np.random.default_rng(4).normal(size=(50, 4))
        assert np.all(clf.logits(T.constant(x)).data.argmax(axis=1) == 0)
        np.testing.assert_array_equal(clf.predict(x), np.zeros(50, dtype=np.int64))

    def test_wrong_input_width_rejected(self):
        clf = self._clf((7,), 0)
        with pytest.raises(ValueError, match="expected"):
            clf.predict(np.ones((4, 5)))


class TestFeatures:
    def test_zero_input_zero_bias_gives_zero(self):
        ds = make_blobs(d=3, classes=2, n=40, seed=0, separation=4.0)
        clf = train_classifier(ds.x, ds.y, ClassifierSpec(hidden=(6,), epochs=1), seed=0)
        for b in clf.biases:
            b.data = np.zeros_like(b.data)
        feats = clf.features(Tensor(np.zeros((2, 3))))
        np.testing.assert_array_equal(feats.data, np.zeros((2, 6)))

    def test_shape_contract(self, blob_classifier):
        clf, ds = blob_classifier
        feats = clf.features(Tensor(ds.x[:7]))
        assert feats.shape == (7, clf.cfg.hidden[-1])

    def test_deterministic(self, blob_classifier):
        clf, ds = blob_classifier
        a = clf.features(Tensor(ds.x[:5])).data
        b = clf.features(Tensor(ds.x[:5])).data
        np.testing.assert_array_equal(a, b)


def _head(mode, K=3, latent=2, seed=0, **kw):
    cfg = HeadConfig(mode=mode, K=K, latent_dim=latent, hidden_dim=8,
                     label_emb_dim=4, **kw)
    feature_dim = 5 if cfg.mode.conditions_on_features else None
    classes = 4 if cfg.mode.conditions_on_labels else None
    return GmmHead(cfg, feature_dim=feature_dim, num_classes=classes, seed=seed)


class TestHeads:
    def test_independent_rows_identical(self):
        head = _head(DependencyMode.INDEPENDENT)
        params = head.forward(batch_size=5)
        for field in (params.pi_logits, params.means, params.chol_packed):
            for row in field.data[1:]:
                np.testing.assert_array_equal(row, field.data[0])

    def test_independent_needs_batch_size(self):
        head = _head(DependencyMode.INDEPENDENT)
        with pytest.raises(ValueError, match="batch_size"):
            head.forward()

    def test_label_same_label_same_pi(self):
        head = _head(DependencyMode.LABEL)
        # Break the symmetric init so the check is non-trivial.
        head._named["head.pi_w"].data = np.random.default_rng(0).normal(size=(4, 3))
        params = head.forward(labels=np.array([2, 2, 1]))
        np.testing.assert_array_equal(params.pi_logits.data[0], params.pi_logits.data[1])
        assert not np.array_equal(params.pi_logits.data[0], params.pi_logits.data[2])

    def test_label_means_are_global(self):
        head = _head(DependencyMode.LABEL)
        params = head.forward(labels=np.array([0, 3]))
        np.testing.assert_array_equal(params.means.data[0], params.means.data[1])
        np.testing.assert_array_equal(params.chol_packed.data[0], params.chol_packed.data[1])

    def test_joint_same_label_different_input(self):
        head = _head(DependencyMode.JOINT)
        head._named["head.mu_w"].data = np.random.default_rng(1).normal(size=(8, 3 * 2))
        rng = np.random.default_rng(2)
        feats = Tensor(rng.normal(size=(2, 5)))
        params = head.forward(features=feats, labels=np.array([1, 1]))
        np.testing.assert_array_equal(params.pi_logits.data[0], params.pi_logits.data[1])
        assert not np.array_equal(params.means.data[0], params.means.data[1])

    def test_input_mode_invariant_to_labels(self):
        head = _head(DependencyMode.INPUT)
        feats = Tensor(np.random.default_rng(3).normal(size=(4, 5)))
        a = head.forward(features=feats)
        b = head.forward(features=feats, labels=np.array([3, 2, 1, 0]))
        np.testing.assert_array_equal(a.pi_logits.data, b.pi_logits.data)

    def test_missing_conditioning_rejected(self):
        with pytest.raises(ValueError, match="input"):
            _head(DependencyMode.INPUT).forward(labels=np.array([0]))
        with pytest.raises(ValueError, match="label"):
            _head(DependencyMode.LABEL).forward()

    def test_embedding_rows_unit_norm(self):
        head = _head(DependencyMode.LABEL)
        emb = head._embedding().data
        np.testing.assert_allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-9)

    def test_chol_structure(self):
        head = _head(DependencyMode.INPUT, K=2, latent=3)
        head._named["head.chol_w"].data = np.random.default_rng(4).normal(size=(8, 2 * 6))
        feats = Tensor(np.random.default_rng(5).normal(size=(3, 5)))
        chol = unpack(head.forward(features=feats).chol_packed.data, 3)
        upper = np.triu(chol, k=1)
        np.testing.assert_array_equal(upper, np.zeros_like(upper))
        diags = chol[:, :, np.arange(3), np.arange(3)]
        assert np.all(diags > 0)

    def test_symmetric_init(self):
        for mode in DependencyMode:
            head = _head(mode, K=4, latent=2)
            kwargs = {}
            if mode.conditions_on_features:
                kwargs["features"] = Tensor(np.random.default_rng(6).normal(size=(3, 5)))
            if mode.conditions_on_labels:
                kwargs["labels"] = np.array([0, 1, 2])
            params = head.forward(batch_size=3, **kwargs)
            pi = params.pi()
            np.testing.assert_allclose(pi, 0.25, atol=1e-12)
            np.testing.assert_allclose(params.means.data, 0.0, atol=1e-12)

    def test_temperature_divisors_change_outputs(self):
        head = _head(DependencyMode.INDEPENDENT, K=2, latent=2)
        head._named["head.pi_b"].data = np.array([2.0, -2.0])
        hot = head.forward(batch_size=1, temps=Temperatures(T_pi=4.0))
        cold = head.forward(batch_size=1, temps=Temperatures(T_pi=1.0))
        np.testing.assert_allclose(hot.pi_logits.data, cold.pi_logits.data / 4.0)

    def test_k_guard(self):
        with pytest.raises(ValueError, match="K"):
            HeadConfig(mode=DependencyMode.INDEPENDENT, K=0)

    @pytest.mark.parametrize("field", ["K", "latent_dim", "hidden_dim", "label_emb_dim"])
    @pytest.mark.parametrize("value,reason", [(2.5, "expected int, got float"),
                                              (True, "expected int, got bool"),
                                              ("7", "expected int, got str"),
                                              (0, "must be >= 1")],
                             ids=["2.5", "True", "7", "0"])
    def test_sizes_must_be_positive_integers(self, field, value, reason):
        with pytest.raises(ValueError) as info:
            HeadConfig(mode=DependencyMode.INDEPENDENT, **{field: value})
        assert str(info.value) == f"HeadConfig.{field}: {reason}"


def _perturbed_generator(clf, mode):
    """A generator whose head weights are moved off the symmetric init."""
    head_cfg = HeadConfig(mode=mode, K=3, latent_dim=2, hidden_dim=8, label_emb_dim=4)
    gen = build_generator(clf, head_cfg, UpsamplerConfig(mode="linear_vector", gamma=1.0), seed=0)
    rng = np.random.default_rng(11)
    for p in gen.head.named_params().values():
        p.data = p.data + rng.normal(0.0, 0.5, size=p.data.shape)
    return gen


class TestPerRowHeads:
    @pytest.mark.parametrize("mode", list(DependencyMode), ids=lambda m: m.value)
    def test_row_alone_equals_row_in_batch(self, blob_classifier, mode):
        # The mixture for one input must not depend on the other inputs of its batch.
        clf, ds = blob_classifier
        gen = _perturbed_generator(clf, mode)
        x, y = ds.x[:9], ds.y[:9]
        gen.temps = Temperatures(T_pi=1.3, T_mu=0.7, T_sigma=1.1, T_shared=1.5)
        whole = gen.gmm_params(x, y)
        for i in range(len(x)):
            alone = gen.gmm_params(x[i:i + 1], y[i:i + 1])
            for name in ("pi_logits", "means", "chol_packed"):
                np.testing.assert_allclose(getattr(alone, name).data[0],
                                           getattr(whole, name).data[i],
                                           rtol=0, atol=1e-12, err_msg=f"{name}, row {i}")

    @pytest.mark.parametrize("mode", [DependencyMode.INPUT, DependencyMode.JOINT],
                             ids=lambda m: m.value)
    def test_t_shared_divides_the_trunk(self, blob_classifier, mode):
        # relu is positively homogeneous, so dividing the trunk by T_shared
        # divides each trunk-driven output (less its bias) by T_shared.
        clf, ds = blob_classifier
        gen = _perturbed_generator(clf, mode)
        bias = gen.head.named_params()["head.mu_b"].data.reshape(3, 2)
        gen.temps = Temperatures(T_shared=1.0)
        one = gen.gmm_params(ds.x[:6], ds.y[:6])
        gen.temps = Temperatures(T_shared=2.0)
        two = gen.gmm_params(ds.x[:6], ds.y[:6])
        assert not np.allclose(one.means.data, two.means.data)
        np.testing.assert_allclose(two.means.data - bias, (one.means.data - bias) / 2.0,
                                   rtol=0, atol=1e-12)
        if mode == DependencyMode.INPUT:
            assert not np.allclose(one.pi_logits.data, two.pi_logits.data)


class TestPackedFactors:
    """Every stored factor entry is a live parameter: none is masked away."""

    @pytest.mark.parametrize("mode, name, shape",
                             [(DependencyMode.JOINT, "head.chol_w", (64, 7 * 136)),
                              (DependencyMode.INDEPENDENT, "head.chol_b", (7 * 136,))],
                             ids=["joint", "independent"])
    def test_every_factor_entry_gets_gradient(self, mode, name, shape):
        # Desk shapes: 16 inputs, 10 classes, 32 features, K=7, D=16, width 64.
        clf = Classifier(ClassifierConfig(input_dim=16, num_classes=10, hidden=(32,)), seed=0)
        clf.freeze()
        gen = build_generator(clf, HeadConfig(mode=mode, K=7, latent_dim=16),
                              UpsamplerConfig(mode="linear_vector", gamma=2.0), seed=0)
        rng = np.random.default_rng(3)
        B, M = 12, 4
        x, y = rng.normal(size=(B, 16)), rng.integers(0, 10, size=B)
        batch = gen.perturb_relaxed(gen.gmm_params(x, y), M, 0.5, rng, x[:, None, :])
        perturbed = T.reshape(batch.images, (B * M, 16))
        margin_loss(clf.logits(perturbed), np.repeat(y, M)).backward()
        grad = gen.head.named_params()[name].grad
        assert grad.shape == shape
        # A trunk weight column is live when some trunk unit moves it; every
        # entry of the global factors' bias must move.
        live = np.any(grad != 0.0, axis=0) if mode == DependencyMode.JOINT else grad != 0.0
        assert np.count_nonzero(~live) == 0
