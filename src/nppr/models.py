"""Frozen target classifiers and the heads that emit mixture parameters.

The classifier is a dense+relu stack, one `tensor.dense` op, trained on
synthetic data and frozen before any generator training; gradients still flow
through it to the perturbed inputs. Heads map nothing / labels / features /
both to mixture parameters, mirroring the four dependency structures:

  independent: free global parameters broadcast over the batch
  label:       label embedding drives mixture weights; means and Cholesky
               factors stay global
  input:       shared trunk (dense -> divide by T_shared -> relu) feeding
               three separate output layers for weights, means and factors
  joint:       mixture weights from the label embedding, means/factors from
               the feature trunk

Every head is per-row: the mixture for one input does not depend on the other
inputs of its batch.

A Cholesky factor is stored packed: its D(D+1)/2 lower-triangle entries in
row-major order (`np.tril_indices`), the unconstrained parametrisation of
Pinheiro & Bates (1996). `tensor.tril_factor` scales them by 1/T_sigma, maps
the diagonal through softplus plus CHOL_DIAG_FLOOR and scatters them into a
D x D block, so the zero upper triangle has no parameters.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import tensor as T
from .optim import Adam
from .rng import CLASSIFIER, GENERATOR_INIT, substream
from .serialize import at_least, check_fields, checked, positive, positive_int, rate
from .tensor import Tensor

log = logging.getLogger(__name__)

CHOL_DIAG_FLOOR = 1e-6
# softplus(x) = 0.5 at this x; used so factor diagonals start at 0.5.
_INV_SOFTPLUS_HALF = float(np.log(np.expm1(0.5)))


class DependencyMode(str, Enum):
    INDEPENDENT = "independent"
    LABEL = "label"
    INPUT = "input"
    JOINT = "joint"

    @property
    def conditions_on_features(self) -> bool:
        return self in (DependencyMode.INPUT, DependencyMode.JOINT)

    @property
    def conditions_on_labels(self) -> bool:
        return self in (DependencyMode.LABEL, DependencyMode.JOINT)


@dataclass
class ClassifierConfig:
    input_dim: int
    num_classes: int
    hidden: tuple = (32,)
    image_shape: tuple | None = None

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("classifier needs at least 2 classes")
        if not self.hidden:
            raise ValueError("classifier needs at least one hidden layer for features")


class Classifier:
    """Dense layers with relus between them, ending in C logits; freezable."""

    def __init__(self, cfg: ClassifierConfig, seed: int = 0):
        self.cfg = cfg
        self.frozen = False
        self.train_accuracy: float | None = None
        rng = substream(seed, CLASSIFIER, 0)
        dims = [cfg.input_dim, *cfg.hidden, cfg.num_classes]
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
            self.weights.append(Tensor(w, requires_grad=True))
            self.biases.append(Tensor(np.zeros(fan_out), requires_grad=True))

    @property
    def num_classes(self) -> int:
        return self.cfg.num_classes

    def params(self) -> list[Tensor]:
        return [*self.weights, *self.biases]

    def _check_input(self, x: Tensor | np.ndarray) -> None:
        if x.ndim != 2 or x.shape[1] != self.cfg.input_dim:
            raise ValueError(
                f"classifier: expected (N, {self.cfg.input_dim}) input, got {x.shape}")

    def logits(self, x: Tensor) -> Tensor:
        self._check_input(x)
        return T.dense(x, *zip(self.weights, self.biases))

    def features(self, x: Tensor) -> Tensor:
        """Penultimate activations (post-relu of the last hidden layer)."""
        self._check_input(x)
        return T.relu(T.dense(x, *zip(self.weights[:-1], self.biases[:-1])))

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class per row, ties to the lowest index: the argmax of the logits'
        `T.dense` forward, run under `no_grad`, so no tape is recorded."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        self._check_input(x)
        with T.no_grad():
            return T.dense(T.constant(x), *zip(self.weights, self.biases)).data.argmax(axis=1)

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.mean(self.predict(x) == np.asarray(y)))

    def freeze(self) -> None:
        for p in self.params():
            p.requires_grad = False
            p.grad = None
        self.frozen = True


@dataclass
class ClassifierSpec:
    """How the target classifier is fit: its hidden widths and the Adam run."""
    hidden: tuple = checked((64, 32), lambda v: None if v and all(positive_int(h) for h in v)
                            else "must be a non-empty list of positive ints")
    epochs: int = checked(200, at_least(1))
    lr: float = checked(1e-2, positive)
    batch_size: int | None = checked(None, at_least(1), kind=int)
    accuracy_threshold: float = checked(0.95, rate)

    def __post_init__(self):
        check_fields(self)


def train_classifier(x: np.ndarray, y: np.ndarray, spec: ClassifierSpec, seed: int,
                     image_shape: tuple | None = None) -> Classifier:
    """Fit an MLP on (x, y) as `spec` says, with cross-entropy, and freeze it.

    Falling short of `spec.accuracy_threshold` is reported, not fatal; the
    final accuracy is stored on the returned classifier either way.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.size == 0:
        raise ValueError("train_classifier: empty dataset")
    num_classes = int(y.max()) + 1
    if np.any(y < 0):
        raise ValueError("train_classifier: labels must be in [0, C)")
    cfg = ClassifierConfig(input_dim=x.shape[1], num_classes=max(num_classes, 2),
                           hidden=tuple(spec.hidden), image_shape=image_shape)
    clf = Classifier(cfg, seed=seed)
    opt = Adam(clf.params(), lr=spec.lr)
    n = x.shape[0]
    bs = n if spec.batch_size is None else min(spec.batch_size, n)
    for epoch in range(spec.epochs):
        order = substream(seed, CLASSIFIER, 1, epoch).permutation(n)
        for start in range(0, n, bs):
            idx = order[start:start + bs]
            opt.zero_grad()
            loss = T.cross_entropy(clf.logits(T.constant(x[idx])), y[idx])
            loss.backward()
            opt.step()
    clf.train_accuracy = clf.accuracy(x, y)
    if clf.train_accuracy < spec.accuracy_threshold:
        log.warning("classifier train accuracy %.4f below threshold %.4f",
                    clf.train_accuracy, spec.accuracy_threshold)
    clf.freeze()
    return clf


# ---------------------------------------------------------------------------
# Mixture-parameter heads


@dataclass
class HeadConfig:
    mode: DependencyMode
    K: int = checked(7, at_least(1))
    latent_dim: int = checked(16, at_least(1))
    hidden_dim: int = checked(64, at_least(1))
    label_emb_dim: int = checked(16, at_least(1))
    label_emb_normalized: bool = True

    def __post_init__(self):
        if isinstance(self.mode, str):
            self.mode = DependencyMode(self.mode)
        check_fields(self)


@dataclass
class Temperatures:
    """Divisors applied to head outputs before their activations."""
    T_pi: float = 1.0
    T_mu: float = 1.0
    T_sigma: float = 1.0
    T_shared: float = 1.0


@dataclass
class GmmParams:
    """Batched mixture parameters: weight logits, means, lower Cholesky factors.

    `chol` is the unpacked output of `tensor.tril_factor`: the head's packed
    D(D+1)/2 entries per component scattered into full D x D blocks.
    """
    pi_logits: Tensor   # (B, K)
    means: Tensor       # (B, K, D)
    chol: Tensor        # (B, K, D, D), strictly lower + softplus-floored diagonal

    @property
    def batch(self) -> int:
        return self.pi_logits.shape[0]

    @property
    def K(self) -> int:
        return self.pi_logits.shape[1]

    @property
    def latent_dim(self) -> int:
        return self.means.shape[2]

    def pi(self) -> np.ndarray:
        """Mixture probabilities as plain numpy (rows on the simplex)."""
        z = self.pi_logits.data - self.pi_logits.data.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    def rows(self, part: slice) -> "GmmParams":
        """The mixtures of the inputs in `part`, as constants."""
        return GmmParams(*(T.constant(t.data[part])
                           for t in (self.pi_logits, self.means, self.chol)))

    def non_finite(self) -> str | None:
        """Name of the first field holding a NaN or an infinity, else None."""
        for name in ("pi_logits", "means", "chol"):
            if not np.all(np.isfinite(getattr(self, name).data)):
                return name
        return None


def _zero_linear(in_dim: int, out_dim: int, bias_init: np.ndarray | None = None):
    w = Tensor(np.zeros((in_dim, out_dim)), requires_grad=True)
    b = Tensor(bias_init if bias_init is not None else np.zeros(out_dim), requires_grad=True)
    return w, b


class GmmHead:
    """Produces GmmParams for a batch under one dependency mode.

    Factors are parametrised packed: `head.chol0` is (K, D(D+1)/2) and the
    trunk's `head.chol_w`/`head.chol_b` emit K * D(D+1)/2 columns, each
    component's lower triangle in row-major order; `tensor.tril_factor`
    unpacks them.

    Initialization is symmetric: zero weight logits (uniform mixture), zero
    means, and factor diagonals that softplus to 0.5, so the entropy ratio of
    the mixture weights starts at 1.
    """

    def __init__(self, cfg: HeadConfig, feature_dim: int | None = None,
                 num_classes: int | None = None, seed: int = 0):
        self.cfg = cfg
        mode = cfg.mode
        if mode.conditions_on_features and feature_dim is None:
            raise ValueError(f"head mode '{mode.value}' needs feature_dim")
        if mode.conditions_on_labels and num_classes is None:
            raise ValueError(f"head mode '{mode.value}' needs num_classes")

        rng = substream(seed, GENERATOR_INIT, 0)
        K, D = cfg.K, cfg.latent_dim
        self._named: dict[str, Tensor] = {}

        rows, cols = np.tril_indices(D)
        chol_bias = np.tile(np.where(rows == cols, _INV_SOFTPLUS_HALF, 0.0), (K, 1))

        if mode in (DependencyMode.INDEPENDENT, DependencyMode.LABEL):
            # Global means/factors (label mode conditions only the weights).
            self._named["head.mu0"] = Tensor(np.zeros((K, D)), requires_grad=True)
            self._named["head.chol0"] = Tensor(chol_bias.copy(), requires_grad=True)
        if mode == DependencyMode.INDEPENDENT:
            self._named["head.pi0"] = Tensor(np.zeros(K), requires_grad=True)
        if mode.conditions_on_labels:
            emb = rng.normal(0.0, 1.0, size=(num_classes, cfg.label_emb_dim))
            self._named["head.emb"] = Tensor(emb, requires_grad=True)
            w, b = _zero_linear(cfg.label_emb_dim, K)
            self._named["head.pi_w"], self._named["head.pi_b"] = w, b
        if mode.conditions_on_features:
            hid = cfg.hidden_dim
            w = rng.normal(0.0, np.sqrt(2.0 / feature_dim), size=(feature_dim, hid))
            self._named["head.trunk_w"] = Tensor(w, requires_grad=True)
            self._named["head.trunk_b"] = Tensor(np.zeros(hid), requires_grad=True)
            if mode == DependencyMode.INPUT:
                w, b = _zero_linear(hid, K)
                self._named["head.pi_w"], self._named["head.pi_b"] = w, b
            w, b = _zero_linear(hid, K * D)
            self._named["head.mu_w"], self._named["head.mu_b"] = w, b
            w, b = _zero_linear(hid, chol_bias.size, bias_init=chol_bias.ravel().copy())
            self._named["head.chol_w"], self._named["head.chol_b"] = w, b

    def named_params(self) -> dict[str, Tensor]:
        return dict(self._named)

    def _embedding(self) -> Tensor:
        emb = self._named["head.emb"]
        return T.unit_rows(emb) if self.cfg.label_emb_normalized else emb

    def _trunk(self, features: Tensor, temps: Temperatures) -> Tensor:
        """relu(dense(features) / T_shared): T_shared divides the trunk's
        pre-activations, so it scales every trunk-driven output."""
        pre = T.dense(features, (self._named["head.trunk_w"], self._named["head.trunk_b"]))
        return T.relu(T.scale(pre, 1.0 / temps.T_shared))

    def forward(self, features: Tensor | None = None, labels: np.ndarray | None = None,
                temps: Temperatures | None = None, batch_size: int | None = None) -> GmmParams:
        """Mixture parameters, one row per input. Weights come from `pi0`, the
        label embedding or the trunk; means and factors from the global
        `mu0`/`chol0` (scaled, then broadcast) or the trunk."""
        temps = temps or Temperatures()
        mode, K, D = self.cfg.mode, self.cfg.K, self.cfg.latent_dim
        if mode.conditions_on_features and features is None:
            raise ValueError(f"head mode '{mode.value}' requires features")
        if mode.conditions_on_labels and labels is None:
            raise ValueError(f"head mode '{mode.value}' requires labels")

        B = (features.shape[0] if features is not None
             else len(labels) if labels is not None else batch_size)
        if B is None:
            raise ValueError("independent head needs an explicit batch_size")

        def rows(t: Tensor) -> Tensor:
            return T.broadcast_to(t, (B, *t.shape))

        p = self._named
        trunk = self._trunk(features, temps) if mode.conditions_on_features else None
        if mode.conditions_on_labels:
            pi_in = T.take_rows(self._embedding(), np.asarray(labels, dtype=np.int64))
        else:
            pi_in = trunk
        if pi_in is None:
            pi_logits = rows(T.scale(p["head.pi0"], 1.0 / temps.T_pi))
        else:
            pi_logits = T.scale(T.dense(pi_in, (p["head.pi_w"], p["head.pi_b"])), 1.0 / temps.T_pi)

        if trunk is None:
            means = rows(T.scale(p["head.mu0"], 1.0 / temps.T_mu))
            chol = rows(T.tril_factor(p["head.chol0"], D, temps.T_sigma, CHOL_DIAG_FLOOR))
        else:
            mu_flat = T.dense(trunk, (p["head.mu_w"], p["head.mu_b"]))
            means = T.reshape(T.scale(mu_flat, 1.0 / temps.T_mu), (B, K, D))
            chol_raw = T.dense(trunk, (p["head.chol_w"], p["head.chol_b"]))
            chol = T.tril_factor(T.reshape(chol_raw, (B, K, -1)), D, temps.T_sigma,
                                 CHOL_DIAG_FLOOR)
        return GmmParams(pi_logits, means, chol)
