"""Frozen target classifiers and the heads that emit mixture parameters.

The classifier is a dense+relu stack, one `tensor.dense` op, trained on
synthetic data and frozen before any generator training; gradients still flow
through it to the perturbed inputs. A head's dependency mode picks its
inputs, mirroring the four dependency structures:

  independent: none; every output is global, broadcast over the batch
  label:       the label embedding, which drives the mixture weights; means
               and Cholesky factors stay global
  input:       a shared trunk (dense -> divide by T_shared -> relu) feeding
               the weights, means and factors
  joint:       both; weights from the label embedding, means and factors
               from the feature trunk

Each output (weights, means, factors) is a bias plus, where the mode gives it
an input, a dense layer on that input.

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
    """How the target classifier is fit: its hidden widths and the full-batch
    Adam run, one step per epoch."""
    hidden: tuple = checked((64, 32), lambda v: None if v and all(positive_int(h) for h in v)
                            else "must be a non-empty list of positive ints")
    epochs: int = checked(200, at_least(1))
    lr: float = checked(1e-2, positive)
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
    for epoch in range(spec.epochs):
        # Every step sees all rows; their shuffled order fixes the loss's summation order.
        idx = substream(seed, CLASSIFIER, 1, epoch).permutation(x.shape[0])
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


class GmmHead:
    """Produces GmmParams for a batch under one dependency mode.

    The mode picks the inputs: the label embedding `head.emb` (label, joint)
    and the feature trunk `head.trunk_w`/`head.trunk_b` (input, joint). Each
    output o in {pi, mu, chol} is a flat bias `head.o_b` plus, where it has an
    input, a layer `head.o_w`: on the embedding rows (or else the trunk) for
    the weights, on the trunk for the means and factors. An output without an
    input is its bias alone, the same for every row. Factors are packed: K
    times D(D+1)/2 entries, each component's lower triangle in row-major
    order, which `tensor.tril_factor` unpacks.

    Initialization is symmetric: zero layers, and biases that give zero weight
    logits (uniform mixture), zero means and factor diagonals that softplus to
    0.5, so the entropy ratio of the mixture weights starts at 1.
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
        named: dict[str, np.ndarray] = {}
        if mode.conditions_on_labels:
            named["head.emb"] = rng.normal(0.0, 1.0, size=(num_classes, cfg.label_emb_dim))
        trunk_dim = cfg.hidden_dim if mode.conditions_on_features else None
        if trunk_dim is not None:
            named["head.trunk_w"] = rng.normal(0.0, np.sqrt(2.0 / feature_dim),
                                               size=(feature_dim, trunk_dim))
            named["head.trunk_b"] = np.zeros(trunk_dim)
        pi_dim = cfg.label_emb_dim if mode.conditions_on_labels else trunk_dim
        rows, cols = np.tril_indices(D)
        chol_bias = np.tile(np.where(rows == cols, _INV_SOFTPLUS_HALF, 0.0), K)
        for name, in_dim, bias in (("pi", pi_dim, np.zeros(K)), ("mu", trunk_dim, np.zeros(K * D)),
                                   ("chol", trunk_dim, chol_bias)):
            if in_dim is not None:
                named[f"head.{name}_w"] = np.zeros((in_dim, bias.size))
            named[f"head.{name}_b"] = bias
        self._named = {name: Tensor(a, requires_grad=True) for name, a in named.items()}

    def named_params(self) -> dict[str, Tensor]:
        return dict(self._named)

    def _embedding(self) -> Tensor:
        """The label embedding's rows scaled to unit norm."""
        return T.unit_rows(self._named["head.emb"])

    def _trunk(self, features: Tensor, temps: Temperatures) -> Tensor:
        """relu(dense(features) / T_shared): T_shared divides the trunk's
        pre-activations, so it scales every trunk-driven output."""
        pre = T.dense(features, (self._named["head.trunk_w"], self._named["head.trunk_b"]))
        return T.relu(T.scale(pre, 1.0 / temps.T_shared))

    def forward(self, features: Tensor | None = None, labels: np.ndarray | None = None,
                temps: Temperatures | None = None, batch_size: int | None = None) -> GmmParams:
        """Mixture parameters, one row per input: each output is f(layer(input)),
        or f(bias) broadcast over the batch when it has no input, where f is
        its temperature, reshape and (for factors) `tensor.tril_factor`."""
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

        p = self._named
        trunk = self._trunk(features, temps) if mode.conditions_on_features else None
        emb = (T.take_rows(self._embedding(), np.asarray(labels, dtype=np.int64))
               if mode.conditions_on_labels else None)

        def output(name: str, x: Tensor | None, f) -> Tensor:
            if x is not None:
                return f(T.dense(x, (p[f"head.{name}_w"], p[f"head.{name}_b"])))
            out = f(p[f"head.{name}_b"])
            return T.broadcast_to(out, (B, *out.shape))

        pi_logits = output("pi", trunk if emb is None else emb,
                           lambda t: T.scale(t, 1.0 / temps.T_pi))
        means = output("mu", trunk, lambda t: T.reshape(T.scale(t, 1.0 / temps.T_mu),
                                                        (*t.shape[:-1], K, D)))
        chol = output("chol", trunk, lambda t: T.tril_factor(
            T.reshape(t, (*t.shape[:-1], K, -1)), D, temps.T_sigma, CHOL_DIAG_FLOOR))
        return GmmParams(pi_logits, means, chol)
