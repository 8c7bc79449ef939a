"""Experiment configuration: a strict JSON schema with full defaults.

A minimal document ({}) yields the documented default experiment (blobs
d=16/C=10, K=7, M=32, kappa=1, 50 epochs, epsilon 16/255). Budgets written
as rationals like "16/255" are parsed exactly. Unknown keys are fatal in
strict mode: a silently misconfigured robustness run is worse than a failed
one.

Each document section is read into its dataclass, which gives every key's
type and default. The section tables in `_CHECKS` are where a field's check
lives. What does not map one key to one field is spelled out in
`parse_config` and `serialize_config`: `dependency` (the head's mode, kept
outside `gmm`), `budget.epsilon` (the exact budget and the upsampler's
gamma) and `dataset.dim`, which the rings and grid-image kinds derive. Whether
the upsampler fits the head's latent width and the dataset's inputs is
`upsample.fit_error`'s rule, the same one the `Upsampler` constructor applies.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import MISSING, dataclass, field, fields
from fractions import Fraction

from .models import DependencyMode, HeadConfig
from .sampling import AnnealSchedule, GumbelConfig
from .serialize import config_record
from .trainer import TrainConfig
from .upsample import MODE_BICUBIC, MODE_LINEAR, MODE_NONE, UpsamplerConfig, fit_error

log = logging.getLogger(__name__)


class ConfigError(Exception):
    """Invalid configuration; the message names the offending key path."""


@dataclass
class DatasetSpec:
    kind: str = "blobs"            # blobs | rings | grid-image
    dim: int = 16
    classes: int = 10
    n: int = 1000
    seed: int = 0
    separation: float = 6.0
    sigma: float = 1.0
    image_shape: tuple = (1, 8, 8)
    radius_step: float = 2.0
    noise: float = 0.3


@dataclass
class ClassifierSpec:
    hidden: tuple = (64, 32)
    epochs: int = 200
    lr: float = 1e-2
    batch_size: int | None = None
    accuracy_threshold: float = 0.95


@dataclass
class BaselineSpec:
    pgd_steps: int = 20
    cw_steps: int = 20
    gaussian_sigma_rule: str | float = "gamma/3"   # or a positive sigma
    eval_samples: int = 512


@dataclass
class SweepSpec:
    modes: tuple = ()          # mixture counts K
    epsilons: tuple = ()       # budget radii, as Fractions
    dependencies: tuple = ()   # DependencyMode values

    def __post_init__(self):
        self.epsilons = tuple(_parse_epsilon(e, "sweep.epsilons") for e in self.epsilons)
        self.dependencies = tuple(DependencyMode(d) for d in self.dependencies)


@dataclass
class ExperimentConfig:
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    classifier: ClassifierSpec = field(default_factory=ClassifierSpec)
    head: HeadConfig = field(default_factory=lambda: HeadConfig(mode=DependencyMode.JOINT))
    upsampler: UpsamplerConfig = field(default_factory=UpsamplerConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    baselines: BaselineSpec = field(default_factory=BaselineSpec)
    epsilon: Fraction = Fraction(16, 255)
    seed: int = 0
    train_frac: float = 0.8
    export_samples: int = 0
    output_dir: str | None = None
    sweep: SweepSpec = field(default_factory=SweepSpec)

    @property
    def gamma(self) -> float:
        return float(self.epsilon)


def _parse_epsilon(value, path: str) -> Fraction:
    """A budget radius > 0: exact for text like "16/255", the nearest
    fraction with a denominator up to 10**9 for a number."""
    if isinstance(value, bool):
        raise ConfigError(f"{path}: expected a number or a string, got bool")
    try:
        if isinstance(value, str):
            epsilon = Fraction(value)
        else:
            epsilon = Fraction(value).limit_denominator(10 ** 9)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ConfigError(f"{path}: cannot parse '{value}' as a budget radius") from None
    if epsilon <= 0:
        raise ConfigError(f"{path}: must be > 0")
    return epsilon


class _Section:
    """One level of the document with strict unknown-key handling."""

    def __init__(self, doc: dict, path: str, strict: bool):
        if not isinstance(doc, dict):
            raise ConfigError(f"{path or '<root>'}: expected an object, got {type(doc).__name__}")
        self.doc = doc
        self.path = path
        self.strict = strict
        self.seen: set[str] = set()

    def _full(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def get(self, key: str, default, kind=None, check=None):
        self.seen.add(key)
        if key not in self.doc:
            return default
        value = self.doc[key]
        if kind is not None:
            if kind is float and isinstance(value, int) and not isinstance(value, bool):
                value = float(value)
            if kind is int and isinstance(value, bool):
                raise ConfigError(f"{self._full(key)}: expected int, got bool")
            if not isinstance(value, kind):
                raise ConfigError(
                    f"{self._full(key)}: expected {getattr(kind, '__name__', kind)}, "
                    f"got {type(value).__name__}")
            if kind is float and not math.isfinite(value):
                raise ConfigError(f"{self._full(key)}: must be finite, got {value}")
        if check is not None:
            err = check(value)
            if err:
                raise ConfigError(f"{self._full(key)}: {err}")
        return value

    def section(self, key: str) -> "_Section":
        self.seen.add(key)
        sub = self.doc.get(key, {})
        return _Section(sub, self._full(key), self.strict)

    def finish(self) -> None:
        unknown = sorted(set(self.doc) - self.seen)
        if not unknown:
            return
        msg = f"{self.path or '<root>'}: unknown key(s) {unknown}"
        if self.strict:
            raise ConfigError(msg)
        log.warning("%s (ignored)", msg)


def _positive(value):
    return None if value > 0 else "must be > 0"


def _at_least(minimum):
    return lambda v: None if v >= minimum else f"must be >= {minimum}"


def _one_of(options):
    return lambda v: None if v in options else f"must be one of {sorted(options)}"


def _pair(value):
    return None if (isinstance(value, (list, tuple)) and len(value) == 2) else "must be an (init, final) pair"


def _positive_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _grid(form: str):
    def check(value):
        if not (isinstance(value, list) and len(value) == 3):
            return f"must be {form}"
        return None if all(_positive_int(v) for v in value) else f"must be {form} of positive ints"
    return check


def _sigma_rule(value):
    if value == "gamma/3":
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return "must be 'gamma/3' or a number"
    return _positive(value) if math.isfinite(value) else "must be finite"


_DEPENDENCIES = tuple(m.value for m in DependencyMode)

# One table per document section: the check each field's value must pass.
# A field without a row is only type-checked.
_CHECKS = {
    DatasetSpec: {
        "kind": _one_of({"blobs", "rings", "grid-image"}), "dim": _at_least(1),
        "classes": _at_least(2), "n": _at_least(10), "separation": _positive,
        "sigma": _positive, "image_shape": _grid("[c, h, w]"), "radius_step": _positive,
        "noise": _positive,
    },
    ClassifierSpec: {
        "hidden": lambda v: None if v and all(_positive_int(h) for h in v)
        else "must be a non-empty list of positive ints",
        "epochs": _at_least(1), "lr": _positive, "batch_size": _at_least(1),
    },
    HeadConfig: {
        "K": _at_least(1), "latent_dim": _at_least(1), "hidden_dim": _at_least(1),
        "label_emb_dim": _at_least(1),
    },
    UpsamplerConfig: {
        "mode": _one_of({MODE_BICUBIC, MODE_LINEAR, MODE_NONE}),
        "latent_grid": lambda v: None if v is None else _grid("[c, h', w']")(v),
    },
    TrainConfig: {
        "epochs": _at_least(1), "lr": _positive, "lr_schedule": _one_of({"constant", "cosine"}),
        "warmup_epochs": _at_least(0), "lr_min": _positive, "samples_per_input": _at_least(1),
        "batch_size": _at_least(1), "eval_every": _at_least(1), "probe_size": _at_least(1),
        "probe_samples": _at_least(1),
    },
    GumbelConfig: {"tau_init": _positive, "tau_final": _positive},
    AnnealSchedule: {
        "T_pi": _pair, "T_mu": _pair, "T_sigma": _pair, "T_shared": _pair,
        "warmup_epochs": _at_least(0),
    },
    BaselineSpec: {
        "pgd_steps": _at_least(1), "cw_steps": _at_least(1),
        "gaussian_sigma_rule": _sigma_rule, "eval_samples": _at_least(1),
    },
    SweepSpec: {
        "modes": lambda v: None if all(_positive_int(k) for k in v)
        else "entries must be ints >= 1",
        "dependencies": lambda v: None if all(d in _DEPENDENCIES for d in v)
        else "entries must be dependency mode names",
    },
    ExperimentConfig: {
        "train_frac": lambda v: None if 0.0 < v < 1.0 else "must be in (0, 1)",
        "export_samples": _at_least(0),
    },
}
# The JSON type of a field whose default does not give it. Every other field
# takes the type of its default, a tuple being read from a list. Of the
# None defaults only latent_grid accepts an explicit null.
_KIND = {"batch_size": int, "output_dir": str, "latent_grid": object,
         "gaussian_sigma_rule": object}
# Document keys that differ from their field's name.
_KEY = {"K": "modes"}


def _read(sec: _Section, cls, **given):
    """Build `cls` from `sec`, reading every field not in `given`."""
    for f in fields(cls):
        if f.name in given:
            continue
        key = _KEY.get(f.name, f.name)
        if f.default_factory is not MISSING:
            given[f.name] = _read(sec.section(key), f.default_factory)
            continue
        kind = _KIND.get(f.name, type(f.default))
        value = sec.get(key, f.default, list if kind is tuple else kind,
                        _CHECKS[cls].get(f.name))
        given[f.name] = tuple(value) if kind is tuple else value
    sec.finish()
    try:
        return cls(**given)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{sec.path}: {err}") from None


def parse_config(text: str | dict, strict: bool = True) -> ExperimentConfig:
    """Parse and validate a config document, applying all defaults."""
    if isinstance(text, str):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigError(f"not valid JSON: {err}") from None
    else:
        doc = text
    root = _Section(doc, "", strict)

    ds = root.section("dataset")
    dataset = _read(ds, DatasetSpec)
    width = {"grid-image": math.prod(dataset.image_shape), "rings": 2}.get(dataset.kind)
    if width is not None:
        if "dim" in ds.doc and dataset.dim != width:
            raise ConfigError(f"dataset.dim: {dataset.kind} data has width {width}, got {dataset.dim}")
        dataset.dim = width
    classifier = _read(root.section("classifier"), ClassifierSpec)

    dependency = DependencyMode(root.get("dependency", "joint", str, _one_of(_DEPENDENCIES)))
    head = _read(root.section("gmm"), HeadConfig, mode=dependency)

    # `budget.epsilon` is both the exact budget and the upsampler's gamma.
    budget = root.section("budget")
    epsilon = _parse_epsilon(budget.get("epsilon", "16/255"), "budget.epsilon")
    budget.finish()

    upsampler = _read(root.section("upsampler"), UpsamplerConfig, gamma=float(epsilon))
    err = fit_error(upsampler, head.latent_dim, dataset.dim,
                    dataset.image_shape if dataset.kind == "grid-image" else None)
    if err:
        raise ConfigError(f"upsampler: {err}")

    train = _read(root.section("train"), TrainConfig)
    baselines = _read(root.section("baselines"), BaselineSpec)
    sweep = _read(root.section("sweep"), SweepSpec)
    return _read(root, ExperimentConfig, dataset=dataset, classifier=classifier, head=head,
                 upsampler=upsampler, train=train, baselines=baselines, epsilon=epsilon,
                 sweep=sweep)


def serialize_config(cfg: ExperimentConfig) -> dict:
    """Canonical document form; parse(serialize(cfg)) == cfg."""
    doc = config_record(cfg)
    head = doc.pop("head")
    doc["dependency"] = head.pop("mode")
    doc["gmm"] = {_KEY.get(k, k): v for k, v in head.items()}
    del doc["upsampler"]["gamma"]
    doc["budget"] = {"epsilon": doc.pop("epsilon")}
    for section, key in ((doc["classifier"], "batch_size"), (doc, "output_dir")):
        if section[key] is None:
            del section[key]
    return doc


def config_to_json(cfg: ExperimentConfig) -> str:
    return json.dumps(serialize_config(cfg), sort_keys=True, indent=2)


def resolve_sigma(rule, gamma: float) -> float:
    if rule == "gamma/3":
        return gamma / 3.0
    return float(rule)
