"""Experiment configuration: a strict JSON schema with full defaults.

A minimal document ({}) yields the documented default experiment (blobs
d=16/C=10, K=7, M=32, kappa=1, 50 epochs, epsilon 16/255). Budgets written
as rationals like "16/255" are parsed exactly. Unknown keys are fatal in
strict mode, every section's named in one error: a silently misconfigured
robustness run is worse than a failed one. So are the keys of removed
settings: training and evaluation run one way (Adam at `train.lr`
throughout, temperatures annealed over the whole run, a clipped Gaussian
baseline of sd epsilon/3, a full-batch classifier fit).

Each document section is read into its dataclass, which gives every key's
type, default and check: a field's rule is stated once, on the field, with
`serialize.checked`, and the dataclasses that are also built from a
checkpoint or by library code apply the same rules in their `__post_init__`.
What does not map one key to one field is spelled out in `parse_config` and
`serialize_config`: `dependency` (the head's mode, kept outside `gmm`),
`budget.epsilon` (the exact budget and the upsampler's gamma), `dataset.dim`,
which the rings and grid-image kinds derive, and `dataset.classes`, which
grid-image data caps at `datasets.GRID_IMAGE_CLASSES` and takes as its
default. Whether the upsampler fits the head's latent width and the dataset's
inputs is `upsample.fit_error`'s rule, the same one the `Upsampler`
constructor applies.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import MISSING, dataclass, field, fields
from fractions import Fraction

from .datasets import GRID_IMAGE_CLASSES
from .models import ClassifierSpec, DependencyMode, HeadConfig
from .serialize import (at_least, checked, config_record, field_rule, finite, grid, one_of,
                        positive, positive_int, value_error)
from .trainer import TrainConfig
from .upsample import UpsamplerConfig, fit_error

log = logging.getLogger(__name__)


class ConfigError(Exception):
    """Invalid configuration; the message names the offending key path."""


_DEPENDENCIES = tuple(m.value for m in DependencyMode)


@dataclass
class DatasetSpec:
    kind: str = checked("blobs", one_of({"blobs", "rings", "grid-image"}))
    dim: int = checked(16, at_least(1))
    classes: int = checked(10, at_least(2))
    n: int = checked(1000, at_least(10))
    seed: int = checked(0, at_least(0))
    separation: float = checked(6.0, positive)
    sigma: float = checked(1.0, positive)
    image_shape: tuple = checked((1, 8, 8), grid("[c, h, w]"))
    radius_step: float = checked(2.0, positive)
    noise: float = checked(0.3, positive)


@dataclass
class BaselineSpec:
    pgd_steps: int = checked(20, at_least(1))
    cw_steps: int = checked(20, at_least(1))
    eval_samples: int = checked(512, at_least(1))


@dataclass
class SweepSpec:
    # mixture counts K
    modes: tuple = checked((), lambda v: None if all(positive_int(k) for k in v)
                           else "entries must be ints >= 1")
    epsilons: tuple = ()       # budget radii, as Fractions
    dependencies: tuple = checked((), lambda v: None if all(d in _DEPENDENCIES for d in v)
                                  else "entries must be dependency mode names")

    def __post_init__(self):
        self.epsilons = tuple(_parse_epsilon(e, "sweep.epsilons") for e in self.epsilons)
        self.dependencies = tuple(DependencyMode(d) for d in self.dependencies)
        # A repeated entry would write its runs into one directory twice.
        for name in ("modes", "epsilons", "dependencies"):
            entries = getattr(self, name)
            for i, entry in enumerate(entries):
                if entry in entries[:i]:
                    raise ConfigError(f"sweep.{name}: {getattr(entry, 'value', entry)} "
                                      f"is repeated")


@dataclass
class ExperimentConfig:
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    classifier: ClassifierSpec = field(default_factory=ClassifierSpec)
    head: HeadConfig = field(default_factory=lambda: HeadConfig(mode=DependencyMode.JOINT))
    upsampler: UpsamplerConfig = field(default_factory=UpsamplerConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    baselines: BaselineSpec = field(default_factory=BaselineSpec)
    epsilon: Fraction = Fraction(16, 255)
    seed: int = checked(0, at_least(0))
    train_frac: float = checked(0.8, lambda v: None if 0.0 < v < 1.0 else "must be in (0, 1)")
    output_dir: str | None = checked(None, kind=str)
    sweep: SweepSpec = field(default_factory=SweepSpec)


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
    if not finite(epsilon):
        raise ConfigError(f"{path}: must fit in a float")
    return epsilon


class _Section:
    """One level of the document with strict unknown-key handling: in strict
    mode each section's unknown keys go to `unknown`, which every section of
    one document shares, else they are logged."""

    def __init__(self, doc: dict, path: str, strict: bool, unknown: list):
        if not isinstance(doc, dict):
            raise ConfigError(f"{path or '<root>'}: expected an object, got {type(doc).__name__}")
        self.doc = doc
        self.path = path
        self.strict = strict
        self.unknown = unknown
        self.seen: set[str] = set()

    def _full(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def get(self, key: str, default, kind=None, check=None):
        """`key`'s value, held to the rule (`kind`, `check`), or `default`."""
        self.seen.add(key)
        if key not in self.doc:
            return default
        value = self.doc[key]
        err = value_error(value, kind, check)
        if err:
            raise ConfigError(f"{self._full(key)}: {err}")
        return kind(value) if kind in (float, tuple) else value

    def section(self, key: str) -> "_Section":
        self.seen.add(key)
        sub = self.doc.get(key, {})
        return _Section(sub, self._full(key), self.strict, self.unknown)

    def finish(self) -> None:
        unknown = sorted(set(self.doc) - self.seen)
        if not unknown:
            return
        msg = f"{self.path or '<root>'}: unknown key(s) {unknown}"
        if self.strict:
            self.unknown.append(msg)
        else:
            log.warning("%s (ignored)", msg)


# Document keys that differ from their field's name.
_KEY = {"K": "modes"}


def _read(sec: _Section, cls, **given):
    """Build `cls` from `sec`, reading every field not in `given`."""
    for f in fields(cls):
        if f.name in given:
            continue
        key = _KEY.get(f.name, f.name)
        given[f.name] = (_read(sec.section(key), f.default_factory)
                         if f.default_factory is not MISSING
                         else sec.get(key, f.default, *field_rule(f)))
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
    root = _Section(doc, "", strict, [])

    ds = root.section("dataset")
    dataset = _read(ds, DatasetSpec)
    width = {"grid-image": math.prod(dataset.image_shape), "rings": 2}.get(dataset.kind)
    if width is not None:
        if "dim" in ds.doc and dataset.dim != width:
            raise ConfigError(f"dataset.dim: {dataset.kind} data has width {width}, got {dataset.dim}")
        dataset.dim = width
    if dataset.kind == "grid-image":
        if "classes" not in ds.doc:
            dataset.classes = GRID_IMAGE_CLASSES
        elif dataset.classes > GRID_IMAGE_CLASSES:
            raise ConfigError(f"dataset.classes: grid-image data has at most "
                              f"{GRID_IMAGE_CLASSES} classes, got {dataset.classes}")
    classifier = _read(root.section("classifier"), ClassifierSpec)

    dependency = DependencyMode(root.get("dependency", "joint", str, one_of(_DEPENDENCIES)))
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
    cfg = _read(root, ExperimentConfig, dataset=dataset, classifier=classifier, head=head,
                upsampler=upsampler, train=train, baselines=baselines, epsilon=epsilon,
                sweep=sweep)
    if root.unknown:
        raise ConfigError("; ".join(root.unknown))
    return cfg


def serialize_config(cfg: ExperimentConfig) -> dict:
    """Canonical document form; parse(serialize(cfg)) == cfg."""
    doc = config_record(cfg)
    head = doc.pop("head")
    doc["dependency"] = head.pop("mode")
    doc["gmm"] = {_KEY.get(k, k): v for k, v in head.items()}
    del doc["upsampler"]["gamma"]
    doc["budget"] = {"epsilon": doc.pop("epsilon")}
    if doc["output_dir"] is None:
        del doc["output_dir"]
    return doc


def config_to_json(cfg: ExperimentConfig) -> str:
    return json.dumps(serialize_config(cfg), sort_keys=True, indent=2)
