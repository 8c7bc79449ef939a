"""The config schema: canonical documents, round trips and every error path.

Valid documents are compared with golden `config_to_json` texts under
`tests/goldens/config/`; invalid ones with the exact `ConfigError` message,
in strict and in lax mode.
"""

import json
import logging
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from nppr.config import (_KEY, BaselineSpec, ConfigError, DatasetSpec, ExperimentConfig,
                         SweepSpec, config_to_json, parse_config, serialize_config)
from nppr.datasets import GRID_IMAGE_CLASSES
from nppr.models import ClassifierSpec, HeadConfig
from nppr.sampling import AnnealSchedule, GumbelConfig
from nppr.serialize import field_rule
from nppr.trainer import TrainConfig
from nppr.upsample import Upsampler, UpsamplerConfig

GOLDENS = Path(__file__).parent / "goldens" / "config"

DESK = {
    "dataset": {"kind": "blobs", "dim": 16, "classes": 10, "n": 1000},
    "dependency": "joint",
    "gmm": {"modes": 7, "latent_dim": 16},
    "upsampler": {"mode": "linear_vector"},
    "budget": {"epsilon": "1"},
    "train": {"epochs": 3, "lr": 5e-3, "samples_per_input": 32, "batch_size": 128},
    "baselines": {"eval_samples": 128},
}

VALID = {
    "empty": {},
    "desk_joint": DESK,
    "evaluate_wide": {
        **DESK,
        "train": {"epochs": 2, "lr": 5e-3, "samples_per_input": 32, "batch_size": 128},
        "baselines": {"eval_samples": 1024, "pgd_steps": 100, "cw_steps": 100},
    },
    "image_label": {
        "dataset": {"kind": "grid-image", "image_shape": [1, 16, 16], "classes": 4,
                    "n": 1000, "noise": 3.0},
        "dependency": "label",
        "gmm": {"modes": 7, "latent_dim": 16},
        "upsampler": {"mode": "bicubic_image", "latent_grid": [1, 4, 4]},
        "budget": {"epsilon": "1/2"},
        "train": {"epochs": 3, "lr": 5e-3, "samples_per_input": 32, "batch_size": 128},
        "baselines": {"eval_samples": 32},
    },
    "rings_none": {
        "dataset": {"kind": "rings", "classes": 3, "n": 300, "radius_step": 1.5},
        "dependency": "input",
        "gmm": {"modes": 3, "latent_dim": 2},
        "upsampler": {"mode": "none"},
        "budget": {"epsilon": 0.25},
    },
    "every_option": {
        "dataset": {"seed": 4, "separation": 5, "sigma": 0.5},
        "classifier": {"hidden": [16, 8], "epochs": 30, "lr": 0.05, "accuracy_threshold": 0.5},
        "gmm": {"modes": 2, "latent_dim": 4, "hidden_dim": 8, "label_emb_dim": 3},
        "dependency": "independent",
        "upsampler": {"mode": "linear_vector", "latent_grid": None},
        "budget": {"epsilon": "8/255"},
        "train": {"epochs": 4, "lr": 1e-3, "samples_per_input": 4, "batch_size": 16, "seed": 9,
                  "eval_every": 2, "kappa": 0.5, "probe_size": 8, "probe_samples": 8,
                  "gumbel": {"tau_init": 2, "tau_final": 0.5},
                  "anneal": {"T_pi": [2, 1], "T_mu": [1.5, 1.0], "T_sigma": [1, 1],
                             "T_shared": [3.0, 2.0]}},
        "baselines": {"pgd_steps": 5, "cw_steps": 6, "eval_samples": 64},
        "seed": 5,
        "train_frac": 0.75,
        "output_dir": "runs/every-option",
        "sweep": {"modes": [1, 3], "epsilons": ["1/255", 0.5],
                  "dependencies": ["label", "joint"]},
    },
}


@pytest.mark.parametrize("name", sorted(VALID))
def test_canonical_text_matches_golden(name):
    text = config_to_json(parse_config(json.dumps(VALID[name])))
    assert text == (GOLDENS / f"{name}.json").read_text()


@pytest.mark.parametrize("name", sorted(VALID))
def test_serialize_round_trip(name):
    cfg = parse_config(VALID[name])
    assert parse_config(serialize_config(cfg)) == cfg
    assert parse_config(VALID[name], strict=False) == cfg


# (document, message). Unknown keys are errors only in strict mode.
UNKNOWN_KEYS = [
    ({"bogus": 1}, "<root>: unknown key(s) ['bogus']"),
    ({"dataset": {"dims": 3}}, "dataset: unknown key(s) ['dims']"),
    ({"gmm": {"K": 3}}, "gmm: unknown key(s) ['K']"),
    ({"upsampler": {"gamma": 0.1}}, "upsampler: unknown key(s) ['gamma']"),
    ({"budget": {"eps": "1"}}, "budget: unknown key(s) ['eps']"),
    ({"train": {"mode": "joint"}}, "train: unknown key(s) ['mode']"),
    ({"train": {"gumbel": {"tau": 1.0}}}, "train.gumbel: unknown key(s) ['tau']"),
    ({"train": {"anneal": {"T_x": [1, 1], "T_y": 2}}},
     "train.anneal: unknown key(s) ['T_x', 'T_y']"),
    ({"sweep": {"mode": [1]}}, "sweep: unknown key(s) ['mode']"),
    # Settings that every run used at one value, now removed: an old document
    # that names one is refused, or under --no-strict read without it.
    ({"upsampler": {"learnable_premap": True}}, "upsampler: unknown key(s) ['learnable_premap']"),
    ({"gmm": {"label_emb_normalized": True}}, "gmm: unknown key(s) ['label_emb_normalized']"),
    ({"train": {"gumbel": {"anneal": False}}}, "train.gumbel: unknown key(s) ['anneal']"),
    ({"export_samples": 4}, "<root>: unknown key(s) ['export_samples']"),
    ({"train": {"lr_schedule": "cosine"}}, "train: unknown key(s) ['lr_schedule']"),
    ({"train": {"warmup_epochs": 20}}, "train: unknown key(s) ['warmup_epochs']"),
    ({"train": {"lr_min": 2e-6}}, "train: unknown key(s) ['lr_min']"),
    ({"train": {"anneal": {"warmup_epochs": 5}}},
     "train.anneal: unknown key(s) ['warmup_epochs']"),
    ({"baselines": {"gaussian_sigma_rule": 0.1}},
     "baselines: unknown key(s) ['gaussian_sigma_rule']"),
    ({"classifier": {"batch_size": 32}}, "classifier: unknown key(s) ['batch_size']"),
]

# Upsampler settings that do not fit the head's latent width or the inputs,
# with the message `upsample.fit_error` (or UpsamplerConfig) gives for them.
UPSAMPLER_MISFITS = [
    ({"dataset": {"kind": "grid-image"}, "upsampler": {"mode": "bicubic_image"}},
     "upsampler: bicubic_image mode needs latent_grid (c, h', w')"),
    ({"upsampler": {"mode": "bicubic_image", "latent_grid": [1, 4, 4]}},
     "upsampler: bicubic_image mode needs an image-shaped input (c, h, w)"),
    ({"dataset": {"kind": "grid-image"}, "gmm": {"latent_dim": 32},
      "upsampler": {"mode": "bicubic_image", "latent_grid": [2, 4, 4]}},
     "upsampler: latent grid (2, 4, 4) incompatible with input grid (1, 8, 8)"),
    ({"dataset": {"kind": "grid-image"}, "gmm": {"latent_dim": 64},
      "upsampler": {"mode": "bicubic_image", "latent_grid": [1, 16, 4]}},
     "upsampler: latent grid (1, 16, 4) incompatible with input grid (1, 8, 8)"),
    ({"dataset": {"kind": "grid-image"},
      "upsampler": {"mode": "bicubic_image", "latent_grid": [1, 2, 2]}},
     "upsampler: latent_grid (1, 2, 2) does not match latent_dim 16"),
    ({"dataset": {"kind": "rings"}, "upsampler": {"mode": "none"}},
     "upsampler: upsampler 'none' needs latent_dim == input_dim, got 16 vs 2"),
]

INVALID = [
    # structure
    ("[]", "<root>: expected an object, got list"),
    ({"dataset": 3}, "dataset: expected an object, got int"),
    ({"train": {"gumbel": []}}, "train.gumbel: expected an object, got list"),
    # wrong type
    ({"dataset": {"n": "100"}}, "dataset.n: expected int, got str"),
    ({"dataset": {"n": None}}, "dataset.n: expected int, got NoneType"),
    ({"classifier": {"lr": "0.1"}}, "classifier.lr: expected float, got str"),
    ({"classifier": {"hidden": 64}}, "classifier.hidden: expected list, got int"),
    ({"dependency": 1}, "dependency: expected str, got int"),
    ({"train": {"lr": True}}, "train.lr: expected float, got bool"),
    ({"train": {"anneal": {"T_pi": 3}}}, "train.anneal.T_pi: expected list, got int"),
    ({"sweep": {"modes": 3}}, "sweep.modes: expected list, got int"),
    ({"output_dir": 5}, "output_dir: expected str, got int"),
    # bool given for an int
    ({"dataset": {"n": True}}, "dataset.n: expected int, got bool"),
    ({"train": {"epochs": False}}, "train.epochs: expected int, got bool"),
    ({"seed": True}, "seed: expected int, got bool"),
    # range checks
    ({"dataset": {"kind": "moons"}},
     "dataset.kind: must be one of ['blobs', 'grid-image', 'rings']"),
    ({"dataset": {"dim": 0}}, "dataset.dim: must be >= 1"),
    ({"dataset": {"classes": 1}}, "dataset.classes: must be >= 2"),
    ({"dataset": {"n": 9}}, "dataset.n: must be >= 10"),
    ({"dataset": {"separation": 0}}, "dataset.separation: must be > 0"),
    ({"dataset": {"sigma": -1.0}}, "dataset.sigma: must be > 0"),
    ({"dataset": {"radius_step": 0.0}}, "dataset.radius_step: must be > 0"),
    ({"dataset": {"noise": 0}}, "dataset.noise: must be > 0"),
    ({"dataset": {"image_shape": [8, 8]}}, "dataset.image_shape: must be [c, h, w]"),
    ({"classifier": {"hidden": []}},
     "classifier.hidden: must be a non-empty list of positive ints"),
    ({"classifier": {"hidden": [64, 0]}},
     "classifier.hidden: must be a non-empty list of positive ints"),
    ({"classifier": {"epochs": 0}}, "classifier.epochs: must be >= 1"),
    ({"classifier": {"lr": 0}}, "classifier.lr: must be > 0"),
    ({"gmm": {"modes": 0}}, "gmm.modes: must be >= 1"),
    ({"gmm": {"latent_dim": 0}}, "gmm.latent_dim: must be >= 1"),
    ({"gmm": {"hidden_dim": 0}}, "gmm.hidden_dim: must be >= 1"),
    ({"gmm": {"label_emb_dim": 0}}, "gmm.label_emb_dim: must be >= 1"),
    ({"dependency": "both"},
     "dependency: must be one of ['independent', 'input', 'joint', 'label']"),
    ({"upsampler": {"mode": "nearest"}},
     "upsampler.mode: must be one of ['bicubic_image', 'linear_vector', 'none']"),
    ({"upsampler": {"latent_grid": [1, 4]}}, "upsampler.latent_grid: must be [c, h', w']"),
    ({"upsampler": {"latent_grid": "1x4x4"}}, "upsampler.latent_grid: must be [c, h', w']"),
    ({"train": {"epochs": 0}}, "train.epochs: must be >= 1"),
    ({"train": {"lr": 0}}, "train.lr: must be > 0"),
    ({"train": {"samples_per_input": 0}}, "train.samples_per_input: must be >= 1"),
    ({"train": {"batch_size": 0}}, "train.batch_size: must be >= 1"),
    ({"train": {"eval_every": 0}}, "train.eval_every: must be >= 1"),
    ({"train": {"probe_size": 0}}, "train.probe_size: must be >= 1"),
    ({"train": {"probe_samples": 0}}, "train.probe_samples: must be >= 1"),
    ({"train": {"gumbel": {"tau_init": 0}}}, "train.gumbel.tau_init: must be > 0"),
    ({"train": {"gumbel": {"tau_final": -0.1}}}, "train.gumbel.tau_final: must be > 0"),
    ({"train": {"anneal": {"T_pi": [1]}}}, "train.anneal.T_pi: must be an (init, final) pair"),
    ({"train": {"anneal": {"T_mu": [1, 2, 3]}}},
     "train.anneal.T_mu: must be an (init, final) pair"),
    ({"train": {"anneal": {"T_sigma": []}}},
     "train.anneal.T_sigma: must be an (init, final) pair"),
    ({"train": {"anneal": {"T_shared": [1]}}},
     "train.anneal.T_shared: must be an (init, final) pair"),
    ({"train": {"anneal": {"T_pi": [0, 1]}}},
     "train.anneal.T_pi: must be a positive (init, final) pair"),
    ({"train": {"anneal": {"T_mu": ["a", 1]}}},
     "train.anneal.T_mu: must be a positive (init, final) pair"),
    ({"baselines": {"pgd_steps": 0}}, "baselines.pgd_steps: must be >= 1"),
    ({"baselines": {"cw_steps": 0}}, "baselines.cw_steps: must be >= 1"),
    ({"baselines": {"eval_samples": 0}}, "baselines.eval_samples: must be >= 1"),
    ({"train_frac": 1.0}, "train_frac: must be in (0, 1)"),
    ({"train_frac": 0}, "train_frac: must be in (0, 1)"),
    ({"seed": -1}, "seed: must be >= 0"),
    ({"sweep": {"dependencies": ["joint", "x"]}},
     "sweep.dependencies: entries must be dependency mode names"),
    ({"sweep": {"epsilons": ["x"]}}, "sweep.epsilons: cannot parse 'x' as a budget radius"),
    # budget
    ({"budget": {"epsilon": "abc"}}, "budget.epsilon: cannot parse 'abc' as a budget radius"),
    ({"budget": {"epsilon": "1/0"}}, "budget.epsilon: cannot parse '1/0' as a budget radius"),
    ({"budget": {"epsilon": [1]}}, "budget.epsilon: cannot parse '[1]' as a budget radius"),
    ({"budget": {"epsilon": "0"}}, "budget.epsilon: must be > 0"),
    ({"budget": {"epsilon": -0.5}}, "budget.epsilon: must be > 0"),
    # an int beyond the float range, once a bare OverflowError
    ({"train": {"lr": 10 ** 400}}, "train.lr: must fit in a float"),
    ({"train": {"anneal": {"T_pi": [10 ** 400, 1]}}},
     "train.anneal.T_pi: must be a positive (init, final) pair"),
    ({"budget": {"epsilon": 10 ** 400}}, "budget.epsilon: must fit in a float"),
    # the upsampler does not fit the head or the inputs
    *UPSAMPLER_MISFITS,
]

# Documents that once parsed, were silently truncated, or failed later with a
# bare exception (or mid-run) instead of a ConfigError.
NEWLY_REJECTED = [
    ({"sweep": {"modes": [2, 0]}}, "sweep.modes: entries must be ints >= 1"),
    ({"sweep": {"modes": ["a"]}}, "sweep.modes: entries must be ints >= 1"),
    ({"sweep": {"modes": [True]}}, "sweep.modes: entries must be ints >= 1"),
    ({"sweep": {"epsilons": ["0"]}}, "sweep.epsilons: must be > 0"),
    ({"sweep": {"epsilons": [-0.5]}}, "sweep.epsilons: must be > 0"),
    ({"dataset": {"kind": "grid-image", "image_shape": [1, 8, "x"]}},
     "dataset.image_shape: must be [c, h, w] of positive ints"),
    ({"dataset": {"image_shape": [1, 0, 8]}},
     "dataset.image_shape: must be [c, h, w] of positive ints"),
    ({"dataset": {"kind": "grid-image"},
      "upsampler": {"mode": "bicubic_image", "latent_grid": [1, "a", 4]}},
     "upsampler.latent_grid: must be [c, h', w'] of positive ints"),
    ({"dataset": {"kind": "grid-image"},
      "upsampler": {"mode": "bicubic_image", "latent_grid": [1, 4.5, 4]}},
     "upsampler.latent_grid: must be [c, h', w'] of positive ints"),
    ({"train": {"gumbel": {"tau_init": 0.1, "tau_final": 0.5}}},
     "train.gumbel: tau_init must be >= tau_final"),
    ({"train": {"anneal": {"T_pi": [None, 1]}}},
     "train.anneal.T_pi: must be a positive (init, final) pair"),
    ('{"budget": {"epsilon": Infinity}}',
     "budget.epsilon: cannot parse 'inf' as a budget radius"),
    # a JSON true once read as the number 1
    ({"budget": {"epsilon": True}}, "budget.epsilon: expected a number or a string, got bool"),
    ({"sweep": {"epsilons": ["1/2", True]}},
     "sweep.epsilons: expected a number or a string, got bool"),
    # a repeated sweep entry, whose second run once overwrote the first
    ({"sweep": {"epsilons": ["1/2", "2/4"]}}, "sweep.epsilons: 1/2 is repeated"),
    ({"sweep": {"epsilons": ["1/4", "1/2", 0.5]}}, "sweep.epsilons: 1/2 is repeated"),
    ({"sweep": {"modes": [3, 5, 3]}}, "sweep.modes: 3 is repeated"),
    ({"sweep": {"dependencies": ["joint", "label", "joint"]}},
     "sweep.dependencies: joint is repeated"),
    ({"classifier": {"hidden": [True]}},
     "classifier.hidden: must be a non-empty list of positive ints"),
    # Infinity and NaN in a float field
    ('{"train": {"lr": Infinity}}', "train.lr: must be finite, got inf"),
    ('{"train": {"kappa": NaN}}', "train.kappa: must be finite, got nan"),
    ('{"dataset": {"sigma": Infinity}}', "dataset.sigma: must be finite, got inf"),
    ('{"classifier": {"accuracy_threshold": NaN}}',
     "classifier.accuracy_threshold: must be finite, got nan"),
    ('{"train": {"gumbel": {"tau_init": Infinity}}}',
     "train.gumbel.tau_init: must be finite, got inf"),
    ('{"train": {"anneal": {"T_shared": [NaN, 1]}}}',
     "train.anneal.T_shared: must be a positive (init, final) pair"),
    ('{"train": {"anneal": {"T_pi": [Infinity, 1]}}}',
     "train.anneal.T_pi: must be a positive (init, final) pair"),
    # a width the kind derives, once silently replaced
    ({"dataset": {"kind": "rings", "dim": 7}}, "dataset.dim: rings data has width 2, got 7"),
    ({"dataset": {"kind": "grid-image", "dim": 3}},
     "dataset.dim: grid-image data has width 64, got 3"),
    # a label count the kind cannot draw, once labels over repeated images
    ({"dataset": {"kind": "grid-image", "classes": 5}},
     "dataset.classes: grid-image data has at most 4 classes, got 5"),
]

# Rules that no case above pins: a wrong type in the classifier, train and
# baselines sections, the baselines section's shape, the seeds' and the
# accuracy threshold's ranges, and a NaN sweep budget.
UNPINNED = [
    ({"classifier": {"epochs": 1.5}}, "classifier.epochs: expected int, got float"),
    ({"train": {"kappa": "1"}}, "train.kappa: expected float, got str"),
    ({"baselines": {"pgd_steps": 2.5}}, "baselines.pgd_steps: expected int, got float"),
    ({"baselines": {"eval_samples": "512"}}, "baselines.eval_samples: expected int, got str"),
    ({"baselines": []}, "baselines: expected an object, got list"),
    ({"dataset": {"seed": -1}}, "dataset.seed: must be >= 0"),
    ({"train": {"seed": -1}}, "train.seed: must be >= 0"),
    ({"classifier": {"accuracy_threshold": 1.5}},
     "classifier.accuracy_threshold: 1.5 outside [0, 1]"),
    ('{"sweep": {"epsilons": ["1/2", NaN]}}',
     "sweep.epsilons: cannot parse 'nan' as a budget radius"),
]


def _as_text(doc) -> str:
    return doc if isinstance(doc, str) else json.dumps(doc)


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lax"])
@pytest.mark.parametrize("doc,message", INVALID + NEWLY_REJECTED + UNPINNED)
def test_invalid_document_message(doc, message, strict):
    with pytest.raises(ConfigError) as info:
        parse_config(_as_text(doc), strict=strict)
    assert str(info.value) == message


# Each document section and its dataclass; the upsampler's gamma is
# `budget.epsilon`, not a key of its own.
SECTIONS = {"": ExperimentConfig, "dataset": DatasetSpec, "classifier": ClassifierSpec,
            "gmm": HeadConfig, "upsampler": UpsamplerConfig, "train": TrainConfig,
            "train.gumbel": GumbelConfig, "train.anneal": AnnealSchedule,
            "baselines": BaselineSpec, "sweep": SweepSpec}
FLOAT_KEYS = [(path, _KEY.get(f.name, f.name)) for path, cls in SECTIONS.items()
              for f in fields(cls) if field_rule(f)[0] is float and f.name != "gamma"]


def test_float_keys_span_every_section_with_floats():
    assert {path for path, _ in FLOAT_KEYS} == {"", "dataset", "classifier", "train",
                                                "train.gumbel"}
    assert len(FLOAT_KEYS) == 11


@pytest.mark.parametrize("path,key", FLOAT_KEYS,
                         ids=[f"{p}.{k}" if p else k for p, k in FLOAT_KEYS])
def test_every_float_key_refuses_non_finite(path, key):
    """A float key refuses NaN and the infinities by its kind alone, so no
    field states the rule again."""
    full = f"{path}.{key}" if path else key
    for text in ("NaN", "Infinity", "-Infinity"):
        doc = f'{{"{key}": {text}}}'
        for part in reversed(path.split(".") if path else []):
            doc = f'{{"{part}": {doc}}}'
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert str(info.value) == f"{full}: must be finite, got {float(text.lower())}"


@pytest.mark.parametrize("classes", [None, 2, GRID_IMAGE_CLASSES])
def test_grid_image_classes_default_to_its_cap(classes):
    # The kind derives the label count as it derives `dim`; the blobs default
    # of 10 once gave 10 labels over 4 images.
    doc = {"kind": "grid-image"} if classes is None else {"kind": "grid-image", "classes": classes}
    assert parse_config({"dataset": doc}).dataset.classes == (classes or GRID_IMAGE_CLASSES)


@pytest.mark.parametrize("doc", [{"output_dir": None}, {"upsampler": {"latent_grid": None}}])
def test_null_for_a_field_whose_default_is_null_is_the_default(doc):
    # A field whose default is None accepts None; any other value is held to its rule.
    assert parse_config(doc) == parse_config({})


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lax"])
def test_invalid_json(strict):
    with pytest.raises(ConfigError) as info:
        parse_config('{"dataset": ', strict=strict)
    assert str(info.value) == "not valid JSON: Expecting value: line 1 column 13 (char 12)"


@pytest.mark.parametrize("doc,message", UNKNOWN_KEYS)
def test_unknown_key_strict(doc, message):
    with pytest.raises(ConfigError) as info:
        parse_config(_as_text(doc))
    assert str(info.value) == message


def test_unknown_keys_of_every_section_in_one_error(caplog):
    # The removed settings of an old document, in three sections: strict mode
    # names them all at once, and the lax read logs each section's.
    doc = {"export_samples": 0, "train": {"lr_schedule": "cosine"},
           "baselines": {"gaussian_sigma_rule": 0.1}}
    messages = ["train: unknown key(s) ['lr_schedule']",
                "baselines: unknown key(s) ['gaussian_sigma_rule']",
                "<root>: unknown key(s) ['export_samples']"]
    with pytest.raises(ConfigError) as info:
        parse_config(_as_text(doc))
    assert str(info.value) == "; ".join(messages)
    with caplog.at_level(logging.WARNING, logger="nppr.config"):
        assert parse_config(_as_text(doc), strict=False) == parse_config("{}")
    assert caplog.messages == [f"{m} (ignored)" for m in messages]


@pytest.mark.parametrize("doc,message", UNKNOWN_KEYS)
def test_unknown_key_lax_warns_and_ignores(doc, message, caplog):
    with caplog.at_level(logging.WARNING, logger="nppr.config"):
        cfg = parse_config(_as_text(doc), strict=False)
    assert f"{message} (ignored)" in caplog.messages
    assert cfg == parse_config("{}")


# The dataclasses that are also built from a checkpoint or by library code,
# where each sits in a document, and bad values of every field a document
# sets: one of the wrong type, and one out of range where the field has a
# range. The upsampler's gamma is `budget.epsilon`, not a key of its own.
PARITY = {
    ClassifierSpec: ("classifier", {"hidden": ["64", [0]], "epochs": [1.5, 0], "lr": ["1", 0],
                                    "accuracy_threshold": [None, 7.0]}),
    HeadConfig: ("gmm", {"K": ["7", 0], "latent_dim": [2.5, 0], "hidden_dim": [True, 0],
                         "label_emb_dim": [None, 0]}),
    UpsamplerConfig: ("upsampler", {"mode": [1, "nearest"],
                                    "latent_grid": ["1x4x4", [1, "a", 4]]}),
    TrainConfig: ("train", {
        "epochs": [1.0, 0], "lr": ["1", 0], "samples_per_input": [2.5, 0], "batch_size": ["8", 0],
        "seed": [1.5, -1], "eval_every": [None, 0],
        "kappa": ["1", float("nan")], "probe_size": [False, 0], "probe_samples": [[], 0]}),
    GumbelConfig: ("train.gumbel", {"tau_init": [True, 0], "tau_final": [None, float("inf")]}),
    AnnealSchedule: ("train.anneal", {
        "T_pi": [3, [0, 1]], "T_mu": ["ab", ["a", 1]], "T_sigma": [None, [1]],
        "T_shared": [{}, [1, float("nan")]]}),
}


def test_parity_covers_every_field():
    for cls, (_, bad) in PARITY.items():
        plain = {f.name for f in fields(cls) if f.default is not MISSING} - {"gamma"}
        assert set(bad) == plain, cls.__name__


@pytest.mark.parametrize("cls,name,value", [
    pytest.param(cls, name, value, id=f"{cls.__name__}.{name}={value!r}")
    for cls, (_, bad) in PARITY.items() for name, values in bad.items() for value in values])
def test_parse_and_constructor_give_one_reason(cls, name, value):
    """A field's rule is stated once: a document and the constructor refuse a
    bad value with the same reason, behind "<path>.<key>: " and
    "<Class>.<field>: "."""
    path, _ = PARITY[cls]
    doc = {_KEY.get(name, name): value}
    for part in reversed(path.split(".")):
        doc = {part: doc}
    with pytest.raises(ConfigError) as parsed:
        parse_config(doc)
    with pytest.raises(ValueError) as built:
        cls(**{name: value}, **({"mode": "joint"} if cls is HeadConfig else {}))
    prefix = f"{path}.{_KEY.get(name, name)}: "
    assert str(parsed.value).startswith(prefix)
    assert str(built.value) == f"{cls.__name__}.{name}: {str(parsed.value)[len(prefix):]}"


@pytest.mark.parametrize("doc,message", UPSAMPLER_MISFITS)
def test_parse_and_constructor_refuse_a_misfit_alike(doc, message):
    """parse_config and the Upsampler constructor state the fit rule once:
    the ConfigError is the constructor's ValueError behind "upsampler: "."""
    with pytest.raises(ConfigError) as parsed:
        parse_config(doc)
    rest = parse_config({k: v for k, v in doc.items() if k != "upsampler"})
    image_shape = rest.dataset.image_shape if rest.dataset.kind == "grid-image" else None
    with pytest.raises(ValueError) as built:
        Upsampler(UpsamplerConfig(**doc["upsampler"]), rest.head.latent_dim, rest.dataset.dim,
                  image_shape, np.random.default_rng(0))
    assert str(parsed.value) == f"upsampler: {built.value}" == message
