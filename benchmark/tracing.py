"""In-memory span tracer and the timing wrappers it installs around nppr's layers.

The wrappers live here, not in the package: `Tracer.install` replaces the
public functions and methods each layer exposes with a wrapper that records a
span (name, start, end, parent, root) and the layer's work counts, and
`Tracer.uninstall` puts the originals back. Spans stay in memory until
`Tracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import json
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from nppr import experiment, generator, models, optim, tensor, trainer, upsample


# Counters take the wrapped call's result, then its arguments as the package's
# callers pass them, and return the work that crossed the boundary.
def _rows(result, self, x, *args, **kwargs):
    return {"rows": x.shape[0]}


def _draws_nppr(result, clf, gen, x, y, M, *args, **kwargs):
    return {"draws": len(x) * M}


def _draws_pr(result, clf, x, y, dist, gamma, M, *args, **kwargs):
    return {"draws": len(x) * M}


def _exact_bytes(batch, *args, **kwargs):
    return {"bytes": (batch.latent.data.nbytes + batch.relaxed_weights.data.nbytes
                      + batch.component_draws.nbytes)}


def _saved_bytes(result, path, *args, **kwargs):
    return {"bytes": Path(path).stat().st_size}


def _epochs(result, clf, split, cfg, *args, **kwargs):
    records = result[1]
    return {"epochs": len(records),
            "epochs_aborted": sum(1 for r in records if r.aborted),
            "samples": len(records) * split.train.n * cfg.samples_per_input}


# (owner, attribute, span name, counter). A module attribute is wrapped where
# the caller looks it up: `trainer.nppr_estimate` is the per-epoch probe and
# `experiment.nppr_estimate` the final evaluation, so the two get different
# spans. Methods are wrapped on their class.
LAYERS = [
    (experiment, "make_dataset", "experiment.dataset", None),
    (experiment, "stratified_split", "experiment.dataset", None),
    (experiment, "fit_classifier", "experiment.classifier", None),
    (experiment, "train_generator", "experiment.train", _epochs),
    (experiment, "evaluate_generator", "experiment.evaluate", None),
    (models.GmmHead, "forward", "models.head_forward", None),
    (models.Classifier, "logits", "models.clf_logits", _rows),
    (generator, "sample_perturbations", "sampling.relaxed", None),
    (generator, "sample_exact", "sampling.exact", _exact_bytes),
    (upsample.Upsampler, "forward", "upsample.forward", _rows),
    (generator, "apply_budget", "upsample.budget", None),
    (tensor.Tensor, "backward", "tensor.backward", None),
    (optim.Adam, "step", "optim.step", None),
    (trainer, "nppr_estimate", "trainer.probe", None),
    (trainer, "margin_loss", "metrics.margin_loss", None),
    (trainer, "save_snapshot", "serialize.save", _saved_bytes),
    (trainer, "load_snapshot", "serialize.load", None),
    (experiment, "nppr_estimate", "metrics.nppr", _draws_nppr),
    (experiment, "pr_estimate", "metrics.pr", _draws_pr),
    (experiment, "ar_pgd", "metrics.attack", None),
    (experiment, "ar_cw", "metrics.attack", None),
]

SPAN_NAMES = sorted({name for _, _, name, _ in LAYERS})

# Stages that call the same layers: backward runs in the classifier fit, in
# generator training and in the attacks, and its time is reported per stage.
STAGES = {"experiment.classifier": "classifier", "experiment.train": "train",
          "metrics.attack": "attack"}


class Tracer:
    """Nested spans with per-span counts, recorded in one thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = {"name": name, "start": perf_counter(), "end": None, "parent": parent,
                  "root": index if parent is None else self.spans[parent]["root"],
                  "counts": {}}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def _wrap(self, original, name, counter):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if counter is not None:
                    record["counts"] = counter(result, *args, **kwargs)
            return result
        return wrapper

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, counter in LAYERS:
            original = vars(owner)[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _stage(self, index: int) -> str | None:
        parent = self.spans[index]["parent"]
        while parent is not None and self.spans[parent]["name"] not in STAGES:
            parent = self.spans[parent]["parent"]
        return None if parent is None else STAGES[self.spans[parent]["name"]]

    def totals(self, root: int) -> dict:
        """Per span name under `root` (the root excluded): seconds, self seconds,
        seconds by enclosing stage, span durations, summed counts and the
        largest count of any one span."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out = {name: {"s": 0.0, "self_s": 0.0, "stage_s": dict.fromkeys(STAGES.values(), 0.0),
                      "durations": [], "counts": {}, "max": {}}
               for name in SPAN_NAMES}
        for i, s in enumerate(self.spans):
            if s["root"] != root:
                continue
            duration = s["end"] - s["start"]
            if i == root:
                out["root"] = {"s": duration, "self_s": duration - child_time[i]}
                continue
            entry = out[s["name"]]
            entry["s"] += duration
            entry["self_s"] += duration - child_time[i]
            stage = self._stage(i)
            if stage is not None:
                entry["stage_s"][stage] += duration
            entry["durations"].append(duration)
            for key, value in s["counts"].items():
                entry["counts"][key] = entry["counts"].get(key, 0) + value
                entry["max"][key] = max(entry["max"].get(key, 0), value)
        return out

    def dump(self, path: Path, extra: dict) -> None:
        path.write_text(json.dumps({**extra, "spans": self.spans}))


SETUP_SPANS = ("experiment.dataset", "experiment.classifier")
GUARDS = {"tensor.log_clamped": "log_clamped", "tensor.sqrt_clamped": "sqrt_clamped",
          "optim.skipped_steps": "adam_nan_skips"}


def layer_metrics(setup: dict, calls: list[dict], guards: list[dict]) -> dict:
    """Per-layer metrics as {name: (value, unit)}.

    `setup` is `Tracer.totals` of the traced set-up, `calls` those of each traced
    measured call, and `guards` the engine's numeric counters after each call.
    Set-up spans come from the set-up; every other value is the median over
    the measured calls, except the backward percentiles, which pool the spans
    of all calls.
    """
    def med(fn):
        return statistics.median(fn(c) for c in calls)

    out = {}
    for name in SPAN_NAMES:
        if name in SETUP_SPANS:
            out[f"{name}_s"] = (setup[name]["s"], "s")
            out[f"{name}_self_s"] = (setup[name]["self_s"], "s")
        else:
            out[f"{name}_s"] = (med(lambda c: c[name]["s"]), "s")
            out[f"{name}_self_s"] = (med(lambda c: c[name]["self_s"]), "s")

    def calls_of(name):
        return med(lambda c: len(c[name]["durations"]))

    def count(name, key):
        return med(lambda c: c[name]["counts"].get(key, 0))

    def rate(numerator, denominator):
        return med(lambda c: numerator(c) / denominator(c) if denominator(c) > 0 else 0.0)

    backward_ms = sorted(1e3 * d for c in calls for d in c["tensor.backward"]["durations"])
    out.update({
        "models.head_forward_calls": (calls_of("models.head_forward"), "count"),
        "models.clf_rows": (count("models.clf_logits", "rows"), "count"),
        "sampling.relaxed_calls": (calls_of("sampling.relaxed"), "count"),
        "sampling.exact_calls": (calls_of("sampling.exact"), "count"),
        "sampling.exact_mb": (med(lambda c: c["sampling.exact"]["max"].get("bytes", 0)) / 2**20,
                              "MiB"),
        "upsample.rows": (count("upsample.forward", "rows"), "count"),
        "tensor.backward_calls": (calls_of("tensor.backward"), "count"),
        **{f"tensor.backward.{stage}_s": (med(lambda c: c["tensor.backward"]["stage_s"][stage]), "s")
           for stage in STAGES.values()},
        "tensor.backward_ms.p50": (_quantile(backward_ms, 0.5), "ms"),
        "tensor.backward_ms.p90": (_quantile(backward_ms, 0.9), "ms"),
        "optim.steps": (calls_of("optim.step"), "count"),
        "trainer.epochs": (count("experiment.train", "epochs"), "count"),
        "trainer.epochs_aborted": (count("experiment.train", "epochs_aborted"), "count"),
        "trainer.samples_per_s": (rate(lambda c: c["experiment.train"]["counts"].get("samples", 0),
                                       lambda c: c["experiment.train"]["s"]), "1/s"),
        "serialize.saves": (calls_of("serialize.save"), "count"),
        "serialize.bytes_written": (count("serialize.save", "bytes"), "bytes"),
        "serialize.loads": (calls_of("serialize.load"), "count"),
        "metrics.draws_per_s": (rate(
            lambda c: c["metrics.nppr"]["counts"].get("draws", 0)
            + c["metrics.pr"]["counts"].get("draws", 0),
            lambda c: c["metrics.nppr"]["s"] + c["metrics.pr"]["s"]), "1/s"),
        "bench.call_self_s": (med(lambda c: c["root"]["self_s"]), "s"),
        "bench.traced_calls": (len(calls), "count"),
    })
    for metric, key in GUARDS.items():
        out[metric] = (statistics.median(g[key] for g in guards), "count")
    return out


def _quantile(ordered: list, q: float) -> float:
    """Nearest-rank quantile of a sorted list; 0 when it is empty."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
