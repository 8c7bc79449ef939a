"""End-to-end generator training: relaxed sampling, margin loss through the
frozen classifier, Adam on the head/upsampler parameters, temperature
annealing, per-epoch probe metrics, and checkpointing."""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import tensor as T
from .datasets import SplitDataset
from .generator import Generator, build_generator
from .metrics import margin_loss, mixture_statistics, nppr_estimate
from .models import Classifier, DependencyMode, HeadConfig, Temperatures
from .optim import Adam
from .rng import GUMBEL, PROBE, SHUFFLE, substream
from .sampling import AnnealSchedule, GumbelConfig, anneal_value, gumbel_tau
from .serialize import (SnapshotError, at_least, check_fields, checked, config_record,
                        load_snapshot, one_of, positive, save_snapshot)
from .upsample import UpsamplerConfig

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    epochs: int = checked(50, at_least(1))
    lr: float = checked(5e-4, positive)
    lr_schedule: str = checked("constant", one_of({"constant", "cosine"}))
    warmup_epochs: int = checked(20, at_least(0))
    lr_min: float = checked(2e-6, positive)
    samples_per_input: int = checked(32, at_least(1))
    batch_size: int = checked(128, at_least(1))
    seed: int = 0
    gumbel: GumbelConfig = field(default_factory=GumbelConfig)
    anneal: AnnealSchedule = field(default_factory=AnnealSchedule)
    eval_every: int = checked(5, at_least(1))
    kappa: float = 1.0
    probe_size: int = checked(64, at_least(1))
    probe_samples: int = checked(64, at_least(1))

    def __post_init__(self):
        check_fields(self)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    nppr_running: float
    entropy_ratio: float
    pi_max: float
    pi_min: float
    pi_std: float
    tau_gumbel: float
    T_pi: float
    T_mu: float
    T_sigma: float
    aborted: bool = False

    def csv_row(self) -> list:
        return [getattr(self, name) for name in EPOCH_CSV_COLUMNS]


EPOCH_CSV_COLUMNS = [f.name for f in fields(EpochRecord) if f.name != "aborted"]


def lr_at_epoch(cfg: TrainConfig, epoch: int) -> float:
    if cfg.lr_schedule == "constant":
        return cfg.lr
    warm = min(cfg.warmup_epochs, cfg.epochs)
    if epoch < warm:
        return cfg.lr * (epoch + 1) / warm
    span = max(cfg.epochs - warm, 1)
    t = (epoch - warm) / span
    return cfg.lr_min + 0.5 * (cfg.lr - cfg.lr_min) * (1.0 + np.cos(np.pi * t))


def temps_at_epoch(cfg: TrainConfig, epoch: int) -> Temperatures:
    sched = cfg.anneal
    return Temperatures(
        T_pi=anneal_value(sched.T_pi, epoch, cfg.epochs, sched.warmup_epochs),
        T_mu=anneal_value(sched.T_mu, epoch, cfg.epochs, sched.warmup_epochs),
        T_sigma=anneal_value(sched.T_sigma, epoch, cfg.epochs, sched.warmup_epochs),
        T_shared=anneal_value(sched.T_shared, epoch, cfg.epochs, sched.warmup_epochs),
    )


def _snapshot_params(generator: Generator) -> dict[str, np.ndarray]:
    return {name: t.data.copy() for name, t in generator.tensors().items()}


def _load_params(generator: Generator, named: dict[str, np.ndarray]) -> None:
    for name, t in generator.tensors().items():
        t.data = np.asarray(named[name], dtype=np.float64).copy()


def save_checkpoint(generator: Generator, path, *, opt: Adam | None = None,
                    train_cfg: TrainConfig | None = None, epoch_next: int = 0,
                    best_nppr: float | None = None, initial_loss: float | None = None,
                    high_loss_streak: int = 0) -> None:
    """Write the generator's tensors, their Adam moments when `opt` is given,
    and in `extra` the head and upsampler configs and the loop state. The
    mode, the budget and the shapes follow from the configs and the
    classifier, so they are not written."""
    named = _snapshot_params(generator)
    if opt is not None:
        for name, m, v in zip(generator.named_params(), opt.m, opt.v):
            named[f"adam.m.{name}"] = m.copy()
            named[f"adam.v.{name}"] = v.copy()
    extra = {
        "kind": "generator-checkpoint",
        "train_cfg": config_record(train_cfg) if train_cfg is not None else None,
        "epoch_next": int(epoch_next),
        "adam_t": int(opt.t) if opt is not None else None,
        "best_nppr": best_nppr,
        "initial_loss": initial_loss,
        "high_loss_streak": int(high_loss_streak),
        "head_cfg": config_record(generator.head.cfg),
        "ups_cfg": config_record(generator.upsampler.cfg),
    }
    save_snapshot(path, named, extra=extra)


def restore_checkpoint(path, clf: Classifier,
                       expected_mode: DependencyMode | None = None) -> tuple[Generator, dict]:
    """Rebuild a generator (and optimizer state) from a checkpoint file.

    The generator is built by `build_generator` from the stored head and
    upsampler configs and `clf`. The stored tensors must be exactly its
    `tensors()` and, when `adam_t` is set, the Adam moments of every
    parameter, each in the shape the generator gives it. Otherwise
    SnapshotError names the missing and the unexpected tensors, or every
    tensor whose shape differs together with both shapes, as when `clf` has
    another input or feature width than the classifier the checkpoint was
    trained against; nothing is loaded before these checks pass. A stored
    upsampler that cannot be built for `clf` at all (a `none` upsampler of
    another width, a bicubic grid that does not fit its image) is refused
    with SnapshotError too, naming the path and the builder's message, and
    so are stored settings that are missing or cannot be read. Keys of
    `extra` that this reader does not use are ignored.
    """
    named, extra = load_snapshot(path)
    if extra.get("kind") != "generator-checkpoint":
        raise SnapshotError(f"{path}: not a generator checkpoint")
    try:
        head_cfg = HeadConfig(**extra["head_cfg"])
        ups_cfg = UpsamplerConfig(**extra["ups_cfg"])
        state = {k: extra[k] for k in ("train_cfg", "epoch_next", "best_nppr",
                                       "initial_loss", "high_loss_streak", "adam_t")}
    except (KeyError, TypeError, ValueError) as err:
        raise SnapshotError(
            f"{path}: stored settings cannot be read: {type(err).__name__}: {err}") from None
    if expected_mode is not None and head_cfg.mode != DependencyMode(expected_mode):
        raise SnapshotError(
            f"{path}: checkpoint mode '{head_cfg.mode.value}' does not match expected "
            f"'{DependencyMode(expected_mode).value}'")
    try:
        generator = build_generator(clf, head_cfg, ups_cfg)
    except ValueError as err:
        raise SnapshotError(f"{path}: checkpoint does not fit the classifier: {err}") from None
    expected = {n: t.data.shape for n, t in generator.tensors().items()}
    if state["adam_t"] is not None:
        expected |= {f"adam.{k}.{n}": p.data.shape
                     for k in "mv" for n, p in generator.named_params().items()}
    if set(named) != set(expected):
        raise SnapshotError(
            f"{path}: checkpoint tensors do not match the generator: "
            f"missing {sorted(set(expected) - set(named))}, "
            f"unexpected {sorted(set(named) - set(expected))}")
    wrong = [f"{n} {named[n].shape} != {shape}" for n, shape in sorted(expected.items())
             if named[n].shape != shape]
    if wrong:
        raise SnapshotError(f"{path}: checkpoint tensor shapes do not match the generator "
                            f"(stored != expected): {', '.join(wrong)}")
    _load_params(generator, named)
    for k in "mv":
        state[f"adam_{k}"] = [named.get(f"adam.{k}.{n}") for n in generator.named_params()]
    return generator, state


def _check_resume_config(written: dict | None, cfg: TrainConfig) -> None:
    """Refuse to resume a checkpoint under a TrainConfig other than its own.

    `written` is None for a parameter-only checkpoint, which records no run.
    """
    if written is None:
        return
    current = config_record(cfg)
    fields = [k for k in current if written.get(k) != current[k]]
    if not fields:
        return
    length = (f"checkpoint was written by a {written['epochs']}-epoch run "
              f"but cfg.epochs is {cfg.epochs}; " if "epochs" in fields else "")
    raise ValueError(
        f"train_generator: {length}the checkpoint's TrainConfig differs in "
        f"{', '.join(fields)}; every schedule and random stream depends on it, "
        f"so resume with the same TrainConfig")


def _probe_metrics(generator: Generator, probe_x: np.ndarray, probe_y: np.ndarray,
                   temps: Temperatures, M: int, rng: np.random.Generator) -> dict:
    """Weight statistics and the running NPPR; a non-finite mixture has no
    NPPR, so it reads NaN there."""
    params = generator.gmm_params(probe_x, probe_y, temps=temps)
    stats = mixture_statistics(params.pi())
    stats["nppr_running"] = (
        nppr_estimate(generator.clf, generator, probe_x, probe_y, M, rng, temps=temps)
        if params.non_finite() is None else float("nan"))
    return stats


def train_generator(clf: Classifier, split: SplitDataset, cfg: TrainConfig,
                    generator: Generator, *, out_dir=None, resume_state: dict | None = None,
                    events: list | None = None) -> tuple[Generator, list[EpochRecord]]:
    """Minimize the empirical relaxed objective over the generator parameters.

    Per epoch: draw M relaxed perturbations per input, average the margin loss
    over all batch x M samples, step Adam, advance every annealing schedule,
    and log probe metrics. Non-finite losses abort the epoch and roll back to
    the last good state. Randomness is keyed by (seed, purpose, epoch, batch),
    so a restored run replays exactly like an uninterrupted one.

    A checkpoint carries the whole loop state: parameters, Adam state
    (moments and step count), `epoch_next`, `best_nppr`, the divergence
    reference (`initial_loss`, `high_loss_streak`), and the run's whole
    TrainConfig. `ckpt_best.json` is written before `ckpt_latest.json`, the
    resume point. Schedules anneal over `cfg.epochs` and random streams are
    keyed by `cfg.seed`, so a resume must use the same TrainConfig as the run
    that wrote `resume_state`; any differing field is refused with ValueError
    naming the fields.
    """
    if not clf.frozen:
        raise ValueError("train_generator: classifier must be frozen first")
    events = events if events is not None else []
    train, test = split.train, split.test
    n = train.n
    bs = min(cfg.batch_size, n)
    M = cfg.samples_per_input

    opt = Adam(generator.params(), lr=cfg.lr)
    start_epoch = 0
    best_nppr = None
    initial_loss = None
    high_loss_streak = 0
    if resume_state is not None:
        _check_resume_config(resume_state["train_cfg"], cfg)
        start_epoch = int(resume_state["epoch_next"])
        best_nppr = resume_state["best_nppr"]
        initial_loss = resume_state["initial_loss"]
        high_loss_streak = int(resume_state["high_loss_streak"])
        if resume_state["adam_t"] is not None:
            opt.load_state_dict({"t": resume_state["adam_t"],
                                 "m": resume_state["adam_m"],
                                 "v": resume_state["adam_v"]})

    probe_rng = substream(cfg.seed, PROBE)
    probe_n = min(cfg.probe_size, test.n)
    probe_idx = probe_rng.choice(test.n, size=probe_n, replace=False)
    probe_x, probe_y = test.x[probe_idx], test.y[probe_idx]

    last_good = (_snapshot_params(generator), opt.state_dict())
    records: list[EpochRecord] = []

    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    for epoch in range(start_epoch, cfg.epochs):
        temps = temps_at_epoch(cfg, epoch)
        tau = gumbel_tau(cfg.gumbel, epoch, cfg.epochs)
        opt.lr = lr_at_epoch(cfg, epoch)

        order = substream(cfg.seed, SHUFFLE, epoch).permutation(n)
        total_loss, total_rows, aborted = 0.0, 0, False
        for b, start in enumerate(range(0, n, bs)):
            idx = order[start:start + bs]
            xb, yb = train.x[idx], train.y[idx]
            rng = substream(cfg.seed, GUMBEL, epoch, b)

            params = generator.gmm_params(xb, yb, temps=temps)
            batch = generator.perturb_relaxed(params, M, tau, rng)
            base = T.constant(xb[:, None, :])
            perturbed = T.reshape(T.add(base, batch.images), (len(xb) * M, train.dim))
            loss = margin_loss(clf.logits(perturbed), np.repeat(yb, M), cfg.kappa)

            if not np.isfinite(loss.item()):
                events.append(f"epoch {epoch}: non-finite loss, epoch aborted and state restored")
                log.warning(events[-1])
                _load_params(generator, last_good[0])
                opt.load_state_dict(last_good[1])
                aborted = True
                break

            opt.zero_grad()
            loss.backward()
            opt.step()
            total_loss += loss.item() * len(xb)
            total_rows += len(xb)

        epoch_loss = total_loss / total_rows if total_rows else float("nan")
        if not aborted:
            last_good = (_snapshot_params(generator), opt.state_dict())
            if initial_loss is None:
                initial_loss = epoch_loss
            if initial_loss > 0 and epoch_loss > 10.0 * initial_loss:
                high_loss_streak += 1
                if high_loss_streak == 5:
                    events.append(f"epoch {epoch}: divergence flagged "
                                  f"(loss > 10x initial for 5 epochs)")
                    log.warning(events[-1])
            else:
                high_loss_streak = 0

        probe = _probe_metrics(generator, probe_x, probe_y, temps,
                               cfg.probe_samples, substream(cfg.seed, PROBE, epoch, 1))
        records.append(EpochRecord(
            epoch=epoch, train_loss=epoch_loss, **probe, tau_gumbel=tau,
            T_pi=temps.T_pi, T_mu=temps.T_mu, T_sigma=temps.T_sigma, aborted=aborted))

        running = probe["nppr_running"]
        if np.isnan(running):
            events.append(f"epoch {epoch}: non-finite mixture, probe NPPR not estimated")
            log.warning(events[-1])
        improved = not np.isnan(running) and (best_nppr is None or running < best_nppr)
        if improved:
            best_nppr = running
        if out_dir is not None:
            loop_state = dict(opt=opt, train_cfg=cfg, epoch_next=epoch + 1,
                              best_nppr=best_nppr, initial_loss=initial_loss,
                              high_loss_streak=high_loss_streak)
            if improved:
                save_checkpoint(generator, out_dir / "ckpt_best.json", **loop_state)
            if (epoch + 1) % max(cfg.eval_every, 1) == 0 or epoch == cfg.epochs - 1:
                save_checkpoint(generator, out_dir / "ckpt_latest.json", **loop_state)

    return generator, records


def write_epoch_csv(records: list[EpochRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EPOCH_CSV_COLUMNS)
        for record in records:
            writer.writerow(record.csv_row())
