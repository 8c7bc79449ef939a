"""End-to-end generator training: relaxed sampling, margin loss through the
frozen classifier, Adam on the head/upsampler parameters, temperature
annealing, per-epoch probe metrics, and checkpoints: each one a resume point
that carries the fingerprint of the classifier it was trained against."""

from __future__ import annotations

import csv
import hashlib
import logging
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import tensor as T
from .datasets import SplitDataset
from .generator import Generator, build_generator
from .metrics import margin_loss, mixture_statistics, nppr_estimate
from .models import Classifier, DependencyMode, HeadConfig, Temperatures
from .optim import Adam
from .rng import GUMBEL, PROBE, SHUFFLE, substream
from .sampling import AnnealSchedule, GumbelConfig, anneal_value
from .serialize import (SnapshotError, at_least, check_fields, checked, config_record,
                        load_snapshot, positive, rate, save_snapshot)
from .upsample import UpsamplerConfig

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    """How the generator is trained: Adam at `lr` for all `epochs`, while the
    relaxation and head temperatures anneal over the whole run."""
    epochs: int = checked(50, at_least(1))
    lr: float = checked(5e-4, positive)
    samples_per_input: int = checked(32, at_least(1))
    batch_size: int = checked(128, at_least(1))
    seed: int = checked(0, at_least(0))
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


@dataclass
class RunState:
    """A run's loop state: the TrainConfig record, next epoch, best probe NPPR,
    divergence state and Adam's step count."""
    train_cfg: dict = checked(kind=dict)
    epoch_next: int = checked(0, at_least(0))
    best_nppr: float | None = checked(None, rate, kind=float)
    initial_loss: float | None = checked(None, at_least(0), kind=float)
    high_loss_streak: int = checked(0, at_least(0))
    adam_t: int = checked(0, at_least(0))

    def __post_init__(self):
        check_fields(self)


def _state(generator: Generator, opt: Adam) -> dict[str, np.ndarray]:
    """Copies of the generator's parameters and of Adam's moments of each."""
    named = {name: t.data.copy() for name, t in generator.named_params().items()}
    for name, m, v in zip(generator.named_params(), opt.m, opt.v):
        named[f"adam.m.{name}"], named[f"adam.v.{name}"] = m.copy(), v.copy()
    return named


def _load_state(generator: Generator, opt: Adam, named: dict[str, np.ndarray], t: int) -> None:
    """Put back a `_state` capture and Adam's step count `t`."""
    for name, tensor in generator.named_params().items():
        tensor.data = named[name].copy()
    opt.m = [named[f"adam.m.{name}"].copy() for name in generator.named_params()]
    opt.v = [named[f"adam.v.{name}"].copy() for name in generator.named_params()]
    opt.t = t


def _fingerprint(clf: Classifier) -> str:
    """sha256 of the classifier's float64 weights, then biases (`params()` order)."""
    data = b"".join(np.asarray(p.data, "<f8").tobytes() for p in clf.params())
    return hashlib.sha256(data).hexdigest()


def save_checkpoint(generator: Generator, path, opt: Adam, run: RunState) -> None:
    """Write a resume point: the generator's parameters and their Adam moments,
    and in `extra` the RunState with Adam's step count, the head and upsampler
    configs and the fingerprint of the classifier the generator is trained
    against. The mode, the budget and the shapes follow from the configs and
    the classifier, so they are not written."""
    extra = {"kind": "generator-checkpoint", **asdict(replace(run, adam_t=opt.t)),
             "head_cfg": config_record(generator.head.cfg),
             "ups_cfg": config_record(generator.upsampler.cfg),
             "classifier_sha256": _fingerprint(generator.clf)}
    save_snapshot(path, _state(generator, opt), extra=extra)


@dataclass
class StoredCheckpoint:
    """A checkpoint as read from disk, before it meets a classifier."""
    path: str
    head_cfg: HeadConfig
    ups_cfg: UpsamplerConfig
    run: RunState
    classifier_sha256: str
    tensors: dict[str, np.ndarray]
    temps: Temperatures  # those of the last epoch it completed

    def mismatches(self, head: HeadConfig | None = None, upsampler: UpsamplerConfig | None = None,
                   train: TrainConfig | None = None) -> list[str]:
        """`section.key stored != given` for each setting of the given configs
        that the checkpoint stores otherwise; stored keys they lack are ignored."""
        stored = {"head": config_record(self.head_cfg), "upsampler": config_record(self.ups_cfg),
                  "train": self.run.train_cfg}
        given = {"head": head, "upsampler": upsampler, "train": train}
        return [f"{section}.{k} {stored[section].get(k)} != {v}"
                for section, cfg in given.items() if cfg is not None
                for k, v in config_record(cfg).items() if stored[section].get(k) != v]


def read_checkpoint(path, expected_mode: DependencyMode | None = None) -> StoredCheckpoint:
    """Load a checkpoint and read its kind and stored settings, without building
    anything. Settings that are missing or break their field rules, and a head
    of another mode than `expected_mode`, are refused with SnapshotError; keys
    of `extra` that this reader does not use are ignored. The temperatures are
    the stored TrainConfig's at the last epoch the checkpoint completed
    (`epoch_next - 1`, or 0), and a record that cannot give them is refused."""
    named, extra = load_snapshot(path)
    if extra.get("kind") != "generator-checkpoint":
        raise SnapshotError(f"{path}: not a generator checkpoint")
    try:
        run = RunState(**{f.name: extra[f.name] for f in fields(RunState)})
        temps = AnnealSchedule(**run.train_cfg["anneal"]).at(
            max(run.epoch_next - 1, 0), run.train_cfg["epochs"])
        stored = StoredCheckpoint(
            str(path), HeadConfig(**extra["head_cfg"]), UpsamplerConfig(**extra["ups_cfg"]),
            run, extra["classifier_sha256"], named, temps)
    except (KeyError, TypeError, ValueError) as err:
        raise SnapshotError(
            f"{path}: stored settings cannot be read: {type(err).__name__}: {err}") from None
    if expected_mode is not None and stored.head_cfg.mode != DependencyMode(expected_mode):
        raise SnapshotError(
            f"{path}: checkpoint mode '{stored.head_cfg.mode.value}' does not match expected "
            f"'{DependencyMode(expected_mode).value}'")
    return stored


def build_from_checkpoint(stored: StoredCheckpoint, clf: Classifier) -> Generator:
    """Rebuild the generator of a read checkpoint against `clf`.

    The generator is built by `build_generator` from the stored head and
    upsampler configs and `clf`, and holds the stored temperatures. The stored
    tensors must be exactly what `_state` captures of it and a fresh Adam, in
    the same shapes, and the stored fingerprint must be `clf`'s. Otherwise
    SnapshotError names the missing and the unexpected tensors, every tensor
    whose shape differs with both shapes (as when `clf` has another input or
    feature width), or both fingerprints; nothing is loaded before these
    checks pass. A stored upsampler that cannot be built for `clf` (a `none`
    upsampler of another width, a bicubic grid that does not fit its image) is
    refused with SnapshotError too.
    """
    path, named = stored.path, stored.tensors
    try:
        generator = build_generator(clf, stored.head_cfg, stored.ups_cfg)
    except ValueError as err:
        raise SnapshotError(f"{path}: checkpoint does not fit the classifier: {err}") from None
    opt = Adam(generator.params())
    expected = {n: a.shape for n, a in _state(generator, opt).items()}
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
    if stored.classifier_sha256 != (given := _fingerprint(clf)):
        raise SnapshotError(f"{path}: checkpoint was trained against another classifier "
                            f"(classifier_sha256 {stored.classifier_sha256} != {given})")
    _load_state(generator, opt, named, stored.run.adam_t)
    generator.temps = stored.temps
    return generator


def restore_checkpoint(path, clf: Classifier, expected_mode: DependencyMode | None = None
                       ) -> tuple[Generator, StoredCheckpoint]:
    """`read_checkpoint`, then `build_from_checkpoint` against `clf`: one load.
    The stored checkpoint is also `train_generator`'s resume state."""
    stored = read_checkpoint(path, expected_mode)
    return build_from_checkpoint(stored, clf), stored


def _probe_metrics(generator: Generator, probe_x: np.ndarray, probe_y: np.ndarray,
                   M: int, rng: np.random.Generator) -> dict:
    """Weight statistics and the running NPPR; a non-finite mixture has no
    NPPR, so it reads NaN there. The head forward records no tape."""
    with T.no_grad():
        params = generator.gmm_params(probe_x, probe_y)
    stats = mixture_statistics(params.pi())
    stats["nppr_running"] = (
        nppr_estimate(generator.clf, generator, probe_x, probe_y, M, rng)
        if params.non_finite() is None else float("nan"))
    return stats


def _step_loss(clf: Classifier, generator: Generator, cfg: TrainConfig, xb: np.ndarray,
               yb: np.ndarray, tau: float, rng: np.random.Generator) -> T.Tensor:
    """One step's relaxed forward; its tape is reachable from the loss alone.
    The budget op adds the clean inputs, so the perturbation is never held,
    and no backward reads the perturbed rows, so they go when this returns."""
    M = cfg.samples_per_input
    batch = generator.perturb_relaxed(generator.gmm_params(xb, yb), M, tau, rng,
                                      base=xb[:, None, :])
    perturbed = T.reshape(batch.images, (len(xb) * M, -1))
    return margin_loss(clf.logits(perturbed), np.repeat(yb, M), cfg.kappa)


def train_generator(clf: Classifier, split: SplitDataset, cfg: TrainConfig,
                    generator: Generator, *, out_dir=None, resume: StoredCheckpoint | None = None,
                    events: list | None = None) -> tuple[Generator, list[EpochRecord]]:
    """Minimize the empirical relaxed objective over the generator parameters.

    Per epoch: set `generator.temps` to the epoch's annealed temperatures,
    draw M relaxed perturbations per input, average the margin loss over all
    batch x M samples, step Adam, and log probe metrics; the generator ends at
    the temperatures of the last epoch run, the resumed checkpoint's when no
    epoch is left. Non-finite losses abort the epoch and roll back to the
    last good state. Randomness is keyed by (seed, purpose, epoch, batch), so
    a restored run replays exactly like an uninterrupted one. A step's tape
    keeps only what its backward reads, so the perturbed rows and the head's
    outputs are freed with the forward, and the tape itself once its backward
    has run.

    Every checkpoint is a resume point: `_state` (parameters and Adam's
    moments), the RunState and the fingerprint of `clf`; `ckpt_best.json`,
    the latest epoch of lowest probe NPPR, is written before `ckpt_latest.json`.
    `resume` is a stored checkpoint, as `restore_checkpoint` returns it: the
    run goes on at its `epoch_next`, Adam at step `adam_t`. Schedules anneal over
    `cfg.epochs` and random streams are keyed by `cfg.seed`, so a resume must use
    the same TrainConfig as the run that wrote it; any differing field is refused
    with ValueError naming the fields.
    """
    if not clf.frozen:
        raise ValueError("train_generator: classifier must be frozen first")
    events = events if events is not None else []
    train, test = split.train, split.test
    n = train.n
    bs = min(cfg.batch_size, n)

    opt = Adam(generator.params(), lr=cfg.lr)
    run = RunState(config_record(cfg))
    if resume is not None:
        if differ := resume.mismatches(train=cfg):
            raise ValueError(
                f"train_generator: the checkpoint's TrainConfig differs (checkpoint != cfg): "
                f"{', '.join(differ)}; every schedule and random stream depends on it, "
                f"so resume with the same TrainConfig")
        run = replace(resume.run)  # the loop advances its own copy
        _load_state(generator, opt, resume.tensors, run.adam_t)
        generator.temps = resume.temps

    probe_rng = substream(cfg.seed, PROBE)
    probe_n = min(cfg.probe_size, test.n)
    probe_idx = probe_rng.choice(test.n, size=probe_n, replace=False)
    probe_x, probe_y = test.x[probe_idx], test.y[probe_idx]

    last_good = (_state(generator, opt), opt.t)
    records: list[EpochRecord] = []

    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    for epoch in range(run.epoch_next, cfg.epochs):
        generator.temps = temps = cfg.anneal.at(epoch, cfg.epochs)
        tau = anneal_value((cfg.gumbel.tau_init, cfg.gumbel.tau_final), epoch, cfg.epochs)

        order = substream(cfg.seed, SHUFFLE, epoch).permutation(n)
        total_loss, total_rows, aborted = 0.0, 0, False
        for b, start in enumerate(range(0, n, bs)):
            idx = order[start:start + bs]
            xb, yb = train.x[idx], train.y[idx]
            rng = substream(cfg.seed, GUMBEL, epoch, b)

            loss = _step_loss(clf, generator, cfg, xb, yb, tau, rng)
            if not np.isfinite(loss.item()):
                events.append(f"epoch {epoch}: non-finite loss, epoch aborted and state restored")
                log.warning(events[-1])
                _load_state(generator, opt, *last_good)
                aborted = True
                break

            opt.zero_grad()
            loss.backward()
            opt.step()
            total_loss += loss.item() * len(xb)
            total_rows += len(xb)

        epoch_loss = total_loss / total_rows if total_rows else float("nan")
        if not aborted:
            last_good = (_state(generator, opt), opt.t)
            if run.initial_loss is None:
                run.initial_loss = epoch_loss
            if run.initial_loss > 0 and epoch_loss > 10.0 * run.initial_loss:
                run.high_loss_streak += 1
                if run.high_loss_streak == 5:
                    events.append(f"epoch {epoch}: divergence flagged "
                                  f"(loss > 10x initial for 5 epochs)")
                    log.warning(events[-1])
            else:
                run.high_loss_streak = 0

        probe = _probe_metrics(generator, probe_x, probe_y, cfg.probe_samples,
                               substream(cfg.seed, PROBE, epoch, 1))
        records.append(EpochRecord(
            epoch=epoch, train_loss=epoch_loss, **probe, tau_gumbel=tau,
            T_pi=temps.T_pi, T_mu=temps.T_mu, T_sigma=temps.T_sigma, aborted=aborted))

        running = probe["nppr_running"]
        if np.isnan(running):
            events.append(f"epoch {epoch}: non-finite mixture, probe NPPR not estimated")
            log.warning(events[-1])
        improved = not np.isnan(running) and (run.best_nppr is None or running <= run.best_nppr)
        if improved:
            run.best_nppr = running
        run.epoch_next = epoch + 1
        if out_dir is not None:
            if improved:
                save_checkpoint(generator, out_dir / "ckpt_best.json", opt, run)
            if (epoch + 1) % cfg.eval_every == 0 or epoch == cfg.epochs - 1:
                save_checkpoint(generator, out_dir / "ckpt_latest.json", opt, run)

    return generator, records


def write_epoch_csv(records: list[EpochRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EPOCH_CSV_COLUMNS)
        for record in records:
            writer.writerow(record.csv_row())
