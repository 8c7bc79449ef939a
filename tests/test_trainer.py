"""Training-loop behavior: determinism, schedules, checkpoints, degenerate budgets."""

import csv
import json
import re
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import nppr.trainer
from nppr import tensor as T
from nppr.config import BaselineSpec, ExperimentConfig
from nppr.datasets import make_blobs, stratified_split
from nppr.experiment import evaluate_generator
from nppr.generator import build_generator
from nppr.metrics import nppr_estimate
from nppr.models import (Classifier, ClassifierConfig, ClassifierSpec, DependencyMode,
                         HeadConfig, Temperatures, train_classifier)
from nppr.optim import Adam
from nppr.rng import EVAL, substream
from nppr.sampling import AnnealSchedule, GumbelConfig
from nppr.serialize import SnapshotError, config_record, doc_to_tensors, tensors_to_doc
from nppr.trainer import (EPOCH_CSV_COLUMNS, RunState, TrainConfig, read_checkpoint,
                          restore_checkpoint, save_checkpoint, train_generator, write_epoch_csv)
from nppr.upsample import UpsamplerConfig


@pytest.fixture(scope="module")
def instance():
    ds = make_blobs(d=2, classes=2, n=240, seed=0, separation=1.5)
    split = stratified_split(ds, 0.8, seed=0)
    clf = train_classifier(split.train.x, split.train.y,
                           ClassifierSpec(hidden=(16,), epochs=150, accuracy_threshold=0.85),
                           seed=0)
    return clf, split


def _cfg(**kw):
    base = dict(epochs=8, lr=1e-2, samples_per_input=8, batch_size=96, seed=0,
                probe_size=32, probe_samples=32)
    base.update(kw)
    return TrainConfig(**base)


def _gen(clf, gamma=1.25, mode=DependencyMode.JOINT, seed=0, ups_mode="linear_vector",
         latent=2):
    head_cfg = HeadConfig(mode=mode, K=3, latent_dim=latent, hidden_dim=16, label_emb_dim=8)
    ups_cfg = UpsamplerConfig(mode=ups_mode, gamma=gamma)
    return build_generator(clf, head_cfg, ups_cfg, seed=seed)


def _save(gen, path):
    """Checkpoint `gen` as the start of a run under `_cfg()`, with fresh moments."""
    save_checkpoint(gen, path, Adam(gen.params()), RunState(config_record(_cfg())))


class _Killed(Exception):
    """Stands for the training process dying right after a checkpoint write."""


def _train_until_killed(monkeypatch, clf, split, cfg, out, epoch_next,
                        mode=DependencyMode.JOINT):
    """Train a `mode` head under `cfg` with a checkpoint writer that kills the run
    once ckpt_latest.json holds `epoch_next`; return the restored (generator, stored)."""
    real_save = nppr.trainer.save_checkpoint

    def save_then_die(generator, path, opt, run):
        real_save(generator, path, opt, run)
        if Path(path).name == "ckpt_latest.json" and run.epoch_next == epoch_next:
            raise _Killed

    monkeypatch.setattr(nppr.trainer, "save_checkpoint", save_then_die)
    with pytest.raises(_Killed):
        train_generator(clf, split, cfg, _gen(clf, mode=mode), out_dir=out)
    return restore_checkpoint(out / "ckpt_latest.json", clf, expected_mode=mode)


@pytest.mark.parametrize("field,value,reason", [
    ("batch_size", 0, "must be >= 1"), ("probe_size", 0, "must be >= 1"),
    ("eval_every", 0, "must be >= 1"), ("seed", -1, "must be >= 0"),
    ("kappa", float("nan"), "must be finite, got nan")])
def test_train_config_refuses_bad_values(field, value, reason):
    with pytest.raises(ValueError) as info:
        TrainConfig(**{field: value})
    assert str(info.value) == f"TrainConfig.{field}: {reason}"


class TestSchedules:
    def test_temps_interpolate(self):
        anneal = AnnealSchedule()
        t0, tm, tf = anneal.at(0, 51), anneal.at(25, 51), anneal.at(50, 51)
        assert t0 == Temperatures(T_pi=3.0, T_mu=3.0, T_sigma=1.5, T_shared=1.5)
        assert (tm.T_pi, tm.T_mu, tm.T_sigma, tm.T_shared) == pytest.approx((2.0, 2.0, 1.25, 1.25))
        assert tf == Temperatures()
        with pytest.raises(ValueError, match=r"epoch 51 outside \[0, 51\)"):
            anneal.at(51, 51)


class TestTraining:
    def test_requires_frozen_classifier(self, instance):
        clf, split = instance
        gen = _gen(clf)
        clf.frozen = False
        try:
            with pytest.raises(ValueError, match="frozen"):
                train_generator(clf, split, _cfg(), gen)
        finally:
            clf.frozen = True

    @pytest.mark.parametrize("taus", [(1.0, 0.1), (0.5, 0.5)])
    def test_gumbel_tau_anneals_over_the_run(self, instance, taus):
        # Equal ends are the one way to train at a constant tau.
        clf, split = instance
        cfg = _cfg(epochs=3, gumbel=GumbelConfig(*taus))
        _, records = train_generator(clf, split, cfg, _gen(clf))
        assert [r.tau_gumbel for r in records] == pytest.approx(
            [taus[0], sum(taus) / 2, taus[1]], abs=1e-15)

    def test_adam_runs_at_the_configured_rate_throughout(self, instance, monkeypatch):
        clf, split = instance
        rates = []

        class Recording(Adam):
            def step(self):
                rates.append(self.lr)
                return super().step()

        monkeypatch.setattr(nppr.trainer, "Adam", Recording)
        cfg = _cfg(epochs=3, lr=2e-3)
        train_generator(clf, split, cfg, _gen(clf))
        assert len(rates) >= cfg.epochs
        assert set(rates) == {2e-3}

    def test_loss_decreases_on_crossing_instance(self, instance):
        clf, split = instance
        gen = _gen(clf)
        _, records = train_generator(clf, split, _cfg(epochs=15), gen)
        assert records[-1].train_loss < records[0].train_loss

    def test_degenerate_budget_tracks_clean_accuracy(self, instance):
        clf, split = instance
        gen = _gen(clf, gamma=1e-9)
        _, records = train_generator(clf, split, _cfg(epochs=4), gen)
        probe_rng = substream(0, 6)  # PROBE purpose code, same derivation as trainer
        clean = clf.accuracy(split.test.x, split.test.y)
        for r in records:
            assert abs(r.nppr_running - clean) <= 0.11  # probe subset, same points each epoch
        losses = [r.train_loss for r in records]
        assert max(losses) - min(losses) <= 1e-6

    def test_degenerate_budget_probe_equals_probe_clean(self, instance):
        # On the probe subset itself the match is exact.
        clf, split = instance
        gen = _gen(clf, gamma=1e-9)
        cfg = _cfg(epochs=2, probe_size=split.test.n)
        _, records = train_generator(clf, split, cfg, gen)
        clean = clf.accuracy(split.test.x, split.test.y)
        assert records[-1].nppr_running == pytest.approx(clean, abs=1e-12)

    def test_deterministic_records(self, instance):
        clf, split = instance
        a = train_generator(clf, split, _cfg(epochs=5), _gen(clf))[1]
        b = train_generator(clf, split, _cfg(epochs=5), _gen(clf))[1]
        assert a == b

    def test_classifier_untouched(self, instance):
        clf, split = instance
        before = [p.data.copy() for p in clf.params()]
        train_generator(clf, split, _cfg(epochs=3), _gen(clf))
        for p, data in zip(clf.params(), before):
            np.testing.assert_array_equal(p.data, data)
        assert all(p.grad is None for p in clf.params())

    def test_none_upsampler_trains(self, instance):
        clf, split = instance
        gen = _gen(clf, ups_mode="none", latent=2)
        _, records = train_generator(clf, split, _cfg(epochs=5), gen)
        assert records[-1].train_loss < records[0].train_loss + 1e-9

    @pytest.mark.filterwarnings("ignore:invalid value encountered in logaddexp:RuntimeWarning")
    def test_nan_loss_aborts_and_restores(self, instance):
        clf, split = instance
        gen = _gen(clf)
        events = []
        _, records = train_generator(clf, split, _cfg(epochs=3), gen, events=events)
        assert not any(r.aborted for r in records)
        assert events == []
        # Poison the means head so the loss itself goes non-finite.
        gen2 = _gen(clf)
        gen2.head._named["head.mu_b"].data = np.full_like(
            gen2.head._named["head.mu_b"].data, np.nan)
        events2 = []
        _, records2 = train_generator(clf, split, _cfg(epochs=2), gen2, events=events2)
        assert all(r.aborted for r in records2)
        assert any("non-finite" in e for e in events2)

    @pytest.mark.filterwarnings("ignore:invalid value encountered in logaddexp:RuntimeWarning")
    def test_non_finite_mixture_has_no_probe_nppr(self, instance, tmp_path):
        # Poisoned from the start, the restored state is non-finite too: the
        # probe must not report an NPPR for it, nor keep one as the best.
        clf, split = instance
        gen = _gen(clf)
        gen.head._named["head.mu_b"].data = np.full_like(gen.head._named["head.mu_b"].data,
                                                         np.nan)
        events = []
        _, records = train_generator(clf, split, _cfg(epochs=2), gen, out_dir=tmp_path,
                                     events=events)
        assert all(np.isnan(r.nppr_running) for r in records)
        # Only the means are poisoned: the weights, and so the entropy ratio,
        # stay finite; a record with non-finite weights has a NaN ratio.
        for r in records:
            assert np.isnan(r.entropy_ratio) == np.isnan(r.pi_max)
        assert sum("probe NPPR not estimated" in e for e in events) == 2
        assert not (tmp_path / "ckpt_best.json").exists()
        assert restore_checkpoint(tmp_path / "ckpt_latest.json", clf)[1].run.best_nppr is None

    def test_probe_of_non_finite_weights_reads_nan(self, instance):
        clf, split = instance
        gen = _gen(clf)
        gen.head._named["head.pi_b"].data = np.full_like(gen.head._named["head.pi_b"].data,
                                                         np.nan)
        gen.temps = _cfg().anneal.at(0, 8)
        probe = nppr.trainer._probe_metrics(gen, split.test.x[:16], split.test.y[:16], 8,
                                            np.random.default_rng(0))
        assert all(np.isnan(probe[k]) for k in ("entropy_ratio", "pi_max", "nppr_running"))

    def test_step_graph_is_dropped_before_the_next_forward(self, instance):
        # Tensor takes no weak reference, so the ref is to the images' data: a
        # reshape view that only the images tensor holds.
        clf, split = instance
        gen = _gen(clf)
        refs, alive = [], []
        perturb_relaxed, gmm_params = gen.perturb_relaxed, gen.gmm_params

        def recording_perturb_relaxed(*args, **kwargs):
            batch = perturb_relaxed(*args, **kwargs)
            refs.append(weakref.ref(batch.images.data))
            return batch

        def checking_gmm_params(*args):
            alive.append(sum(ref() is not None for ref in refs))
            return gmm_params(*args)

        gen.perturb_relaxed, gen.gmm_params = recording_perturb_relaxed, checking_gmm_params
        train_generator(clf, split, _cfg(epochs=2), gen)
        assert len(refs) == 4  # two steps of 96 rows per epoch
        assert len(alive) >= len(refs) and not any(alive)

    def test_pi_stats_within_bounds(self, instance):
        clf, split = instance
        _, records = train_generator(clf, split, _cfg(epochs=4), _gen(clf))
        for r in records:
            assert 0.0 <= r.nppr_running <= 1.0
            assert 0.0 <= r.entropy_ratio <= 1.0 + 1e-12
            assert r.pi_min - 1e-12 <= r.pi_max <= 1.0 + 1e-12


class TestCheckpoints:
    @pytest.mark.parametrize("mode", list(DependencyMode), ids=lambda m: m.value)
    def test_roundtrip_byte_identical(self, instance, tmp_path, monkeypatch, mode):
        # A mid-run resume point, with Adam's moments, written again as read.
        clf, split = instance
        out = tmp_path / "run"
        restored, stored = _train_until_killed(
            monkeypatch, clf, split, _cfg(epochs=4, eval_every=1), out, 2, mode)
        run, named = stored.run, stored.tensors
        assert run.epoch_next == 2 and run.adam_t > 0
        assert any(np.any(named[k] != 0) for k in named if k.startswith("adam.v."))
        opt = Adam(restored.params())
        nppr.trainer._load_state(restored, opt, named, run.adam_t)
        save_checkpoint(restored, tmp_path / "again.json", opt, run)
        assert (tmp_path / "again.json").read_bytes() == (out / "ckpt_latest.json").read_bytes()

    def test_restore_checks_mode(self, instance, tmp_path):
        clf, split = instance
        gen, _ = train_generator(clf, split, _cfg(epochs=1), _gen(clf))
        path = tmp_path / "ck.json"
        _save(gen, path)
        with pytest.raises(SnapshotError, match="mode"):
            restore_checkpoint(path, clf, expected_mode=DependencyMode.INDEPENDENT)

    def test_read_builds_nothing_and_restore_loads_once(self, instance, tmp_path,
                                                        monkeypatch):
        # `nppr evaluate` reads a checkpoint before it fits the classifier; the
        # benchmark counts each `load_snapshot` call as one load.
        clf, _ = instance
        gen = _gen(clf)
        path = tmp_path / "ck.json"
        _save(gen, path)
        loads = []
        real_load = nppr.trainer.load_snapshot
        monkeypatch.setattr(nppr.trainer, "load_snapshot",
                            lambda p: loads.append(p) or real_load(p))
        real_build = nppr.trainer.build_generator
        monkeypatch.setattr(nppr.trainer, "build_generator", None)
        stored = read_checkpoint(path, expected_mode=DependencyMode.JOINT)
        assert (stored.head_cfg, stored.ups_cfg) == (gen.head.cfg, gen.upsampler.cfg)
        monkeypatch.setattr(nppr.trainer, "build_generator", real_build)
        loads.clear()
        restored, _ = restore_checkpoint(path, clf)
        assert loads == [path]
        assert restored.named_params().keys() == gen.named_params().keys()

    def test_corrupt_file_rejected(self, tmp_path, instance):
        clf, _ = instance
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SnapshotError, match="corrupt"):
            restore_checkpoint(bad, clf)

    def test_version_guard(self, tmp_path, instance):
        clf, _ = instance
        doc = tmp_path / "v9.json"
        doc.write_text('{"format_version": 9, "tensors": {}}')
        with pytest.raises(SnapshotError, match="format_version"):
            restore_checkpoint(doc, clf)

    @staticmethod
    def _rewrite_tensors(path, edit):
        doc = json.loads(path.read_text())
        edit(doc["tensors"])
        path.write_text(json.dumps(doc, sort_keys=True))

    def test_restore_refuses_unexpected_tensor(self, instance, tmp_path):
        # A checkpoint of a head with batch-norm parameters would otherwise
        # load into the current head as another model.
        clf, split = instance
        train_generator(clf, split, _cfg(epochs=1), _gen(clf), out_dir=tmp_path)
        path = tmp_path / "ckpt_latest.json"
        self._rewrite_tensors(path, lambda t: t.update({"head.bn_gamma": t["head.trunk_b"],
                                                        "head.bn_beta": t["head.trunk_b"]}))
        with pytest.raises(SnapshotError,
                           match=r"missing \[\], unexpected \['head.bn_beta', 'head.bn_gamma'\]"):
            restore_checkpoint(path, clf)

    @pytest.mark.parametrize("name", ["head.mu_w", "adam.v.head.mu_w", "upsampler.weight"])
    def test_restore_refuses_missing_tensor(self, instance, tmp_path, name):
        clf, split = instance
        train_generator(clf, split, _cfg(epochs=1), _gen(clf), out_dir=tmp_path)
        path = tmp_path / "ckpt_latest.json"
        self._rewrite_tensors(path, lambda t: t.pop(name))
        with pytest.raises(SnapshotError, match=rf"missing \['{name}'\], unexpected \[\]"):
            restore_checkpoint(path, clf)

    def test_restore_refuses_checkpoint_without_moments(self, instance, tmp_path):
        # Every checkpoint is a resume point: one without Adam's moments, as
        # the parameter-only form was, does not restore.
        clf, split = instance
        train_generator(clf, split, _cfg(epochs=1), _gen(clf), out_dir=tmp_path)
        path = tmp_path / "ckpt_latest.json"
        self._rewrite_tensors(path, lambda t: [t.pop(k) for k in list(t) if k.startswith("adam.")])
        moments = sorted(f"adam.{k}.{n}" for k in "mv" for n in _gen(clf).named_params())
        with pytest.raises(SnapshotError, match=re.escape(f"missing {moments}, unexpected []")):
            restore_checkpoint(path, clf)

    def test_restore_refuses_label_checkpoint_with_global_tensors(self, instance, tmp_path):
        # Label and independent heads once stored their global means and
        # factors as head.mu0 (K, D) and head.chol0 (K, D(D+1)/2). They are the
        # biases head.mu_b and head.chol_b now, so such a file does not restore.
        clf, _ = instance
        path = tmp_path / "old.json"
        _save(_gen(clf, mode=DependencyMode.LABEL), path)

        def rename(t):
            for prefix in ("", "adam.m.", "adam.v."):
                for old, new in (("head.mu0", "head.mu_b"), ("head.chol0", "head.chol_b")):
                    arr = doc_to_tensors({new: t.pop(prefix + new)})[new]
                    t.update(tensors_to_doc({prefix + old: arr.reshape(3, -1)}))

        self._rewrite_tensors(path, rename)
        with pytest.raises(SnapshotError, match=r"missing \[.*'head\.chol_b', 'head\.mu_b'\], "
                                                r"unexpected \[.*'head\.chol0', 'head\.mu0'\]"):
            restore_checkpoint(path, clf)

    def test_restore_refuses_other_classifier_weights(self, instance, tmp_path):
        # Same widths, other weights: the checkpoint was scored against
        # another classifier, so NPPR would be read off the wrong model.
        clf, split = instance
        train_generator(clf, split, _cfg(epochs=1), _gen(clf), out_dir=tmp_path)
        path = tmp_path / "ckpt_latest.json"
        stored = json.loads(path.read_text())["extra"]["classifier_sha256"]
        other = Classifier(ClassifierConfig(input_dim=2, num_classes=2, hidden=(16,)), seed=1)
        given = nppr.trainer._fingerprint(other)
        assert stored == nppr.trainer._fingerprint(clf) != given
        with pytest.raises(SnapshotError) as info:
            restore_checkpoint(path, other)
        assert str(info.value) == (f"{path}: checkpoint was trained against another classifier "
                                   f"(classifier_sha256 {stored} != {given})")

    def test_restore_refuses_misshapen_adam_moment(self, instance, tmp_path):
        # Loaded as is, these moments would turn head.mu_b into a (2, 6) array
        # at the first Adam step of the resumed run.
        clf, split = instance
        train_generator(clf, split, _cfg(epochs=1), _gen(clf), out_dir=tmp_path)
        path = tmp_path / "ckpt_latest.json"

        def stack_moments(t):
            for key in ("adam.m.head.mu_b", "adam.v.head.mu_b"):
                arr = doc_to_tensors({key: t[key]})[key]
                t.update(tensors_to_doc({key: np.stack([arr, arr])}))

        self._rewrite_tensors(path, stack_moments)
        with pytest.raises(SnapshotError, match=r"adam\.m\.head\.mu_b \(2, 6\) != \(6,\), "
                                                r"adam\.v\.head\.mu_b \(2, 6\) != \(6,\)$"):
            restore_checkpoint(path, clf)

    def test_restore_refuses_full_block_factors(self, instance, tmp_path):
        # A joint checkpoint from before the packed parametrisation stores each
        # K=7, D=16 factor as a full 16 x 16 block: 1792 columns, not 7 * 136.
        clf, _ = instance
        head_cfg = HeadConfig(mode=DependencyMode.JOINT, K=7, latent_dim=16)
        gen = build_generator(clf, head_cfg, UpsamplerConfig(mode="linear_vector"), seed=0)
        path = tmp_path / "ckpt_latest.json"
        _save(gen, path)
        rows, cols = np.tril_indices(16)

        def unpack(t):
            for key in [k for k in t if k.endswith(("head.chol_w", "head.chol_b"))]:
                packed = doc_to_tensors({key: t[key]})[key]
                lead = packed.shape[:-1]
                full = np.zeros((*lead, 7, 16, 16))
                full[..., rows, cols] = packed.reshape(*lead, 7, 136)
                t.update(tensors_to_doc({key: full.reshape(*lead, 1792)}))

        self._rewrite_tensors(path, unpack)
        with pytest.raises(SnapshotError, match=r"head\.chol_w \(64, 1792\) != \(64, 952\)"):
            restore_checkpoint(path, clf)

    @pytest.mark.parametrize("mode", list(DependencyMode), ids=lambda m: m.value)
    def test_resume_replays_uninterrupted_run(self, instance, tmp_path, monkeypatch, mode):
        clf, split = instance
        cfg = _cfg(epochs=6, eval_every=1)

        gen_full = _gen(clf, mode=mode)
        gen_full, rec_full = train_generator(clf, split, cfg, gen_full,
                                             out_dir=tmp_path / "full")

        # The interrupted run's records die with it; by determinism they are rec_full[:3].
        out = tmp_path / "half"
        restored, state = _train_until_killed(monkeypatch, clf, split, cfg, out, 3, mode)
        assert state.run.epoch_next == 3
        restored, rec_b = train_generator(clf, split, cfg, restored,
                                          resume=state, out_dir=out)
        assert rec_b == rec_full[3:]
        for name, p in gen_full.named_params().items():
            np.testing.assert_array_equal(p.data, restored.named_params()[name].data)
        assert ((out / "ckpt_latest.json").read_bytes()
                == (tmp_path / "full" / "ckpt_latest.json").read_bytes())

    def test_resume_keeps_best_checkpoint(self, instance, tmp_path, monkeypatch):
        # The probe NPPR of the first epoch is the best so far when the run
        # dies; the resumed run must know it and write ckpt_best.json exactly
        # where the uninterrupted run does.
        clf, split = instance
        cfg = _cfg(epochs=4, eval_every=1)
        train_generator(clf, split, cfg, _gen(clf), out_dir=tmp_path / "full")
        out = tmp_path / "half"
        restored, state = _train_until_killed(monkeypatch, clf, split, cfg, out, 1)
        train_generator(clf, split, cfg, restored, resume=state, out_dir=out)
        for name in ("ckpt_best.json", "ckpt_latest.json"):
            assert (out / name).read_bytes() == (tmp_path / "full" / name).read_bytes()

    def test_divergence_flag_survives_resume(self, instance, tmp_path, monkeypatch):
        # Scale the loss 100x from epoch 2 on: the uninterrupted run flags
        # divergence after five such epochs, measured against epoch 0's loss.
        clf, split = instance
        cfg = _cfg(epochs=10, eval_every=1)
        current = {}
        real_at, real_loss = AnnealSchedule.at, nppr.trainer.margin_loss

        def at_spy(anneal, epoch, total_epochs):
            current["epoch"] = epoch
            return real_at(anneal, epoch, total_epochs)

        def scaled_loss(logits, y, kappa):
            loss = real_loss(logits, y, kappa)
            return T.scale(loss, 100.0) if current["epoch"] >= 2 else loss

        monkeypatch.setattr(AnnealSchedule, "at", at_spy)
        monkeypatch.setattr(nppr.trainer, "margin_loss", scaled_loss)
        events_full = []
        train_generator(clf, split, cfg, _gen(clf), events=events_full)
        assert any("divergence flagged" in e for e in events_full)

        restored, state = _train_until_killed(monkeypatch, clf, split, cfg,
                                              tmp_path / "half", 4)
        events_resumed = []
        train_generator(clf, split, cfg, restored, resume=state,
                        events=events_resumed)
        assert events_resumed == events_full

    def test_resume_refuses_other_schedule_length(self, instance, tmp_path):
        # A 3-epoch run's checkpoint resumed under a 6-epoch config would
        # anneal over neither schedule.
        clf, split = instance
        out = tmp_path / "short"
        train_generator(clf, split, _cfg(epochs=3, eval_every=1), _gen(clf), out_dir=out)
        restored, state = restore_checkpoint(out / "ckpt_latest.json", clf)
        with pytest.raises(ValueError, match=r"\(checkpoint != cfg\): train\.epochs 3 != 6, "):
            train_generator(clf, split, _cfg(epochs=6), restored, resume=state)

    def test_resume_refuses_other_train_config(self, instance, tmp_path):
        # Same length, other seed and learning rate: neither run's continuation.
        clf, split = instance
        out = tmp_path / "seed0"
        train_generator(clf, split, _cfg(epochs=2), _gen(clf), out_dir=out)
        restored, state = restore_checkpoint(out / "ckpt_latest.json", clf)
        assert state.run.train_cfg["seed"] == 0
        with pytest.raises(ValueError, match=r": train\.lr 0\.01 != 0\.5, train\.seed 0 != 7;"):
            train_generator(clf, split, _cfg(epochs=2, seed=7, lr=0.5), restored,
                            resume=state)

    @pytest.mark.parametrize("ups_mode, other, named", [
        ("linear_vector", dict(input_dim=3, hidden=(16,)),
         r"upsampler\.weight \(2, 2\) != \(2, 3\)"),
        ("linear_vector", dict(input_dim=2, hidden=(8,)),
         r"head\.trunk_w \(16, 16\) != \(8, 16\)"),
        ("none", dict(input_dim=3, hidden=(16,)),
         r"ckpt_latest\.json: .*upsampler 'none' needs latent_dim == input_dim, got 2 vs 3"),
    ], ids=["input_width", "feature_width", "none_upsampler"])
    def test_restore_refuses_other_classifier(self, instance, tmp_path, ups_mode, other, named):
        # The generator is rebuilt around the classifier given to restore, so a
        # checkpoint trained against another input or feature width is refused
        # here instead of failing later inside evaluation.
        clf, split = instance
        train_generator(clf, split, _cfg(epochs=1), _gen(clf, ups_mode=ups_mode),
                        out_dir=tmp_path)
        wrong = Classifier(ClassifierConfig(num_classes=2, **other), seed=0)
        with pytest.raises(SnapshotError, match=named):
            restore_checkpoint(tmp_path / "ckpt_latest.json", wrong)

    def test_restore_refuses_unfitting_bicubic_grid(self, tmp_path):
        # A 3x3 latent grid fits a 4x4 image but cannot be upsampled to 2x2.
        def image_clf(side):
            return Classifier(ClassifierConfig(input_dim=side * side, num_classes=2, hidden=(8,),
                                               image_shape=(1, side, side)), seed=0)

        head_cfg = HeadConfig(mode=DependencyMode.JOINT, K=2, latent_dim=9, hidden_dim=8,
                              label_emb_dim=4)
        ups_cfg = UpsamplerConfig(mode="bicubic_image", latent_grid=(1, 3, 3), gamma=0.5)
        path = tmp_path / "bicubic.json"
        _save(build_generator(image_clf(4), head_cfg, ups_cfg), path)
        with pytest.raises(SnapshotError, match=r"bicubic\.json: .*latent grid \(1, 3, 3\) "
                                                r"incompatible with input grid \(1, 2, 2\)"):
            restore_checkpoint(path, image_clf(2))

    def test_restore_ignores_old_extra_keys(self, instance, tmp_path, monkeypatch):
        # Older checkpoints also wrote the mode three times, the budget twice
        # and four shapes the classifier gives; they restore and resume as is.
        clf, split = instance
        cfg = _cfg(epochs=2, eval_every=1)
        out = tmp_path / "old"
        restored, state = _train_until_killed(monkeypatch, clf, split, cfg, out, 1)
        path = out / "ckpt_latest.json"
        doc = json.loads(path.read_text())
        doc["extra"].update(mode="joint", gamma=1.25, input_dim=2, image_shape=None,
                            feature_dim=16, num_classes=2)
        doc["extra"]["train_cfg"]["mode"] = "joint"
        path.write_text(json.dumps(doc, sort_keys=True))
        old, old_state = restore_checkpoint(path, clf, expected_mode=DependencyMode.JOINT)
        for name, t in restored.named_params().items():
            np.testing.assert_array_equal(old.named_params()[name].data, t.data)
        _, records = train_generator(clf, split, cfg, old, resume=old_state)
        assert [r.epoch for r in records] == [1]

    @pytest.mark.parametrize("field,value,reason", [
        ("gamma", float("nan"), "must be finite, got nan"),
        ("latent_grid", [1, "a", 4], "must be [c, h', w'] of positive ints")])
    def test_restore_refuses_bad_upsampler_settings(self, instance, tmp_path, field, value,
                                                    reason):
        clf, _ = instance
        path = tmp_path / "ck.json"
        _save(_gen(clf), path)
        doc = json.loads(path.read_text())
        doc["extra"]["ups_cfg"][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(SnapshotError) as info:
            restore_checkpoint(path, clf)
        assert str(info.value) == (f"{path}: stored settings cannot be read: "
                                   f"ValueError: UpsamplerConfig.{field}: {reason}")

    @pytest.mark.parametrize("field,value,reason", [
        ("epoch_next", "1", "expected int, got str"),
        ("adam_t", 2.5, "expected int, got float"),
        ("adam_t", True, "expected int, got bool"),
        ("train_cfg", "x", "expected dict, got str"),
        ("high_loss_streak", -1, "must be >= 0"),
        ("best_nppr", -1.0, "-1.0 outside [0, 1]"),
        ("best_nppr", 1.5, "1.5 outside [0, 1]"),
        ("initial_loss", -1.0, "must be >= 0")])
    def test_restore_refuses_bad_run_state(self, instance, tmp_path, field, value, reason):
        # Each was once restored as is: resuming then failed with a bare
        # TypeError or AttributeError, `int()` truncated Adam's step count, or
        # (a best NPPR below 0) no later epoch ever wrote ckpt_best.json again.
        clf, _ = instance
        path = tmp_path / "ck.json"
        _save(_gen(clf), path)
        doc = json.loads(path.read_text())
        doc["extra"][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(SnapshotError) as info:
            restore_checkpoint(path, clf)
        assert str(info.value) == (f"{path}: stored settings cannot be read: "
                                   f"ValueError: RunState.{field}: {reason}")

    @pytest.mark.parametrize("section,field", [("ups_cfg", "learnable_premap"),
                                               ("head_cfg", "label_emb_normalized")])
    def test_restore_refuses_a_removed_setting(self, instance, tmp_path, section, field):
        # Checkpoints once stored these settings. The premap is now always
        # trained and the label embedding always has unit rows, so a frozen
        # premap or raw embeddings could not be rebuilt as they were trained.
        clf, _ = instance
        path = tmp_path / "ck.json"
        _save(_gen(clf), path)
        doc = json.loads(path.read_text())
        doc["extra"][section][field] = False
        path.write_text(json.dumps(doc))
        with pytest.raises(SnapshotError, match=rf"ck\.json: stored settings cannot be read: "
                                                rf"TypeError: .*'{field}'"):
            restore_checkpoint(path, clf)


class TestTemperatures:
    """The generator holds the temperatures its head is read at: T = 1 when
    fresh, each epoch's while it trains, and a checkpoint's last epoch's
    once restored."""

    def test_fresh_generator_reads_its_head_at_one(self, instance):
        clf, split = instance
        gen = _gen(clf)
        assert gen.temps == Temperatures()
        rng = np.random.default_rng(5)
        for p in gen.head.named_params().values():  # a fresh head's weight logits are all 0
            p.data = p.data + rng.normal(0.0, 0.5, size=p.data.shape)
        x, y = split.test.x[:5], split.test.y[:5]
        features = clf.features(T.constant(x))
        cold = gen.head.forward(features=features, labels=y, temps=Temperatures())
        hot = gen.head.forward(features=features, labels=y, temps=Temperatures(T_pi=3.0))
        params = gen.gmm_params(x, y)
        np.testing.assert_array_equal(params.pi_logits.data, cold.pi_logits.data)
        assert not np.array_equal(params.pi_logits.data, hot.pi_logits.data)

    def test_training_leaves_the_last_epochs_temperatures(self, instance):
        clf, split = instance
        cfg = _cfg(epochs=3, anneal=AnnealSchedule(T_pi=(3.0, 2.0), T_shared=(1.0, 1.5)))
        gen, records = train_generator(clf, split, cfg, _gen(clf))
        assert gen.temps == cfg.anneal.at(cfg.epochs - 1, cfg.epochs) != Temperatures()
        assert (records[-1].T_pi, records[-1].T_mu, records[-1].T_sigma) == (
            gen.temps.T_pi, gen.temps.T_mu, gen.temps.T_sigma)

    @pytest.mark.parametrize("epoch", [0, 2])
    def test_restore_holds_the_last_completed_epochs_temperatures(self, instance, tmp_path,
                                                                   monkeypatch, epoch):
        clf, split = instance
        cfg = _cfg(epochs=6, eval_every=1)
        restored, stored = _train_until_killed(monkeypatch, clf, split, cfg, tmp_path, epoch + 1)
        assert stored.run.epoch_next == epoch + 1
        assert restored.temps == cfg.anneal.at(epoch, 6)
        assert read_checkpoint(tmp_path / "ckpt_latest.json").temps == restored.temps

    def test_restore_before_any_epoch_holds_the_first_epochs(self, instance, tmp_path):
        clf, _ = instance
        path = tmp_path / "ck.json"
        _save(_gen(clf), path)
        assert restore_checkpoint(path, clf)[0].temps == _cfg().anneal.at(0, _cfg().epochs)

    def test_evaluate_reads_the_restored_checkpoints_mixture(self, instance, tmp_path,
                                                             monkeypatch):
        # A checkpoint of epoch 1 of 6 holds the mixture at epoch 1's
        # temperatures, not at the run's last ones.
        clf, split = instance
        cfg = ExperimentConfig(train=_cfg(epochs=6, eval_every=1), epsilon=Fraction(5, 4),
                               baselines=BaselineSpec(eval_samples=16, pgd_steps=1, cw_steps=1))
        gen, _ = _train_until_killed(monkeypatch, clf, split, cfg.train, tmp_path, 2)
        report = evaluate_generator(cfg, clf, gen, split)

        def nppr_test(temps):
            gen.temps = temps
            return nppr_estimate(clf, gen, split.test.x, split.test.y, 16,
                                 substream(cfg.seed, EVAL, 0))

        assert report.nppr_test == nppr_test(cfg.train.anneal.at(1, 6))
        assert report.nppr_test != nppr_test(cfg.train.anneal.at(5, 6))

    @pytest.mark.parametrize("edit, reason", [
        (lambda doc: doc["train_cfg"]["anneal"].update(T_pi=[0.0, 1.0]),
         "ValueError: AnnealSchedule.T_pi: must be a positive (init, final) pair"),
        (lambda doc: doc.update(epoch_next=9),
         "ValueError: anneal_value: epoch 8 outside [0, 8)"),
        # written while the temperatures had a warm-up window of their own
        (lambda doc: doc["train_cfg"]["anneal"].update(warmup_epochs=0),
         "TypeError: AnnealSchedule.__init__() got an unexpected keyword argument "
         "'warmup_epochs'"),
    ], ids=["bad_pair", "past_the_run", "anneal_warmup_window"])
    def test_read_refuses_a_record_without_temperatures(self, instance, tmp_path, edit,
                                                         reason):
        clf, _ = instance
        path = tmp_path / "ck.json"
        _save(_gen(clf), path)
        doc = json.loads(path.read_text())
        edit(doc["extra"])
        path.write_text(json.dumps(doc))
        with pytest.raises(SnapshotError) as info:
            read_checkpoint(path)
        assert str(info.value) == f"{path}: stored settings cannot be read: {reason}"


class TestEpochCsv:
    def test_roundtrip_and_columns(self, instance, tmp_path):
        clf, split = instance
        _, records = train_generator(clf, split, _cfg(epochs=3), _gen(clf))
        path = tmp_path / "epochs.csv"
        write_epoch_csv(records, path)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(EPOCH_CSV_COLUMNS)
        with open(path, newline="") as fh:
            back = list(csv.DictReader(fh))
        assert [int(r["epoch"]) for r in back] == [r.epoch for r in records]
        assert float(back[0]["train_loss"]) == pytest.approx(records[0].train_loss)
