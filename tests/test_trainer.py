"""Training-loop behavior: determinism, schedules, checkpoints, degenerate budgets."""

import json
from pathlib import Path

import numpy as np
import pytest

import nppr.trainer
from nppr import tensor as T
from nppr.datasets import make_blobs, stratified_split
from nppr.generator import build_generator
from nppr.metrics import nppr_estimate
from nppr.models import (Classifier, ClassifierConfig, DependencyMode, HeadConfig,
                         train_classifier)
from nppr.optim import Adam
from nppr.rng import substream
from nppr.sampling import AnnealSchedule, GumbelConfig
from nppr.serialize import SnapshotError, doc_to_tensors, tensors_to_doc
from nppr.trainer import (EPOCH_CSV_COLUMNS, TrainConfig, lr_at_epoch, read_epoch_csv,
                          restore_checkpoint, save_checkpoint, temps_at_epoch,
                          train_generator, write_epoch_csv)
from nppr.upsample import UpsamplerConfig


@pytest.fixture(scope="module")
def instance():
    ds = make_blobs(d=2, classes=2, n=240, seed=0, separation=1.5)
    split = stratified_split(ds, 0.8, seed=0)
    clf = train_classifier(split.train.x, split.train.y, epochs=150, seed=0,
                           hidden=(16,), lr=1e-2, accuracy_threshold=0.85)
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


class _Killed(Exception):
    """Stands for the training process dying right after a checkpoint write."""


def _train_until_killed(monkeypatch, clf, split, cfg, out, epoch_next):
    """Train under `cfg` with a checkpoint writer that kills the run once
    ckpt_latest.json holds `epoch_next`; return the restored (generator, state)."""
    real_save = nppr.trainer.save_checkpoint

    def save_then_die(generator, path, **kw):
        real_save(generator, path, **kw)
        if Path(path).name == "ckpt_latest.json" and kw["epoch_next"] == epoch_next:
            raise _Killed

    monkeypatch.setattr(nppr.trainer, "save_checkpoint", save_then_die)
    with pytest.raises(_Killed):
        train_generator(clf, split, cfg, _gen(clf), out_dir=out)
    return restore_checkpoint(out / "ckpt_latest.json", clf, expected_mode=DependencyMode.JOINT)


class TestSchedules:
    def test_constant(self):
        cfg = _cfg(lr=3e-3, lr_schedule="constant")
        assert lr_at_epoch(cfg, 0) == lr_at_epoch(cfg, 7) == 3e-3

    def test_cosine_warmup_and_floor(self):
        cfg = _cfg(epochs=50, lr=2e-2, lr_schedule="cosine", warmup_epochs=20, lr_min=2e-6)
        assert lr_at_epoch(cfg, 0) == pytest.approx(2e-2 / 20)
        assert lr_at_epoch(cfg, 19) == pytest.approx(2e-2)
        assert lr_at_epoch(cfg, 49) > 2e-6
        assert lr_at_epoch(cfg, 35) < lr_at_epoch(cfg, 25)

    def test_temps_interpolate(self):
        cfg = _cfg(epochs=51, anneal=AnnealSchedule())
        t0 = temps_at_epoch(cfg, 0)
        tm = temps_at_epoch(cfg, 25)
        tf = temps_at_epoch(cfg, 50)
        assert (t0.T_pi, t0.T_sigma) == (3.0, 1.5)
        assert tm.T_pi == pytest.approx(2.0)
        assert (tf.T_pi, tf.T_mu, tf.T_sigma, tf.T_shared) == (1.0, 1.0, 1.0, 1.0)


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
        before = clf.state()
        train_generator(clf, split, _cfg(epochs=3), _gen(clf))
        for name, arr in clf.state().items():
            np.testing.assert_array_equal(arr, before[name])
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
        assert restore_checkpoint(tmp_path / "ckpt_latest.json", clf)[1]["best_nppr"] is None

    def test_probe_of_non_finite_weights_reads_nan(self, instance):
        clf, split = instance
        gen = _gen(clf)
        gen.head._named["head.pi_b"].data = np.full_like(gen.head._named["head.pi_b"].data,
                                                         np.nan)
        probe = nppr.trainer._probe_metrics(gen, split.test.x[:16], split.test.y[:16],
                                            temps_at_epoch(_cfg(), 0), 8,
                                            np.random.default_rng(0))
        assert all(np.isnan(probe[k]) for k in ("entropy_ratio", "pi_max", "nppr_running"))

    def test_pi_stats_within_bounds(self, instance):
        clf, split = instance
        _, records = train_generator(clf, split, _cfg(epochs=4), _gen(clf))
        for r in records:
            assert 0.0 <= r.nppr_running <= 1.0
            assert 0.0 <= r.entropy_ratio <= 1.0 + 1e-12
            assert r.pi_min - 1e-12 <= r.pi_max <= 1.0 + 1e-12


class TestCheckpoints:
    def test_roundtrip_byte_identical(self, instance, tmp_path):
        clf, split = instance
        gen, _ = train_generator(clf, split, _cfg(epochs=2), _gen(clf))
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_checkpoint(gen, p1)
        restored = restore_checkpoint(p1, clf)[0]
        save_checkpoint(restored, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_restore_checks_mode(self, instance, tmp_path):
        clf, split = instance
        gen, _ = train_generator(clf, split, _cfg(epochs=1), _gen(clf))
        path = tmp_path / "ck.json"
        save_checkpoint(gen, path)
        with pytest.raises(SnapshotError, match="mode"):
            restore_checkpoint(path, clf, expected_mode=DependencyMode.INDEPENDENT)

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
        save_checkpoint(gen, path, opt=Adam(gen.params()))
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

    def test_resume_replays_uninterrupted_run(self, instance, tmp_path, monkeypatch):
        clf, split = instance
        cfg = _cfg(epochs=6, eval_every=1)

        gen_full = _gen(clf)
        gen_full, rec_full = train_generator(clf, split, cfg, gen_full,
                                             out_dir=tmp_path / "full")

        # The interrupted run's records die with it; by determinism they are rec_full[:3].
        out = tmp_path / "half"
        restored, state = _train_until_killed(monkeypatch, clf, split, cfg, out, 3)
        assert state["epoch_next"] == 3
        restored, rec_b = train_generator(clf, split, cfg, restored,
                                          resume_state=state, out_dir=out)
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
        train_generator(clf, split, cfg, restored, resume_state=state, out_dir=out)
        for name in ("ckpt_best.json", "ckpt_latest.json"):
            assert (out / name).read_bytes() == (tmp_path / "full" / name).read_bytes()

    def test_divergence_flag_survives_resume(self, instance, tmp_path, monkeypatch):
        # Scale the loss 100x from epoch 2 on: the uninterrupted run flags
        # divergence after five such epochs, measured against epoch 0's loss.
        clf, split = instance
        cfg = _cfg(epochs=10, eval_every=1)
        current = {}
        real_temps, real_loss = nppr.trainer.temps_at_epoch, nppr.trainer.margin_loss

        def temps_spy(cfg_, epoch):
            current["epoch"] = epoch
            return real_temps(cfg_, epoch)

        def scaled_loss(logits, y, kappa):
            loss = real_loss(logits, y, kappa)
            return T.scale(loss, 100.0) if current["epoch"] >= 2 else loss

        monkeypatch.setattr(nppr.trainer, "temps_at_epoch", temps_spy)
        monkeypatch.setattr(nppr.trainer, "margin_loss", scaled_loss)
        events_full = []
        train_generator(clf, split, cfg, _gen(clf), events=events_full)
        assert any("divergence flagged" in e for e in events_full)

        restored, state = _train_until_killed(monkeypatch, clf, split, cfg,
                                              tmp_path / "half", 4)
        events_resumed = []
        train_generator(clf, split, cfg, restored, resume_state=state,
                        events=events_resumed)
        assert events_resumed == events_full

    def test_resume_refuses_other_schedule_length(self, instance, tmp_path):
        # A 3-epoch run's checkpoint resumed under a 6-epoch config would
        # anneal over neither schedule.
        clf, split = instance
        out = tmp_path / "short"
        train_generator(clf, split, _cfg(epochs=3, eval_every=1), _gen(clf), out_dir=out)
        restored, state = restore_checkpoint(out / "ckpt_latest.json", clf)
        with pytest.raises(ValueError, match=r"3-epoch.*cfg\.epochs is 6"):
            train_generator(clf, split, _cfg(epochs=6), restored, resume_state=state)

    def test_resume_refuses_other_train_config(self, instance, tmp_path):
        # Same length, other seed and learning rate: neither run's continuation.
        clf, split = instance
        out = tmp_path / "seed0"
        train_generator(clf, split, _cfg(epochs=2), _gen(clf), out_dir=out)
        restored, state = restore_checkpoint(out / "ckpt_latest.json", clf)
        assert state["train_cfg"]["seed"] == 0
        with pytest.raises(ValueError, match=r"differs in lr, seed;"):
            train_generator(clf, split, _cfg(epochs=2, seed=7, lr=0.5), restored,
                            resume_state=state)

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
        save_checkpoint(build_generator(image_clf(4), head_cfg, ups_cfg), path)
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
        for name, t in restored.tensors().items():
            np.testing.assert_array_equal(old.tensors()[name].data, t.data)
        _, records = train_generator(clf, split, cfg, old, resume_state=old_state)
        assert [r.epoch for r in records] == [1]

    def test_frozen_premap_survives_restore(self, instance, tmp_path):
        clf, split = instance
        head_cfg = HeadConfig(mode=DependencyMode.JOINT, K=2, latent_dim=2,
                              hidden_dim=8, label_emb_dim=4)
        ups_cfg = UpsamplerConfig(mode="linear_vector", learnable_premap=False, gamma=0.5)
        gen = build_generator(clf, head_cfg, ups_cfg, seed=3)
        frozen_w = gen.upsampler.weight.data.copy()
        path = tmp_path / "frozen.json"
        save_checkpoint(gen, path)
        restored = restore_checkpoint(path, clf)[0]
        np.testing.assert_array_equal(restored.upsampler.weight.data, frozen_w)
        assert restored.upsampler.params() == []


class TestEpochCsv:
    def test_roundtrip_and_columns(self, instance, tmp_path):
        clf, split = instance
        _, records = train_generator(clf, split, _cfg(epochs=3), _gen(clf))
        path = tmp_path / "epochs.csv"
        write_epoch_csv(records, path)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(EPOCH_CSV_COLUMNS)
        back = read_epoch_csv(path)
        assert [r.epoch for r in back] == [r.epoch for r in records]
        assert back[0].train_loss == pytest.approx(records[0].train_loss)
