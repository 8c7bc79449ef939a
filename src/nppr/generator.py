"""The trainable perturbation generator: head -> mixture -> upsampler -> budget."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .models import Classifier, DependencyMode, GmmHead, GmmParams, HeadConfig, Temperatures
from .rng import GENERATOR_INIT, substream
from .sampling import PerturbationBatch, sample_exact, sample_perturbations
from .tensor import Tensor
from .upsample import Upsampler, UpsamplerConfig, apply_budget


class Generator:
    """Bundles the mixture head and the upsampler behind one sampling surface.

    Conditioning features always come from the clean inputs through the frozen
    classifier, so they act as constants for the generator's graph. The head
    is read at `temps`: T = 1 when fresh, each epoch's once `train_generator`
    starts it, and a restored checkpoint's last epoch's (`build_from_checkpoint`).
    """

    def __init__(self, head: GmmHead, upsampler: Upsampler, clf: Classifier):
        if head.cfg.latent_dim != upsampler.latent_dim:
            raise ValueError(
                f"generator: head latent_dim {head.cfg.latent_dim} != upsampler {upsampler.latent_dim}")
        self.head = head
        self.upsampler = upsampler
        self.clf = clf
        self.gamma = float(upsampler.cfg.gamma)
        self.temps = Temperatures()

    @property
    def mode(self) -> DependencyMode:
        return self.head.cfg.mode

    def params(self) -> list[Tensor]:
        return list(self.named_params().values())

    def named_params(self) -> dict[str, Tensor]:
        return {**self.head.named_params(), **self.upsampler.named_params()}

    def gmm_params(self, x: np.ndarray, y: np.ndarray | None) -> GmmParams:
        """Head forward at `self.temps` for a batch of clean inputs/labels."""
        x = np.atleast_2d(x)
        features = self.clf.features(T.constant(x)) if self.mode.conditions_on_features else None
        return self.head.forward(features=features, labels=y, temps=self.temps, batch_size=len(x))

    def images(self, latent: Tensor, base: np.ndarray | None = None) -> Tensor:
        """(..., latent_dim) latent draws -> (..., input_dim) perturbations
        inside the budget, |gamma * tanh(u)| <= gamma in float64 for every real
        u, plus `base` when given, a constant that broadcasts to them."""
        flat = T.reshape(latent, (-1, latent.shape[-1]))
        u = self.upsampler.forward(flat)
        return apply_budget(T.reshape(u, (*latent.shape[:-1], u.shape[1])), self.gamma, base)

    def perturb_relaxed(self, params: GmmParams, M: int, tau: float,
                        rng: np.random.Generator, base: np.ndarray) -> PerturbationBatch:
        """Training path: relaxed mixture draws, graph-connected end to end;
        the images are `base` plus the perturbations, the budget op adding
        them, since a tape cannot add in place."""
        batch = sample_perturbations(params, M, tau, rng)
        batch.images = self.images(batch.latent, base)
        return batch

    def perturb_exact(self, params: GmmParams, M: int, streams: list) -> PerturbationBatch:
        """Evaluation path: exact categorical draws, no relaxation bias, input
        b's from `streams[b]`."""
        batch = sample_exact(params, M, streams)
        batch.images = self.images(batch.latent)
        return batch


def build_generator(clf: Classifier, head_cfg: HeadConfig, ups_cfg: UpsamplerConfig,
                    seed: int = 0) -> Generator:
    """Wire a fresh head and upsampler to a frozen classifier."""
    feature_dim = clf.cfg.hidden[-1] if head_cfg.mode.conditions_on_features else None
    num_classes = clf.num_classes if head_cfg.mode.conditions_on_labels else None
    head = GmmHead(head_cfg, feature_dim=feature_dim, num_classes=num_classes, seed=seed)
    upsampler = Upsampler(ups_cfg, latent_dim=head_cfg.latent_dim,
                          input_dim=clf.cfg.input_dim,
                          image_shape=clf.cfg.image_shape,
                          rng=substream(seed, GENERATOR_INIT, 1))
    return Generator(head, upsampler, clf)
