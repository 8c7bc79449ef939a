"""Worst-case perturbation distributions for probabilistic robustness.

Trains a Gaussian-mixture perturbation generator against a frozen classifier
to produce conservative probabilistic-robustness estimates, alongside fixed
-distribution baselines, adversarial attacks, a quadrature oracle for
desk-scale instances, and checks of the metric orderings.
"""

from .config import ExperimentConfig, parse_config
from .generator import Generator, build_generator
from .metrics import (RobustnessReport, ar_cw, ar_pgd, entropy_ratio, margin_loss,
                      nppr_estimate, pr_estimate)
from .models import (Classifier, DependencyMode, GmmHead, GmmParams, HeadConfig,
                     Temperatures, train_classifier)
from .oracle import GridSpec, oracle_pr, verify_propositions
from .sampling import (AnnealSchedule, GumbelConfig, PerturbationBatch, anneal_value,
                       gumbel_softmax_sample, sample_exact, sample_perturbations)
from .tensor import Tensor
from .trainer import EpochRecord, TrainConfig, train_generator
from .upsample import UpsamplerConfig, apply_budget, bicubic_kernel

__version__ = "0.1.0"

__all__ = [
    "AnnealSchedule", "Classifier", "DependencyMode", "EpochRecord",
    "ExperimentConfig", "Generator", "GmmHead", "GmmParams", "GridSpec",
    "GumbelConfig", "HeadConfig", "PerturbationBatch", "RobustnessReport",
    "Temperatures", "Tensor", "TrainConfig", "UpsamplerConfig", "anneal_value",
    "apply_budget", "ar_cw", "ar_pgd", "bicubic_kernel", "build_generator",
    "entropy_ratio", "gumbel_softmax_sample", "margin_loss",
    "nppr_estimate", "oracle_pr", "parse_config", "pr_estimate",
    "sample_exact", "sample_perturbations", "train_classifier", "train_generator",
    "verify_propositions",
]
