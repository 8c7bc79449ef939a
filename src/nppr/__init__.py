"""Worst-case perturbation distributions for probabilistic robustness.

Trains a Gaussian-mixture perturbation generator against a frozen classifier
to produce conservative probabilistic-robustness estimates, alongside fixed
-distribution baselines, adversarial attacks, a quadrature oracle for
desk-scale instances, and checks of the metric orderings.
"""

__version__ = "0.1.0"
