"""Quadrature oracle for desk-scale instances and the metric-ordering verdicts.

`oracle_pr` shares nothing with the Monte-Carlo estimators beyond the
classifier forward pass: it computes the retention probability under the
uniform law on the budget ball by quadrature over a grid on that ball, so a
sampled estimate can be checked against something that cannot lie about its
own assumptions. `verify_propositions` checks the orderings AR <= NPPR <= PR
across reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .metrics import RobustnessReport, mc_half_width
from .models import Classifier, DependencyMode
from .upsample import check_budget


@dataclass
class GridSpec:
    """Uniform grid over the L-infinity ball [-gamma, gamma]^dims."""
    dims: int
    points_per_dim: int
    gamma: float
    max_points: int = 10 ** 6

    def __post_init__(self):
        if self.points_per_dim < 3 or self.points_per_dim % 2 == 0:
            raise ValueError("grid: points_per_dim must be odd and >= 3 (includes the center)")
        check_budget(self.gamma, "grid")
        if self.points_per_dim ** self.dims > self.max_points:
            raise ValueError(
                f"grid: {self.points_per_dim}^{self.dims} points exceed cap {self.max_points}")

    def points(self) -> np.ndarray:
        """All grid offsets, ordered lexicographically by index."""
        axis = np.linspace(-self.gamma, self.gamma, self.points_per_dim)
        mesh = np.meshgrid(*([axis] * self.dims), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


def oracle_pr(clf: Classifier, x: np.ndarray, y: int, grid: GridSpec) -> float:
    """Quadrature estimate of the retention probability under the uniform law
    on the ball: the fraction of grid offsets that keep label `y`, which
    converges to the true probability as points_per_dim grows."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.shape[0] != grid.dims:
        raise ValueError(f"oracle_pr: input dim {x.shape[0]} != grid dims {grid.dims}")
    return float(np.mean(clf.predict(x[None, :] + grid.points()) == int(y)))


def verify_propositions(reports: list[RobustnessReport]) -> dict:
    """Check the metric orderings over a set of reports from one experiment.

    Per report: AR(PGD) <= NPPR <= PR(uniform) and NPPR <= PR(Gaussian).
    Across reports: every conditional mode's NPPR <= every independent-mode
    NPPR on the same instance. Tolerances are summed 3-sigma half-widths.
    """
    if not reports:
        raise ValueError("verify_propositions: no reports")
    key = (reports[0].model_key, reports[0].dataset_key, reports[0].gamma)
    for r in reports[1:]:
        if (r.model_key, r.dataset_key, r.gamma) != key:
            raise ValueError(
                f"verify_propositions: report keys differ: {key} vs "
                f"{(r.model_key, r.dataset_key, r.gamma)}")

    verdicts: list[dict] = []

    def check(name, lhs, rhs, hw):
        verdicts.append({"name": name, "lhs": float(lhs), "rhs": float(rhs),
                         "half_width": float(hw), "pass": bool(lhs <= rhs + hw)})

    for r in reports:
        tag = r.mode or "generator"
        hw_nppr = mc_half_width(r.nppr_test, r.nppr_draws)
        hw_pr = mc_half_width(r.pr_uniform, r.pr_draws)
        hw_prg = mc_half_width(r.pr_gaussian, r.pr_draws)
        hw_ar = mc_half_width(r.ar_pgd, r.ar_points)
        check(f"ar_pgd<=nppr[{tag}]", r.ar_pgd, r.nppr_test, hw_ar + hw_nppr)
        check(f"nppr<=pr_uniform[{tag}]", r.nppr_test, r.pr_uniform, hw_nppr + hw_pr)
        check(f"nppr<=pr_gaussian[{tag}]", r.nppr_test, r.pr_gaussian, hw_nppr + hw_prg)

    independents = [r for r in reports if r.mode == DependencyMode.INDEPENDENT.value]
    conditionals = [r for r in reports if r.mode and r.mode != DependencyMode.INDEPENDENT.value]
    for cond in conditionals:
        for indep in independents:
            hw = (mc_half_width(cond.nppr_test, cond.nppr_draws)
                  + mc_half_width(indep.nppr_test, indep.nppr_draws))
            check(f"nppr[{cond.mode}]<=nppr[independent]", cond.nppr_test, indep.nppr_test, hw)

    return {
        "experiment": {"model_key": key[0], "dataset_key": key[1], "gamma": key[2]},
        "inequalities": verdicts,
        "all_pass": all(v["pass"] for v in verdicts),
    }


def verdict_to_json(verdict: dict) -> str:
    return json.dumps(verdict, sort_keys=True, indent=2)
