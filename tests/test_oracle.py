"""Grid/quadrature oracle checks and the proposition verifier."""

import numpy as np
import pytest

from nppr.metrics import UNIFORM_BALL, RobustnessReport, mc_half_width, pr_estimate
from nppr.oracle import GridSpec, oracle_pr, verify_propositions

from test_metrics import linear_clf


class TestGridSpec:
    def test_even_points_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            GridSpec(dims=1, points_per_dim=4, gamma=0.1)

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            GridSpec(dims=3, points_per_dim=101, gamma=0.1)

    def test_grid_includes_center_and_corners(self):
        pts = GridSpec(dims=2, points_per_dim=5, gamma=0.2).points()
        assert any(np.all(p == 0.0) for p in pts)
        assert any(np.all(p == 0.2) for p in pts)
        assert any(np.all(p == -0.2) for p in pts)


class TestOracleAr:
    """Adversarial robustness on the grid: `oracle_pr` over the uniform ball
    reads exactly 1.0 when no grid offset flips the label, and below 1.0
    otherwise."""

    @staticmethod
    def _robust(clf, x, y, grid):
        return oracle_pr(clf, x, y, grid) == 1.0

    def test_sign_classifier_robust_small_ball(self):
        clf = linear_clf(np.array([1.0]))
        assert self._robust(clf, np.array([0.5]), 1,
                            GridSpec(dims=1, points_per_dim=101, gamma=0.25))

    def test_sign_classifier_flips_large_ball(self):
        clf = linear_clf(np.array([1.0]))
        grid = GridSpec(dims=1, points_per_dim=101, gamma=1.0)
        assert not self._robust(clf, np.array([0.5]), 1, grid)
        # Offsets -1.00, ..., -0.50 flip the label: at -0.50 the logits tie and
        # argmax picks class 0.
        flips = np.sum(grid.points()[:, 0] <= -0.5 + 1e-12)
        assert oracle_pr(clf, np.array([0.5]), 1, grid) == \
            pytest.approx(1.0 - flips / 101)

    def test_worst_point_is_first_in_index_order(self):
        clf = linear_clf(np.array([1.0]))
        x = np.array([0.1])
        grid = GridSpec(dims=1, points_per_dim=11, gamma=1.0)
        pts = grid.points()
        flips = clf.predict(x[None, :] + pts) != 1
        assert pts[np.argmax(flips)][0] == -1.0  # lexicographically first flipping offset
        assert oracle_pr(clf, x, 1, grid) == pytest.approx(1.0 - flips.mean())

    def test_matches_closed_form_on_random_instances(self):
        # Logit gap u = w.x + b; the worst grid offset is a corner of the
        # L-infinity ball, where |u| drops by gamma * ||w||_1.
        rng = np.random.default_rng(0)
        checked = 0
        while checked < 100:
            d = int(rng.integers(1, 4))
            w = rng.normal(size=d)
            w[np.abs(w) < 0.15] += 0.3
            b = 0.3 * rng.normal()
            x = rng.normal(size=d)
            clf = linear_clf(w, b)
            y = int(clf.predict(x[None, :])[0])
            margin, reach = abs(float(w @ x + b)), float(np.sum(np.abs(w)))
            gamma = margin / reach * rng.uniform(0.4, 1.8)
            if abs(margin - gamma * reach) < 0.02 * max(margin, 1e-6):
                continue  # knife-edge; grid and closed form could differ by ties
            grid = GridSpec(dims=d, points_per_dim=9, gamma=gamma)
            assert self._robust(clf, x, y, grid) == (margin > gamma * reach)
            checked += 1

    def test_dims_mismatch_rejected(self):
        clf = linear_clf(np.array([1.0]))
        with pytest.raises(ValueError, match="dim"):
            oracle_pr(clf, np.array([0.5, 0.5]), 1, GridSpec(dims=1, points_per_dim=5, gamma=0.1))


class TestOraclePr:
    def test_whole_ball_correct(self):
        clf = linear_clf(np.array([1.0]))
        val = oracle_pr(clf, np.array([5.0]), 1, GridSpec(dims=1, points_per_dim=101, gamma=0.5))
        assert val == 1.0

    def test_sign_classifier_three_quarters(self):
        clf = linear_clf(np.array([1.0]))
        grid = GridSpec(dims=1, points_per_dim=4001, gamma=1.0)
        val = oracle_pr(clf, np.array([0.5]), 1, grid)
        assert val == pytest.approx(0.75, abs=2.0 / 4000)

    def test_quadrature_convergence(self):
        clf = linear_clf(np.array([1.0, -0.7]))
        x = np.array([0.2, 0.1])
        vals = []
        for p in (11, 21, 41, 81):
            vals.append(oracle_pr(clf, x, 1, GridSpec(dims=2, points_per_dim=p, gamma=0.6)))
        diffs = [abs(a - b) for a, b in zip(vals, vals[1:])]
        assert diffs[-1] <= diffs[0] + 1e-9

    def test_mc_agrees_with_quadrature_within_3sigma(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            w = rng.normal(size=2)
            w[np.abs(w) < 0.2] += 0.4
            clf = linear_clf(w, 0.2 * rng.normal())
            x = 0.8 * rng.normal(size=2)
            y = int(clf.predict(x[None, :])[0])
            gamma = float(rng.uniform(0.2, 1.0))
            quad = oracle_pr(clf, x, y, GridSpec(dims=2, points_per_dim=201, gamma=gamma))
            M = 4000
            mc = pr_estimate(clf, x[None, :], np.array([y]), UNIFORM_BALL, gamma, M,
                             rng=np.random.default_rng(100 + trial))
            tol = 3.0 * np.sqrt(max(quad * (1 - quad), 1e-4) / M) + 1.0 / 200
            assert abs(mc - quad) <= tol, f"trial {trial}: mc={mc} quad={quad}"


def _report(nppr=0.9, pr_u=0.99, pr_g=0.98, ar=0.2, mode="joint", draws=10**6, **kw):
    return RobustnessReport(
        nppr_test=nppr, nppr_train=nppr, pr_gaussian=pr_g, pr_uniform=pr_u,
        ar_pgd=ar, ar_cw=ar, entropy_ratio=0.9, pi_max=0.3, pi_min=0.2, pi_std=0.05,
        clean_accuracy=0.99, model_key="m", dataset_key="d", mode=mode, gamma=0.1,
        nppr_draws=draws, pr_draws=draws, ar_points=1000, **kw)


class TestVerifyPropositions:
    def test_converged_ordering_passes(self):
        verdict = verify_propositions([_report(mode="independent", nppr=0.95),
                                       _report(mode="joint", nppr=0.90)])
        assert verdict["all_pass"] is True
        names = [v["name"] for v in verdict["inequalities"]]
        assert "nppr[joint]<=nppr[independent]" in names

    def test_degenerate_equalities_pass(self):
        r = _report(nppr=0.97, pr_u=0.97, pr_g=0.97, ar=0.97)
        verdict = verify_propositions([r])
        assert verdict["all_pass"] is True

    def test_adversarial_report_flagged(self):
        bad = _report(nppr=0.999, pr_u=0.90, draws=10**6)
        verdict = verify_propositions([bad])
        assert verdict["all_pass"] is False
        failing = [v for v in verdict["inequalities"] if not v["pass"]]
        assert any("pr_uniform" in v["name"] for v in failing)

    def test_mismatched_keys_rejected(self):
        a = _report()
        b = _report()
        b.gamma = 0.5
        with pytest.raises(ValueError, match="keys differ"):
            verify_propositions([a, b])

    def test_verdict_entries_have_margins(self):
        verdict = verify_propositions([_report()])
        for entry in verdict["inequalities"]:
            assert set(entry) == {"name", "lhs", "rhs", "half_width", "pass"}
        # A count of zero draws adds no margin.
        zero = verify_propositions([_report(draws=0)])["inequalities"]
        assert [v["half_width"] for v in zero] == [mc_half_width(0.2, 1000), 0.0, 0.0]
