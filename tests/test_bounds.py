"""Tests for the end-to-end bracket estimation."""

import warnings
from pathlib import Path

import numpy as np
import pytest

from rabounds import (
    ArrangementMatrix,
    CostFunction,
    NonFiniteQuantile,
    ValidationFailed,
    brute_force_min,
    discretize,
    estimate_inf,
    estimate_sup,
    exponential,
    identity,
    normal,
    power,
    stop_loss,
    sum_agg,
    uniform,
    validate_cost,
    weighted_sum,
)
from rabounds.cli import parse_config

PORTFOLIO = Path(__file__).resolve().parent.parent / "demos" / "portfolio.cfg"
LINEAR2 = CostFunction(sum_agg(2), identity())


class TestBracketRegression:
    def test_two_uniforms_linear_n2(self):
        r = estimate_inf([uniform(0, 1), uniform(0, 1)], LINEAR2, n=2)
        # lower grid means 0.25 per marginal, upper grid means 0.75
        assert r.lower_estimate == 0.5
        assert r.upper_estimate == 1.5
        assert r.lower_estimate <= 1.0 <= r.upper_estimate

    def test_stop_loss_reaches_zero_on_lower_grid(self):
        cost = CostFunction(sum_agg(2), stop_loss(1))
        r = estimate_inf([uniform(0, 1), uniform(0, 1)], cost, n=4, restarts=4, seed=0)
        assert r.lower_estimate == 0.0
        # cross-check: exhaustive minimum over the same lower grid is 0
        margs = [discretize(uniform(0, 1), 4, "lower") for _ in range(2)]
        lo, _ = brute_force_min(ArrangementMatrix.comonotonic(margs), cost)
        assert lo == 0.0

    def test_sup_estimates(self):
        lo, hi = estimate_sup([uniform(0, 1), uniform(0, 1)], LINEAR2, n=2)
        assert (lo, hi) == (0.5, 1.5)

    def test_sup_matches_exhaustive_max_on_tiny_grids(self):
        from rabounds import brute_force_max, power

        cost = CostFunction(sum_agg(2), power(2))
        specs = [uniform(0, 1), uniform(0.5, 2)]
        lo_sup, hi_sup = estimate_sup(specs, cost, n=4)
        for kind, got in (("lower", lo_sup), ("upper", hi_sup)):
            margs = [discretize(s, 4, kind) for s in specs]
            mx, _ = brute_force_max(ArrangementMatrix.comonotonic(margs), cost)
            assert got == pytest.approx(mx / 4, rel=1e-12)

    def test_single_point_grids(self):
        # n=1: the lower grid is the left endpoint, the upper grid the right
        r = estimate_inf([uniform(0, 1), uniform(2, 3)], LINEAR2, n=1)
        assert (r.lower_estimate, r.upper_estimate) == (2.0, 4.0)
        assert r.converged_lower and r.converged_upper

    def test_sup_on_constant_marginals(self):
        from rabounds import empirical

        cost = CostFunction(sum_agg(3), stop_loss(5))
        specs = [empirical([2.0] * 3), empirical([3.0] * 3), empirical([4.0] * 3)]
        lo, hi = estimate_sup(specs, cost, n=6)
        assert lo == hi == 4.0


class TestKnownWorstCases:
    """Analytic anchors: equal uniforms mix to a constant sum, so the worst
    case of a stop-loss of the sum is exactly max(E[sum] - k, 0)."""

    @pytest.mark.parametrize("k", [0.25, 0.8, 1.0, 1.3])
    def test_two_standard_uniforms(self, k):
        # X + (1 - X) = 1 identically, and a constant is the convex-order floor
        cost = CostFunction(sum_agg(2), stop_loss(k))
        r = estimate_inf([uniform(0, 1), uniform(0, 1)], cost, n=4000, restarts=3, seed=2)
        want = max(1.0 - k, 0.0)
        assert r.lower_estimate - 1e-9 <= want <= r.upper_estimate + 1e-9
        assert r.upper_estimate - r.lower_estimate <= 2 / 4000 + 1e-9

    @pytest.mark.parametrize("k", [1.0, 1.5, 2.0])
    def test_three_standard_uniforms(self, k):
        # three unit uniforms mix to the constant 1.5
        cost = CostFunction(sum_agg(3), stop_loss(k))
        r = estimate_inf([uniform(0, 1)] * 3, cost, n=3000, restarts=3, seed=2)
        want = max(1.5 - k, 0.0)
        assert r.lower_estimate - 1e-9 <= want <= r.upper_estimate + 1e-9


class TestBracketProperty:
    def test_lower_below_upper_on_random_configs(self):
        rng = np.random.default_rng(17)
        families = [
            lambda: uniform(*np.sort(rng.uniform(-1, 2, size=2))),
            lambda: exponential(rng.uniform(0.5, 4)),
            lambda: normal(rng.uniform(-1, 1), rng.uniform(0.2, 1)),
        ]
        for _ in range(100):
            d = int(rng.integers(2, 4))
            specs = [families[int(rng.integers(len(families)))]() for _ in range(d)]
            cost = CostFunction(
                weighted_sum(rng.uniform(0.1, 1, size=d)),
                stop_loss(float(rng.uniform(-0.5, 1.5))),
            )
            r = estimate_inf(specs, cost, n=int(rng.integers(2, 40)), restarts=2, seed=3)
            assert r.lower_estimate <= r.upper_estimate + 1e-9

    def test_coarse_bracket_contains_fine_grid_estimate(self):
        cost = CostFunction(sum_agg(2), stop_loss(0.8))
        specs = [uniform(0, 1), uniform(0.2, 0.7)]
        coarse = estimate_inf(specs, cost, n=8, restarts=4, seed=5)
        fine = estimate_inf(specs, cost, n=2000, restarts=4, seed=5)
        assert coarse.lower_estimate - 1e-9 <= fine.lower_estimate
        assert fine.upper_estimate <= coarse.upper_estimate + 1e-9

    def test_gap_refinement_is_reported_not_asserted(self):
        # empirical observation on the three-uniform portfolio: halving the
        # grid step should not widen the bracket; warn if it ever does
        cost = CostFunction(weighted_sum([0.5, 0.2, 0.3]), stop_loss(0.3))
        specs = [uniform(0, 0.4), uniform(0.1, 0.5), uniform(0, 1)]
        gaps = {}
        for m in (10, 20, 50, 100, 250, 500):
            r = estimate_inf(specs, cost, n=m, restarts=3, seed=9)
            gaps[m] = r.upper_estimate - r.lower_estimate
        for m in (10, 50, 250):
            if gaps[2 * m] > gaps[m] + 1e-9:
                warnings.warn(
                    f"bracket gap grew when refining n={m} -> {2 * m}: "
                    f"{gaps[m]:.3e} -> {gaps[2 * m]:.3e}"
                )


class TestTruncationPolicy:
    def test_auto_truncation_is_echoed(self):
        cost = CostFunction(weighted_sum([0.5, 0.5]), stop_loss(0.1))
        r = estimate_inf([exponential(1), uniform(0, 1)], cost, n=50, seed=0)
        assert r.truncation_applied[0] == (0.0, 1 - 1e-5)
        assert r.truncation_applied[1] is None
        assert r.auto_truncated == (True, False)

    def test_normal_gets_both_tails_cut(self):
        cost = CostFunction(weighted_sum([0.5, 0.5]), stop_loss(0.0))
        r = estimate_inf([normal(0, 1), uniform(0, 1)], cost, n=50, seed=0)
        assert r.truncation_applied[0] == (1e-5, 1 - 1e-5)

    def test_opting_out_surfaces_the_error(self):
        cost = CostFunction(weighted_sum([0.5, 0.5]), stop_loss(0.0))
        with pytest.raises(NonFiniteQuantile):
            estimate_inf([normal(0, 1), uniform(0, 1)], cost, n=50, auto_truncate=False)

    def test_user_truncation_is_respected(self):
        from rabounds import truncate

        spec = truncate(exponential(1), 0, 0.999)
        cost = CostFunction(weighted_sum([0.5, 0.5]), stop_loss(0.1))
        r = estimate_inf([spec, uniform(0, 1)], cost, n=50, seed=0)
        assert r.truncation_applied[0] == (0.0, 0.999)
        assert r.auto_truncated == (False, False)


class TestPreconditions:
    def test_arity_checked(self):
        with pytest.raises(ValidationFailed):
            estimate_inf([uniform(0, 1)], LINEAR2, n=4)

    def test_fractional_n_rejected(self):
        with pytest.raises(ValueError, match="positive integer"):
            estimate_inf([uniform(0, 1)] * 2, LINEAR2, n=2.5)

    @pytest.mark.parametrize(
        "directions", [["increasing", "decreasing"], ["decreasing", "increasing"]]
    )
    def test_cost_not_componentwise_increasing_rejected(self, directions):
        # a - b (or b - a) passes validation, but the bracket needs h increasing
        from rabounds.costfn import custom_agg

        sign = 1.0 if directions[0] == "increasing" else -1.0
        agg = custom_agg(
            2,
            h=lambda a, b: sign * (a - b),
            h2=[lambda x, s: sign * x + s, lambda x, s: s - sign * x],
            hd1=[lambda b: -sign * b, lambda a: sign * a],
            monotone_direction=directions,
        )
        cost = validate_cost(CostFunction(agg, identity()))
        with pytest.raises(ValidationFailed, match="componentwise increasing"):
            estimate_inf([uniform(0, 1), uniform(0, 1)], cost, n=4)

    def test_unvalidated_custom_cost_rejected_in_sup(self):
        from rabounds.costfn import custom_agg

        agg = custom_agg(
            2,
            h=lambda a, b: a * b,
            h2=lambda x, s: x * s,
            hd1=lambda v: v,
            monotone_direction="increasing",
        )
        with pytest.raises(ValidationFailed):
            estimate_sup([uniform(0, 1), uniform(0, 1)], CostFunction(agg, identity()), n=4)


class TestDeterminism:
    def test_identical_runs_bitwise_equal(self):
        cost = CostFunction(weighted_sum([0.5, 0.2, 0.3]), stop_loss(0.3))
        specs = [exponential(1), exponential(2), exponential(4)]
        a = estimate_inf(specs, cost, n=500, restarts=4, seed=123)
        b = estimate_inf(specs, cost, n=500, restarts=4, seed=123)
        assert a.lower_estimate == b.lower_estimate
        assert a.upper_estimate == b.upper_estimate
        assert (a.sup_lower, a.sup_upper) == (b.sup_lower, b.sup_upper)

    def test_sides_share_the_seed_stream(self):
        # the restart schedule is a function of the seed only, so sweeps and
        # convergence flags must be reproducible side by side
        cost = CostFunction(weighted_sum([0.4, 0.6]), stop_loss(0.2))
        specs = [uniform(0, 1), uniform(0, 2)]
        a = estimate_inf(specs, cost, n=200, restarts=3, seed=77)
        b = estimate_inf(specs, cost, n=200, restarts=3, seed=77)
        assert (a.sweeps_lower, a.sweeps_upper) == (b.sweeps_lower, b.sweeps_upper)
        assert (a.converged_lower, a.converged_upper) == (
            b.converged_lower,
            b.converged_upper,
        )


class TestCertificate:
    def test_hard_case_runs_every_restart(self):
        # 3 exponentials under power 2: the Jensen bound sits far below the optimum
        cost = CostFunction(sum_agg(3), power(2))
        r = estimate_inf([exponential(1)] * 3, cost, n=500, restarts=3, seed=1)
        assert (r.certified_lower, r.certified_upper) == (False, False)
        assert (r.restarts_run_lower, r.restarts_run_upper) == (3, 3)
        assert r.bound_lower < r.lower_estimate and r.bound_upper < r.upper_estimate

    def test_portfolio_exponentials_certified_after_first_run(self):
        # the case of demos/portfolio.cfg at n=1e4 instead of its n=1e5
        config = parse_config(PORTFOLIO.read_text(), base_dir=PORTFOLIO.parent)
        case = next(c for c in config.cases if c.case_id == "exponentials")
        r = estimate_inf(case.specs, case.cost, n=10_000, restarts=case.restarts,
                         seed=case.seed)
        assert case.restarts == 3
        assert (r.certified_lower, r.certified_upper) == (True, True)
        assert (r.restarts_run_lower, r.restarts_run_upper) == (1, 1)
        assert r.lower_estimate == pytest.approx(r.bound_lower, rel=1e-12)
        assert r.upper_estimate == pytest.approx(r.bound_upper, rel=1e-12)

    def test_custom_aggregation_has_no_bound(self):
        from rabounds.costfn import custom_agg

        product = custom_agg(
            2, h=lambda a, b: a * b, h2=lambda x, s: x * s, hd1=lambda v: v,
            monotone_direction="increasing",
        )
        cost = validate_cost(CostFunction(product, stop_loss(1.0)), low=0.5, high=2.0)
        r = estimate_inf([uniform(0.5, 1), uniform(1, 2)], cost, n=50, restarts=2, seed=0)
        assert (r.bound_lower, r.bound_upper) == (None, None)
        assert (r.certified_lower, r.certified_upper) == (False, False)
        assert (r.restarts_run_lower, r.restarts_run_upper) == (2, 2)


def _portfolio_exponentials():
    config = parse_config(PORTFOLIO.read_text(), base_dir=PORTFOLIO.parent)
    case = next(c for c in config.cases if c.case_id == "exponentials")
    return case.specs, case.cost, 2000, case.restarts, case.seed


def _custom_product():
    from rabounds.costfn import custom_agg

    product = custom_agg(
        2, h=lambda a, b: a * b, h2=lambda x, s: x * s, hd1=lambda v: v,
        monotone_direction="increasing",
    )
    cost = validate_cost(CostFunction(product, stop_loss(1.0)), low=0.5, high=2.0)
    return [uniform(0.5, 1), uniform(1, 2)], cost, 50, 2, 0


class TestPerSideCopy:
    """Each side of the result is its grid's RaResult, rebuilt here by hand."""

    @pytest.mark.parametrize(
        "build",
        [
            _portfolio_exponentials,
            lambda: ([exponential(1)] * 3, CostFunction(sum_agg(3), power(2)), 200, 3, 1),
            _custom_product,
        ],
        ids=["portfolio_exponentials_certified", "exp1_power2_uncertified", "custom_product"],
    )
    def test_fields_match_a_hand_built_run_per_side(self, build):
        from rabounds.marginals import truncate_unbounded_sides
        from rabounds.oracle import comonotonic_value
        from rabounds.ra_core import run_ra_restarts

        specs, cost, n, restarts, seed = build()
        r = estimate_inf(specs, cost, n=n, restarts=restarts, seed=seed)
        for kind in ("lower", "upper"):
            margs = [discretize(truncate_unbounded_sides(s), n, kind) for s in specs]
            res = run_ra_restarts(
                ArrangementMatrix.comonotonic(margs), cost, restarts=restarts, seed=seed
            )
            assert getattr(r, f"{kind}_estimate") == res.objective / n
            assert getattr(r, f"bound_{kind}") == (None if res.bound is None else res.bound / n)
            assert getattr(r, f"sup_{kind}") == comonotonic_value(margs, cost)
            for name in ("converged", "sweeps", "certified", "restarts_run"):
                assert getattr(r, f"{name}_{kind}") == getattr(res, name)
