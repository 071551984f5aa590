"""Tests for the end-to-end bracket estimation."""

import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest

from rabounds import (
    ArrangementMatrix,
    BoundsResult,
    CostFunction,
    NonFiniteQuantile,
    ValidationFailed,
    brute_force_min,
    discretize,
    empirical,
    estimate_inf,
    estimate_sup,
    exponential,
    identity,
    normal,
    pareto,
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
        # n=1: the lower grid is the left endpoint, the upper grid the right;
        # a one-row start sits on its Jensen bound, so neither side sweeps
        r = estimate_inf([uniform(0, 1), uniform(2, 3)], LINEAR2, n=1)
        assert (r.lower_estimate, r.upper_estimate) == (2.0, 4.0)
        for kind in ("lower", "upper"):
            assert getattr(r, f"stop_reason_{kind}") == "certified"
            assert getattr(r, f"sweeps_{kind}") == 0
            assert not getattr(r, f"converged_{kind}")

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

    def test_sweeps_and_flags_reproducible_per_side(self):
        # the lower side's restart schedule is a function of the seed only,
        # and the upper side starts from the lower winner's ranks, so sweeps
        # and convergence flags must be reproducible on both sides
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
        # 3 exponentials under power 2: the lower side's symmetric-split bound
        # stays short of the optimum (by 7e-8 at n=1e3), so that side runs
        # every restart; the upper side runs once
        cost = CostFunction(sum_agg(3), power(2))
        r = estimate_inf([exponential(1)] * 3, cost, n=500, restarts=3, seed=1)
        assert (r.certified_lower, r.certified_upper) == (False, False)
        assert r.restarts_run_lower == 3
        assert r.bound_lower < r.lower_estimate and r.bound_upper < r.upper_estimate

    def test_portfolio_exponentials_certified_after_first_run(self):
        # the case of demos/portfolio.cfg at n=1e4 instead of its n=1e5
        config = parse_config(PORTFOLIO.read_text(), base_dir=PORTFOLIO.parent)
        case = next(c for c in config.cases if c.case_id == "exponentials")
        r = estimate_inf(case.specs, case.cost, n=10_000, restarts=case.restarts,
                         seed=case.seed)
        assert case.restarts == 3
        assert (r.certified_lower, r.certified_upper) == (True, True)
        assert r.restarts_run_lower == 1
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
        assert r.restarts_run_lower == 2

    def test_upper_side_runs_once(self, monkeypatch):
        # run_ra_restarts looks run_ra up as a module global, so counting it
        # there sees every start of both sides
        import rabounds.ra_core as ra_core

        calls = []
        real = ra_core.run_ra
        monkeypatch.setattr(
            ra_core, "run_ra", lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs)
        )
        cost = CostFunction(sum_agg(3), power(2))
        r = estimate_inf([exponential(1)] * 3, cost, n=500, restarts=3, seed=1)
        assert len(calls) == r.restarts_run_lower + 1 == 4  # uncertified
        calls.clear()
        specs, cost, _, restarts, seed = _portfolio_exponentials()
        r = estimate_inf(specs, cost, n=10_000, restarts=restarts, seed=seed)
        assert len(calls) == r.restarts_run_lower + 1 == 2  # certified


# the upper start certifies here, so the upper side does not sweep
WIDE_PARETO = ([pareto(2.0)] * 20, CostFunction(sum_agg(20), stop_loss(36)), 200)


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


def _grid(specs, n, kind):
    from rabounds.marginals import truncate_unbounded_sides

    return [discretize(truncate_unbounded_sides(s), n, kind) for s in specs]


def _on_lower_ranks(lower_winner, upper):
    """The upper start by its definition: in each column, the row holding the
    k-th smallest lower value (ties by row index) gets the k-th smallest
    upper value."""
    cols = []
    for col, m in zip(lower_winner.columns, upper):
        out = np.empty(m.n)
        out[np.argsort(col, kind="stable")] = m.values
        cols.append(out)
    return ArrangementMatrix(tuple(cols), tuple(upper))


class TestPerSideCopy:
    """Each side of the result is its grid's RaResult, rebuilt here by hand:
    the lower side restarts from the comonotonic start, the upper side runs
    once from the lower winner's ranks."""

    @pytest.mark.parametrize(
        "build",
        [
            _portfolio_exponentials,
            lambda: ([exponential(1)] * 3, CostFunction(sum_agg(3), power(2)), 200, 3, 1),
            _custom_product,
            lambda: WIDE_PARETO + (3, 1),
        ],
        ids=[
            "portfolio_exponentials_certified", "exp1_power2_uncertified", "custom_product",
            "pareto2_d20_upper_start_certified",
        ],
    )
    def test_fields_match_a_hand_built_run_per_side(self, build):
        from rabounds.oracle import comonotonic_value
        from rabounds.ra_core import run_ra_restarts

        specs, cost, n, restarts, seed = build()
        r = estimate_inf(specs, cost, n=n, restarts=restarts, seed=seed)
        lower, upper = _grid(specs, n, "lower"), _grid(specs, n, "upper")
        low = run_ra_restarts(
            ArrangementMatrix.comonotonic(lower), cost, restarts=restarts, seed=seed
        )
        up = run_ra_restarts(_on_lower_ranks(low.matrix, upper), cost, restarts=1, seed=seed)
        for kind, res, margs in (("lower", low, lower), ("upper", up, upper)):
            assert getattr(r, f"{kind}_estimate") == res.objective / n
            assert getattr(r, f"bound_{kind}") == (None if res.bound is None else res.bound / n)
            assert getattr(r, f"sup_{kind}") == comonotonic_value(margs, cost)
            for name in ("converged", "sweeps", "certified", "stop_reason", "bound_form"):
                assert getattr(r, f"{name}_{kind}") == getattr(res, name)
        assert (r.restarts_run_lower, r.sweeps_total_lower) == (low.restarts_run, low.sweeps_total)


def _empirical_mix():
    acceptance = Path(__file__).resolve().parent / "data" / "acceptance.cfg"
    config = parse_config(acceptance.read_text(), base_dir=acceptance.parent)
    case = next(c for c in config.cases if c.case_id == "empirical_mix")
    return case.specs, case.cost, case.n, case.restarts, case.seed


class TestUpperStart:
    """The upper run starts from the lower winner's ranks, filled with the
    upper grid's values."""

    @staticmethod
    def _lower_winner_and_upper_start(monkeypatch, specs, cost, n, restarts, seed):
        import rabounds.bounds as bounds_module

        calls = []
        run_restarts = bounds_module.run_ra_restarts

        def recording(X0, *args, **kwargs):
            calls.append((X0, run_restarts(X0, *args, **kwargs)))
            return calls[-1][1]

        monkeypatch.setattr(bounds_module, "run_ra_restarts", recording)
        estimate_inf(specs, cost, n=n, restarts=restarts, seed=seed)
        (_, lower), (start, _) = calls
        return lower.matrix, start

    def test_tie_free_grid_keeps_the_lower_ranks(self, monkeypatch):
        specs, cost, n = [exponential(1)] * 3, CostFunction(sum_agg(3), power(2)), 200
        upper = _grid(specs, n, "upper")
        assert all(np.all(np.diff(m.values) > 0) for m in _grid(specs, n, "lower") + upper)
        winner, start = self._lower_winner_and_upper_start(monkeypatch, specs, cost, n, 3, 1)
        assert start.columns_match_provenance()
        assert [m.values.tolist() for m in start.provenance] == [m.values.tolist() for m in upper]
        for low, col in zip(winner.columns, start.columns):
            assert np.array_equal(np.argsort(col, kind="stable"), np.argsort(low, kind="stable"))

    def test_tied_empirical_grid_is_filled_in_the_lower_order(self, monkeypatch):
        # the returns sample has 25 points, so at n=50 both grids of the
        # empirical column are tied; their tie groups sit one index apart, so
        # the check is that the lower winner's stable order (ties by row
        # index) reads the start column as the ascending upper grid
        specs, cost, n, restarts, seed = _empirical_mix()
        upper = _grid(specs, n, "upper")
        assert np.any(np.diff(upper[0].values) == 0)
        winner, start = self._lower_winner_and_upper_start(
            monkeypatch, specs, cost, n, restarts, seed
        )
        assert start.columns_match_provenance()
        assert [m.values.tolist() for m in start.provenance] == [m.values.tolist() for m in upper]
        for low, col, m in zip(winner.columns, start.columns, upper):
            assert np.array_equal(col[np.argsort(low, kind="stable")], m.values)


# (specs, cost, how far below the old upper estimate the new one may land
# and, per n, how far above it, relative): the exponential case may end
# lower, and above by at most 1e-7 at n=500, 2e-8 at n=1000 and 1e-9 at
# n=4000 (at seeds 1-3 it lands up to 7.1e-8, 1.5e-8 and 3.4e-10 above,
# against bracket widths of 8.5e-2, 4.4e-2 and 1.1e-2); the Pareto cases
# agree to float noise
HARD_SIZES = (500, 1000, 4000)
HARD_TAILS = [
    (
        [exponential(1)] * 3, CostFunction(sum_agg(3), power(2)), np.inf,
        {500: 1e-7, 1000: 2e-8, 4000: 1e-9},
    ),
    (
        [pareto(1.5)] * 3, CostFunction(sum_agg(3), stop_loss(12)), 1e-15,
        dict.fromkeys(HARD_SIZES, 1e-15),
    ),
    (
        [pareto(2)] * 10, CostFunction(sum_agg(10), stop_loss(30)), 1e-15,
        dict.fromkeys(HARD_SIZES, 1e-15),
    ),
]


class TestUpperAgainstRestartedUpperGrid:
    """The one polishing run against the upper grid's own restarts from its
    comonotonic start, on the benchmark's hard cases at its n=4000 and at
    the smaller n where the polishing run lands furthest above."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("n", HARD_SIZES)
    @pytest.mark.parametrize(
        "case", HARD_TAILS, ids=["exp1_power2", "pareto1.5_stop_loss12", "pareto2_d10_stop_loss30"]
    )
    def test_upper_estimate_within_tolerance(self, case, n, seed):
        from rabounds.oracle import comonotonic_value
        from rabounds.ra_core import run_ra_restarts

        specs, cost, below, above_by_n = case
        above, restarts = above_by_n[n], 3
        r = estimate_inf(specs, cost, n=n, restarts=restarts, seed=seed)
        old = {}
        for kind in ("lower", "upper"):
            grid = _grid(specs, n, kind)
            old[kind] = run_ra_restarts(
                ArrangementMatrix.comonotonic(grid), cost, restarts=restarts, seed=seed
            )
            assert getattr(r, f"bound_{kind}") == old[kind].bound / n
            assert getattr(r, f"sup_{kind}") == comonotonic_value(grid, cost)
        assert r.lower_estimate == old["lower"].objective / n
        for name in ("converged", "sweeps", "certified", "restarts_run", "stop_reason",
                     "sweeps_total"):
            assert getattr(r, f"{name}_lower") == getattr(old["lower"], name)
        want = old["upper"].objective / n
        assert -below <= (r.upper_estimate - want) / abs(want) <= above


class TestStrongerCertificate:
    """Where Jensen leaves a gap, the majorization bound of
    :func:`rabounds.ra_core.lower_bound` still proves the first run optimal."""

    @pytest.mark.parametrize("n", [10_000, 100_000])
    def test_criterion_7_certifies_after_one_run_per_side(self, n):
        cost = CostFunction(weighted_sum([0.5, 0.2, 0.3]), stop_loss(0.3))
        specs = [uniform(0, 0.4), uniform(0.1, 0.5), uniform(0, 1)]
        r = estimate_inf(specs, cost, n=n, restarts=3, seed=20260809)
        assert (r.certified_lower, r.certified_upper) == (True, True)
        assert r.restarts_run_lower == 1
        assert (r.bound_form_lower, r.bound_form_upper) == ("single_column", "jensen")

    @pytest.mark.parametrize("seed", [1, 11])
    @pytest.mark.parametrize(
        "case, certified",
        [(HARD_TAILS[0], False), (HARD_TAILS[1], True), (HARD_TAILS[2], True)],
        ids=["exp1_power2", "pareto1.5_stop_loss12", "pareto2_d10_stop_loss30"],
    )
    def test_hard_cases_at_the_benchmark_size(self, case, certified, seed):
        specs, cost = case[:2]
        r = estimate_inf(specs, cost, n=4000, restarts=3, seed=seed)
        assert r.certified_lower == certified
        assert r.restarts_run_lower == (1 if certified else 3)
        assert r.bound_form_lower == "symmetric_split"

    def test_bound_from_the_first_start_stops_the_hard_case_early(self):
        # the first start gets the symmetric-split bound, so it stops at the
        # sweep that reaches it instead of going on to its fixed point
        from rabounds.ra_core import CERTIFY_RTOL, run_ra

        specs, cost = HARD_TAILS[1][:2]
        n = 4000
        r = estimate_inf(specs, cost, n=n, restarts=3, seed=11)
        assert r.stop_reason_lower == "certified" and r.sweeps_lower <= 3
        full = run_ra(ArrangementMatrix.comonotonic(_grid(specs, n, "lower")), cost)
        assert full.stop_reason == "fixed_point" and full.sweeps > r.sweeps_lower
        want = full.objective / n
        assert abs(r.lower_estimate - want) <= CERTIFY_RTOL * (1.0 + abs(want))

    def test_bound_form_is_the_side_runs_form(self):
        from rabounds.ra_core import lower_bound, run_ra_restarts

        specs, cost = [exponential(1)] * 3, CostFunction(sum_agg(3), power(2))
        r = estimate_inf(specs, cost, n=200, restarts=3, seed=1)
        lower = ArrangementMatrix.comonotonic(_grid(specs, 200, "lower"))
        res = run_ra_restarts(lower, cost, restarts=3, seed=1)
        assert r.bound_form_lower == res.bound_form == lower_bound(lower, cost)[1]
        assert r.bound_lower == res.bound / 200
        specs, cost, n, restarts, seed = _custom_product()
        r = estimate_inf(specs, cost, n=n, restarts=restarts, seed=seed)
        assert (r.bound_form_lower, r.bound_form_upper) == (None, None)


class TestCertifiedUpperStart:
    """A run checks its start against its bound before sweeping. Where the
    lower winner's ranks filled with upper-grid values already certify, the
    upper side returns that start unswept; starts that do not certify sweep
    as they did before the check."""

    def test_a_certifying_upper_start_is_not_swept(self, monkeypatch):
        import rabounds.bounds as bounds_module
        from rabounds.ra_core import objective

        specs, cost, n = WIDE_PARETO
        kinds, runs = [], []
        discretize_, run_restarts = bounds_module.discretize, bounds_module.run_ra_restarts

        def counting(spec, n, kind):
            kinds.append(kind)
            return discretize_(spec, n, kind)

        def recording(X0, *args, **kwargs):
            runs.append((X0, run_restarts(X0, *args, **kwargs)))
            return runs[-1][1]

        monkeypatch.setattr(bounds_module, "discretize", counting)
        monkeypatch.setattr(bounds_module, "run_ra_restarts", recording)
        r = estimate_inf(specs, cost, n=n, restarts=3, seed=1)
        # twenty equal specs: one grid per kind
        assert kinds == ["lower", "upper"]
        assert (r.sweeps_upper, r.stop_reason_upper, r.certified_upper) == (0, "certified", True)
        (_, lower), (start, upper) = runs
        assert upper.matrix is start
        want = objective(_on_lower_ranks(lower.matrix, _grid(specs, n, "upper")), cost)
        assert r.upper_estimate == want / n

    # 3 x Exp(1) under power 2, whose starts never certify: estimates, sweeps
    # and starts as the rearrangement gave them before runs checked their start
    @pytest.mark.parametrize(
        "n, lower, upper, sweeps, sweeps_total_lower",
        [
            (500, 9.13007926867932, 9.977487304204773, (10, 5), 31),
            (1000, 9.223344385560372, 9.646973048478138, (11, 7), 38),
        ],
    )
    def test_uncertified_starts_sweep_as_before(self, n, lower, upper, sweeps, sweeps_total_lower):
        specs, cost = [exponential(1)] * 3, CostFunction(sum_agg(3), power(2))
        r = estimate_inf(specs, cost, n=n, restarts=3, seed=1)
        assert (r.lower_estimate, r.upper_estimate) == (lower, upper)
        assert (r.sweeps_lower, r.sweeps_upper) == sweeps
        assert (r.restarts_run_lower, r.sweeps_total_lower) == (3, sweeps_total_lower)
        assert (r.stop_reason_lower, r.stop_reason_upper) == ("fixed_point", "fixed_point")
        assert not (r.certified_lower or r.certified_upper)


def _returns():
    return np.loadtxt(Path(__file__).resolve().parent / "data" / "returns.txt")


class TestSharedGrids:
    """Equal specs are discretized once per grid kind and share that grid;
    the result equals the one from grids built per column
    (:class:`TestPerSideCopy`), whether the equal specs are one object or
    distinct ones."""

    @pytest.mark.parametrize(
        "makers, cost, n",
        [
            ([lambda: pareto(2.0)] * 20, WIDE_PARETO[1], WIDE_PARETO[2]),
            ([lambda: exponential(1)] * 3, CostFunction(sum_agg(3), power(2)), 500),
            (
                [lambda: uniform(0, 1), lambda: exponential(2), lambda: uniform(0, 1)],
                CostFunction(weighted_sum([1.0, 0.5, 2.0]), stop_loss(1.5)),
                300,
            ),
            ([lambda: empirical(_returns())] * 3, CostFunction(sum_agg(3), power(2)), 50),
        ],
        ids=["pareto2_d20", "exp1_power2", "uniform_exp_uniform_weighted", "empirical_d3"],
    )
    def test_one_spec_object_matches_equal_distinct_specs(self, makers, cost, n):
        apart = [make() for make in makers]
        assert len({id(s) for s in apart}) == len(apart)
        first = {}
        shared = [first.setdefault(s, s) for s in apart]
        assert len({id(s) for s in shared}) == len(first) < len(apart)
        a = estimate_inf(shared, cost, n=n, restarts=3, seed=1)
        b = estimate_inf(apart, cost, n=n, restarts=3, seed=1)
        names = [f.name for f in dataclasses.fields(BoundsResult)]
        # the flags read from stop_reason_* are properties, not fields
        names += [f"{flag}_{kind}" for flag in ("certified", "converged")
                  for kind in ("lower", "upper")]
        for name in names:
            if not name.startswith("runtime_ms"):
                assert getattr(a, name) == getattr(b, name), name
        assert estimate_sup(shared, cost, n=n) == estimate_sup(apart, cost, n=n)

    def test_equal_distinct_specs_share_one_grid(self, monkeypatch):
        import rabounds.bounds as bounds_module

        calls = []
        discretize_ = bounds_module.discretize

        def counting(spec, n, kind):
            calls.append(spec.family)
            return discretize_(spec, n, kind)

        monkeypatch.setattr(bounds_module, "discretize", counting)
        specs = [empirical(_returns()), exponential(1), empirical(_returns()), exponential(1)]
        grids = bounds_module._grids(specs, 40, "lower")
        assert calls == ["empirical", "exponential"]
        assert grids[0] is grids[2] and grids[1] is grids[3] and grids[0] is not grids[1]
