"""Tests for arrangement matrices and the rearrangement loop."""

import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabounds import (
    ArityMismatch,
    ArrangementMatrix,
    CostFunction,
    ValidationFailed,
    brute_force_min,
    compare,
    custom_transform,
    discretize,
    estimate_inf,
    exponential,
    identity,
    is_in_opposite_set,
    is_oppositely_ordered,
    objective,
    partial_aggregate_column,
    power,
    rearrange_column,
    run_ra,
    run_ra_restarts,
    shuffle_columns,
    stop_loss,
    sum_agg,
    uniform,
    weighted_sum,
)
from rabounds import ra_core
from rabounds.cli import parse_config
from rabounds.costfn import custom_agg, eval_h_rows, eval_partial_rows, validate_cost
from rabounds.marginals import DiscreteMarginal, truncate_unbounded_sides
from rabounds.ra_core import CERTIFY_RTOL, jensen_bound

SQ_SUM = CostFunction(sum_agg(2), power(2))
W523 = weighted_sum([0.5, 0.2, 0.3])


def matrix(*cols):
    return ArrangementMatrix.from_columns([np.asarray(c, dtype=float) for c in cols])


class TestArrangementMatrix:
    def test_columns_match_provenance(self):
        X = matrix([3, 1, 2], [5, 4, 6])
        assert X.columns_match_provenance()
        assert X.n == 3 and X.d == 2

    def test_comonotonic_start(self):
        margs = [
            DiscreteMarginal(np.array([1.0, 2.0, 3.0])),
            DiscreteMarginal(np.array([0.0, 5.0, 9.0])),
        ]
        X = ArrangementMatrix.comonotonic(margs)
        assert np.array_equal(X.row(0), [1.0, 0.0])
        assert np.array_equal(X.row(2), [3.0, 9.0])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ArrangementMatrix.from_columns([[1, 2], [1, 2, 3]])

    @pytest.mark.parametrize(
        "columns, provenance, message",
        [
            ((), (), "at least one column"),
            (([[1.0, 2.0]],), (DiscreteMarginal(np.array([1.0, 2.0])),), "1-D with equal length"),
            (([1.0, 2.0],), (), "one provenance marginal per column"),
            (([1.0, 2.0],), (DiscreteMarginal(np.array([1.0, 2.0, 3.0])),), "provenance length"),
            (([], []), (DiscreteMarginal(np.array([])),) * 2, "at least one row"),
        ],
        ids=["no_column", "2d_column", "no_provenance", "provenance_length", "no_row"],
    )
    def test_constructor_checks(self, columns, provenance, message):
        with pytest.raises(ValueError, match=message):
            ArrangementMatrix(columns, provenance)


class TestObjective:
    def test_comonotonic_square_sum(self):
        # rows (1,3) and (2,4): 4^2 + 6^2
        assert objective(matrix([1, 2], [3, 4]), SQ_SUM) == 52

    def test_antithetic_square_sum(self):
        # rows (1,4) and (2,3): 5^2 + 5^2
        assert objective(matrix([1, 2], [4, 3]), SQ_SUM) == 50

    def test_linear_cost_is_arrangement_invariant(self):
        cost = CostFunction(sum_agg(2), identity())
        for perm in itertools.permutations([3, 4]):
            assert objective(matrix([1, 2], perm), cost) == 10

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            objective(matrix([1, 2], [3, 4]), CostFunction(sum_agg(3), identity()))


class TestPartialAggregate:
    def test_weighted_example(self):
        X = matrix([1, 2], [3, 4], [5, 6])
        got = partial_aggregate_column(X, 0, W523)
        assert got == pytest.approx([0.2 * 3 + 0.3 * 5, 0.2 * 4 + 0.3 * 6], abs=1e-12)

    def test_sum_d2_is_partner_column(self):
        X = matrix([1, 2], [3, 4])
        assert np.array_equal(partial_aggregate_column(X, 1, sum_agg(2)), [1, 2])

    def test_zero_partner(self):
        X = matrix([1, 2], [0, 0])
        assert np.array_equal(partial_aggregate_column(X, 0, sum_agg(2)), [0, 0])


class TestRearrangeColumn:
    def test_sorts_against_ascending_partner(self):
        X = matrix([1, 2, 3], [1, 2, 3])
        got = rearrange_column(X, 1, sum_agg(2))
        assert np.array_equal(got.columns[1], [3, 2, 1])
        assert np.array_equal(got.columns[0], X.columns[0])  # untouched

    def test_stable_tie_rule(self):
        # partials (1,1,2): the largest partial row gets the smallest value;
        # tied partials keep original row order, so rows 0,1 get 6,7
        X = matrix([1, 1, 2], [7, 5, 6])
        got = rearrange_column(X, 1, sum_agg(2))
        assert np.array_equal(got.columns[1], [6, 7, 5])
        assert is_oppositely_ordered(
            got.columns[1], partial_aggregate_column(got, 1, sum_agg(2))
        )

    def test_idempotent_on_opposite_input(self):
        X = matrix([1, 2, 3], [9, 5, 1])
        got = rearrange_column(X, 1, sum_agg(2))
        assert got is X

    def test_enumeration_confirms_optimal_placement(self):
        # among all placements of {5,6,7} against partials (1,1,2), the
        # opposite-ordered ones put 5 at the last row
        X = matrix([1, 1, 2], [7, 5, 6])
        valid = [
            p
            for p in itertools.permutations([5.0, 6.0, 7.0])
            if is_oppositely_ordered(p, [1, 1, 2])
        ]
        got = rearrange_column(X, 1, sum_agg(2))
        assert tuple(got.columns[1]) in valid
        assert all(p[2] == 5.0 for p in valid)

    def test_preserves_multiset(self):
        rng = np.random.default_rng(0)
        X = matrix(rng.normal(size=9), rng.normal(size=9), rng.normal(size=9))
        got = rearrange_column(X, 2, W523)
        assert got.columns_match_provenance()


class TestOppositeSet:
    def test_antithetic_pair(self):
        assert is_in_opposite_set(matrix([1, 2, 3], [3, 2, 1]), sum_agg(2))

    def test_comonotonic_pair(self):
        assert not is_in_opposite_set(matrix([1, 2, 3], [1, 2, 3]), sum_agg(2))

    def test_weighted_three_columns(self):
        X = matrix([1, 2], [2, 1], [2, 1])
        assert is_in_opposite_set(X, W523)


class TestRunRa:
    def test_two_by_two_square_sum(self):
        res = run_ra(matrix([1, 2], [3, 4]), SQ_SUM)
        assert res.objective == 50
        assert res.converged and res.sweeps <= 2
        assert is_in_opposite_set(res.matrix, SQ_SUM.agg)

    def test_stop_loss_flattens_to_zero(self):
        cost = CostFunction(sum_agg(2), stop_loss(1))
        start = matrix([0, 1], [0, 1])
        assert objective(start, cost) == 1.0  # comonotonic rows (0,0),(1,1)
        res = run_ra(start, cost)
        assert res.objective == 0.0

    def test_single_row_converges_immediately(self):
        res = run_ra(matrix([4], [7]), SQ_SUM)
        assert res.converged and res.sweeps == 1
        assert res.objective == objective(matrix([4], [7]), SQ_SUM)

    def test_unvalidated_custom_cost_rejected(self):
        agg = custom_agg(
            2,
            h=lambda a, b: a * b,
            h2=lambda x, s: x * s,
            hd1=lambda v: v,
            monotone_direction="increasing",
        )
        with pytest.raises(ValidationFailed):
            run_ra(matrix([1, 2], [3, 4]), CostFunction(agg, identity()))
        validated = validate_cost(CostFunction(agg, identity()), low=0.5, high=2.0)
        res = run_ra(matrix([1, 2], [3, 4]), validated)
        assert res.converged

    def test_fixed_point_is_stable(self):
        rng = np.random.default_rng(1)
        X = matrix(*rng.uniform(0, 1, size=(3, 8)))
        res = run_ra(X, CostFunction(W523, stop_loss(0.4)))
        assert res.converged
        for i in range(3):
            assert rearrange_column(res.matrix, i, W523) is res.matrix

    def test_objective_never_increases_stepwise(self):
        rng = np.random.default_rng(2)
        cost = CostFunction(W523, stop_loss(0.5))
        X = matrix(*rng.uniform(0, 1, size=(3, 40)))
        current = objective(X, cost)
        for _ in range(50):
            moved = False
            for i in range(X.d):
                Y = rearrange_column(X, i, cost.agg)
                if Y is X:
                    continue
                nxt = objective(Y, cost)
                assert nxt <= current + 1e-9 * (1 + abs(current))
                # row aggregates drop in the weak submajorization order
                rel = compare(eval_h_rows(cost.agg, Y.columns), eval_h_rows(cost.agg, X.columns))
                assert rel.is_weakly_submajorized
                X, current, moved = Y, nxt, True
            if not moved:
                break
        assert is_in_opposite_set(X, cost.agg)

    @pytest.mark.parametrize(
        "run, message",
        [
            (lambda X: run_ra(X, SQ_SUM, max_sweeps=0), "max_sweeps must be >= 1, got 0"),
            (lambda X: run_ra_restarts(X, SQ_SUM, restarts=0, seed=0), "restarts must be >= 1"),
            (lambda X: run_ra_restarts(X, SQ_SUM, restarts=2, seed=-1), "seed must be a non"),
        ],
        ids=["max_sweeps_0", "restarts_0", "seed_-1"],
    )
    def test_argument_checks(self, run, message):
        with pytest.raises(ValueError, match=message):
            run(matrix([1, 2], [1, 2]))


class TestShuffle:
    def test_deterministic(self):
        X = matrix([1, 2, 3], [4, 5, 6])
        a = shuffle_columns(X, 7)
        b = shuffle_columns(X, 7)
        assert all(np.array_equal(x, y) for x, y in zip(a.columns, b.columns))

    def test_single_row_unchanged(self):
        X = matrix([1], [2])
        got = shuffle_columns(X, 3)
        assert np.array_equal(got.columns[0], [1]) and np.array_equal(got.columns[1], [2])

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            shuffle_columns(matrix([1, 2], [3, 4]), -1)

    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=12))
    @settings(max_examples=50, deadline=None)
    def test_multiset_preserved(self, seed, n):
        rng = np.random.default_rng(9)
        X = matrix(rng.normal(size=n), rng.normal(size=n))
        got = shuffle_columns(X, seed)
        assert got.columns_match_provenance()


class TestRestarts:
    def test_one_restart_equals_plain_run(self):
        X = matrix([1, 2, 3], [1, 2, 3])
        lone = run_ra(X, SQ_SUM)
        multi = run_ra_restarts(X, SQ_SUM, restarts=1, seed=5)
        assert multi.objective == lone.objective
        assert all(np.array_equal(a, b) for a, b in zip(multi.matrix.columns, lone.matrix.columns))

    def test_best_of_restarts_never_worse(self):
        rng = np.random.default_rng(3)
        X = matrix(rng.uniform(size=3), rng.uniform(size=3))
        base = run_ra(X, SQ_SUM).objective
        assert run_ra_restarts(X, SQ_SUM, restarts=6, seed=0).objective <= base

    def test_finds_global_minimum_on_tiny_instance(self):
        # exhaustive check: placements of (1,2,3) against (1,2,3) under
        # squared sums reach 48 at the antithetic arrangement
        best = min(
            sum((a + b) ** 2 for a, b in zip([1, 2, 3], perm))
            for perm in itertools.permutations([1, 2, 3])
        )
        assert best == 48
        res = run_ra_restarts(matrix([1, 2, 3], [1, 2, 3]), SQ_SUM, restarts=5, seed=1)
        assert res.objective == 48
        assert res.matrix.columns_match_provenance()

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(4)
        X = matrix(*rng.uniform(size=(3, 30)))
        cost = CostFunction(W523, stop_loss(0.7))
        a = run_ra_restarts(X, cost, restarts=4, seed=11)
        b = run_ra_restarts(X, cost, restarts=4, seed=11)
        assert a.objective == b.objective
        assert all(np.array_equal(x, y) for x, y in zip(a.matrix.columns, b.matrix.columns))

    def test_non_finite_objective_rejected(self):
        # row sums average 1.5, so every arrangement has a row in the NaN part
        rng = np.random.default_rng(5)
        X = matrix(*rng.uniform(size=(3, 30)))
        cost = CostFunction(
            sum_agg(3), custom_transform(lambda y: np.where(y > 1.0, np.nan, y))
        )
        with pytest.raises(ValidationFailed, match="non-finite"):
            run_ra_restarts(X, cost, restarts=3, seed=0)
        with pytest.raises(ValidationFailed, match="non-finite"):
            brute_force_min(matrix(*rng.uniform(size=(3, 3))), cost)


def every_restart_min(X0, cost, restarts, seed):
    """Minimum over all restarts, with run_ra_restarts' seed derivation."""
    best = run_ra(X0, cost).objective
    for r in range(1, restarts):
        shuffle_seed = int(np.random.SeedSequence([seed, r]).generate_state(1)[0])
        best = min(best, run_ra(shuffle_columns(X0, shuffle_seed), cost).objective)
    return best


def custom_sum2():
    """x1 + x2 as a custom aggregation, which gets no certificate."""
    return custom_agg(
        2, h=lambda a, b: a + b, h2=lambda x, s: x + s, hd1=lambda v: v,
        monotone_direction="increasing",
    )


def grid_matrix(specs, n, kind="lower"):
    return ArrangementMatrix.comonotonic([discretize(s, n, kind) for s in specs])


class TestCertificate:
    @pytest.mark.parametrize("form", ["stop_loss", "power", "identity"])
    def test_bound_never_exceeds_exhaustive_minimum(self, form):
        rng = np.random.default_rng({"stop_loss": 21, "power": 22, "identity": 23}[form])
        for _ in range(20):
            n = int(rng.integers(1, 6))
            w = rng.uniform(0.1, 1.0, size=3)
            transform = {
                "stop_loss": stop_loss(float(rng.uniform(0.2, 0.8) * w.sum())),
                "power": power(float(rng.uniform(1.0, 3.0))),
                "identity": identity(),
            }[form]
            cost = CostFunction(weighted_sum(w), transform)
            X = matrix(*rng.uniform(-0.5, 1.0, size=(3, n)))
            exact, _ = brute_force_min(X, cost)
            assert jensen_bound(X, cost) <= exact + 1e-12 * (1.0 + abs(exact))

    def test_no_bound_for_custom_aggregation(self):
        X = matrix([1, 2, 3], [1, 2, 3])
        assert jensen_bound(X, CostFunction(custom_sum2(), identity())) is None
        assert jensen_bound(X, SQ_SUM) == 3 * 4.0**2

    def test_no_certificate_for_custom_transform(self):
        # sqrt is concave: every objective sits at or below n * g(mean h), so
        # the Jensen test would pass on the first run without proving anything
        X0 = matrix(*np.random.default_rng(9).uniform(1, 2, size=(3, 40)))
        cost = CostFunction(sum_agg(3), custom_transform(np.sqrt))
        assert jensen_bound(X0, cost) is None
        res = run_ra_restarts(X0, cost, restarts=3, seed=0)
        assert res.bound is None and not res.certified and res.restarts_run == 3
        assert res.objective == pytest.approx(every_restart_min(X0, cost, 3, 0), rel=0)

    @pytest.mark.parametrize(
        "specs, cost, kind",
        [
            # the uniform portfolio of acceptance criterion 7
            ([uniform(0, 0.4), uniform(0.1, 0.5), uniform(0, 1)],
             CostFunction(W523, stop_loss(0.3)), "upper"),
            ([exponential(1), exponential(2), exponential(4)],
             CostFunction(W523, stop_loss(0.3)), "lower"),
        ],
    )
    def test_skipped_restarts_cannot_improve(self, specs, cost, kind):
        X0 = grid_matrix([truncate_unbounded_sides(s) for s in specs], 2000, kind)
        res = run_ra_restarts(X0, cost, restarts=4, seed=7)
        assert res.certified and res.restarts_run == 1
        full = every_restart_min(X0, cost, restarts=4, seed=7)
        assert abs(res.objective - full) <= CERTIFY_RTOL * (1.0 + abs(full))

    def test_small_real_gap_is_not_certified(self):
        # criterion 7's lower grid: the best run stays about 2e-6 above the bound
        specs = [uniform(0, 0.4), uniform(0.1, 0.5), uniform(0, 1)]
        X0 = grid_matrix(specs, 10_000)
        cost = CostFunction(W523, stop_loss(0.3))
        res = run_ra_restarts(X0, cost, restarts=3, seed=1)
        assert not res.certified and res.restarts_run == 3
        assert res.objective > jensen_bound(X0, cost) * (1 + 1e-7)


PORTFOLIO = Path(__file__).resolve().parents[1] / "demos" / "portfolio.cfg"
STOP_REASONS = ("fixed_point", "certified", "max_sweeps")


def portfolio_grid(case_id, n, kind="lower"):
    """Start matrix and cost of a case of demos/portfolio.cfg at size n."""
    config = parse_config(PORTFOLIO.read_text(), base_dir=PORTFOLIO.parent)
    case = next(c for c in config.cases if c.case_id == case_id)
    return grid_matrix([truncate_unbounded_sides(s) for s in case.specs], n, kind), case.cost


class TestStopReason:
    def test_certified_run_stops_early_on_the_same_objective(self):
        X0, cost = portfolio_grid("exponentials", 10_000)
        full = run_ra(X0, cost)
        res = run_ra(X0, cost, bound=jensen_bound(X0, cost))
        assert full.stop_reason == "fixed_point" and full.converged
        assert res.stop_reason == "certified" and not res.converged
        assert res.sweeps < full.sweeps
        assert res.sweeps_total == res.sweeps
        assert abs(res.objective - full.objective) <= CERTIFY_RTOL * (1.0 + abs(full.objective))
        assert res.matrix.columns_match_provenance()

    def test_bounded_run_reports_its_bound(self):
        X0, cost = portfolio_grid("exponentials", 10_000)
        bound = jensen_bound(X0, cost)
        res = run_ra(X0, cost, bound=bound)
        assert res.stop_reason == "certified"
        assert res.bound == bound and res.certified

    def test_sweep_limit_on_an_uncertified_grid(self):
        X0 = grid_matrix([truncate_unbounded_sides(exponential(1))] * 3, 500)
        cost = CostFunction(sum_agg(3), power(2))
        res = run_ra(X0, cost, max_sweeps=1, bound=jensen_bound(X0, cost))
        assert res.stop_reason == "max_sweeps" and not res.converged
        assert res.sweeps == 1

    def test_fixed_point_wins_the_tie_with_the_bound(self):
        # one row: the objective equals the Jensen bound, and no column moves
        X = matrix([4], [7])
        assert objective(X, SQ_SUM) == jensen_bound(X, SQ_SUM)
        res = run_ra(X, SQ_SUM, bound=jensen_bound(X, SQ_SUM))
        assert res.stop_reason == "fixed_point" and res.converged and res.sweeps == 1

    def test_every_start_gets_the_bound_and_adds_its_sweeps(self, monkeypatch):
        X0 = grid_matrix([truncate_unbounded_sides(exponential(1))] * 3, 200)
        cost = CostFunction(sum_agg(3), power(2))
        runs = []
        original = ra_core.run_ra

        def recording(*args, **kwargs):
            res = original(*args, **kwargs)
            runs.append((kwargs.get("bound"), res.sweeps))
            return res

        monkeypatch.setattr(ra_core, "run_ra", recording)
        res = run_ra_restarts(X0, cost, restarts=3, seed=1)
        assert [bound for bound, _ in runs] == [jensen_bound(X0, cost)] * 3
        assert res.restarts_run == 3
        assert res.sweeps_total == sum(sweeps for _, sweeps in runs)

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=2, max_value=3),
        st.integers(min_value=1, max_value=4),
        st.sampled_from([identity(), stop_loss(1.0), power(2.0)]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_converged_means_fixed_point(self, n, d, max_sweeps, transform, seed):
        rng = np.random.default_rng(seed)
        # values on a coarse grid, so ties are common
        X = matrix(*(rng.integers(0, 4, size=(d, n)) / 2.0))
        cost = CostFunction(sum_agg(d), transform)
        for bound in (None, jensen_bound(X, cost)):
            res = run_ra(X, cost, max_sweeps=max_sweeps, bound=bound)
            assert res.stop_reason in STOP_REASONS
            assert res.converged == (res.stop_reason == "fixed_point")
            if bound is None:
                assert res.stop_reason != "certified"
            assert res.certified == (
                bound is not None
                and res.objective <= bound + CERTIFY_RTOL * (1 + abs(bound))
            )
            assert res.bound == bound


class TestObjectiveCalls:
    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        original = ra_core.objective

        def counting(X, cost):
            seen.append(1)
            return original(X, cost)

        monkeypatch.setattr(ra_core, "objective", counting)
        return seen

    def test_one_evaluation_per_sweep_with_a_bound(self, calls):
        # uniform_exp_mix certifies after 3 sweeps at n=500
        X0, cost = portfolio_grid("uniform_exp_mix", 500)
        res = run_ra(X0, cost, bound=jensen_bound(X0, cost))
        assert res.stop_reason == "certified" and res.sweeps == 3
        assert len(calls) == res.sweeps

    def test_one_evaluation_without_a_bound(self, calls):
        X0, cost = portfolio_grid("uniform_exp_mix", 500)
        res = run_ra(X0, cost)
        assert res.sweeps > 1
        assert len(calls) == 1


# demo 05's product of three growth factors, validated on [0.8, 1.25]
PRODUCT3 = validate_cost(
    CostFunction(
        custom_agg(
            3,
            h=lambda a, b, c: a * b * c,
            h2=lambda x, s: x * s,
            hd1=[lambda b, c: b * c, lambda a, c: a * c, lambda a, b: a * b],
            monotone_direction="increasing",
        ),
        stop_loss(1.0),
    ),
    low=0.8,
    high=1.25,
)


def sweep_by_column(X, agg, max_sweeps):
    """run_ra without a bound, written as sweeps of rearrange_column."""
    moves = 0
    for sweeps in range(1, max_sweeps + 1):
        moved = 0
        for i in range(X.d):
            Y = rearrange_column(X, i, agg)
            moved += Y is not X
            X = Y
        moves += moved
        if not moved:
            return X, sweeps, moves, "fixed_point"
    return X, max_sweeps, moves, "max_sweeps"


class TestOneStep:
    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=6),
        st.sampled_from(["square_sum", "weighted_stop_loss", "product"]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_run_ra_sweeps_rearrange_column(self, d, n, max_sweeps, form, seed):
        rng = np.random.default_rng(seed)
        if form == "product":
            cost = PRODUCT3
            X = matrix(*rng.choice([0.8, 1.0, 1.25], size=(3, n)))
        else:
            if form == "square_sum":
                cost = CostFunction(sum_agg(d), power(2))
            else:
                cost = CostFunction(weighted_sum([0.5, 0.25, 0.75, 1.0][:d]), stop_loss(0.5))
            # dyadic values and weights, so partial aggregates tie exactly
            X = matrix(*(rng.integers(0, 8, size=(d, n)) / 4.0))
        want, sweeps, moves, reason = sweep_by_column(X, cost.agg, max_sweeps)
        res = run_ra(X, cost, max_sweeps=max_sweeps)
        assert all(np.array_equal(a, b) for a, b in zip(res.matrix.columns, want.columns))
        assert (res.sweeps, res.column_rearrangements, res.stop_reason) == (
            sweeps, moves, reason
        )


def step_bytes(step):
    """A ``_step`` result as bytes, so equality is bitwise."""
    col, order = step
    return (None if col is None else col.tobytes()), order.tobytes()


def nan_partial_sum(d):
    """A sum whose partial aggregate is NaN wherever the first other column
    is negative: a NaN sorts last and ties with nothing, so the warm step
    has to take the cold sort."""
    return custom_agg(
        d, h=lambda *xs: sum(xs), h2=lambda x, s: x + s,
        hd1=lambda *xs: np.where(xs[0] < 0, np.nan, sum(xs)),
        monotone_direction="increasing",
    )


# dyadic values, signed zeros included, so partial aggregates tie exactly
# and -0.0 meets 0.0 in them
DYADIC = [-0.0, 0.0, 0.25, -0.25, 0.5, 1.0, -1.5]


class TestWarmStep:
    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=1, max_value=40),
        st.sampled_from(["sum", "weighted_sum", "nan_partial"]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_previous_order_gives_the_cold_step(self, d, n, form, seed):
        rng = np.random.default_rng(seed)
        cols = [rng.choice(DYADIC, size=n) for _ in range(d)]
        agg = {
            "sum": sum_agg,
            "weighted_sum": lambda d: weighted_sum([0.5, 0.25, 0.75, 2.0][:d]),
            "nan_partial": nan_partial_sum,
        }[form](d)
        i = int(rng.integers(d))
        sorted_col = np.sort(cols[i])
        part = eval_partial_rows(agg, i, cols[:i] + cols[i + 1 :])
        cold = ra_core._step(cols, i, agg, sorted_col)
        warm = ra_core._step(cols, i, agg, sorted_col, rng.permutation(n))
        assert step_bytes(warm) == step_bytes(cold)
        assert np.array_equal(cold[1], np.argsort(-part, kind="stable"))

    def test_hard_grid_matches_cold_steps(self):
        # a shuffled uncertified lower grid: every step after a column's
        # first runs warm, and homogeneous columns tie partials exactly
        cost = CostFunction(sum_agg(3), power(2.0))
        X = shuffle_columns(grid_matrix([truncate_unbounded_sides(exponential(1))] * 3, 2000), 7)
        want, sweeps, moves, reason = sweep_by_column(X, cost.agg, ra_core.DEFAULT_MAX_SWEEPS)
        res = run_ra(X, cost)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(res.matrix.columns, want.columns))
        assert (res.sweeps, res.column_rearrangements, res.stop_reason) == (
            sweeps, moves, reason
        )


class TestArityGuards:
    def test_column_index_beyond_the_matrix(self):
        # i=2 fits sum_agg(3) but not a 2-column matrix, and the other two
        # columns would pass the count check of eval_partial_rows
        X2 = matrix([1, 2], [3, 4])
        with pytest.raises(ArityMismatch):
            partial_aggregate_column(X2, 2, sum_agg(3))
        with pytest.raises(ArityMismatch):
            rearrange_column(X2, 2, sum_agg(3))

    @pytest.mark.parametrize("d", [2, 4])
    def test_matrix_arity_differs_from_the_cost(self, d):
        X = matrix(*np.arange(2.0 * d).reshape(d, 2))
        cost = CostFunction(sum_agg(3), power(2))
        with pytest.raises(ArityMismatch):
            run_ra(X, cost)
        with pytest.raises(ArityMismatch):
            is_in_opposite_set(X, cost.agg)
        with pytest.raises(ArityMismatch):
            objective(X, cost)
        with pytest.raises(ArityMismatch):
            jensen_bound(X, cost)

    @pytest.mark.parametrize(
        "evaluate",
        [
            objective,
            run_ra,
            lambda X, cost: estimate_inf([uniform(0.0, 1.0)] * 3, cost, n=4),
            brute_force_min,
        ],
        ids=["objective", "run_ra", "estimate_inf", "brute_force_min"],
    )
    def test_transform_must_keep_the_shape(self, evaluate):
        # a g that reduces its input would broadcast one value over every row
        X = ArrangementMatrix.comonotonic([discretize(uniform(0.0, 1.0), 4, "lower")] * 3)
        cost = CostFunction(sum_agg(3), custom_transform(lambda y: np.maximum(np.max(y), 0.0)))
        with pytest.raises(ArityMismatch, match="returned shape"):
            evaluate(X, cost)
