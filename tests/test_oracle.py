"""Tests for the exhaustive enumeration oracle."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabounds import (
    ArrangementMatrix,
    BudgetExceeded,
    CostFunction,
    InternalInconsistency,
    LengthMismatch,
    arrangement_count,
    brute_force_max,
    brute_force_min,
    brute_force_min_over_opposite_set,
    comonotonic_value,
    identity,
    is_in_opposite_set,
    objective,
    partial_aggregate_column,
    power,
    run_ra,
    stop_loss,
    sum_agg,
    weighted_sum,
    within_budget,
)
from rabounds import oracle
from rabounds.costfn import custom_agg, eval_g_rows, eval_h_rows, validate_cost
from rabounds.marginals import DiscreteMarginal

SQ_SUM = CostFunction(sum_agg(2), power(2))

# demo 05's compound-growth aggregation x1*x2*x3 under stop_loss(1)
PRODUCT3 = CostFunction(
    custom_agg(
        3,
        h=lambda a, b, c: a * b * c,
        h2=lambda x, s: x * s,
        hd1=[lambda b, c: b * c, lambda a, c: a * c, lambda a, b: a * b],
        monotone_direction="increasing",
    ),
    stop_loss(1.0),
)


def matrix(*cols):
    return ArrangementMatrix.from_columns([np.asarray(c, dtype=float) for c in cols])


def slow_extremes(cols, cost):
    """Reference enumeration in plain Python, independent of the oracle."""
    n = len(cols[0])
    lo, hi = math.inf, -math.inf
    for combo in itertools.product(
        list(itertools.permutations(range(n))), repeat=len(cols) - 1
    ):
        total = 0.0
        for k in range(n):
            row = [cols[0][k]] + [cols[i + 1][p[k]] for i, p in enumerate(combo)]
            h = eval_h_rows(cost.agg, [np.array([v]) for v in row])
            total += float(eval_g_rows(cost.transform, h)[0])
        lo, hi = min(lo, total), max(hi, total)
    return lo, hi


class TestBruteForceMin:
    def test_three_point_square_sum(self):
        value, arrangement = brute_force_min(matrix([1, 2, 3], [1, 2, 3]), SQ_SUM)
        assert value == 48  # antithetic rows (1,3),(2,2),(3,1)
        assert objective(arrangement, SQ_SUM) == 48
        assert arrangement.columns_match_provenance()

    def test_two_point_square_sum(self):
        value, _ = brute_force_min(matrix([1, 2], [3, 4]), SQ_SUM)
        assert value == 50

    def test_single_row(self):
        X = matrix([2], [5])
        value, _ = brute_force_min(X, SQ_SUM)
        assert value == objective(X, SQ_SUM) == 49

    def test_budget_guard(self):
        X = matrix(np.arange(8), np.arange(8), np.arange(8))
        with pytest.raises(BudgetExceeded) as err:
            brute_force_min(X, CostFunction(sum_agg(3), power(2)), budget=1000)
        assert err.value.required == math.factorial(8) ** 2
        assert arrangement_count(8, 3) == err.value.required

    @pytest.mark.parametrize("n, d", itertools.product(range(9), range(1, 5)))
    def test_within_budget_matches_the_exact_count(self, n, d):
        count = arrangement_count(n, d)
        for budget in (count - 1, count, count + 1):
            assert within_budget(n, d, budget) is (count <= budget)

    @pytest.mark.parametrize(
        "scan", [brute_force_min, brute_force_max, brute_force_min_over_opposite_set]
    )
    def test_budget_guard_on_a_grid_too_large_to_print(self, scan):
        # 2000! has 5736 digits, more than Python converts to text
        X = matrix(np.arange(2000.0), np.arange(2000.0))
        with pytest.raises(BudgetExceeded) as err:
            scan(X, CostFunction(sum_agg(2), identity()))
        assert err.value.required == math.factorial(2000)
        assert "at least 10^5735 arrangement evaluations" in str(err.value)

    @pytest.mark.parametrize("chunk", [1, 3, 1000])
    def test_chunking_does_not_change_result(self, chunk, monkeypatch):
        rng = np.random.default_rng(0)
        X = matrix(*rng.uniform(size=(3, 4)))
        cost = CostFunction(weighted_sum([0.6, 0.3, 0.8]), stop_loss(0.9))
        baseline, _ = brute_force_min(X, cost)
        # a chunk holds _CHUNK_CELLS // n**2 arrangements, one h call each
        monkeypatch.setattr(oracle, "_CHUNK_CELLS", chunk * X.n**2)
        calls = []
        rows = oracle.eval_h_rows
        monkeypatch.setattr(oracle, "eval_h_rows", lambda *a: calls.append(1) or rows(*a))
        value, _ = brute_force_min(X, cost)
        assert value == baseline
        assert len(calls) == -(-arrangement_count(X.n, X.d) // chunk)

    def test_agrees_with_plain_python_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(15):
            n = int(rng.integers(1, 5))
            d = int(rng.integers(2, 4))
            cols = [rng.uniform(0, 1, size=n) for _ in range(d)]
            cost = CostFunction(
                weighted_sum(rng.uniform(0.2, 1, size=d)),
                stop_loss(float(rng.uniform(0, 1.5))),
            )
            want_min, want_max = slow_extremes(cols, cost)
            got_min, _ = brute_force_min(matrix(*cols), cost)
            got_max, _ = brute_force_max(matrix(*cols), cost)
            assert got_min == pytest.approx(want_min, abs=1e-9)
            assert got_max == pytest.approx(want_max, abs=1e-9)

    def test_custom_aggregation_fallback_path(self):
        rng = np.random.default_rng(2)
        agg = custom_agg(
            2,
            h=lambda a, b: a * b,
            h2=lambda x, s: x * s,
            hd1=lambda v: v,
            monotone_direction="increasing",
        )
        cost = validate_cost(CostFunction(agg, identity()), low=0.5, high=2.0)
        cols = [rng.uniform(0.5, 2, size=4) for _ in range(2)]
        cases = [(cols, cost)]
        product_cost = validate_cost(PRODUCT3, low=0.8, high=1.25)
        cases.append(([rng.uniform(0.8, 1.25, size=4) for _ in range(3)], product_cost))
        for cols, cost in cases:
            want_min, want_max = slow_extremes(cols, cost)
            got_min, _ = brute_force_min(matrix(*cols), cost)
            got_max, _ = brute_force_max(matrix(*cols), cost)
            assert got_min == pytest.approx(want_min, abs=1e-9)
            assert got_max == pytest.approx(want_max, abs=1e-9)


class TestRestrictedMin:
    def test_equals_global_on_three_points(self):
        X = matrix([1, 2, 3], [1, 2, 3])
        assert brute_force_min_over_opposite_set(X, SQ_SUM) == 48

    def test_equals_global_on_two_points(self):
        X = matrix([1, 2], [3, 4])
        assert brute_force_min_over_opposite_set(X, SQ_SUM) == 50

    def test_attaining_arrangement_is_in_the_set(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            X = matrix(*rng.uniform(size=(2, 4)))
            restricted = brute_force_min_over_opposite_set(X, SQ_SUM)
            unrestricted, _ = brute_force_min(X, SQ_SUM)
            assert unrestricted <= restricted + 1e-12

    def test_an_empty_opposite_set_is_an_internal_inconsistency(self, monkeypatch):
        # the set is never empty, so only a broken predicate can reach the raise
        monkeypatch.setattr(
            oracle, "_opposite_order", lambda x, y: (None, np.ones(x.shape[:-1], dtype=bool))
        )
        with pytest.raises(InternalInconsistency) as err:
            brute_force_min_over_opposite_set(matrix([1, 2], [3, 4]), SQ_SUM)
        assert str(err.value) == (
            "no oppositely-ordered arrangement found; the fixed-point set is never empty"
        )

    def test_equals_global_on_tie_heavy_instances(self):
        # repeated and negative values: exact ties in the partial aggregates
        # must not disqualify arrangements (regression: deriving the partial
        # as total-minus-term cancels catastrophically on ties)
        rng = np.random.default_rng(99)
        for t in range(60):
            n = int(rng.integers(2, 6))
            d = int(rng.integers(2, 4))
            cols = rng.choice([-1.0, -0.5, 0.0, 0.5, 0.5, 1.0], size=(d, n))
            cost = CostFunction(
                weighted_sum(rng.uniform(0.1, 1.0, size=d)),
                stop_loss(float(rng.uniform(-1, d))),
            )
            X = ArrangementMatrix.from_columns(cols)
            unrestricted, _ = brute_force_min(X, cost)
            restricted = brute_force_min_over_opposite_set(X, cost)
            assert abs(unrestricted - restricted) <= 1e-12

    def test_vectorized_predicate_matches_reference(self):
        rng = np.random.default_rng(4)
        cases = []
        for _ in range(10):
            n = int(rng.integers(2, 5))
            cols = [rng.choice([0.0, 0.5, 1.0], size=n) for _ in range(2)]
            cases.append((cols, CostFunction(sum_agg(2), stop_loss(0.5))))
        # demo 05's product: tied factors give tied partial products
        product_cost = validate_cost(PRODUCT3, low=0.8, high=1.25)
        for _ in range(6):
            n = int(rng.integers(2, 5))
            cols = [rng.choice([0.8, 1.0, 1.25], size=n) for _ in range(3)]
            cases.append((cols, product_cost))
        for cols, cost in cases:
            n = len(cols[0])
            X = matrix(*cols)
            # two references: filter the plain enumeration by the public
            # predicate, which the scan shares, and by the all-pairs
            # definition (x_i - x_j) * (y_i - y_j) <= 0 in sign form
            best = best_by_definition = math.inf
            for combo in itertools.product(
                list(itertools.permutations(range(n))), repeat=len(cols) - 1
            ):
                rest = (np.asarray(c)[list(p)] for c, p in zip(cols[1:], combo))
                Y = matrix(cols[0], *rest)
                if is_in_opposite_set(Y, cost.agg):
                    best = min(best, objective(Y, cost))
                partials = [partial_aggregate_column(Y, i, cost.agg) for i in range(Y.d)]
                if not any(
                    (x[a] < x[b] and y[a] < y[b]) or (x[a] > x[b] and y[a] > y[b])
                    for x, y in zip(Y.columns, partials)
                    for a in range(n)
                    for b in range(n)
                ):
                    best_by_definition = min(best_by_definition, objective(Y, cost))
            got = brute_force_min_over_opposite_set(X, cost)
            assert got == pytest.approx(best, abs=1e-12)
            assert got == pytest.approx(best_by_definition, abs=1e-12)


class TestComonotonic:
    def test_square_sum_value(self):
        margs = [
            DiscreteMarginal(np.array([1.0, 2.0, 3.0])),
            DiscreteMarginal(np.array([1.0, 2.0, 3.0])),
        ]
        assert comonotonic_value(margs, SQ_SUM) == pytest.approx(56 / 3, rel=1e-12)

    def test_linear_cost_matches_mean_of_sums(self):
        rng = np.random.default_rng(5)
        vals = [np.sort(rng.uniform(size=6)) for _ in range(2)]
        margs = [DiscreteMarginal(v) for v in vals]
        cost = CostFunction(sum_agg(2), identity())
        assert comonotonic_value(margs, cost) == pytest.approx(
            float(np.mean(vals[0] + vals[1])), rel=1e-12
        )

    def test_constant_marginals(self):
        margs = [
            DiscreteMarginal(np.full(4, 2.0)),
            DiscreteMarginal(np.full(4, 3.0)),
            DiscreteMarginal(np.full(4, 4.0)),
        ]
        cost = CostFunction(sum_agg(3), stop_loss(5))
        assert comonotonic_value(margs, cost) == pytest.approx(4.0, rel=1e-12)

    def test_unequal_lengths_rejected(self):
        margs = [
            DiscreteMarginal(np.array([0.0, 1.0])),
            DiscreteMarginal(np.array([0.0, 0.5, 1.0])),
        ]
        with pytest.raises(LengthMismatch):
            comonotonic_value(margs, SQ_SUM)


class TestSupermodularExtremes:
    def test_comonotonic_attains_brute_force_max(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            d = int(rng.integers(2, 4))
            vals = [np.sort(rng.uniform(0, 1, size=n)) for _ in range(d)]
            margs = [DiscreteMarginal(v) for v in vals]
            cost = CostFunction(
                weighted_sum(rng.uniform(0.2, 1, size=d)),
                stop_loss(float(rng.uniform(0, 1))),
            )
            X = ArrangementMatrix.comonotonic(margs)
            got_max, _ = brute_force_max(X, cost)
            assert objective(X, cost) == pytest.approx(got_max, abs=1e-12)
            assert comonotonic_value(margs, cost) == pytest.approx(got_max / n, abs=1e-12)

    def test_ra_objective_between_brute_min_and_start(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            X = matrix(*rng.uniform(size=(2, n)))
            cost = CostFunction(sum_agg(2), power(2))
            res = run_ra(X, cost)
            lo, _ = brute_force_min(X, cost)
            assert lo - 1e-12 <= res.objective <= objective(X, cost) + 1e-12


@st.composite
def tied_instances(draw):
    """n <= 4 rows, d in {2, 3}: dyadic values and weights, so every sum is
    exact and ties in the columns and in the partial aggregates are real."""
    n = draw(st.integers(1, 4))
    d = draw(st.sampled_from([2, 3]))
    grid = st.sampled_from([0.0, 0.5, 1.0, 1.5])
    cols = [draw(st.lists(grid, min_size=n, max_size=n)) for _ in range(d)]
    weights = st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0]), min_size=d, max_size=d)
    agg = draw(st.one_of(st.just(sum_agg(d)), weights.map(weighted_sum)))
    transform = draw(
        st.one_of(
            st.just(identity()),
            st.sampled_from([0.5, 1.0, 2.0]).map(stop_loss),
            st.sampled_from([1.0, 2.0, 3.0]).map(power),
        )
    )
    return matrix(*cols), CostFunction(agg, transform)


@given(tied_instances())
@settings(max_examples=150, deadline=None)
def test_rearrangement_agrees_with_oracle_on_ties(instance):
    X, cost = instance
    global_min, _ = brute_force_min(X, cost)
    res = run_ra(X, cost)
    assert global_min <= res.objective <= objective(X, cost)
    if res.converged:
        assert is_in_opposite_set(res.matrix, cost.agg)
    restricted = brute_force_min_over_opposite_set(X, cost)
    assert abs(restricted - global_min) <= 1e-12 * (1.0 + abs(global_min))


@st.composite
def untied_instances(draw):
    """n = 5 rows, d in {2, 3}: uniform values, so no two values tie (almost
    surely), under the weights and transforms of :func:`tied_instances`."""
    _, cost = draw(tied_instances())
    seed = draw(st.integers(0, 2**32 - 1))
    cols = np.random.default_rng(seed).uniform(size=(cost.d, 5))
    return matrix(*cols), cost


@given(untied_instances())
@settings(max_examples=150, deadline=None)
def test_rearrangement_agrees_with_oracle_untied_at_n5(instance):
    X, cost = instance
    global_min, _ = brute_force_min(X, cost)
    # without ties, the order of the rows can move a sum by an ulp
    tol = 1e-12 * (1.0 + abs(global_min))
    res = run_ra(X, cost)
    assert global_min - tol <= res.objective <= objective(X, cost) + tol
    if res.converged:
        assert is_in_opposite_set(res.matrix, cost.agg)
        if X.d == 2:
            # the antitone coupling of two columns is optimal
            assert abs(res.objective - global_min) <= tol
    restricted = brute_force_min_over_opposite_set(X, cost)
    assert abs(restricted - global_min) <= tol
