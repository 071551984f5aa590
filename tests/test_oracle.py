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
from rabounds.costfn import (
    custom_agg,
    eval_g_rows,
    eval_h_rows,
    eval_partial_rows,
    validate_cost,
)
from rabounds.majorization import _opposite_violations
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


def product(d):
    """x1 * ... * xd under stop_loss(1), validated on demo 05's box."""
    prod = lambda *c: math.prod(c)  # noqa: E731
    agg = custom_agg(
        d, h=prod, h2=lambda x, s: x * s, hd1=[prod] * d, monotone_direction="increasing"
    )
    return validate_cost(CostFunction(agg, stop_loss(1.0)), low=0.8, high=1.25)


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


def restricted_reference(X, cost):
    """The restricted minimum as a filter over every arrangement.

    Evaluates all arrangements in the scan's lexicographic order in one
    block, checks every column with the batch predicate
    ``_opposite_violations`` and takes the argmin, so ties go to the lowest
    index. Returns the value, that index and the arrangement's columns.
    """
    combos = list(itertools.product(itertools.permutations(range(X.n)), repeat=X.d - 1))
    vals = [np.tile(X.columns[0], (len(combos), 1))]
    vals += [X.columns[i][[c[i - 1] for c in combos]] for i in range(1, X.d)]
    obj = eval_g_rows(cost.transform, eval_h_rows(cost.agg, vals)).sum(axis=1)
    feasible = np.ones(len(combos), dtype=bool)
    for i in range(X.d):
        part = eval_partial_rows(cost.agg, i, vals[:i] + vals[i + 1 :])
        feasible &= ~_opposite_violations(vals[i].T, part.T)
    k = int(np.argmin(np.where(feasible, obj, np.inf)))
    return float(obj[k]), k, [v[k] for v in vals]


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
        "call",
        [
            lambda: arrangement_count(3, 0),
            lambda: arrangement_count(-1, 2),
            lambda: within_budget(3, 0, 1),
            lambda: within_budget(-1, 2, 10),
        ],
        ids=["count_d0", "count_n-1", "budget_d0", "budget_n-1"],
    )
    def test_impossible_sizes_rejected(self, call):
        with pytest.raises(ValueError, match="d >= 1 columns and n >= 0 rows"):
            call()

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

    @pytest.mark.parametrize(
        "scan",
        [lambda X, cost: brute_force_min(X, cost)[0], brute_force_min_over_opposite_set],
        ids=["global", "restricted"],
    )
    @pytest.mark.parametrize("chunk", [1, 3, 4, 30, 1000])
    def test_chunking_does_not_change_result(self, chunk, scan, monkeypatch):
        # (d, n) -> weights, then h calls per chunk; a block holds at most
        # chunk = _CHUNK_CELLS // n**2 arrangements: c = chunk // n! whole
        # prefixes when the last table's n! rows fit, else one prefix and
        # chunk rows of the last table. d=2, n=5 splits its one prefix of
        # 120 rows below chunk 120; d=4, n=3 has 36 prefixes of 6 rows
        cases = {
            (3, 4): ([0.6, 0.3, 0.8], {1: 576, 3: 192, 4: 144, 30: 24, 1000: 1}),
            (2, 5): ([0.6, 0.3], {1: 120, 3: 40, 4: 30, 30: 4, 1000: 1}),
            (4, 3): ([0.6, 0.3, 0.8, 0.5], {1: 216, 3: 72, 4: 72, 30: 8, 1000: 1}),
        }
        rng = np.random.default_rng(0)
        for (d, n), (w, expected) in cases.items():
            X = matrix(*rng.uniform(size=(d, n)))
            cost = CostFunction(weighted_sum(w), stop_loss(0.3 * d))
            baseline = scan(X, cost)
            with monkeypatch.context() as m:
                m.setattr(oracle, "_CHUNK_CELLS", chunk * n**2)
                calls = []
                rows = oracle.eval_h_rows
                m.setattr(oracle, "eval_h_rows", lambda *a: calls.append(1) or rows(*a))
                assert scan(X, cost) == baseline
            assert len(calls) == expected[chunk]

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

    @pytest.mark.parametrize("transform", [power(2), stop_loss(1.0)])
    def test_value_matches_the_objective_of_its_arrangement_at_n8(self, transform):
        # from n = 8 on the scan adds its rows in row order and objective
        # pairwise, so the two may differ in the last bits, never by more
        rng = np.random.default_rng(8)
        cost = CostFunction(sum_agg(2), transform)
        for _ in range(6):
            X = matrix(*rng.uniform(size=(2, 8)))
            for scan in (brute_force_min, brute_force_max):
                value, arrangement = scan(X, cost)
                want = objective(arrangement, cost)
                assert abs(value - want) <= 4 * np.finfo(float).eps * abs(want)

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
            oracle, "_opposite_violations", lambda x, y: np.ones(x.shape[1:], dtype=bool)
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

    @staticmethod
    def _instances(kind, rng):
        """Eight instances of one kind: six at d in {2, 3}, n <= 5, then one
        at d=2, n=5, whose 120-row last table a small chunk splits, and one
        at d=4, n=3."""
        product_cost = validate_cost(PRODUCT3, low=0.8, high=1.25)
        out = []
        for t in range(8):
            if t < 6:
                d = 2 if t < 2 and kind != "product" else 3
                n = 5 if t >= 4 else int(rng.integers(2, 5))
            else:
                d, n = (2, 5) if t == 6 else (4, 3)
            if kind == "ties":
                cols = rng.choice([-1.0, -0.5, 0.0, 0.5, 0.5, 1.0], size=(d, n))
                cost = CostFunction(sum_agg(d), stop_loss(float(rng.integers(-1, d))))
            elif kind == "untied":
                cols = rng.uniform(size=(d, n))
                cost = CostFunction(sum_agg(d), power(2))
            elif kind == "weighted":
                cols = rng.choice([0.0, 0.25, 0.5, 1.0], size=(d, n))
                w = rng.choice([0.25, 0.5, 1.0, 2.0], size=d)
                cost = CostFunction(weighted_sum(w), stop_loss(float(w.sum() / 2)))
            else:
                cols = rng.choice([0.8, 1.0, 1.25], size=(d, n))
                cost = product_cost if d == 3 else product(d)
            out.append((ArrangementMatrix.from_columns(cols), cost))
        return out

    @pytest.mark.parametrize("first_batch", [None, 1])
    @pytest.mark.parametrize("chunk", [None, 7])
    @pytest.mark.parametrize("kind", ["ties", "untied", "weighted", "product"])
    def test_scan_matches_filtering_every_arrangement(
        self, kind, chunk, first_batch, monkeypatch
    ):
        # the scan checks the predicate only on rows below the best so far,
        # in objective order; filtering every row must give the same value
        # and the same first attaining arrangement, across many chunks too,
        # and with batches of 1, 2, 4, ... rows that cut runs of tied
        # objectives
        if first_batch is not None:
            monkeypatch.setattr(oracle, "_FIRST_BATCH", first_batch)
        rng = np.random.default_rng(["ties", "untied", "weighted", "product"].index(kind))
        for X, cost in self._instances(kind, rng):
            want, _, want_cols = restricted_reference(X, cost)
            if chunk is not None:
                monkeypatch.setattr(oracle, "_CHUNK_CELLS", chunk * X.n**2)
            value, arrangement = oracle._scan(X, cost, oracle.DEFAULT_BUDGET, "min_restricted")
            assert value == want
            for got, ref in zip(arrangement.columns, want_cols):
                np.testing.assert_array_equal(got, ref)

    @staticmethod
    def _count_predicate_rows(monkeypatch):
        """Flags of the 1-D batch calls, and the flag-table shapes of the
        last-column prefilter calls, which return one flag per row of a
        whole block."""
        rows, tables = [], []
        check = oracle._opposite_violations

        def counting(x, y):
            flags = check(x, y)
            if flags.ndim == 1:
                rows.append(flags.size)
            else:
                tables.append(flags.shape)
            return flags

        monkeypatch.setattr(oracle, "_opposite_violations", counting)
        return rows, tables

    def test_predicate_skips_rows_that_cannot_win(self, monkeypatch):
        rng = np.random.default_rng(0)
        w = rng.uniform(0.1, 1.0, size=3)
        X = matrix(*rng.uniform(size=(3, 5)))
        cost = CostFunction(weighted_sum(w), stop_loss(float(0.5 * w.sum())))
        want, _, _ = restricted_reference(X, cost)
        rows, tables = self._count_predicate_rows(monkeypatch)
        assert brute_force_min_over_opposite_set(X, cost) == want
        # filtering every arrangement checks d * 14400 = 43200 rows; here one
        # block holds them all, its prefilter drops the rows whose last
        # column violates, and the first batch of 64 holds a feasible row,
        # so 64 rows are checked on each of the other two columns
        assert arrangement_count(X.n, X.d) == 14400
        assert tables == [(120, 120)]
        assert 0 < sum(rows) <= (X.d - 1) * oracle._FIRST_BATCH

    def test_all_tied_objectives_check_about_twice_the_rows_before_the_first_hit(
        self, monkeypatch
    ):
        # k above every row sum: every objective is 0, so the candidates are
        # checked in index order and the first feasible one ends the search
        rng = np.random.default_rng(4)
        X = matrix(*rng.uniform(size=(3, 5)))
        cost = CostFunction(sum_agg(3), stop_loss(4.0))
        want, first, _ = restricted_reference(X, cost)
        assert want == 0.0 and first == 1879
        rows, tables = self._count_predicate_rows(monkeypatch)
        assert brute_force_min_over_opposite_set(X, cost) == want
        # batches of 64, 128, ... end at most about twice the candidates
        # before the first hit; the prefilter leaves about one of the 120
        # rows of the last table per prefix, so the first batch of 64 holds
        # it (14400 rows are checked when every row is filtered)
        assert tables == [(120, 120)]
        assert 0 < sum(rows) <= (X.d - 1) * oracle._FIRST_BATCH

    def test_prefilter_runs_once_per_block(self, monkeypatch):
        # d=4, n=3: 36 prefixes of 6 last-table rows; at most 30 arrangements
        # a block gives 7 blocks of 5 whole prefixes and one of the last one
        rng = np.random.default_rng(5)
        X = matrix(*rng.uniform(size=(4, 3)))
        cost = CostFunction(weighted_sum([0.6, 0.3, 0.8, 0.5]), stop_loss(1.2))
        want = brute_force_min_over_opposite_set(X, cost)
        monkeypatch.setattr(oracle, "_CHUNK_CELLS", 30 * X.n**2)
        rows, tables = self._count_predicate_rows(monkeypatch)
        assert brute_force_min_over_opposite_set(X, cost) == want
        assert tables == [(5, 6)] * 7 + [(1, 6)]


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
