"""Tests for the majorization orders and the opposite-ordering predicate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabounds import (
    LengthMismatch,
    Order,
    compare,
    is_oppositely_ordered,
    sort_asc,
    sort_desc,
)
from rabounds.majorization import _opposite_order, _opposite_violations

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
vectors = st.lists(finite_floats, min_size=1, max_size=20)


class TestSorts:
    def test_desc(self):
        assert np.array_equal(sort_desc([1, 3, 2]), [3, 2, 1])

    def test_asc(self):
        assert np.array_equal(sort_asc([1, 3, 2]), [1, 2, 3])

    def test_empty(self):
        assert sort_desc([]).size == 0
        assert sort_asc([]).size == 0


class TestCompare:
    def test_concentrated_mass_majorizes_flat(self):
        assert compare((1, 1, 1), (3, 0, 0)).value is Order.MAJORIZED

    def test_permutation(self):
        assert compare((2, 1), (1, 2)).value is Order.PERMUTATION

    def test_weak_submajorization_without_total_equality(self):
        assert compare((0, 1), (1, 1)).value is Order.WEAKLY_SUBMAJORIZED
        assert compare((1, 2), (0, 5)).value is Order.WEAKLY_SUBMAJORIZED

    def test_weak_supermajorization(self):
        # ascending prefixes of x dominate those of y; totals differ
        assert compare((1, 1), (0, 1)).value is Order.WEAKLY_SUPERMAJORIZED

    def test_incomparable(self):
        assert compare((0, 3), (1, 1)).value is Order.INCOMPARABLE

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            compare((1, 2), (1, 2, 3))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_entries_rejected(self, bad):
        # checked before any sort or prefix sum, so no RuntimeWarning is raised
        with pytest.raises(ValueError, match="^x "):
            compare((bad, 1.0), (1.0, 2.0))
        with pytest.raises(ValueError, match="^y "):
            compare((1.0, 2.0), (1.0, bad))
        with pytest.raises(ValueError, match="^x "):
            compare((bad,), (bad,))

    def test_witness_prefix_sums_exposed(self):
        rel = compare((1, 1, 1), (3, 0, 0))
        assert np.array_equal(rel.desc_prefix_x, [1, 2, 3])
        assert np.array_equal(rel.desc_prefix_y, [3, 3, 3])

    def test_lattice_implications(self):
        perm = compare((2, 1), (1, 2))
        assert perm.is_majorized and perm.is_weakly_submajorized
        assert perm.is_weakly_supermajorized
        major = compare((1, 1, 1), (3, 0, 0))
        assert major.is_weakly_submajorized and major.is_weakly_supermajorized

    def test_is_permutation(self):
        assert compare((2, 1), (1, 2)).is_permutation
        assert not compare((1, 1, 1), (3, 0, 0)).is_permutation

    @given(vectors)
    @settings(max_examples=200, deadline=None)
    def test_reflexive_permutation(self, xs):
        rng = np.random.default_rng(0)
        shuffled = rng.permutation(xs)
        assert compare(xs, shuffled).value is Order.PERMUTATION

    def test_mutual_weak_submajorization_implies_permutation(self):
        rng = np.random.default_rng(12)
        seen = 0
        for _ in range(2000):
            n = int(rng.integers(1, 8))
            x = rng.uniform(-2, 2, size=n)
            y = rng.permutation(x) if rng.random() < 0.5 else rng.uniform(-2, 2, size=n)
            both = (
                compare(x, y).is_weakly_submajorized
                and compare(y, x).is_weakly_submajorized
            )
            if both:
                seen += 1
                assert compare(x, y).value is Order.PERMUTATION
        assert seen > 0  # the implication was actually exercised


class TestOppositelyOrdered:
    def test_reversed_vectors(self):
        assert is_oppositely_ordered((1, 2, 3), (3, 2, 1))

    def test_comonotonic_vectors(self):
        assert not is_oppositely_ordered((1, 2, 3), (1, 2, 3))

    def test_ties_place_no_constraint(self):
        # pairwise products (x_i-x_j)(y_i-y_j) are all <= 0
        assert is_oppositely_ordered((1, 1, 2), (5, 0, 0))
        assert is_oppositely_ordered((1, 1, 2), (0, 5, 0))
        assert is_oppositely_ordered((2, 2, 2), (1, 7, 3))

    def test_tie_boundary_violation(self):
        assert not is_oppositely_ordered((1, 1, 2), (0, 5, 1))

    def test_nan_is_a_violation(self):
        # every pair without the NaN is oppositely ordered
        x, y = np.array([1.0, np.nan, 0.0]), np.array([0.0, 1.0, 2.0])
        assert not is_oppositely_ordered(x, y)
        assert _opposite_violations(np.stack([x, x[::-1]]).T, np.stack([y, y[::-1]]).T).all()

    @pytest.mark.parametrize(
        "x, y",
        [
            ([0.0, 1.0], [1.0, np.nan]),  # (0 - 1) * (1 - nan) is NaN, not <= 0
            ([np.nan, 1.0], [1.0, 0.0]),  # NaN in x only
            ([1.0, 0.0], [0.0, np.nan]),  # NaN in y only, where it sorts last
            ([np.nan, 0.0, 1.0], [2.0, 2.0, 2.0]),  # all y tied: no other pair counts
            ([np.nan], [0.0]),  # n=1: the pair (0, 0) gives NaN too
            ([0.0], [np.nan]),
        ],
    )
    def test_any_nan_is_a_violation(self, x, y):
        x, y = np.array(x), np.array(y)
        assert not is_oppositely_ordered(x, y)
        for hint in (None, np.arange(x.size)[::-1]):
            assert _opposite_order(x, y, hint)[1]
        assert _opposite_violations(x[:, None], y[:, None]).tolist() == [True]

    def test_trivial_sizes(self):
        assert is_oppositely_ordered([], [])
        assert is_oppositely_ordered([4.0], [9.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            is_oppositely_ordered((1, 2), (1, 2, 3))

    @given(vectors)
    @settings(max_examples=200, deadline=None)
    def test_matches_all_pairs_definition(self, xs):
        rng = np.random.default_rng(1)
        x = np.asarray(xs, dtype=float)
        y = rng.choice(np.asarray(xs), size=len(xs))  # encourage ties
        # sign form of (x_i-x_j)(y_i-y_j) <= 0: the literal product would
        # underflow to zero for subnormal-scale differences
        want = not any(
            (x[i] < x[j] and y[i] < y[j]) or (x[i] > x[j] and y[i] > y[j])
            for i in range(len(x))
            for j in range(len(x))
        )
        assert is_oppositely_ordered(x, y) == want


# a tied dyadic grid, both zeros, subnormal multiples of 5e-324, whose
# differences underflow in a product, and both infinities
tied_values = st.sampled_from(
    [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, -5e-324, 5e-324, 1e-323, 1.5e-323, -np.inf, np.inf]
)


@st.composite
def batches(draw):
    """A (B, n) pair of batches, B in 1..20 and n in 1..7, on tied values."""
    b = draw(st.integers(1, 20))
    n = draw(st.integers(1, 7))
    cells = st.lists(tied_values, min_size=b * n, max_size=b * n)
    return (np.reshape(draw(cells), (b, n)), np.reshape(draw(cells), (b, n)))


@given(batches(), st.data())
@settings(max_examples=200, deadline=None)
def test_batched_predicate_matches_all_pairs_definition_per_row(batch, data):
    x, y = batch
    violated = _opposite_violations(x.T, y.T)
    assert violated.shape == (x.shape[0],)
    for xr, yr, row_violated in zip(x, y, violated):
        # the sign form of test_matches_all_pairs_definition
        want = any(
            (xr[i] < xr[j] and yr[i] < yr[j]) or (xr[i] > xr[j] and yr[i] > yr[j])
            for i in range(len(xr))
            for j in range(len(xr))
        )
        assert bool(row_violated) == want
        one_order, one_violated = _opposite_order(xr, yr)
        assert one_violated == row_violated
        # a warm start from any row order, even the reverse of the tie rule,
        # gives the cold order and flag
        n = len(xr)
        for hint in (
            np.arange(n)[::-1],
            np.array(data.draw(st.permutations(range(n))), dtype=np.intp),
        ):
            warm_order, warm_violated = _opposite_order(xr, yr, hint)
            assert np.array_equal(warm_order, one_order)
            assert warm_violated == one_violated


def test_broadcast_table_flags_what_the_materialized_pairs_flag():
    # the oracle's last-column prefilter calls the predicate on an (n, 1, w)
    # table against (n, c, 1) partials; the (c, w) flags must equal those of
    # the (n, c*w) block holding every pair, and the sort kernel's, on ties,
    # both zeros, both infinities, and a NaN placed in x, in y or in neither
    rng = np.random.default_rng(26)
    values = np.array([-1.0, -0.0, 0.0, 0.5, 1.0, -np.inf, np.inf])
    for n in range(1, 7):
        for nan_in in (None, "x", "y"):
            c, w = rng.integers(1, 9, size=2)
            x = rng.choice(values, size=(n, 1, w))
            y = rng.choice(values, size=(n, c, 1))
            if nan_in == "x":
                x[rng.integers(n), 0, rng.integers(w)] = np.nan
            elif nan_in == "y":
                y[rng.integers(n), rng.integers(c), 0] = np.nan
            flags = _opposite_violations(x, y)
            assert flags.shape == (c, w)
            pairs = [np.broadcast_to(v, (n, c, w)).reshape(n, c * w) for v in (x, y)]
            assert flags.ravel().tolist() == _opposite_violations(*pairs).tolist()
            want = [[_opposite_order(x[:, 0, b], y[:, a, 0])[1] for b in range(w)] for a in range(c)]
            assert flags.tolist() == want
            if nan_in == "x":
                assert flags[:, np.isnan(x[:, 0]).any(axis=0)].all()
            elif nan_in == "y":
                assert flags[np.isnan(y[:, :, 0]).any(axis=0)].all()


def test_batch_predicate_flags_what_the_sort_kernel_flags():
    # seeded (rows, n) blocks drawn from ties, both zeros, both infinities
    # and NaN, n = 1..8; the batch predicate compares pairs, the 1-D kernel
    # sorts, and every row's flag must agree, NaN rows included
    rng = np.random.default_rng(23)
    values = np.array([-1.0, -0.0, 0.0, 0.5, 1.0, -np.inf, np.inf, np.nan])
    for n in range(1, 9):
        for p_nan in (0.0, 0.05, 0.2):
            weights = np.r_[np.full(7, (1 - p_nan) / 7), p_nan]
            x, y = rng.choice(values, size=(2, 500, n), p=weights)
            flags = _opposite_violations(x.T, y.T)
            want = [_opposite_order(xr, yr)[1] for xr, yr in zip(x, y)]
            assert flags.tolist() == want
            if p_nan:
                has_nan = np.isnan(x).any(axis=1) | np.isnan(y).any(axis=1)
                assert has_nan.any() and flags[has_nan].all()


class TestRearrangementInequalities:
    def test_antithetic_sum_is_majorized_by_any_pairing(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = int(rng.integers(1, 21))
            x, y = rng.normal(size=(2, n)) * rng.uniform(0.1, 5)
            rel = compare(sort_desc(x) + sort_asc(y), x + y)
            assert rel.is_majorized

    def test_supermodular_increasing_combine_weakly_submajorized(self):
        rng = np.random.default_rng(3)
        combines = [
            lambda a, b: a * b,  # product on positives
            lambda a, b: 0.7 * a + 0.3 * b,
            np.minimum,
        ]
        for _ in range(1000):
            n = int(rng.integers(1, 21))
            x, y = rng.uniform(0, 3, size=(2, n))
            h2 = combines[int(rng.integers(len(combines)))]
            antithetic = h2(sort_desc(x), sort_asc(y))
            assert compare(antithetic, h2(x, y)).is_weakly_submajorized

    def test_separable_monotone_combine_strongly_majorized(self):
        rng = np.random.default_rng(4)
        phis = [
            (np.exp, lambda v: v**3),
            (lambda v: 2 * v + 1, lambda v: v),
            (lambda v: v**3, np.exp),
        ]
        for _ in range(1000):
            n = int(rng.integers(1, 21))
            x, y = rng.uniform(-2, 2, size=(2, n))
            p1, p2 = phis[int(rng.integers(len(phis)))]
            antithetic = p1(sort_desc(x)) + p2(sort_asc(y))
            assert compare(antithetic, p1(x) + p2(y)).is_majorized

    def test_increasing_convex_sums_respect_weak_submajorization(self):
        rng = np.random.default_rng(5)
        psis = [
            lambda v: np.maximum(v - 0.3, 0.0),
            np.exp,
            lambda v: np.maximum(v, 0.0) ** 2,
        ]
        for _ in range(1000):
            n = int(rng.integers(2, 21))
            y = rng.uniform(-2, 2, size=n)
            x = y.copy()
            for _ in range(3):  # Robin Hood transfers keep x majorized by y
                i, j = rng.integers(n, size=2)
                lam = rng.uniform()
                xi, xj = x[i], x[j]
                x[i] = lam * xi + (1 - lam) * xj
                x[j] = lam * xj + (1 - lam) * xi
            x -= rng.uniform(0, 0.5, size=n)  # lowering keeps weak submajorization
            rel = compare(x, y)
            assert rel.is_weakly_submajorized
            psi = psis[int(rng.integers(len(psis)))]
            assert np.sum(psi(x)) <= np.sum(psi(y)) + 1e-9
