"""Tests for aggregation decompositions, transforms, and sampled validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabounds import (
    ArityMismatch,
    CostFunction,
    ValidationFailed,
    custom_agg,
    custom_transform,
    identity,
    power,
    stop_loss,
    sum_agg,
    validate_composition,
    validate_cost,
    validate_decomposition,
    validate_supermodular,
    weighted_sum,
)
from rabounds import costfn
from rabounds.costfn import eval_g_rows, eval_h2_rows, eval_h_rows, eval_partial_rows

W523 = weighted_sum([0.5, 0.2, 0.3])


def columns(*rows):
    """The columns of a matrix given row by row, as float arrays."""
    return list(np.asarray(rows, dtype=float).T)


def product_agg():
    """h(x) = prod(x), supermodular and increasing on positives."""
    return custom_agg(
        3,
        h=lambda a, b, c: a * b * c,
        h2=lambda x, s: x * s,
        hd1=[
            lambda b, c: b * c,
            lambda a, c: a * c,
            lambda a, b: a * b,
        ],
        monotone_direction="increasing",
    )


class TestEvaluation:
    def test_weighted_sum_of_ones(self):
        assert eval_h_rows(W523, columns((1, 1, 1))) == pytest.approx([1.0], abs=1e-12)

    def test_weighted_sum_generic_row(self):
        # 0.5*0.1 + 0.2*0.2 + 0.3*0.3
        assert eval_h_rows(W523, columns((0.1, 0.2, 0.3))) == pytest.approx([0.18], abs=1e-12)

    def test_plain_sum(self):
        assert eval_h_rows(sum_agg(3), columns((1, 2, 3))).tolist() == [6]

    def test_partial_drops_one_weight(self):
        # drop the first coordinate: 0.2*0.2 + 0.3*0.3
        assert eval_partial_rows(W523, 0, columns((0.2, 0.3))) == pytest.approx(
            [0.13], abs=1e-12
        )
        assert eval_partial_rows(sum_agg(3), 1, columns((1, 3))).tolist() == [4]
        assert eval_partial_rows(W523, 2, columns((0, 0))).tolist() == [0]

    def test_combine_matches_full_aggregate(self):
        partial = eval_partial_rows(W523, 0, columns((0.2, 0.3)))
        assert eval_h2_rows(W523, 0, np.array([0.1]), partial) == pytest.approx(
            eval_h_rows(W523, columns((0.1, 0.2, 0.3))), abs=1e-12
        )
        assert eval_h2_rows(sum_agg(2), 0, np.array([5.0]), np.array([0.0])).tolist() == [5]
        assert eval_h2_rows(W523, 1, np.array([1.0]), np.array([1.0])) == pytest.approx(
            [1.2], abs=1e-12
        )

    def test_transforms(self):
        stop = eval_g_rows(stop_loss(0.1), np.array([0.3, 0.05]))
        assert stop[0] == pytest.approx(0.2, abs=1e-15)
        assert stop[1] == 0.0
        assert eval_g_rows(identity(), np.array([-4.2])).tolist() == [-4.2]
        # power applies to max(x, 0)
        assert eval_g_rows(power(2), np.array([3.0, -3.0])).tolist() == [9.0, 0.0]

    def test_arity_enforced(self):
        with pytest.raises(ArityMismatch):
            eval_h_rows(W523, columns((1, 2)))
        with pytest.raises(ArityMismatch):
            eval_partial_rows(W523, 0, columns((1, 2, 3)))
        with pytest.raises(IndexError):
            eval_h2_rows(W523, 3, np.array([1.0]), np.array([1.0]))

    def test_row_helpers_match_scalar_paths(self):
        # whole columns give what each row gives on its own
        rng = np.random.default_rng(5)
        cols = [rng.normal(size=50) for _ in range(3)]
        rows_h = eval_h_rows(W523, cols)
        for k in range(50):
            assert rows_h[k] == pytest.approx(
                eval_h_rows(W523, [c[k : k + 1] for c in cols])[0], rel=1e-12
            )
        part = eval_partial_rows(W523, 1, [cols[0], cols[2]])
        for k in range(50):
            assert part[k] == pytest.approx(
                eval_partial_rows(W523, 1, [cols[0][k : k + 1], cols[2][k : k + 1]])[0],
                rel=1e-12,
            )
        g = eval_g_rows(stop_loss(0.2), rows_h)
        assert np.all(g >= 0)


def left_to_right(weights, row):
    """Reference linear aggregate of one row: ((w0*x0 + w1*x1) + w2*x2) + ..."""
    total = weights[0] * row[0]
    for w, x in zip(weights[1:], row[1:]):
        total += w * x
    return total


@st.composite
def linear_rows(draw):
    """A sum or weighted sum of arity 2..6 (weights may be exactly 1.0) and rows for it."""
    d = draw(st.integers(2, 6))
    weight = st.one_of(st.just(1.0), st.floats(0.1, 10.0))
    weights = draw(st.one_of(st.none(), st.lists(weight, min_size=d, max_size=d)))
    agg = sum_agg(d) if weights is None else weighted_sum(weights)
    value = st.floats(-1e6, 1e6, allow_nan=False)
    rows = draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=1, max_size=6))
    return agg, weights or [1.0] * d, rows


@given(linear_rows())
@settings(max_examples=200, deadline=None)
def test_linear_kernel_matches_left_to_right_reference(case):
    # bit-for-bit: the kernel keeps the order of operations of a plain loop
    agg, weights, rows = case
    cols = columns(*rows)
    assert eval_h_rows(agg, cols).tolist() == [left_to_right(weights, r) for r in rows]
    for i in range(agg.d):
        rest = weights[:i] + weights[i + 1 :]
        want = [left_to_right(rest, r[:i] + r[i + 1 :]) for r in rows]
        assert eval_partial_rows(agg, i, cols[:i] + cols[i + 1 :]).tolist() == want


class TestFactories:
    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            weighted_sum([0.5, 0.0, 0.5])
        with pytest.raises(ValueError):
            weighted_sum([0.5, -0.1])

    def test_sum_is_the_unit_weighted_sum(self):
        assert sum_agg(3) == weighted_sum([1.0, 1.0, 1.0])

    def test_arity_floor(self):
        with pytest.raises(ValueError):
            sum_agg(1)
        with pytest.raises(ValueError):
            weighted_sum([1.0])

    @pytest.mark.parametrize(
        "d, h2, monotone_direction, message",
        [
            (1, lambda x, s: x + s, "increasing", "aggregation arity must be >= 2, got 1"),
            (2, [lambda x, s: x + s], "increasing", "must cover all d coordinates"),
            (2, lambda x, s: x + s, ["increasing"], "must cover all d coordinates"),
            (2, lambda x, s: x + s, "up", "entries must be increasing/decreasing"),
        ],
        ids=["arity_1", "one_combine_for_two", "one_direction_for_two", "unknown_direction"],
    )
    def test_custom_agg_arguments_checked(self, d, h2, monotone_direction, message):
        with pytest.raises(ValueError, match=message):
            custom_agg(
                d,
                h=lambda *xs: sum(xs),
                h2=h2,
                hd1=lambda *xs: sum(xs),
                monotone_direction=monotone_direction,
            )

    def test_power_exponent_floor(self):
        with pytest.raises(ValueError):
            power(0.5)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: weighted_sum([0.5, math.nan]),
            lambda: weighted_sum([1.0, math.inf]),
            lambda: power(math.inf),
            lambda: stop_loss(math.nan),
            lambda: stop_loss(-math.inf),
        ],
        ids=["weight_nan", "weight_inf", "power_inf", "stop_loss_nan", "stop_loss_-inf"],
    )
    def test_non_finite_parameters_rejected(self, build):
        with pytest.raises(ValueError, match="finite"):
            build()


class TestSupermodular:
    def test_product_is_supermodular(self):
        rng = np.random.default_rng(1)
        pairs = [
            (tuple(rng.uniform(0, 1, 2)), tuple(rng.uniform(0, 1, 2)))
            for _ in range(100)
        ]
        ok, violations = validate_supermodular(lambda a, b: a * b, pairs)
        assert ok and not violations

    def test_additive_is_modular(self):
        rng = np.random.default_rng(2)
        pairs = [
            (tuple(rng.normal(size=2)), tuple(rng.normal(size=2))) for _ in range(100)
        ]
        ok, _ = validate_supermodular(lambda a, b: a + b, pairs)
        assert ok

    def test_negated_product_fails_with_witness(self):
        rng = np.random.default_rng(3)
        pairs = [
            (tuple(rng.uniform(0.1, 1, 2)), tuple(rng.uniform(0.1, 1, 2)))
            for _ in range(100)
        ]
        ok, violations = validate_supermodular(lambda a, b: -a * b, pairs)
        assert not ok
        assert violations  # offending pair reported
        x, y, excess = violations[0]
        assert excess > 0

    def test_violations_hold_plain_floats(self):
        pts = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        ok, violations = validate_supermodular(np.maximum, pts)
        assert violations == [((1.0, 0.0), (0.0, 1.0), 1.0)]
        x, y, excess = violations[0]
        assert all(type(v) is float for v in (*x, *y, excess))

    @pytest.mark.parametrize(
        "h2",
        [lambda a, b: a * b, lambda a, b: -a * b, lambda a, b: np.maximum(a, b)],
        ids=["product", "negated_product", "max"],
    )
    def test_matches_per_pair_reference(self, h2):
        rng = np.random.default_rng(8)
        pts = rng.integers(0, 4, size=(300, 2, 2)) / 4.0  # many tied coordinates
        pairs = [(tuple(x), tuple(y)) for x, y in pts]
        want = []
        for x, y in pairs:
            lo = (min(x[0], y[0]), min(x[1], y[1]))
            hi = (max(x[0], y[0]), max(x[1], y[1]))
            excess = (h2(*x) + h2(*y)) - (h2(*lo) + h2(*hi))
            if excess > 1e-9:
                want.append((x, y, excess))
        ok, violations = validate_supermodular(h2, pairs)
        assert (ok, violations) == (not want, want)
        assert validate_supermodular(h2, pts) == (ok, violations)


class TestDecomposition:
    @pytest.mark.parametrize("agg", [W523, sum_agg(4)], ids=["weighted", "sum4"])
    def test_builtin_holds_tightly(self, agg):
        rng = np.random.default_rng(4)
        sample = rng.normal(size=(100, agg.d))
        assert validate_decomposition(agg, sample, tol=1e-12)

    def test_broken_partial_detected(self):
        broken = custom_agg(
            3,
            h=lambda a, b, c: a + b + c,
            h2=lambda x, s: x + s,
            hd1=[
                lambda b, c: b,  # drops a term
                lambda a, c: a + c,
                lambda a, b: a + b,
            ],
            monotone_direction="increasing",
        )
        rng = np.random.default_rng(5)
        assert not validate_decomposition(broken, rng.normal(size=(50, 3)))


class TestComposition:
    def test_stop_loss_of_modular_combine(self):
        rng = np.random.default_rng(6)
        pairs = [
            (tuple(rng.uniform(0, 2, 2)), tuple(rng.uniform(0, 2, 2)))
            for _ in range(200)
        ]
        assert validate_composition(CostFunction(sum_agg(2), stop_loss(0.1)), pairs)
        assert validate_composition(CostFunction(W523, identity()), pairs)

    def test_decreasing_transform_breaks_supermodularity(self):
        rng = np.random.default_rng(7)
        pairs = [
            (tuple(rng.uniform(0.1, 1, 2)), tuple(rng.uniform(0.1, 1, 2)))
            for _ in range(200)
        ]
        cost = CostFunction(product_agg(), custom_transform(lambda y: -np.asarray(y)))
        assert not validate_composition(cost, pairs)


class TestValidateCost:
    def test_builtin_passes_through(self):
        cost = validate_cost(CostFunction(W523, stop_loss(0.3)))
        assert cost.is_validated

    def test_product_on_positives_validates(self):
        cost = validate_cost(
            CostFunction(product_agg(), stop_loss(0.2)), low=0.1, high=1.0
        )
        assert cost.is_validated

    def test_unvalidated_custom_is_flagged(self):
        assert not CostFunction(product_agg(), identity()).is_validated

    def test_broken_custom_rejected(self):
        broken = custom_agg(
            2,
            h=lambda a, b: a + b,
            h2=lambda x, s: x - s,  # inconsistent combine
            hd1=lambda v: v,
            monotone_direction="increasing",
        )
        with pytest.raises(ValidationFailed):
            validate_cost(CostFunction(broken, identity()))

    def test_misdeclared_monotonicity_rejected(self):
        decreasing = custom_agg(
            2,
            h=lambda a, b: a + b,
            h2=lambda x, s: x + s,
            hd1=lambda v: v,
            monotone_direction="decreasing",
        )
        with pytest.raises(ValidationFailed):
            validate_cost(CostFunction(decreasing, identity()))

    @pytest.mark.parametrize(
        "agg, transform, message",
        [
            (
                # max is submodular: max(1, 0) + max(0, 1) > max(0, 0) + max(1, 1)
                custom_agg(
                    2, h=np.maximum, h2=np.maximum, hd1=lambda v: v,
                    monotone_direction="increasing",
                ),
                identity(),
                "combine for coordinate 0 is not supermodular on samples: "
                "first violation ((",
            ),
            (
                custom_agg(
                    2, h=lambda a, b: a + b, h2=lambda x, s: x + s, hd1=lambda v: v,
                    monotone_direction="increasing",
                ),
                custom_transform(lambda y: np.minimum(y, 1.0)),
                "transform o combine loses supermodularity on samples",
            ),
        ],
        ids=["max_combine", "capped_transform"],
    )
    def test_supermodularity_verdicts(self, agg, transform, message):
        with pytest.raises(ValidationFailed) as err:
            validate_cost(CostFunction(agg, transform))
        assert str(err.value).startswith(message)
        assert "np.float64" not in str(err.value)


    def test_scalar_only_callable_rejected(self):
        # math.log accepts one number, not the whole sample at once
        logs = custom_agg(
            2,
            h=lambda a, b: math.log(a) + math.log(b),
            h2=lambda x, s: math.log(x) + s,
            hd1=lambda v: math.log(v),
            monotone_direction="increasing",
        )
        with pytest.raises(ValidationFailed) as err:
            validate_cost(CostFunction(logs, identity()), low=0.5, high=2.0)
        assert isinstance(err.value.__cause__, TypeError)

    def test_constant_returning_partial_rejected(self):
        # h(a, b) = a: the partial over b is the constant 0, which holds row
        # by row but must still come back as one value per row
        first = custom_agg(
            2,
            h=lambda a, b: a + 0.0 * b,
            h2=[lambda x, s: x + s, lambda x, s: s],
            hd1=[lambda b: 0.0, lambda a: a],
            monotone_direction="increasing",
        )
        with pytest.raises(ValidationFailed) as err:
            validate_cost(CostFunction(first, identity()))
        assert isinstance(err.value.__cause__, ArityMismatch)

    def test_reducing_transform_rejected(self):
        # g must return one value per row, like the aggregation's callables
        total = custom_transform(lambda y: float(np.sum(y)))
        with pytest.raises(ValidationFailed) as err:
            validate_cost(CostFunction(product_agg(), total), low=0.8, high=1.25)
        assert isinstance(err.value.__cause__, ArityMismatch)

    def test_non_finite_values_rejected(self):
        # every comparison against NaN is False, so no sampled check trips
        holes = custom_agg(
            2,
            h=lambda a, b: np.where(a < 0.3, np.nan, a + b),
            h2=lambda x, s: np.where(x < 0.3, np.nan, x + s),
            hd1=lambda b: b,
            monotone_direction="increasing",
        )
        with pytest.raises(ValidationFailed, match="non-finite"):
            validate_cost(CostFunction(holes, identity()))

    def test_combine_runs_once_per_coordinate_and_check(self, monkeypatch):
        # demo 05's product: d calls for the decomposition, then 4 per
        # coordinate for the combine and for g o combine
        calls = []
        rows = costfn.eval_h2_rows
        monkeypatch.setattr(
            costfn, "eval_h2_rows", lambda *args: calls.append(1) or rows(*args)
        )
        cost = validate_cost(
            CostFunction(product_agg(), stop_loss(1.0)), low=0.8, high=1.25
        )
        assert cost.is_validated
        assert len(calls) <= 9 * cost.d

    @pytest.mark.parametrize(
        "h, g",
        [
            # finite on the box [0, 1], NaN where the monotonicity bump leaves it
            (lambda a, b: np.where(a > 1, np.nan, a + b), identity()),
            # NaN where g o combine is evaluated on sums above 1.5
            (lambda a, b: a + b, custom_transform(lambda y: np.where(y > 1.5, np.nan, y))),
        ],
        ids=["bumped_h", "g_of_combine"],
    )
    def test_non_finite_values_off_the_sample_rejected(self, h, g):
        agg = custom_agg(
            2, h=h, h2=lambda x, s: x + s, hd1=lambda v: v, monotone_direction="increasing"
        )
        with pytest.raises(ValidationFailed, match="non-finite"):
            validate_cost(CostFunction(agg, g))

    def test_h_runs_once_plus_once_per_coordinate(self, monkeypatch):
        # once on the sample, shared by the decomposition and the monotonicity
        # baseline, then once per bumped coordinate
        calls = []
        rows = costfn.eval_h_rows
        monkeypatch.setattr(
            costfn, "eval_h_rows", lambda *args: calls.append(1) or rows(*args)
        )
        cost = validate_cost(
            CostFunction(product_agg(), stop_loss(1.0)), low=0.8, high=1.25
        )
        assert cost.is_validated
        assert len(calls) == cost.d + 1


class TestAlgebraicProperties:
    def test_weighted_sum_linearity(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            x, y = rng.normal(size=(2, 3))
            a, b = rng.normal(size=2)
            lhs = eval_h_rows(W523, columns(a * x + b * y))
            rhs = a * eval_h_rows(W523, columns(x)) + b * eval_h_rows(W523, columns(y))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_stop_loss_convexity(self):
        rng = np.random.default_rng(9)
        g = stop_loss(0.4)
        draws = [(rng.uniform(-3, 3, size=2), rng.uniform()) for _ in range(1000)]
        x, y = np.array([xy for xy, _ in draws]).T
        lam = np.array([t for _, t in draws])
        mixed = eval_g_rows(g, lam * x + (1 - lam) * y)
        bound = lam * eval_g_rows(g, x) + (1 - lam) * eval_g_rows(g, y) + 1e-12
        assert np.all(mixed <= bound)

    def test_decomposition_identity_large_sample(self):
        rng = np.random.default_rng(10)
        assert validate_decomposition(W523, rng.normal(size=(10_000, 3)), tol=1e-12)
