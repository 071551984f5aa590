"""Tests for quantile evaluation, truncation, and the two quantile grids."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rabounds import (
    DiscreteMarginal,
    InvalidRange,
    MarginalSpec,
    NonFiniteQuantile,
    discretize,
    empirical,
    exponential,
    normal,
    pareto,
    quantile,
    truncate,
    uniform,
)
from rabounds.marginals import lower_bounded, truncate_unbounded_sides, upper_bounded


class TestQuantile:
    def test_uniform_is_identity_on_unit_interval(self):
        assert quantile(uniform(0, 1), 0.25) == 0.25

    def test_exponential_median(self):
        # closed form: -ln(1-p)/rate
        assert quantile(exponential(1), 0.5) == pytest.approx(-math.log(0.5), rel=1e-12)

    def test_pareto_closed_form(self):
        # F(x) = 1 - x^-alpha on [1, inf) gives F^{-1}(p) = (1-p)^(-1/alpha)
        assert quantile(pareto(2), 0.75) == pytest.approx(2.0, rel=1e-12)

    def test_unbounded_normal_tail_raises(self):
        with pytest.raises(NonFiniteQuantile):
            quantile(normal(0, 0.5), 1.0)
        with pytest.raises(NonFiniteQuantile):
            quantile(normal(0, 0.5), 0.0)

    def test_probability_domain_enforced(self):
        with pytest.raises(ValueError):
            quantile(uniform(0, 1), -0.1)
        with pytest.raises(ValueError):
            quantile(uniform(0, 1), 1.1)

    def test_lower_bounded_families_at_zero(self):
        assert quantile(exponential(3), 0.0) == 0.0
        assert quantile(pareto(2), 0.0) == 1.0
        assert quantile(uniform(-2, 5), 0.0) == -2.0

    def test_unknown_family_raises(self):
        with pytest.raises(ValueError) as err:
            quantile(MarginalSpec("gamma", (1.0,)), 0.5)
        assert str(err.value) == "unknown family 'gamma'"

    def test_normal_quantile_against_mpmath(self):
        # independent oracle: mu + sigma*sqrt(2)*erfinv(2p-1) in high precision
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        spec = normal(1.5, 0.7)
        for p in [1e-7, 1e-4, 0.2, 0.5, 0.9, 1 - 1e-4, 1 - 1e-7]:
            want = 1.5 + 0.7 * math.sqrt(2) * float(mpmath.erfinv(2 * p - 1))
            assert quantile(spec, p) == pytest.approx(want, abs=1e-9)

    def test_import_leaves_scipy_special_out(self):
        # only the normal quantile needs scipy.special, and it is most of
        # the import time, so a fresh interpreter must not load it
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import sys, rabounds\n"
            "assert 'scipy.special' not in sys.modules\n"
            "rabounds.quantile(rabounds.normal(0, 1), 0.5)\n"
            "assert 'scipy.special' in sys.modules\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize(
        "spec",
        [
            uniform(-1, 3),
            exponential(0.5),
            pareto(1.5),
            normal(0.2, 2.0),
            empirical([3.0, -1.0, 2.0, 2.0, 7.5]),
        ],
        ids=["uniform", "exponential", "pareto", "normal", "empirical"],
    )
    def test_monotone_in_p(self, spec):
        rng = np.random.default_rng(11)
        eps = 1e-6 if spec.family == "normal" else 0.0
        for _ in range(1000):
            p1, p2 = sorted(rng.uniform(eps, 1 - eps, size=2))
            assert quantile(spec, p1) <= quantile(spec, p2)


class TestEmpirical:
    def test_order_statistic_semantics(self):
        spec = empirical([10.0, 20.0, 30.0, 40.0])
        # ceil(p*m)-th order statistic; F^{-1}(0) is the smallest value
        assert quantile(spec, 0.0) == 10.0
        assert quantile(spec, 0.25) == 10.0
        assert quantile(spec, 0.26) == 20.0
        assert quantile(spec, 0.5) == 20.0
        assert quantile(spec, 1.0) == 40.0

    def test_values_are_sorted_on_construction(self):
        spec = empirical([5.0, 1.0, 3.0])
        assert spec.values == (1.0, 3.0, 5.0)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            empirical([])
        with pytest.raises(ValueError):
            empirical([1.0, math.inf])

    def test_roundtrip_through_discretize(self):
        rng = np.random.default_rng(3)
        v = np.sort(rng.normal(size=17))
        spec = empirical(v)
        upper = discretize(spec, 17, "upper")
        assert np.array_equal(upper.values, v)  # upper grid is the order statistics
        lower = discretize(spec, 17, "lower")
        assert np.array_equal(lower.values[1:], v[:-1])  # shifted by one grid point
        assert lower.values[0] == v[0]


SIDE_WINDOWS = (None, (0.0, 0.9), (0.1, 1.0), (0.1, 0.9), (0.0, 1 - 1e-5), (1e-5, 1.0))
T, F = True, False
# family -> (spec, (lower_bounded, upper_bounded) under each of SIDE_WINDOWS)
BOUNDED_SIDES = {
    "uniform": (uniform(0, 1), ((T, T), (T, T), (T, T), (T, T), (T, T), (T, T))),
    "exponential": (exponential(1), ((T, F), (T, T), (T, F), (T, T), (T, T), (T, F))),
    "pareto1.5": (pareto(1.5), ((T, F), (T, T), (T, F), (T, T), (T, T), (T, F))),
    "pareto0.5": (pareto(0.5), ((T, F), (T, T), (T, F), (T, T), (T, T), (T, F))),
    "normal": (normal(0, 1), ((F, F), (F, T), (T, F), (T, T), (F, T), (T, F))),
    "empirical": (empirical([3, 1, 2]), ((T, T), (T, T), (T, T), (T, T), (T, T), (T, T))),
}


class TestTruncate:
    def test_identity_window_returns_equal_spec(self):
        spec = uniform(0, 1)
        assert truncate(spec, 0, 1) == spec

    def test_truncated_exponential_upper_endpoint(self):
        spec = truncate(exponential(1), 0, 0.99999)
        assert quantile(spec, 1.0) == pytest.approx(-math.log1p(-0.99999), rel=1e-12)

    def test_empty_window_rejected(self):
        with pytest.raises(InvalidRange):
            truncate(uniform(0, 1), 0.5, 0.5)
        with pytest.raises(InvalidRange):
            truncate(uniform(0, 1), 0.7, 0.2)

    def test_windows_compose(self):
        # truncating twice equals one window with composed endpoints
        spec = truncate(truncate(exponential(2), 0.2, 0.8), 0.5, 1.0)
        direct = truncate(exponential(2), 0.2 + 0.5 * 0.6, 0.8)
        for p in np.linspace(0, 1, 13):
            assert quantile(spec, p) == pytest.approx(quantile(direct, p), rel=1e-12)

    def test_bounded_side_detection(self):
        assert lower_bounded(exponential(1)) and not upper_bounded(exponential(1))
        assert not lower_bounded(normal(0, 1))
        assert upper_bounded(truncate(normal(0, 1), 1e-5, 1 - 1e-5))
        auto = truncate_unbounded_sides(exponential(1))
        assert auto.truncation == (0.0, 1 - 1e-5)
        assert truncate_unbounded_sides(uniform(0, 1)) is uniform(0, 1) or (
            truncate_unbounded_sides(uniform(0, 1)).truncation is None
        )

    @pytest.mark.parametrize("w", range(len(SIDE_WINDOWS)), ids=map(str, SIDE_WINDOWS))
    @pytest.mark.parametrize("family", BOUNDED_SIDES)
    def test_bounded_sides_per_family_and_window(self, family, w):
        spec, expected = BOUNDED_SIDES[family]
        if SIDE_WINDOWS[w] is not None:
            spec = truncate(spec, *SIDE_WINDOWS[w])
        assert (lower_bounded(spec), upper_bounded(spec)) == expected[w]


class TestDiscretize:
    def test_uniform_grids(self):
        lower = discretize(uniform(0, 1), 4, "lower")
        upper = discretize(uniform(0, 1), 4, "upper")
        assert np.array_equal(lower.values, [0.0, 0.25, 0.5, 0.75])
        assert np.array_equal(upper.values, [0.25, 0.5, 0.75, 1.0])

    def test_exponential_lower_grid(self):
        got = discretize(exponential(1), 2, "lower")
        assert got.values[0] == 0.0
        assert got.values[1] == pytest.approx(-math.log(0.5), rel=1e-12)

    def test_exponential_upper_grid_needs_truncation(self):
        with pytest.raises(NonFiniteQuantile):
            discretize(exponential(1), 2, "upper")
        ok = discretize(truncate(exponential(1), 0, 1 - 1e-5), 2, "upper")
        assert np.all(np.isfinite(ok.values))

    @pytest.mark.parametrize(
        "spec",
        [
            uniform(-1, 2),
            truncate(exponential(2), 0, 1 - 1e-5),
            truncate(normal(0, 0.5), 1e-5, 1 - 1e-5),
            truncate(pareto(2), 0, 1 - 1e-5),
            empirical(np.linspace(-3, 3, 11)),
        ],
        ids=["uniform", "exp", "normal", "pareto", "empirical"],
    )
    @pytest.mark.parametrize("n", [1, 2, 7, 100])
    def test_lower_below_upper_componentwise(self, spec, n):
        lo = discretize(spec, n, "lower").values
        hi = discretize(spec, n, "upper").values
        assert np.all(lo <= hi)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            discretize(uniform(0, 1), 0, "lower")
        with pytest.raises(ValueError):
            discretize(uniform(0, 1), 4, "middle")

    @pytest.mark.parametrize("n", [2.5, 0.5, math.nan, math.inf, 0, -1])
    @pytest.mark.parametrize("kind", ["lower", "upper"])
    def test_n_must_be_a_positive_integer(self, n, kind):
        # a fractional n would put grid points outside [0, 1] probability
        with pytest.raises(ValueError, match="positive integer"):
            discretize(uniform(0, 1), n, kind)

    @pytest.mark.parametrize("kind", ["lower", "upper"])
    def test_integral_float_n_gives_the_int_grid(self, kind):
        spec = truncate(exponential(1), 0, 1 - 1e-5)
        assert np.array_equal(
            discretize(spec, 4.0, kind).values, discretize(spec, 4, kind).values
        )


class TestDiscreteMarginal:
    def test_rejects_unsorted_and_nonfinite(self):
        with pytest.raises(ValueError):
            DiscreteMarginal(np.array([1.0, 0.5, 2.0]))
        with pytest.raises(ValueError):
            DiscreteMarginal(np.array([1.0, np.inf]))

    def test_rejects_a_2d_vector(self):
        with pytest.raises(ValueError) as err:
            DiscreteMarginal(np.zeros((2, 2)))
        assert str(err.value) == "expected a 1-D value vector, got shape (2, 2)"


class TestFactories:
    def test_repr_is_config_like(self):
        assert repr(empirical([3.0, 1.0, 2.0])) == "MarginalSpec(empirical(m=3))"
        assert repr(truncate(pareto(2), 0.0, 0.99)) == (
            "MarginalSpec(pareto(2.0,)|truncate(0.0, 0.99))"
        )

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            uniform(1, 1)
        with pytest.raises(ValueError):
            exponential(0)
        with pytest.raises(ValueError):
            pareto(-1)
        with pytest.raises(ValueError):
            normal(0, 0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: uniform(-math.inf, 0),
            lambda: uniform(0, math.nan),
            lambda: exponential(math.inf),
            lambda: pareto(math.inf),
            lambda: normal(math.nan, 1),
            lambda: normal(0, math.inf),
        ],
        ids=[
            "uniform_-inf",
            "uniform_nan",
            "exponential_inf",
            "pareto_inf",
            "normal_mu_nan",
            "normal_sigma_inf",
        ],
    )
    def test_non_finite_parameters_rejected(self, build):
        # exponential(inf) and pareto(inf) would be point masses at 0 and 1
        with pytest.raises(ValueError, match="must be finite"):
            build()
