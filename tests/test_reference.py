"""The bracket against the analytic Wang-Wang infimum (``reference.py``)."""

import numpy as np
import pytest
from scipy.integrate import quad

from rabounds import CostFunction, estimate_inf, exponential, pareto, power, stop_loss, sum_agg
from reference import wang_wang_inf

FAMILIES = {"exponential": exponential, "pareto": pareto}
TRANSFORMS = {"stop_loss": stop_loss, "power": power}
G = {
    "stop_loss": lambda k: lambda y: max(y - k, 0.0),
    "power": lambda p: lambda y: y**p,
}

# id -> (family, params, d, transform, its parameter)
CASES = {
    "exp_d2_sl2": ("exponential", (1.0,), 2, "stop_loss", 2.0),
    "exp_d2_pow2": ("exponential", (1.0,), 2, "power", 2.0),
    "par3_d2_sl3": ("pareto", (3.0,), 2, "stop_loss", 3.0),
    "exp_d3_sl3": ("exponential", (1.0,), 3, "stop_loss", 3.0),
    "exp_d3_pow2": ("exponential", (1.0,), 3, "power", 2.0),
    "par3_d3_sl4.5": ("pareto", (3.0,), 3, "stop_loss", 4.5),
    "par2.5_d3_pow1.5": ("pareto", (2.5,), 3, "power", 1.5),
    "exp_d10_sl10": ("exponential", (1.0,), 10, "stop_loss", 10.0),
    "exp_d10_pow2": ("exponential", (1.0,), 10, "power", 2.0),
    "par3_d10_sl15": ("pareto", (3.0,), 10, "stop_loss", 15.0),
}


def reference(family, params, d, form, arg):
    return wang_wang_inf(family, params, d, G[form](arg))


@pytest.mark.parametrize(
    "case, want",
    [("exp_d3_sl3", 0.16955260), ("exp_d3_pow2", 9.35368548), ("par3_d3_sl4.5", 0.24992442),
     ("par2.5_d3_pow1.5", 11.65604529)],
)
def test_d3_values(case, want):
    # the last one is 11.6560452848 to 30-digit mpmath quadrature
    assert reference(*CASES[case]) == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize(
    "family, params", [("exponential", (1.0,)), ("pareto", (3.0,))], ids=["exp1", "par3"]
)
def test_d2_is_the_countermonotonic_value(family, params):
    q = {"exponential": lambda t: -np.log1p(-t), "pareto": lambda t: (1 - t) ** (-1 / 3)}[family]
    g = G["stop_loss"](2.5)
    want = quad(
        lambda t: g(q(t) + q(1 - t)), 0, 1, points=[0.5], epsabs=0, epsrel=1e-10, limit=200
    )[0]
    assert reference(family, params, 2, "stop_loss", 2.5) == pytest.approx(want, rel=1e-9)


def test_three_uniforms_are_completely_mixable():
    assert reference("uniform", (0.0, 1.0), 3, "power", 2.0) == 1.5**2


@pytest.mark.parametrize("n", [1_000, 10_000])
@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_bracket_contains_the_reference(case, n):
    family, params, d, form, arg = case
    specs = [FAMILIES[family](*params)] * d
    result = estimate_inf(specs, CostFunction(sum_agg(d), TRANSFORMS[form](arg)), n=n)
    ref = reference(*case)
    bracket = (result.lower_estimate, result.upper_estimate)
    assert bracket[0] <= ref <= bracket[1], f"n={n}, d={d}: bracket {bracket} misses {ref}"
