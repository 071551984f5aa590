"""Analytic infimum of E[g(X_1+...+X_d)] over all couplings of d identical marginals.

Wang & Wang (2011), "The complete mixability and convex minimization problems
with monotone marginal densities": for a marginal F with a non-increasing
density and a convex g,

    inf E[g(X_1+...+X_d)] = d * int_0^c g(H) + (1 - d*c) * g(D(c)),

where H(x) = F^-1(1-x) + (d-1) F^-1((d-1)x), D(c) = d/(1-dc) * int_{(d-1)c}^{1-c} F^-1
and c is the smallest point of [0, 1/d] with D(c) >= H(c). Test-only: it
shares no code with the package, so it checks the package from outside.
"""

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import xlogy


def _forms(family, params):
    """F^-1(t) and its integral over [0, t], each in closed form."""
    if family == "exponential":
        (rate,) = params
        return lambda t: -np.log1p(-t) / rate, lambda t: (t + xlogy(1 - t, 1 - t)) / rate
    if family == "pareto":
        (a,) = params
        return (
            lambda t: np.power(1 - t, -1 / a),
            lambda t: a / (a - 1) * (1 - np.power(1 - t, 1 - 1 / a)),
        )
    if family == "uniform":
        lo, hi = params
        return lambda t: lo + t * (hi - lo), lambda t: lo * t + (hi - lo) * t * t / 2
    raise ValueError(f"no closed form for {family!r}")


def wang_wang_inf(family, params, d, g):
    """The infimum for d marginals ``family(*params)`` and a scalar convex ``g``."""
    q, integral = _forms(family, params)

    def H(c):
        return q(1 - c) + (d - 1) * q((d - 1) * c)

    def D(c):
        return d * (integral(1 - c) - integral((d - 1) * c)) / (1 - d * c)

    def gap(c):
        return D(c) - H(c)

    def head(c):  # d * int_0^c g(H), to about 1e-10 relative
        return d * quad(lambda x: g(H(x)), 0, c, epsabs=0, epsrel=1e-10, limit=200)[0]

    # D - H tends to 0 at 1/d, where rounding decides its sign, so the scan
    # stops short of it; it is geometric near 0, where 10 x Exp(1) changes sign
    # below 5e-5
    grid = np.concatenate([np.geomspace(1e-12, 1e-2, 400), np.linspace(1e-2, 1 - 1e-4, 2000)]) / d
    with np.errstate(divide="ignore"):
        if gap(0.0) >= 0:  # the sum can be constant: c = 0 and the head vanishes
            return g(D(0.0))
    above = np.flatnonzero(gap(grid) >= 0)
    if above.size == 0:  # no sign change, as at d = 2: c = 1/d and the tail vanishes
        return head(1 / d)
    c = grid[0] if above[0] == 0 else brentq(gap, grid[above[0] - 1], grid[above[0]], xtol=1e-15)
    return head(c) + (1 - d * c) * g(D(c))
