"""Univariate marginals represented through their quantile functions.

Downstream code consumes a marginal only through sorted grids of quantiles:
an n-point discretization placing mass 1/n on each value. Two grids are
supported, a lower one at probabilities k/n for k = 0..n-1 and an upper one at
k/n for k = 1..n; for componentwise increasing costs the two grids bracket the
quantity being estimated. An unbounded tail makes one of the grids infinite,
so such marginals must be truncated first: truncation remaps quantile
evaluation onto a probability window [p_lo, p_hi].

All operations are pure functions of immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidRange, NonFiniteQuantile

__all__ = [
    "MarginalSpec",
    "DiscreteMarginal",
    "uniform",
    "exponential",
    "pareto",
    "normal",
    "empirical",
    "quantile",
    "truncate",
    "discretize",
    "lower_bounded",
    "upper_bounded",
]

# Tail mass removed from each unbounded side by automatic truncation.
TAIL_MASS = 1e-5


@dataclass(frozen=True)
class MarginalSpec:
    """A univariate distribution evaluated only through its quantile function.

    Build instances with the factory functions (:func:`uniform`,
    :func:`exponential`, :func:`pareto`, :func:`normal`, :func:`empirical`);
    the raw constructor performs no validation. ``truncation``, when present,
    remaps quantile evaluation onto the probability window ``[p_lo, p_hi]``.
    """

    family: str
    params: Tuple[float, ...] = ()
    values: Optional[Tuple[float, ...]] = None
    truncation: Optional[Tuple[float, float]] = None

    def __repr__(self) -> str:  # compact, config-like
        if self.family == "empirical":
            body = f"empirical(m={len(self.values)})"
        else:
            body = f"{self.family}{self.params}"
        if self.truncation is not None:
            body += f"|truncate{self.truncation}"
        return f"MarginalSpec({body})"


def _check_finite(family: str, *params: float) -> None:
    if not np.isfinite(params).all():
        raise ValueError(f"{family} parameters must be finite, got {params}")


def uniform(a: float, b: float) -> MarginalSpec:
    """Uniform distribution on [a, b] with finite a < b."""
    _check_finite("uniform", a, b)
    if not a < b:
        raise ValueError(f"uniform requires a < b, got a={a}, b={b}")
    return MarginalSpec("uniform", (float(a), float(b)))


def exponential(rate: float) -> MarginalSpec:
    """Exponential distribution with a finite positive rate (mean 1/rate)."""
    _check_finite("exponential", rate)
    if not rate > 0:
        raise ValueError(f"exponential rate must be positive, got {rate}")
    return MarginalSpec("exponential", (float(rate),))


def pareto(alpha: float) -> MarginalSpec:
    """Pareto with finite tail index alpha > 0: F(x) = 1 - x^(-alpha) on [1, inf)."""
    _check_finite("pareto", alpha)
    if not alpha > 0:
        raise ValueError(f"pareto alpha must be positive, got {alpha}")
    return MarginalSpec("pareto", (float(alpha),))


def normal(mu: float, sigma: float) -> MarginalSpec:
    """Normal distribution with finite mean mu and standard deviation sigma > 0."""
    _check_finite("normal", mu, sigma)
    if not sigma > 0:
        raise ValueError(f"normal sigma must be positive, got {sigma}")
    return MarginalSpec("normal", (float(mu), float(sigma)))


def empirical(values: Sequence[float]) -> MarginalSpec:
    """Empirical distribution placing equal mass on each given value.

    Values are sorted internally; they must be nonempty and finite.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("empirical requires a nonempty 1-D value vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("empirical values must all be finite")
    return MarginalSpec("empirical", values=tuple(np.sort(v).tolist()))


@dataclass(frozen=True, eq=False)
class DiscreteMarginal:
    """Values of equal probability 1/n, sorted ascending and finite.

    Only ``values`` is stored; ``n`` is its length. The vector may be empty.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValueError(f"expected a 1-D value vector, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("discrete marginal values must all be finite")
        if v.size > 1 and np.any(np.diff(v) < 0):
            raise ValueError("discrete marginal values must be sorted ascending")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.size


def _base_quantile(spec: MarginalSpec, p: np.ndarray) -> np.ndarray:
    """Generalized inverse CDF of the untruncated family, vectorized over p."""
    fam = spec.family
    if fam == "uniform":
        a, b = spec.params
        return a + p * (b - a)
    if fam == "exponential":
        (rate,) = spec.params
        with np.errstate(divide="ignore"):
            return -np.log1p(-p) / rate
    if fam == "pareto":
        (alpha,) = spec.params
        with np.errstate(divide="ignore"):
            return np.power(1.0 - p, -1.0 / alpha)
    if fam == "normal":
        # imported here: scipy.special is most of the import time of rabounds
        from scipy.special import ndtri

        mu, sigma = spec.params
        return mu + sigma * ndtri(p)
    if fam == "empirical":
        vals = np.asarray(spec.values, dtype=float)
        m = vals.size
        # F^{-1}(p) is the ceil(p*m)-th order statistic, with F^{-1}(0) the
        # smallest value. searchsorted against the exact grid k/m avoids the
        # round-off of computing ceil(p*m) directly.
        grid = np.arange(1, m + 1) / m
        idx = np.searchsorted(grid, p, side="left")
        return vals[np.minimum(idx, m - 1)]
    raise ValueError(f"unknown family {fam!r}")


def _quantile_array(spec: MarginalSpec, p: np.ndarray) -> np.ndarray:
    """Quantiles at probabilities p, after truncation remapping. May be +-inf."""
    p = np.asarray(p, dtype=float)
    if spec.truncation is not None:
        lo, hi = spec.truncation
        p = lo + p * (hi - lo)
    return _base_quantile(spec, p)


def quantile(spec: MarginalSpec, p: float) -> float:
    """Generalized inverse F^{-1}(p) of the (possibly truncated) marginal.

    Raises :class:`NonFiniteQuantile` when the requested quantile is infinite,
    which signals that the marginal must be truncated before use.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    q = float(_quantile_array(spec, np.asarray(p, dtype=float)))
    if not np.isfinite(q):
        raise NonFiniteQuantile(
            f"quantile at p={p} is infinite for {spec!r}; truncate the tail first"
        )
    return q


def truncate(spec: MarginalSpec, p_lo: float, p_hi: float) -> MarginalSpec:
    """Restrict quantile evaluation to the probability window [p_lo, p_hi].

    The returned spec evaluates quantiles as p -> F^{-1}(p_lo + p*(p_hi - p_lo)).
    Composes with any existing truncation; the identity window (0, 1) on an
    untruncated spec returns it unchanged.
    """
    if not (0.0 <= p_lo < p_hi <= 1.0):
        raise InvalidRange(
            f"truncation needs 0 <= p_lo < p_hi <= 1, got ({p_lo}, {p_hi})"
        )
    if spec.truncation is None:
        window = (float(p_lo), float(p_hi))
    else:
        a, b = spec.truncation
        window = (a + float(p_lo) * (b - a), a + float(p_hi) * (b - a))
    if window == (0.0, 1.0):
        return replace(spec, truncation=None)
    return replace(spec, truncation=window)


def discretize(spec: MarginalSpec, n: int, kind: str) -> DiscreteMarginal:
    """Quantile grid of the marginal at probabilities k/n.

    kind="lower" uses k = 0..n-1 and kind="upper" uses k = 1..n, so the two
    grids satisfy lower[k] <= upper[k] componentwise. Raises
    :class:`NonFiniteQuantile` if any grid point is infinite (typically the
    upper grid of an untruncated unbounded marginal).
    """
    if not (np.isfinite(n) and n >= 1 and n == int(n)):
        raise ValueError(f"n must be a positive integer, got {n}")
    n = int(n)
    if kind == "lower":
        grid = np.arange(0, n) / n
    elif kind == "upper":
        grid = np.arange(1, n + 1) / n
    else:
        raise ValueError(f"kind must be 'lower' or 'upper', got {kind!r}")
    q = _quantile_array(spec, grid)
    if not np.all(np.isfinite(q)):
        bad = grid[~np.isfinite(q)][0]
        raise NonFiniteQuantile(
            f"{kind} discretization of {spec!r} hits an infinite quantile at p={bad}"
        )
    return DiscreteMarginal(q)


def lower_bounded(spec: MarginalSpec) -> bool:
    """True when the (possibly truncated) marginal has a finite lower endpoint."""
    return bool(np.isfinite(_quantile_array(spec, 0.0)))


def upper_bounded(spec: MarginalSpec) -> bool:
    """True when the (possibly truncated) marginal has a finite upper endpoint."""
    return bool(np.isfinite(_quantile_array(spec, 1.0)))


def truncate_unbounded_sides(spec: MarginalSpec) -> MarginalSpec:
    """Remove ``TAIL_MASS`` from whichever sides are unbounded.

    Bounded sides keep their full range; already-truncated specs are returned
    unchanged only if both sides are finite.
    """
    lo = 0.0 if lower_bounded(spec) else TAIL_MASS
    hi = 1.0 if upper_bounded(spec) else 1.0 - TAIL_MASS
    if lo == 0.0 and hi == 1.0:
        return spec
    return truncate(spec, lo, hi)
