"""Vector rearrangements, opposite ordering, and the majorization orders.

compare() classifies a pair of equal-length vectors by the strongest order
that holds within tolerance:

* permutation        -- same multiset of values;
* majorized          -- descending prefix sums of x dominated by those of y,
                        with equal totals (x is flatter, y more concentrated);
* weakly submajorized   -- prefix dominance without total equality;
* weakly supermajorized -- ascending prefix sums of x dominate those of y.

These orders are what make a column rearrangement a descent step: re-sorting
one column oppositely to its partner vector pushes the row-aggregate vector
down in the weak submajorization order, and sums of increasing convex
functions are monotone along that order. The test suite uses the verdicts as
oracles for the rearrangement loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import LengthMismatch

__all__ = [
    "Order",
    "OrderRelation",
    "sort_desc",
    "sort_asc",
    "compare",
    "is_oppositely_ordered",
]

TOL = 1e-9


class Order(Enum):
    PERMUTATION = "permutation"
    MAJORIZED = "majorized"
    WEAKLY_SUBMAJORIZED = "weakly_submajorized"
    WEAKLY_SUPERMAJORIZED = "weakly_supermajorized"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True, eq=False)
class OrderRelation:
    """Verdict of compare(x, y) plus the prefix-sum witnesses behind it."""

    value: Order
    desc_prefix_x: np.ndarray
    desc_prefix_y: np.ndarray
    asc_prefix_x: np.ndarray
    asc_prefix_y: np.ndarray

    # The orders form a small lattice: permutation implies majorized, which
    # implies both weak orders. The predicates below encode the implications.
    @property
    def is_permutation(self) -> bool:
        return self.value is Order.PERMUTATION

    @property
    def is_majorized(self) -> bool:
        return self.value in (Order.PERMUTATION, Order.MAJORIZED)

    @property
    def is_weakly_submajorized(self) -> bool:
        return self.value in (
            Order.PERMUTATION,
            Order.MAJORIZED,
            Order.WEAKLY_SUBMAJORIZED,
        )

    @property
    def is_weakly_supermajorized(self) -> bool:
        return self.value in (
            Order.PERMUTATION,
            Order.MAJORIZED,
            Order.WEAKLY_SUPERMAJORIZED,
        )


def sort_desc(x) -> np.ndarray:
    """Decreasing rearrangement of x."""
    return np.sort(np.asarray(x, dtype=float))[::-1]


def sort_asc(x) -> np.ndarray:
    """Increasing rearrangement of x."""
    return np.sort(np.asarray(x, dtype=float))


def compare(x, y) -> OrderRelation:
    """Strongest majorization-type order holding between x and y.

    Every prefix-sum comparison uses the absolute tolerance ``TOL``; the
    majorized verdict additionally requires total sums equal within ``TOL``.
    Incomparable is a valid verdict, not an error.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise LengthMismatch(f"need equal-length vectors, got {x.shape} and {y.shape}")
    xd, yd = sort_desc(x), sort_desc(y)
    dpx, dpy = np.cumsum(xd), np.cumsum(yd)
    apx, apy = np.cumsum(xd[::-1]), np.cumsum(yd[::-1])
    rel = lambda v: OrderRelation(v, dpx, dpy, apx, apy)  # noqa: E731

    if np.all(np.abs(xd - yd) <= TOL):
        return rel(Order.PERMUTATION)
    sub = bool(np.all(dpx <= dpy + TOL))
    sup = bool(np.all(apx >= apy - TOL))
    totals_equal = x.size == 0 or abs(dpx[-1] - dpy[-1]) <= TOL
    if sub and totals_equal:
        return rel(Order.MAJORIZED)
    if sub:
        return rel(Order.WEAKLY_SUBMAJORIZED)
    if sup:
        return rel(Order.WEAKLY_SUPERMAJORIZED)
    return rel(Order.INCOMPARABLE)


def _opposite_order(x: np.ndarray, y: np.ndarray) -> Optional[np.ndarray]:
    """None when x is oppositely ordered to its partner y; otherwise the
    stable descending order of y, along which a rearrangement of x should
    place its ascending values.

    Along that order x must never decrease across groups of distinct y
    values; ties in y place no constraint on x. Consecutive group dominance
    implies the all-pairs condition.
    """
    order = np.argsort(-y, kind="stable")
    ys = y[order]
    starts = np.flatnonzero(np.concatenate(([True], ys[1:] != ys[:-1])))
    if starts.size >= 2:
        xs = x[order]
        gmax = np.maximum.reduceat(xs, starts)
        gmin = np.minimum.reduceat(xs, starts)
        if not np.all(gmax[:-1] <= gmin[1:]):
            return order
    return None


def is_oppositely_ordered(x, y) -> bool:
    """True iff (x_i - x_j) * (y_i - y_j) <= 0 for every index pair.

    Equivalent O(n log n) check: along the stable descending order of the
    partner y, the values of x must never decrease across groups of distinct
    y values; ties in y place no constraint on x.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise LengthMismatch(f"need equal-length vectors, got {x.shape} and {y.shape}")
    return _opposite_order(x, y) is None
