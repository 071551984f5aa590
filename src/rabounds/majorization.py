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

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

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
    Incomparable is a valid verdict, not an error. Raises ``ValueError``
    naming the argument when x or y holds a NaN or an infinity: their prefix
    sums have no order within a tolerance.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise LengthMismatch(f"need equal-length vectors, got {x.shape} and {y.shape}")
    for name, v in (("x", x), ("y", y)):
        if not np.isfinite(v).all():
            raise ValueError(f"{name} must hold only finite values")
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


def _opposite_order(
    x: np.ndarray, y: np.ndarray, hint: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, bool]:
    """``(order, violated)`` for a vector x against its partner y.

    ``order`` is the stable descending argsort of y: a rearrangement of x
    places its ascending values there; the rearrangement step needs it.
    ``violated`` is False exactly when ``(x_i - x_j) * (y_i - y_j) <= 0``
    for every index pair, that is when no group of distinct y values along
    ``order`` starts with the running max of x before it above the running
    min from it on; ties in y place no constraint on x. Only values are
    compared, so nothing can underflow. A NaN in x or y is a violation, as
    the definition's product is then NaN: NaN sorts last in ``-y``, and the
    running max of x ends in NaN when x holds one.

    ``hint`` is a permutation that nearly sorts y descending, such as the
    ``order`` of a previous, similar y. It only makes the sort faster; the
    result is the same. The sort then runs on the complex key
    ``-y[hint] + 1j * hint``, which numpy orders by real part, then
    imaginary part, with NaN real parts last (see "sort order for complex
    numbers" under ``numpy.sort``): ties in y go by row index inside the
    key, as in the cold sort. The keys are unique, and ``"stable"`` only
    selects timsort, near-linear on nearly sorted input.
    """
    if hint is None:
        order = np.argsort(-y, kind="stable")
    else:
        key = np.empty(y.size, dtype=complex)
        key.real = -y[hint]
        key.imag = hint
        order = hint[np.argsort(key, kind="stable")]
    if y.size == 0:
        return order, False
    ys, xs = y[order], x[order]
    starts = ys[1:] != ys[:-1]
    running_max = np.maximum.accumulate(xs)
    after = np.minimum.accumulate(xs[::-1])[::-1][1:]
    nan = math.isnan(ys[-1]) or math.isnan(running_max[-1])
    return order, bool(nan or (starts & ~(running_max[:-1] <= after)).any())


def _opposite_violations(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The batch predicate: one flag per pair of vectors along axis 0.

    x and y are ``(n, ...)`` arrays whose trailing axes broadcast, such as
    ``(n, rows)`` blocks, or an ``(n, 1, w)`` table against ``(n, c, 1)``
    partials for a ``(c, w)`` table of flags. The vectors ``x[:, k]`` and
    ``y[:, k]`` (k over the broadcast trailing axes) form one pair; its
    flag is True when some index pair has ``x_r > x_s and y_r > y_s``, the
    sign form of ``(x_r - x_s) * (y_r - y_s) > 0`` over ordered pairs, or
    when the pair holds a NaN in x or y. The flags equal those of
    :func:`_opposite_order` on each pair. The test compares all n**2
    ordered index pairs at once, with no sort: for the small n of an
    exhaustive scan that beats sorting every pair. Only values are
    compared, so nothing can underflow.
    """
    bad = ((x[:, None] > x[None]) & (y[:, None] > y[None])).any(axis=(0, 1))
    return bad | np.isnan(x).any(axis=0) | np.isnan(y).any(axis=0)


def is_oppositely_ordered(x, y) -> bool:
    """True iff (x_i - x_j) * (y_i - y_j) <= 0 for every index pair.

    A NaN in x or y makes it False. An O(n log n) check through
    ``_opposite_order``, the predicate the rearrangement step uses too; the
    oracle's restricted scan checks its batches with the all-pairs
    ``_opposite_violations``, which flags the same vectors.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise LengthMismatch(f"need equal-length vectors, got {x.shape} and {y.shape}")
    return not _opposite_order(x, y)[1]
