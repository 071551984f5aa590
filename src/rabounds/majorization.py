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


def _opposite_order(
    x: np.ndarray, y: np.ndarray, hint: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """``(order, violated)`` for x against its partner y, along the last axis.

    ``order`` is the stable descending argsort of y: a rearrangement of x
    places its ascending values there. ``violated`` is False exactly when
    ``(x_i - x_j) * (y_i - y_j) <= 0`` for every index pair, that is when no
    group of distinct y values along ``order`` starts with the running max
    of x before it above the running min from it on; ties in y place no
    constraint on x. Only values are compared, so nothing can underflow, and
    a NaN is a violation. A ``(chunk, n)`` batch gets one flag per row.

    ``hint``, for 1-D input only, is a permutation that nearly sorts y
    descending, such as the ``order`` of a previous, similar y. It only
    makes the sort faster (see :func:`_desc_order`); the result is the same.
    """
    if y.ndim == 1:
        order, starts = _desc_order(y, hint)
        xs = x[order]
    else:
        order = np.argsort(-y, axis=-1, kind="stable")
        ys = np.take_along_axis(y, order, axis=-1)
        starts = ys[..., 1:] != ys[..., :-1]
        xs = np.take_along_axis(x, order, axis=-1)
    before = np.maximum.accumulate(xs, axis=-1)[..., :-1]
    after = np.minimum.accumulate(xs[..., ::-1], axis=-1)[..., ::-1][..., 1:]
    return order, (starts & ~(before <= after)).any(axis=-1)


def _desc_order(
    y: np.ndarray, hint: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """``np.argsort(-y, kind="stable")`` for a 1-D y, and the group starts
    along it: ``starts[k]`` is True where the value at position k + 1 of
    that order differs from the one at k, so False marks a tie.

    Given ``hint``, the sort runs on ``y[hint]``: numpy's stable sort is a
    timsort, near-linear on nearly sorted input. The tie groups it leaves in
    ``hint``'s order are then put back in ascending index, so the order is
    exactly the cold one; the starts do not depend on the order within a
    group. A NaN in y, which no tie group covers, takes the cold sort.
    """
    if hint is None:
        order = np.argsort(-y, kind="stable")
        ys = y[order]
        return order, ys[1:] != ys[:-1]
    order = hint[np.argsort(-y[hint], kind="stable")]
    ys = y[order]
    if np.isnan(ys[-1]):  # NaNs sort last
        return _desc_order(y, None)
    starts = ys[1:] != ys[:-1]
    if not starts.all():
        # sort (tie group, row) as one integer below n**2; it is nearly sorted
        # already, and "stable" selects timsort
        n = y.size
        group = np.concatenate(([0], np.cumsum(starts)))
        order = np.sort(group * n + order, kind="stable") % n
    return order, starts


def is_oppositely_ordered(x, y) -> bool:
    """True iff (x_i - x_j) * (y_i - y_j) <= 0 for every index pair.

    An O(n log n) check through ``_opposite_order``, the predicate the
    rearrangement step and the oracle's restricted scan use too.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise LengthMismatch(f"need equal-length vectors, got {x.shape} and {y.shape}")
    return not _opposite_order(x, y)[1]
