"""Exhaustive ground truth for tiny instances.

Enumerates every within-column permutation of an arrangement matrix (the
first column is held fixed: the objective is invariant under simultaneous row
permutation, which cuts the work by n!). Provides the global minimum and
maximum of the objective, the minimum restricted to arrangements where every
column is oppositely ordered to its partial aggregate, and the comonotonic
estimate of the supremum.

Each scan first checks its ``budget``: :func:`within_budget` decides whether
the (n!)^(d-1) arrangements fit without building that count. A scan that
does not fit raises :class:`~rabounds.errors.BudgetExceeded`, which carries
the exact count, before it starts; the batch CLI calls :func:`within_budget`
itself to skip such a case.

Every aggregation kind takes one vectorized path that evaluates
arrangements in chunks through the costfn row functions. The restricted
minimum runs the rearrangement step's own opposite-order predicate,
``majorization._opposite_order``, on whole chunks.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence, Tuple

import numpy as np

from .costfn import CostFunction, eval_g_rows, eval_h_rows, eval_partial_rows
from .errors import (
    BudgetExceeded,
    InternalInconsistency,
    LengthMismatch,
    ValidationFailed,
)
from .majorization import _opposite_order
from .marginals import DiscreteMarginal
from .ra_core import ArrangementMatrix, objective

__all__ = [
    "brute_force_min",
    "brute_force_max",
    "brute_force_min_over_opposite_set",
    "comonotonic_value",
    "arrangement_count",
    "within_budget",
]

DEFAULT_BUDGET = 1_000_000

# a chunk holds _CHUNK_CELLS // n**2 arrangements, which bounds each of its
# (chunk, n) blocks and their temporaries to _CHUNK_CELLS // n cells
_CHUNK_CELLS = 1 << 21


def arrangement_count(n: int, d: int) -> int:
    """Number of arrangements enumerated: (n!)^(d-1)."""
    return math.factorial(n) ** (d - 1)


def within_budget(n: int, d: int, budget: int) -> bool:
    """``arrangement_count(n, d) <= budget``, without building the count.

    Integer arithmetic only, so a count equal to the budget fits. The
    running product stops as soon as it passes ``budget``: under the default
    budget it stops at 10!, for any n >= 10 and d >= 2.
    """
    total = 1
    for _ in range(d - 1):
        for k in range(2, n + 1):
            total *= k
            if total > budget:
                return False
    return total <= budget


def _check_budget(X: ArrangementMatrix, budget: int) -> int:
    if not within_budget(X.n, X.d, budget):
        # exact, so the error can say how far over the budget the scan is
        raise BudgetExceeded(arrangement_count(X.n, X.d), budget)
    return arrangement_count(X.n, X.d)


def _perm_table(n: int) -> np.ndarray:
    """All permutations of range(n) in lexicographic order, one per row."""
    return np.array(list(itertools.permutations(range(n))), dtype=np.intp)


def _scan(
    X: ArrangementMatrix,
    cost: CostFunction,
    budget: int,
    mode: str,
) -> Tuple[float, ArrangementMatrix]:
    """Chunked scan over every arrangement, in lexicographic order.

    mode is "min", "max", or "min_restricted"; returns the value and the
    first arrangement attaining it. Each chunk is a list of d ``(chunk, n)``
    blocks evaluated by the costfn row functions, so every aggregation kind
    takes this one path; "min_restricted" keeps the rows in which
    ``_opposite_order`` passes every column against its partial. A chunk
    holds ``max(1, _CHUNK_CELLS // n**2)`` arrangements; the result does not
    depend on it.
    """
    total = _check_budget(X, budget)
    n, d = X.n, X.d
    agg = cost.agg
    perms = _perm_table(n)
    shape = (perms.shape[0],) * (d - 1)
    tables = [X.columns[i][perms] for i in range(1, d)]
    base = X.columns[0]
    chunk_size = max(1, _CHUNK_CELLS // (n * n))

    sign = -1.0 if mode == "max" else 1.0
    best = np.inf
    best_flat = -1
    for lo in range(0, total, chunk_size):
        hi = min(lo + chunk_size, total)
        ids = np.unravel_index(np.arange(lo, hi), shape)
        vals = [np.broadcast_to(base, (hi - lo, n))]
        vals.extend(t[idc] for t, idc in zip(tables, ids))
        obj = eval_g_rows(cost.transform, eval_h_rows(agg, vals)).sum(axis=1)
        if not np.all(np.isfinite(obj)):
            raise ValidationFailed("cost evaluates to a non-finite objective")
        if mode == "min_restricted":
            feasible = np.ones(hi - lo, dtype=bool)
            for i in range(d):
                # the partial is aggregated from the other columns, as in the
                # loop; deriving it as H - w_i*vals_i cancels catastrophically
                # on tied values and can flag exact ties as violations
                part = eval_partial_rows(agg, i, vals[:i] + vals[i + 1 :])
                feasible &= ~_opposite_order(vals[i], part)[1]
            obj = np.where(feasible, obj, np.inf)
        scored = sign * obj
        k = int(np.argmin(scored))
        if scored[k] < best:
            best = float(scored[k])
            best_flat = lo + k
    if mode == "min_restricted" and not np.isfinite(best):
        raise InternalInconsistency(
            "no oppositely-ordered arrangement found; the fixed-point set is never empty"
        )
    ids = np.unravel_index(best_flat, shape)
    cols = [base]
    cols.extend(t[idc] for t, idc in zip(tables, ids))
    return sign * best, ArrangementMatrix(tuple(cols), X.provenance)


def brute_force_min(
    X: ArrangementMatrix,
    cost: CostFunction,
    budget: int = DEFAULT_BUDGET,
) -> Tuple[float, ArrangementMatrix]:
    """Exact global minimum of the objective over all arrangements."""
    return _scan(X, cost, budget, "min")


def brute_force_max(
    X: ArrangementMatrix,
    cost: CostFunction,
    budget: int = DEFAULT_BUDGET,
) -> Tuple[float, ArrangementMatrix]:
    """Exact global maximum of the objective over all arrangements."""
    return _scan(X, cost, budget, "max")


def brute_force_min_over_opposite_set(
    X: ArrangementMatrix,
    cost: CostFunction,
    budget: int = DEFAULT_BUDGET,
) -> float:
    """Minimum objective over arrangements in the oppositely-ordered set."""
    val, _ = _scan(X, cost, budget, "min_restricted")
    return val


def comonotonic_value(
    marginals: Sequence[DiscreteMarginal], cost: CostFunction
) -> float:
    """Objective of the all-ascending arrangement, divided by n.

    For supermodular costs this arrangement attains the maximum over all
    arrangements, so the value estimates the supremum of the expectation.
    """
    margs = tuple(marginals)
    if len({m.n for m in margs}) > 1:
        raise LengthMismatch(
            f"marginals must share one n, got {sorted({m.n for m in margs})}"
        )
    X = ArrangementMatrix.comonotonic(margs)
    return objective(X, cost) / X.n
