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

Every aggregation kind takes one vectorized path, :func:`_scan`, which
evaluates arrangements in blocks (:func:`_blocks`) through the costfn row
functions. The restricted minimum searches each block as
:func:`_first_feasible` describes, with the result of filtering every
arrangement.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence, Tuple

import numpy as np

from .costfn import (
    AggregationSpec,
    CostFunction,
    eval_g_rows,
    eval_h_rows,
    eval_partial_rows,
)
from .errors import (
    BudgetExceeded,
    InternalInconsistency,
    LengthMismatch,
    ValidationFailed,
)
from .majorization import _opposite_violations
from .marginals import DiscreteMarginal
from .ra_core import ArrangementMatrix, _check_arity, objective

__all__ = [
    "brute_force_min",
    "brute_force_max",
    "brute_force_min_over_opposite_set",
    "comonotonic_value",
    "arrangement_count",
    "within_budget",
]

DEFAULT_BUDGET = 1_000_000

# a block holds at most _CHUNK_CELLS // n**2 arrangements, which bounds each
# of its d (n, c, w) arrays and their temporaries to _CHUNK_CELLS // n cells,
# and the predicate's (n, n, c, w) pair tables to _CHUNK_CELLS; its d inputs
# are broadcast views, so only the prefixes take memory
_CHUNK_CELLS = 1 << 21

# rows in the restricted scan's first predicate batch; each later batch doubles
_FIRST_BATCH = 64


def _check_size(n: int, d: int) -> None:
    if d < 1 or n < 0:
        raise ValueError(f"need d >= 1 columns and n >= 0 rows, got d={d}, n={n}")


def arrangement_count(n: int, d: int) -> int:
    """Number of arrangements enumerated: (n!)^(d-1).

    Raises ValueError for d < 1 or n < 0, sizes no matrix has.
    """
    _check_size(n, d)
    return math.factorial(n) ** (d - 1)


def within_budget(n: int, d: int, budget: int) -> bool:
    """``arrangement_count(n, d) <= budget``, without building the count.

    Integer arithmetic only, so a count equal to the budget fits. The
    running product stops as soon as it passes ``budget``: under the default
    budget it stops at 10!, for any n >= 10 and d >= 2. Raises ValueError
    as :func:`arrangement_count` does.
    """
    _check_size(n, d)
    total = 1
    for _ in range(d - 1):
        for k in range(2, n + 1):
            total *= k
            if total > budget:
                return False
    return total <= budget


def _check_budget(X: ArrangementMatrix, budget: int) -> None:
    if not within_budget(X.n, X.d, budget):
        # exact, so the error can say how far over the budget the scan is
        raise BudgetExceeded(arrangement_count(X.n, X.d), budget)


def _perm_table(n: int) -> np.ndarray:
    """All permutations of range(n) in lexicographic order, one per row."""
    return np.array(list(itertools.permutations(range(n))), dtype=np.intp)


def _first_feasible(
    agg: AggregationSpec, vals: list, obj: np.ndarray, best: float
) -> int:
    """Flat block index of the least objective below ``best`` whose
    arrangement is oppositely ordered, the lowest index among equal
    objectives; -1 if none. This is the restricted minimum's search.

    ``vals`` are the block's d ``(n, c, w)`` views and ``obj`` its ``(c,
    w)`` objectives. The last column's partial does not depend on the last
    column, so it is aggregated once per prefix, from the ``(n, c, 1)``
    slices, and one call of ``_opposite_violations`` against the last
    table's ``(n, 1, w)`` slice flags every row whose last column violates;
    those rows are dropped. The rows left with ``obj < best`` are sorted
    once, stably, into ``(objective, index)`` order and checked on the
    other d - 1 columns in batches of 64, 128, ... rows, each gathered as
    ``(n, rows)`` blocks whose whole rows ``_opposite_violations``
    compares. The first feasible row ends the search, so the predicate sees
    at most about twice the rows before it, even where tied partials leave
    every row to the batches. That row is the one ``argmin(where(feasible,
    obj, inf))`` picks, so the result is that of filtering every
    arrangement, whatever the block size.
    """
    d = len(vals)
    part = eval_partial_rows(agg, d - 1, [v[:, :, :1] for v in vals[:-1]])
    obj = np.where(_opposite_violations(vals[-1][:, :1], part), np.inf, obj).ravel()
    cand = np.flatnonzero(obj < best)
    cand = cand[np.argsort(obj[cand], kind="stable")]
    width = vals[0].shape[2]
    lo, size = 0, _FIRST_BATCH
    while lo < cand.size:
        rows = cand[lo : lo + size]
        prefix, last = np.divmod(rows, width)
        sub = [v[:, prefix, last] for v in vals]
        feasible = np.ones(rows.size, dtype=bool)
        for i in range(d - 1):
            # the partial is aggregated from the other columns, as in the
            # loop; deriving it as H - w_i*vals_i cancels catastrophically
            # on tied values and can flag exact ties as violations
            part = eval_partial_rows(agg, i, sub[:i] + sub[i + 1 :])
            feasible &= ~_opposite_violations(sub[i], part)
        hits = np.flatnonzero(feasible)
        if hits.size:
            return int(rows[hits[0]])
        lo += size
        size *= 2
    return -1


def _blocks(X: ArrangementMatrix, perms: np.ndarray):
    """``(lo, views)`` for every block of the scan, in lexicographic order.

    An arrangement is a prefix, one row of ``perms`` for each column from
    the second to the second-to-last, followed by one row for the last
    column. A block broadcasts the fixed first column ``(n, 1, 1)``, the
    leading columns gathered for c prefixes ``(n, c, 1)`` and w rows of the
    last column's table ``(n, 1, w)`` to d read-only ``(n, c, w)`` views,
    row index first, so only the prefixes are gathered. Its arrangement
    ``(a, b)`` has flat index ``lo + a * w + b``. A block holds at most
    ``max(1, _CHUNK_CELLS // n**2)`` arrangements: whole prefixes when the
    last table fits, else one prefix and a slice of the last table.
    """
    n, d = X.n, X.d
    count = perms.shape[0]
    last = X.columns[d - 1][perms.T][:, None]
    leading = [X.columns[i][perms.T] for i in range(1, d - 1)]
    base = X.columns[0][:, None, None]
    chunk = max(1, _CHUNK_CELLS // (n * n))
    per_block = max(1, chunk // count)
    step = min(chunk, count)
    prefixes = count ** (d - 2)
    for p in range(0, prefixes, per_block):
        ids = np.arange(p, min(p + per_block, prefixes))
        ids = np.unravel_index(ids, (count,) * (d - 2)) if leading else ()
        heads = [t[:, idc][:, :, None] for t, idc in zip(leading, ids)]
        for j in range(0, count, step):
            yield p * count + j, np.broadcast_arrays(base, *heads, last[:, :, j : j + step])


def _scan(
    X: ArrangementMatrix,
    cost: CostFunction,
    budget: int,
    mode: str,
) -> Tuple[float, ArrangementMatrix]:
    """Blocked scan over every arrangement, in lexicographic order.

    mode is "min", "max", or "min_restricted"; returns the value and the
    first arrangement attaining it. Each block (:func:`_blocks`) is d
    broadcast ``(n, c, w)`` views evaluated by the costfn row functions, so
    every aggregation kind takes this one path; its objectives add the n
    rows' ``(c, w)`` slabs in row order. Up to n = 7 that is the order of
    ``np.sum`` in :func:`~rabounds.ra_core.objective`; from n = 8 on,
    ``np.sum`` adds pairwise, so the two can differ in the last bits.
    "min_restricted" takes each block's candidate from
    :func:`_first_feasible`, "min" and "max" from the argmin.
    """
    _check_arity(X, cost.d)
    _check_budget(X, budget)
    agg = cost.agg
    perms = _perm_table(X.n)
    sign = -1.0 if mode == "max" else 1.0
    best = np.inf
    best_flat = -1
    for lo, vals in _blocks(X, perms):
        obj = eval_g_rows(cost.transform, eval_h_rows(agg, vals)).sum(axis=0)
        if not np.all(np.isfinite(obj)):
            raise ValidationFailed("cost evaluates to a non-finite objective")
        scored = sign * obj.ravel()
        if mode == "min_restricted":
            k = _first_feasible(agg, vals, obj, best)
        else:
            k = int(np.argmin(scored))
        if k >= 0 and scored[k] < best:
            best, best_flat = float(scored[k]), lo + k
    if mode == "min_restricted" and not np.isfinite(best):
        raise InternalInconsistency(
            "no oppositely-ordered arrangement found; the fixed-point set is never empty"
        )
    ids = np.unravel_index(best_flat, (perms.shape[0],) * (X.d - 1))
    cols = [X.columns[0]]
    cols.extend(X.columns[i][perms[idc]] for i, idc in enumerate(ids, start=1))
    return sign * best, ArrangementMatrix(tuple(cols), X.provenance)


def brute_force_min(
    X: ArrangementMatrix,
    cost: CostFunction,
    budget: int = DEFAULT_BUDGET,
) -> Tuple[float, ArrangementMatrix]:
    """Exact global minimum of the objective over all arrangements.

    From n = 8 on the value can differ in the last bits from
    :func:`~rabounds.ra_core.objective` of the returned arrangement, which
    sums its rows in another order (:func:`_scan`).
    """
    return _scan(X, cost, budget, "min")


def brute_force_max(
    X: ArrangementMatrix,
    cost: CostFunction,
    budget: int = DEFAULT_BUDGET,
) -> Tuple[float, ArrangementMatrix]:
    """Exact global maximum of the objective over all arrangements.

    From n = 8 on the value can differ in the last bits from
    :func:`~rabounds.ra_core.objective` of the returned arrangement, which
    sums its rows in another order (:func:`_scan`).
    """
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
