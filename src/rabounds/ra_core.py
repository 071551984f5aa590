"""The rearrangement loop.

An arrangement matrix holds one discretized marginal per column; one row is
one joint realization of equal probability. Re-sorting the entries within a
column changes the dependence structure while preserving every marginal. The
loop sweeps the columns cyclically, re-sorting each one oppositely to the
partial aggregate of the remaining columns, until a full sweep changes
nothing; at that point every column is oppositely ordered to its partner
vector and the matrix is a fixed point. Each individual re-sort pushes the
row-aggregate vector down in the weak submajorization order, so the objective
(sum of transformed row aggregates) never increases. ``_step`` is that re-sort:
:func:`run_ra` sweeps with it and :func:`rearrange_column` applies it once.
Ties in a partial aggregate go by row index, so the step is deterministic.
:func:`run_ra` warm-starts each step from the row order of that column's
previous step, which makes the sort near-linear once the matrix settles; the
order it finds is exactly the cold one, so results do not depend on it.

Matrices are immutable: operations return new matrices sharing the untouched
column arrays. Restarts rerun the loop from deterministically shuffled
starting arrangements and keep the best result.

For sum and weighted-sum aggregations the row mean of h is the same for every
arrangement, so by Jensen ``n * g(mean h)`` bounds every objective from below
for the built-in convex transforms (:func:`jensen_bound`). A run that reaches
this bound is optimal: given the bound, a run stops after the first sweep
whose objective certifies, and restarts stop once the best run is certified.
:class:`RaResult` says why each run stopped and whether it is certified.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .costfn import (
    AggregationSpec,
    CostFunction,
    eval_g_rows,
    eval_h_rows,
    eval_partial_rows,
)
from .errors import ArityMismatch, ValidationFailed
from .majorization import _opposite_order, is_oppositely_ordered
from .marginals import DiscreteMarginal

__all__ = [
    "ArrangementMatrix",
    "RaResult",
    "objective",
    "partial_aggregate_column",
    "rearrange_column",
    "is_in_opposite_set",
    "run_ra",
    "shuffle_columns",
    "run_ra_restarts",
    "jensen_bound",
    "CERTIFY_RTOL",
]

DEFAULT_MAX_SWEEPS = 100

# A run certifies when its objective is within CERTIFY_RTOL * (1 + |bound|)
# of the Jensen bound. Float noise between the objective and the bound stayed
# below 1.4e-14 relative up to d=100, while the smallest real gap seen was
# 2.1e-8 (acceptance criterion 7's lower grid), so 1e-12 separates the two.
CERTIFY_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class ArrangementMatrix:
    """n x d matrix (n, d >= 1) as a tuple of columns, plus the marginals
    they came from.

    Invariant: column i is a permutation (multiset-equal) of provenance
    marginal i. Column arrays are treated as immutable everywhere.
    """

    columns: Tuple[np.ndarray, ...]
    provenance: Tuple[DiscreteMarginal, ...]

    def __post_init__(self):
        cols = tuple(np.asarray(c, dtype=float) for c in self.columns)
        if len(cols) == 0:
            raise ValueError("matrix needs at least one column")
        n = cols[0].size
        if any(c.ndim != 1 or c.size != n for c in cols):
            raise ValueError("all columns must be 1-D with equal length")
        if n == 0:
            raise ValueError("matrix needs at least one row")
        if len(self.provenance) != len(cols):
            raise ValueError("one provenance marginal per column required")
        if any(m.n != n for m in self.provenance):
            raise ValueError("provenance length must match the column length")
        object.__setattr__(self, "columns", cols)

    @property
    def n(self) -> int:
        return self.columns[0].size

    @property
    def d(self) -> int:
        return len(self.columns)

    @classmethod
    def comonotonic(cls, marginals: Sequence[DiscreteMarginal]) -> "ArrangementMatrix":
        """Every column sorted ascending: row k pairs the k-th quantiles."""
        margs = tuple(marginals)
        return cls(tuple(m.values for m in margs), margs)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[float]]) -> "ArrangementMatrix":
        """Wrap raw value columns; provenance becomes their sorted multisets."""
        cols = tuple(np.asarray(c, dtype=float) for c in columns)
        prov = tuple(DiscreteMarginal(np.sort(c)) for c in cols)
        return cls(cols, prov)

    def columns_match_provenance(self) -> bool:
        return all(
            np.array_equal(np.sort(c), m.values)
            for c, m in zip(self.columns, self.provenance)
        )

    def row(self, k: int) -> np.ndarray:
        return np.array([c[k] for c in self.columns])


@dataclass(frozen=True)
class RaResult:
    """Outcome of a rearrangement run.

    ``objective`` is the plain sum over rows (no 1/n factor). ``bound`` is
    the lower bound on every objective the run was given (None without one;
    :func:`run_ra_restarts` gives :func:`jensen_bound`). ``stop_reason``
    says why the run ended, checked after each sweep in this order:

    * ``"fixed_point"``: a full sweep changed no column, so the matrix is in
      the oppositely-ordered fixed-point set;
    * ``"certified"``: the objective came within ``CERTIFY_RTOL * (1 +
      |bound|)`` of ``bound``, so the run is optimal although not a fixed
      point;
    * ``"max_sweeps"``: the sweep limit cut the run.

    Two flags derive from these fields: ``converged`` means the stop reason
    is ``"fixed_point"``, and ``certified`` means the objective is within the
    tolerance of ``bound`` and so is the optimum over all arrangements (a
    fixed point can be certified too). ``sweeps`` counts the sweeps of the
    returned run, ``sweeps_total`` those of every start that ran, and
    ``restarts_run`` the starts themselves.
    """

    matrix: ArrangementMatrix
    objective: float
    sweeps: int
    column_rearrangements: int
    stop_reason: str
    sweeps_total: int
    bound: Optional[float] = None
    restarts_run: int = 1

    @property
    def converged(self) -> bool:
        return self.stop_reason == "fixed_point"

    @property
    def certified(self) -> bool:
        return _certifies(self.objective, self.bound)


def _check_arity(X: ArrangementMatrix, d: int) -> None:
    if X.d != d:
        raise ArityMismatch(f"matrix has {X.d} columns but the cost expects {d}")


def objective(X: ArrangementMatrix, cost: CostFunction) -> float:
    """Sum over rows of g(h(row)).

    Raises :class:`ValidationFailed` when the sum is not finite: a NaN would
    never compare below another objective, so it could silently win restarts.
    """
    _check_arity(X, cost.d)
    total = float(np.sum(eval_g_rows(cost.transform, eval_h_rows(cost.agg, X.columns))))
    if not np.isfinite(total):
        raise ValidationFailed(f"cost evaluates to a non-finite objective ({total})")
    return total


def _certifies(value: float, bound: Optional[float]) -> bool:
    """True when ``value`` sits within the certification tolerance of ``bound``."""
    return bound is not None and value <= bound + CERTIFY_RTOL * (1.0 + abs(bound))


def jensen_bound(X: ArrangementMatrix, cost: CostFunction) -> Optional[float]:
    """Lower bound ``n * g(sum_i w_i * mean(column_i))`` on every objective.

    For a (weighted) sum the row mean of h does not depend on the
    arrangement, so Jensen's inequality for convex g bounds the sum over rows
    of g(h) from below. Returns None for a custom aggregation, and for a
    custom transform, whose declared convexity is never checked: for a
    concave g the inequality reverses.
    """
    if cost.agg.kind == "custom" or cost.transform.form == "custom":
        return None
    _check_arity(X, cost.d)
    means = [np.mean(c, keepdims=True) for c in X.columns]
    return X.n * float(eval_g_rows(cost.transform, eval_h_rows(cost.agg, means))[0])


def partial_aggregate_column(
    X: ArrangementMatrix, i: int, agg: AggregationSpec
) -> np.ndarray:
    """Row-wise partial aggregate of every column except i."""
    _check_arity(X, agg.d)
    return eval_partial_rows(agg, i, X.columns[:i] + X.columns[i + 1 :])


def _step(
    cols: Sequence[np.ndarray],
    i: int,
    agg: AggregationSpec,
    sorted_col: np.ndarray,
    prev: Optional[np.ndarray] = None,
) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """The rearrangement step on column i of ``cols``: ``(new_col, order)``.

    ``new_col`` is None when the column is already oppositely ordered to the
    partial aggregate of the others, else the re-sorted column i.
    ``sorted_col`` holds column i's values ascending; they go to the rows of
    descending partials, listed by ``order``. Ties in the partial aggregate
    are broken by row index (stable sort), so the result is deterministic.

    ``prev`` is the ``order`` of this column's previous step, if any. Near
    convergence the partial barely changes between steps, so sorting it in
    that row order is near-linear; tied rows are put back in row index
    order, so column and ``order`` are the same as without ``prev``.
    """
    part = eval_partial_rows(agg, i, cols[:i] + cols[i + 1 :])
    order, moved = _opposite_order(cols[i], part, prev)
    if not moved:
        return None, order
    out = np.empty_like(sorted_col)
    out[order] = sorted_col
    return out, order


def rearrange_column(
    X: ArrangementMatrix, i: int, agg: AggregationSpec
) -> ArrangementMatrix:
    """Apply :func:`_step`, the step :func:`run_ra` sweeps with, to column i.

    Returns X itself when the column is already oppositely ordered, so the
    operation is idempotent; otherwise only column i changes. No order is
    kept between calls, so the step always sorts cold.
    """
    _check_arity(X, agg.d)
    cols = X.columns
    new_col, _ = _step(cols, i, agg, X.provenance[i].values)
    if new_col is None:
        return X
    return ArrangementMatrix(cols[:i] + (new_col,) + cols[i + 1 :], X.provenance)


def is_in_opposite_set(X: ArrangementMatrix, agg: AggregationSpec) -> bool:
    """True iff every column is oppositely ordered to its partial aggregate."""
    return all(
        is_oppositely_ordered(X.columns[i], partial_aggregate_column(X, i, agg))
        for i in range(X.d)
    )


def run_ra(
    X0: ArrangementMatrix,
    cost: CostFunction,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    bound: Optional[float] = None,
) -> RaResult:
    """Apply :func:`_step` to the columns cyclically until a sweep moves none.

    Termination is guaranteed in exact arithmetic; under floating point the
    ``max_sweeps`` guard ends the run instead of looping. Given a lower
    ``bound`` on every objective (such as :func:`jensen_bound`), the
    objective is evaluated after each sweep that moved a column, so the run
    can stop once it certifies; the last of these values is the reported
    objective. Without a bound the objective is evaluated once, at the end.
    The result records ``bound``; :class:`RaResult` lists the stop reasons.
    Each step places the values of ``X0.provenance``: by the
    :class:`ArrangementMatrix` invariant they are the columns' values sorted,
    so no start sorts its columns again. Each column's step after its first
    sorts the partial starting from the order of that column's previous step;
    the order, and so every result, equals the cold sort's, ties by row
    index included.
    Raises :class:`ValidationFailed` when given an unvalidated custom cost.
    """
    if not cost.is_validated:
        raise ValidationFailed(
            "custom aggregation must pass validate_cost before running"
        )
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be >= 1, got {max_sweeps}")
    _check_arity(X0, cost.d)
    agg = cost.agg
    cols = list(X0.columns)
    sorted_cols = [m.values for m in X0.provenance]
    orders = [None] * len(cols)  # each column's order from its last step
    rearrangements = 0
    stop_reason = "max_sweeps"
    result = value = None  # matrix and objective of cols, once evaluated
    for sweeps in range(1, max_sweeps + 1):
        moved = 0
        for i in range(len(cols)):
            new_col, orders[i] = _step(cols, i, agg, sorted_cols[i], orders[i])
            if new_col is not None:
                cols[i] = new_col
                moved += 1
        rearrangements += moved
        if not moved:
            stop_reason = "fixed_point"
            break
        if bound is not None:
            result = ArrangementMatrix(tuple(cols), X0.provenance)
            value = objective(result, cost)
            if _certifies(value, bound):
                stop_reason = "certified"
                break
    if result is None:
        result = ArrangementMatrix(tuple(cols), X0.provenance)
        value = objective(result, cost)
    return RaResult(
        matrix=result,
        objective=value,
        sweeps=sweeps,
        column_rearrangements=rearrangements,
        stop_reason=stop_reason,
        sweeps_total=sweeps,
        bound=bound,
    )


def shuffle_columns(X: ArrangementMatrix, seed: int) -> ArrangementMatrix:
    """Permute each column independently and deterministically.

    The permutation of column i is derived from (seed, i), so repeated calls
    with the same seed yield the identical matrix.
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    cols = []
    for i, c in enumerate(X.columns):
        rng = np.random.default_rng([seed, i])
        cols.append(c[rng.permutation(c.size)])
    return ArrangementMatrix(tuple(cols), X.provenance)


def run_ra_restarts(
    X0: ArrangementMatrix,
    cost: CostFunction,
    restarts: int,
    seed: int,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> RaResult:
    """Best result over X0 itself plus up to restarts-1 shuffled starting points.

    Restart r >= 1 shuffles X0 with a seed derived from (seed, r); ties on
    the objective keep the earliest restart, so the result is deterministic.
    Every start is given :func:`jensen_bound`, computed once, so each run
    stops at its first certified sweep (see :func:`run_ra`). Restarts stop
    once the best run is certified (see :class:`RaResult`): a later restart
    could win only by float noise. The result adds ``restarts_run`` and
    ``sweeps_total`` to the best run's.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    bound = jensen_bound(X0, cost)
    best = run_ra(X0, cost, max_sweeps=max_sweeps, bound=bound)
    restarts_run = 1
    sweeps_total = best.sweeps
    for r in range(1, restarts):
        if best.certified:
            break
        shuffle_seed = int(np.random.SeedSequence([seed, r]).generate_state(1)[0])
        candidate = run_ra(
            shuffle_columns(X0, shuffle_seed), cost, max_sweeps=max_sweeps, bound=bound
        )
        restarts_run += 1
        sweeps_total += candidate.sweeps
        if candidate.objective < best.objective:
            best = candidate
    return replace(best, restarts_run=restarts_run, sweeps_total=sweeps_total)
