"""End-to-end bound estimation.

For marginals given as quantile-function specs and a componentwise increasing
cost, the infimum of the expectation over all joint distributions with those
marginals is bracketed by running the rearrangement on the lower and upper
n-point quantile grids and dividing each side's objective by n. The upper
grid is the lower grid shifted by one index, so the lower side's winning
arrangement nearly solves it: the lower side runs its seeded restarts from
the comonotonic start. The upper side starts once, from the lower winner's
row ranks filled with upper-grid values, and sweeps only when that start
does not certify. The supremum is estimated by the comonotonic arrangement
on the same grids (it is attained there for supermodular costs).

Unbounded tails are truncated automatically (a fixed tail mass of 1e-5 is
removed per unbounded side) unless the caller opts out; the applied windows are
echoed in the result so runs are auditable. For sum and weighted-sum
aggregations under a built-in transform each side also reports its
certificate, the majorization bound of :func:`rabounds.ra_core.lower_bound`,
and the form that gave it. A side whose best run reaches its certificate is
certified optimal on its grid: the run stops at that sweep, or before any
sweep when its start certifies, and the lower side skips its remaining
restarts. Equal marginal specs are discretized once per grid kind and share
that grid.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .costfn import CostFunction
from .errors import ValidationFailed
from .marginals import DiscreteMarginal, MarginalSpec, discretize, truncate_unbounded_sides
from .oracle import comonotonic_value
from .ra_core import DEFAULT_MAX_SWEEPS, ArrangementMatrix, RaResult, run_ra_restarts

__all__ = ["BoundsResult", "estimate_inf", "estimate_sup"]

# RaResult values copied unchanged into BoundsResult as <name>_lower / <name>_upper;
# certified_* and converged_* are read from stop_reason_*.
_SIDE_FIELDS = ("sweeps", "stop_reason", "bound_form")


@dataclass(frozen=True)
class BoundsResult:
    """Bracket for the infimum plus diagnostics.

    ``lower_estimate`` comes from the lower quantile grid (the best
    restart's objective divided by n) and ``upper_estimate`` from the upper
    grid (the objective of the one run that polishes the lower winner, or
    of its transferred start where that certifies, divided by n).
    ``sup_lower`` / ``sup_upper`` are the comonotonic supremum estimates on
    the same two grids. ``truncation_applied`` echoes the probability window
    actually used per marginal (None when untouched), with
    ``auto_truncated`` flagging the windows this call added itself.

    ``bound_lower`` / ``bound_upper`` are the certificates of the two grids
    divided by n (None for a custom aggregation or transform), from
    :func:`rabounds.ra_core.lower_bound`. No arrangement of the grid goes
    below them. ``bound_form_*`` names the form that gave ``bound_*``:
    ``"jensen"``, or the grid's one majorization family, ``"single_column"``
    where the weighted columns differ and ``"symmetric_split"`` where they
    are identical (None with no bound).

    ``sweeps_*`` and ``stop_reason_*`` describe the winning run:
    ``stop_reason_*`` is ``"fixed_point"``, ``"certified"`` (the run stopped
    on the bound, and the estimate is the grid optimum) or ``"max_sweeps"``.
    ``certified_*`` and ``converged_*`` read it, as
    :class:`~rabounds.ra_core.RaResult` does. Only the lower side restarts:
    ``restarts_run_lower`` counts the starts it ran (at most ``restarts``,
    fewer once its best run is certified) and ``sweeps_total_lower`` sums
    their sweeps. The upper side ignores ``restarts`` and ``seed``: its one
    run sweeps only when its transferred start does not certify, so
    ``sweeps_upper`` may be 0.
    """

    lower_estimate: float
    upper_estimate: float
    sup_lower: float
    sup_upper: float
    n: int
    restarts: int
    seed: int
    sweeps_lower: int
    sweeps_upper: int
    runtime_ms_lower: int
    runtime_ms_upper: int
    truncation_applied: Tuple[Optional[Tuple[float, float]], ...]
    auto_truncated: Tuple[bool, ...]
    bound_lower: Optional[float]
    bound_upper: Optional[float]
    restarts_run_lower: int
    sweeps_total_lower: int
    stop_reason_lower: str
    stop_reason_upper: str
    bound_form_lower: Optional[str]
    bound_form_upper: Optional[str]

    @property
    def certified_lower(self) -> bool:
        return self.stop_reason_lower == "certified"

    @property
    def certified_upper(self) -> bool:
        return self.stop_reason_upper == "certified"

    @property
    def converged_lower(self) -> bool:
        return self.stop_reason_lower == "fixed_point"

    @property
    def converged_upper(self) -> bool:
        return self.stop_reason_upper == "fixed_point"


def _prepare_specs(specs: Sequence[MarginalSpec], cost: CostFunction, auto_truncate: bool):
    """Check the arity, then truncate: the specs to discretize, the windows
    used and which of them this call added."""
    if len(specs) != cost.d:
        raise ValidationFailed(f"cost expects {cost.d} marginals, got {len(specs)}")
    prepared = []
    auto_flags = []
    for spec in specs:
        adjusted = truncate_unbounded_sides(spec) if auto_truncate else spec
        prepared.append(adjusted)
        auto_flags.append(adjusted is not spec)
    windows = tuple(s.truncation for s in prepared)
    return prepared, windows, tuple(auto_flags)


def _grids(prepared: Sequence[MarginalSpec], n: int, kind: str) -> list:
    """One ``kind`` grid per prepared spec, discretized once per distinct
    spec, so equal specs share one grid."""
    grids = {s: discretize(s, n, kind) for s in dict.fromkeys(prepared)}
    return [grids[s] for s in prepared]


def _on_ranks(
    X: ArrangementMatrix, marginals: Sequence[DiscreteMarginal]
) -> ArrangementMatrix:
    """``marginals`` placed on the row ranks of X: in each column, the row
    holding the k-th smallest value (ties by row index) gets the k-th
    smallest value of the new marginal."""
    cols = []
    for col, m in zip(X.columns, marginals):
        out = np.empty_like(m.values)
        out[np.argsort(col, kind="stable")] = m.values
        cols.append(out)
    return ArrangementMatrix(tuple(cols), tuple(marginals))


def _side_fields(
    kind: str,
    res: RaResult,
    margs: Sequence[DiscreteMarginal],
    cost: CostFunction,
    n: int,
    t0: float,
) -> dict:
    """The ``<name>_<kind>`` fields of one grid's run, timed from ``t0``."""
    fields = {
        f"runtime_ms_{kind}": int(round((time.perf_counter() - t0) * 1000)),
        f"{kind}_estimate": res.objective / n,
        f"bound_{kind}": None if res.bound is None else res.bound / n,
        f"sup_{kind}": comonotonic_value(margs, cost),
    }
    fields.update((f"{name}_{kind}", getattr(res, name)) for name in _SIDE_FIELDS)
    return fields


def estimate_inf(
    specs: Sequence[MarginalSpec],
    cost: CostFunction,
    n: int,
    restarts: int = 1,
    seed: int = 0,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    auto_truncate: bool = True,
) -> BoundsResult:
    """Bracket the worst-case (infimum) expectation of the cost.

    The lower side discretizes every marginal on the lower grid, starts from
    the comonotonic arrangement and rearranges with up to ``restarts`` seeded
    starting points; it stops restarting once its best run is certified
    optimal (see :func:`rabounds.ra_core.run_ra_restarts`). The upper side
    discretizes on the upper grid and starts once (``restarts=1``, certified
    the same way) from the lower winner's ranks: in each column
    the row holding the k-th smallest lower value (ties by row index) gets
    the k-th smallest upper value. It sweeps only when that start does not
    certify, and ignores ``restarts`` and ``seed``. Equal specs share one
    grid per kind. Each side's objective is scaled by 1/n. The bracket
    property needs a componentwise increasing cost; anything else is
    rejected.
    """
    prepared, windows, auto_flags = _prepare_specs(specs, cost, auto_truncate)
    if not cost.agg.componentwise_increasing:
        raise ValidationFailed(
            "bracketing requires a componentwise increasing cost"
        )

    fields = {"truncation_applied": windows, "auto_truncated": auto_flags}
    t0 = time.perf_counter()
    lower = _grids(prepared, n, "lower")
    res = run_ra_restarts(
        ArrangementMatrix.comonotonic(lower), cost, restarts=restarts, seed=seed,
        max_sweeps=max_sweeps,
    )
    fields.update(_side_fields("lower", res, lower, cost, n, t0))
    fields.update(restarts_run_lower=res.restarts_run, sweeps_total_lower=res.sweeps_total)

    t0 = time.perf_counter()
    upper = _grids(prepared, n, "upper")
    start = _on_ranks(res.matrix, upper)
    del res, lower  # the lower winner is not needed during the upper run
    res = run_ra_restarts(start, cost, restarts=1, seed=seed, max_sweeps=max_sweeps)
    fields.update(_side_fields("upper", res, upper, cost, n, t0))
    return BoundsResult(n=n, restarts=restarts, seed=seed, **fields)


def estimate_sup(
    specs: Sequence[MarginalSpec],
    cost: CostFunction,
    n: int,
    auto_truncate: bool = True,
) -> Tuple[float, float]:
    """Comonotonic estimates of the supremum on the lower and upper grids.

    Valid as a supremum only for supermodular costs (declared by construction
    for the built-in forms).
    """
    prepared, _, _ = _prepare_specs(specs, cost, auto_truncate)
    if not cost.is_validated:
        raise ValidationFailed("validate the cost before estimating the supremum")
    lower, upper = (_grids(prepared, n, kind) for kind in ("lower", "upper"))
    return comonotonic_value(lower, cost), comonotonic_value(upper, cost)
