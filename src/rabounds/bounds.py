"""End-to-end bound estimation.

For marginals given as quantile-function specs and a componentwise increasing
cost, the infimum of the expectation over all joint distributions with those
marginals is bracketed by running the rearrangement on the lower and upper
n-point quantile grids and dividing the best objective by n. The supremum is
estimated by the comonotonic arrangement on the same grids (it is attained
there for supermodular costs).

Unbounded tails are truncated automatically (a fixed tail mass of 1e-5 is
removed per unbounded side) unless the caller opts out; the applied windows are
echoed in the result so runs are auditable. Both grid pipelines consume the
same restart seed stream, so the reported gap reflects discretization rather
than restart luck. For sum and weighted-sum aggregations under a built-in
transform each side also reports its Jensen bound; a side whose best run
reaches it is certified optimal on its grid: the run stops at that sweep and
the side skips its remaining restarts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .costfn import CostFunction
from .errors import ValidationFailed
from .marginals import MarginalSpec, discretize, truncate_unbounded_sides
from .oracle import comonotonic_value
from .ra_core import DEFAULT_MAX_SWEEPS, ArrangementMatrix, run_ra_restarts

__all__ = ["BoundsResult", "estimate_inf", "estimate_sup"]

# RaResult values copied unchanged into BoundsResult as <name>_lower / <name>_upper.
_SIDE_FIELDS = (
    "converged", "sweeps", "certified", "restarts_run", "stop_reason", "sweeps_total",
)


@dataclass(frozen=True)
class BoundsResult:
    """Bracket for the infimum plus diagnostics.

    ``lower_estimate`` comes from the lower quantile grid and
    ``upper_estimate`` from the upper grid (both are best-restart objectives
    divided by n). ``sup_lower`` / ``sup_upper`` are the comonotonic supremum
    estimates on the same two grids. ``truncation_applied`` echoes the
    probability window actually used per marginal (None when untouched), with
    ``auto_truncated`` flagging the windows this call added itself.

    ``bound_lower`` / ``bound_upper`` are the Jensen bounds of the two grids
    divided by n (None for a custom aggregation or transform): no arrangement
    of the grid goes below them. ``certified_*`` says the side's estimate is
    the optimum of its grid, and ``restarts_run_*`` how many of the
    ``restarts`` starts ran before that was known.

    ``sweeps_*``, ``converged_*`` and ``stop_reason_*`` describe the winning
    run: ``stop_reason_*`` is ``"fixed_point"`` (then ``converged_*`` is
    true), ``"certified"`` (the run stopped on the bound; ``converged_*`` is
    false, yet the estimate is the grid optimum) or ``"max_sweeps"``.
    ``sweeps_total_*`` sums the sweeps of every start the side ran.

    Every per-side value is a ``<name>_lower`` / ``<name>_upper`` pair. The
    ``RaResult`` values named in ``_SIDE_FIELDS`` are copied unchanged, so a
    new one costs a name there and its two fields here.
    """

    lower_estimate: float
    upper_estimate: float
    sup_lower: float
    sup_upper: float
    n: int
    restarts: int
    seed: int
    converged_lower: bool
    converged_upper: bool
    sweeps_lower: int
    sweeps_upper: int
    runtime_ms_lower: int
    runtime_ms_upper: int
    truncation_applied: Tuple[Optional[Tuple[float, float]], ...]
    auto_truncated: Tuple[bool, ...]
    bound_lower: Optional[float]
    bound_upper: Optional[float]
    certified_lower: bool
    certified_upper: bool
    restarts_run_lower: int
    restarts_run_upper: int
    stop_reason_lower: str
    stop_reason_upper: str
    sweeps_total_lower: int
    sweeps_total_upper: int


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

    Runs the full pipeline twice, once per quantile grid: discretize every
    marginal, start from the comonotonic arrangement, rearrange with
    up to ``restarts`` seeded starting points, and scale the best objective by
    1/n. A side stops restarting once its best run is certified optimal (see
    :func:`rabounds.ra_core.run_ra_restarts`). The bracket property needs a
    componentwise increasing cost; anything else is rejected.
    """
    prepared, windows, auto_flags = _prepare_specs(specs, cost, auto_truncate)
    if not cost.agg.componentwise_increasing:
        raise ValidationFailed(
            "bracketing requires a componentwise increasing cost"
        )

    fields = {"truncation_applied": windows, "auto_truncated": auto_flags}
    for kind in ("lower", "upper"):
        t0 = time.perf_counter()
        margs = [discretize(s, n, kind) for s in prepared]
        start = ArrangementMatrix.comonotonic(margs)
        res = run_ra_restarts(start, cost, restarts=restarts, seed=seed, max_sweeps=max_sweeps)
        fields[f"runtime_ms_{kind}"] = int(round((time.perf_counter() - t0) * 1000))
        fields[f"{kind}_estimate"] = res.objective / n
        fields[f"bound_{kind}"] = None if res.bound is None else res.bound / n
        fields[f"sup_{kind}"] = comonotonic_value(margs, cost)
        fields.update((f"{name}_{kind}", getattr(res, name)) for name in _SIDE_FIELDS)
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
    lower, upper = ([discretize(s, n, kind) for s in prepared] for kind in ("lower", "upper"))
    return comonotonic_value(lower, cost), comonotonic_value(upper, cost)
