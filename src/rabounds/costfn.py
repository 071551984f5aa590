"""Cost functions of the form f(x) = g(h(x)).

h aggregates a d-vector and must decompose, for every coordinate i, into a
binary combine and a (d-1)-ary partial:

    h(x) = combine_i(x_i, partial_i(x without coordinate i))

The rearrangement machinery touches h only through this decomposition: column
i of a matrix is paired against the partial aggregate of the remaining
columns. g is a univariate increasing convex transform applied to the
aggregate.

Built-in aggregations (sum, weighted sum) satisfy the required structure by
construction: their combine is supermodular (indeed modular) and h is
componentwise strictly increasing; both carry their weights (a plain sum's
are 1.0) and run through one linear kernel. Custom aggregations only promise
these properties; spot-check them with :func:`validate_cost` before running
the rearrangement. Validation samples points, so it can refute but never
prove.

Every aggregation and transform is evaluated through the ``*_rows``
functions on whole arrays, sampled validation included.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import ArityMismatch, ValidationFailed

__all__ = [
    "AggregationSpec",
    "TransformSpec",
    "CostFunction",
    "sum_agg",
    "weighted_sum",
    "custom_agg",
    "identity",
    "stop_loss",
    "power",
    "custom_transform",
    "eval_h_rows",
    "eval_partial_rows",
    "eval_h2_rows",
    "eval_g_rows",
    "validate_supermodular",
    "validate_decomposition",
    "validate_composition",
    "validate_cost",
]


@dataclass(frozen=True)
class AggregationSpec:
    """A d-ary aggregation with per-coordinate binary/partial decompositions.

    ``kind`` is "weighted_sum" or "custom". A weighted sum carries one weight
    per coordinate (all 1.0 for a plain sum). For custom aggregations, ``h2`` and
    ``hd1`` hold one callable per coordinate (combine and partial), and
    ``monotone_direction`` declares the direction of h in each coordinate.
    """

    d: int
    kind: str
    weights: Optional[Tuple[float, ...]] = None
    h: Optional[Callable[..., np.ndarray]] = None
    h2: Optional[Tuple[Callable[[np.ndarray, np.ndarray], np.ndarray], ...]] = None
    hd1: Optional[Tuple[Callable[..., np.ndarray], ...]] = None
    monotone_direction: Optional[Tuple[str, ...]] = None

    @property
    def componentwise_increasing(self) -> bool:
        return self.kind != "custom" or all(
            m == "increasing" for m in self.monotone_direction
        )


def sum_agg(d: int) -> AggregationSpec:
    """Plain sum of d components: the weighted sum with unit weights."""
    return weighted_sum((1.0,) * d)


def weighted_sum(weights: Sequence[float]) -> AggregationSpec:
    """Weighted sum with strictly positive weights (one per component)."""
    w = tuple(float(x) for x in weights)
    if len(w) < 2:
        raise ValueError(f"aggregation arity must be >= 2, got {len(w)}")
    if any(x <= 0 for x in w):
        raise ValueError(f"weights must be strictly positive, got {w}")
    if not np.isfinite(w).all():
        raise ValueError(f"weights must be finite, got {w}")
    return AggregationSpec(d=len(w), kind="weighted_sum", weights=w)


def custom_agg(
    d: int,
    h: Callable[..., np.ndarray],
    h2,
    hd1,
    monotone_direction,
) -> AggregationSpec:
    """Custom aggregation from user callables.

    Every callable receives whole numpy arrays, one per coordinate, and must
    return an array of the same shape: ``h(x_1, ..., x_d)``,
    ``h2[i](x_i, partial)`` and ``hd1[i](x_1, ..., x_{d-1})`` are evaluated
    on all rows at once, so build them from elementwise numpy operations
    (``np.log``, not ``math.log``). ``h2`` / ``hd1`` may be a single callable
    (used for every coordinate) or a sequence of d callables.
    ``monotone_direction`` is "increasing" or "decreasing", again single or
    per coordinate. The result must pass
    :func:`validate_cost` before it can drive the rearrangement.
    """
    if d < 2:
        raise ValueError(f"aggregation arity must be >= 2, got {d}")
    h2t = tuple(h2) if isinstance(h2, (list, tuple)) else (h2,) * d
    hd1t = tuple(hd1) if isinstance(hd1, (list, tuple)) else (hd1,) * d
    if isinstance(monotone_direction, str):
        mono = (monotone_direction,) * d
    else:
        mono = tuple(monotone_direction)
    if len(h2t) != d or len(hd1t) != d or len(mono) != d:
        raise ValueError("h2, hd1 and monotone_direction must cover all d coordinates")
    if any(m not in ("increasing", "decreasing") for m in mono):
        raise ValueError(f"monotone_direction entries must be increasing/decreasing, got {mono}")
    return AggregationSpec(
        d=d, kind="custom", h=h, h2=h2t, hd1=hd1t, monotone_direction=mono
    )


@dataclass(frozen=True)
class TransformSpec:
    """A univariate transform g, declared increasing and convex.

    Built-ins: identity, stop_loss(k) = max(x - k, 0), and power(p) applied to
    max(x, 0) with p >= 1. Custom transforms carry a vectorized callable that
    the caller declares increasing convex; that declaration is trusted.
    """

    form: str
    param: Optional[float] = None
    g: Optional[Callable[[np.ndarray], np.ndarray]] = None


def identity() -> TransformSpec:
    return TransformSpec("identity")


def stop_loss(k: float) -> TransformSpec:
    """g(x) = max(x - k, 0) with a finite k."""
    if not np.isfinite(k):
        raise ValueError(f"stop-loss threshold must be finite, got {k}")
    return TransformSpec("stop_loss", param=float(k))


def power(p: float) -> TransformSpec:
    """g(x) = max(x, 0)^p with a finite p >= 1."""
    if not p >= 1:
        raise ValueError(f"power exponent must be >= 1, got {p}")
    if not np.isfinite(p):
        raise ValueError(f"power exponent must be finite, got {p}")
    return TransformSpec("power", param=float(p))


def custom_transform(g: Callable[[np.ndarray], np.ndarray]) -> TransformSpec:
    """Wrap a user callable declared increasing and convex (not verified).

    ``g`` takes a whole array and must return one of the same shape.
    """
    return TransformSpec("custom", g=g)


@dataclass(frozen=True)
class CostFunction:
    """f = g o h. ``validated`` records that a custom aggregation passed checks."""

    agg: AggregationSpec
    transform: TransformSpec
    validated: bool = False

    @property
    def d(self) -> int:
        return self.agg.d

    @property
    def is_validated(self) -> bool:
        # Built-in aggregations are valid by construction; custom transforms
        # are declared increasing convex, which is all the theory consumes.
        return self.validated or self.agg.kind != "custom"


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _check_index(agg: AggregationSpec, i: int) -> None:
    if not 0 <= i < agg.d:
        raise IndexError(f"column index {i} out of range for arity {agg.d}")


def _custom_rows(
    fn: Callable[..., np.ndarray], args: Sequence[np.ndarray]
) -> np.ndarray:
    """Call a custom h, h2, hd1 or g on whole arrays; the one place they run.

    The result must have the shape of the inputs: a callable returning a
    constant would otherwise broadcast silently.
    """
    out = np.asarray(fn(*args), dtype=float)
    if out.shape != np.shape(args[0]):
        raise ArityMismatch(
            f"custom callable returned shape {out.shape} for inputs of shape "
            f"{np.shape(args[0])}"
        )
    return out


def _linear_rows(weights: Sequence[float], columns: Sequence[np.ndarray]) -> np.ndarray:
    """Sum of ``w * c`` in column order; a unit weight enters its column unscaled."""
    out = columns[0].astype(float) if weights[0] == 1.0 else weights[0] * columns[0]
    for w, c in zip(weights[1:], columns[1:]):
        out += c if w == 1.0 else w * c
    return out


def eval_h_rows(agg: AggregationSpec, columns: Sequence[np.ndarray]) -> np.ndarray:
    """Aggregate every row of a matrix given as a sequence of d columns.

    Columns may be arrays of any common shape, e.g. ``(chunk, n)`` blocks.
    """
    if len(columns) != agg.d:
        raise ArityMismatch(f"expected {agg.d} columns, got {len(columns)}")
    if agg.kind == "custom":
        return _custom_rows(agg.h, columns)
    return _linear_rows(agg.weights, columns)


def eval_partial_rows(
    agg: AggregationSpec, i: int, columns_minus_i: Sequence[np.ndarray]
) -> np.ndarray:
    """Row-wise partial_i over a matrix with column i already removed."""
    _check_index(agg, i)
    if len(columns_minus_i) != agg.d - 1:
        raise ArityMismatch(f"expected {agg.d - 1} columns, got {len(columns_minus_i)}")
    if agg.kind == "custom":
        return _custom_rows(agg.hd1[i], columns_minus_i)
    return _linear_rows(agg.weights[:i] + agg.weights[i + 1 :], columns_minus_i)


def eval_h2_rows(
    agg: AggregationSpec, i: int, xi: np.ndarray, partial: np.ndarray
) -> np.ndarray:
    """Row-wise combine_i of a column against its partial aggregate."""
    _check_index(agg, i)
    if agg.kind == "custom":
        return _custom_rows(agg.h2[i], (xi, partial))
    return agg.weights[i] * xi + partial


def eval_g_rows(transform: TransformSpec, y: np.ndarray) -> np.ndarray:
    """Apply the transform elementwise; a custom g runs through :func:`_custom_rows`."""
    if transform.form == "identity":
        return np.asarray(y, dtype=float)
    # one fresh buffer, then in-place steps: at n=1e5 a second temporary
    # costs several times the arithmetic
    if transform.form == "stop_loss":
        out = np.subtract(y, transform.param, out=np.empty(np.shape(y)))
        return np.maximum(out, 0.0, out=out)
    if transform.form == "power":
        out = np.maximum(y, 0.0, out=np.empty(np.shape(y)))
        return np.power(out, transform.param, out=out)
    return _custom_rows(transform.g, (y,))


# ---------------------------------------------------------------------------
# sampled validation
# ---------------------------------------------------------------------------

# Tolerance of every sampled check except an explicit validate_decomposition tol.
_TOL = 1e-9


def validate_supermodular(h2, pairs):
    """Check h2(x)+h2(y) <= h2(x^y)+h2(xvy)+1e-9 on every sampled pair of points.

    ``pairs`` is an iterable or ``(m, 2, 2)`` array of ((x1, x2), (y1, y2)).
    ``h2`` must accept arrays: it runs once each on all x, y, x^y and xvy.
    Returns (ok, violations) where each violation is (x, y, excess) in plain
    floats; failure is a verdict. A NaN excess would pass, so a non-finite
    ``h2`` value raises :class:`ValidationFailed`.
    """
    pts = np.asarray(list(pairs), dtype=float).reshape(-1, 2, 2)
    x, y = pts[:, 0], pts[:, 1]
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    values = [h2(*p.T) for p in (x, y, lo, hi)]
    if not np.isfinite(values).all():
        raise ValidationFailed(
            "supermodularity check meets a non-finite value at a sampled point, meet or join"
        )
    excess = (values[0] + values[1]) - (values[2] + values[3])
    bad = np.flatnonzero(excess > _TOL)
    violations = [(tuple(x[k].tolist()), tuple(y[k].tolist()), float(excess[k])) for k in bad]
    return len(violations) == 0, violations


def validate_decomposition(
    agg: AggregationSpec, sample: Sequence[Sequence[float]], tol: float = _TOL
) -> bool:
    """Check h(x) == combine_i(x_i, partial_i(x_{-i})) for every i and sample.

    The comparison is |difference| <= tol * (1 + |h(x)|). NaN would pass it,
    so a non-finite h, partial or combine raises :class:`ValidationFailed`.
    """
    cols = list(np.asarray(sample, dtype=float).T)
    return _decomposition_holds(agg, cols, eval_h_rows(agg, cols), tol)


def _decomposition_holds(
    agg: AggregationSpec, cols: Sequence[np.ndarray], hx: np.ndarray, tol: float
) -> bool:
    """:func:`validate_decomposition` on sample columns whose h is known."""
    for i in range(agg.d):
        part = eval_partial_rows(agg, i, cols[:i] + cols[i + 1 :])
        recomposed = eval_h2_rows(agg, i, cols[i], part)
        if not np.isfinite([hx, part, recomposed]).all():
            raise ValidationFailed(
                f"h, partial {i} or combine {i} returns a non-finite value on the sample"
            )
        if np.any(np.abs(hx - recomposed) > tol * (1.0 + np.abs(hx))):
            return False
    return True


def validate_composition(cost: CostFunction, pairs) -> bool:
    """Check that g o combine_i stays supermodular on the sampled pairs, up to 1e-9.

    A sanity check of the composition property (increasing convex g preserves
    supermodularity of the combine), not a proof. The combines and g must
    accept arrays, as in :func:`validate_supermodular`, and a non-finite
    value of g o combine raises :class:`ValidationFailed`.
    """
    pairs = list(pairs)
    for i in range(cost.agg.d):
        ok, _ = validate_supermodular(
            lambda a, b: eval_g_rows(cost.transform, eval_h2_rows(cost.agg, i, a, b)),
            pairs,
        )
        if not ok:
            return False
    return True


def validate_cost(cost: CostFunction, low: float = 0.0, high: float = 1.0) -> CostFunction:
    """Spot-check a custom aggregation and mark the cost as validated.

    Samples 200 points uniformly from [low, high]^d with a generator seeded
    with 0, so a verdict is reproducible, and checks the decomposition
    identity, supermodularity of every combine, declared monotonicity, and
    supermodularity of g o combine, each up to a tolerance of 1e-9. h runs
    on the sample once, then once per coordinate on the sample bumped in
    that coordinate. Raises :class:`ValidationFailed` on any violated check
    or non-finite value at a sampled or derived point and, chained, on any
    error a custom callable raises. Built-in aggregations pass unsampled,
    even with a custom transform.
    """
    if cost.agg.kind != "custom":
        return replace(cost, validated=True)
    agg = cost.agg
    samples = 200
    rng = np.random.default_rng(0)
    sample = rng.uniform(low, high, size=(samples, agg.d))
    cols = list(sample.T)
    try:
        hx = eval_h_rows(agg, cols)
        if not _decomposition_holds(agg, cols, hx, _TOL):
            raise ValidationFailed("custom aggregation fails its decomposition identity")
        steps = rng.uniform(1e-3, 1.0, size=samples)
        for j, direction in enumerate(agg.monotone_direction):
            bumped = eval_h_rows(agg, cols[:j] + [cols[j] + steps] + cols[j + 1 :])
            if not np.isfinite(bumped).all():
                raise ValidationFailed(
                    f"h returns a non-finite value when coordinate {j} is bumped"
                )
            diff = bumped - hx
            if np.any(diff < -_TOL) if direction == "increasing" else np.any(diff > _TOL):
                raise ValidationFailed("custom aggregation violates its declared monotonicity")
        half = [c[: samples // 2] for c in cols]
        for i in range(agg.d):
            partials = eval_partial_rows(agg, i, half[:i] + half[i + 1 :])
            xs = rng.uniform(low, high, size=partials.size)
            pts = np.column_stack([xs, partials])[: partials.size // 2 * 2]
            ok, violations = validate_supermodular(
                lambda a, b: eval_h2_rows(agg, i, a, b), pts.reshape(-1, 2, 2)
            )
            if not ok:
                raise ValidationFailed(
                    f"combine for coordinate {i} is not supermodular on samples: "
                    f"first violation {violations[0]}"
                )
        pair_pts = rng.uniform(low, high, size=(samples // 2, 2, 2))
        if not validate_composition(cost, pair_pts):
            raise ValidationFailed("transform o combine loses supermodularity on samples")
    except ValidationFailed:
        raise
    except Exception as exc:
        raise ValidationFailed(
            f"custom callable fails on whole-array input: {exc!r}"
        ) from exc
    return replace(cost, validated=True)
