"""Sharp bounds on expectations under dependence uncertainty.

Given univariate marginal distributions and a cost f = g(h(x)) with g
increasing convex and h a supermodular, decomposable aggregation (sums and
weighted sums built in), this package brackets

    inf / sup over all joint laws with those marginals of  E[f(X_1, ..., X_d)]

by discretizing each marginal onto lower/upper quantile grids and re-sorting
matrix columns until every column is oppositely ordered to the aggregate of
the others. An exhaustive oracle covers tiny instances, and majorization
predicates expose the descent structure for testing.
"""

from .bounds import BoundsResult, estimate_inf, estimate_sup
from .costfn import (
    AggregationSpec,
    CostFunction,
    TransformSpec,
    custom_agg,
    custom_transform,
    identity,
    power,
    stop_loss,
    sum_agg,
    validate_composition,
    validate_cost,
    validate_decomposition,
    validate_supermodular,
    weighted_sum,
)
from .errors import (
    ArityMismatch,
    BudgetExceeded,
    InternalInconsistency,
    InvalidRange,
    LengthMismatch,
    NonFiniteQuantile,
    RaboundsError,
    ValidationFailed,
)
from .majorization import Order, OrderRelation, compare, is_oppositely_ordered, sort_asc, sort_desc
from .marginals import (
    DiscreteMarginal,
    MarginalSpec,
    discretize,
    empirical,
    exponential,
    normal,
    pareto,
    quantile,
    truncate,
    uniform,
)
from .oracle import (
    arrangement_count,
    brute_force_max,
    brute_force_min,
    brute_force_min_over_opposite_set,
    comonotonic_value,
)
from .ra_core import (
    ArrangementMatrix,
    RaResult,
    is_in_opposite_set,
    objective,
    partial_aggregate_column,
    rearrange_column,
    run_ra,
    run_ra_restarts,
    shuffle_columns,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # marginals
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
    # cost functions
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
    "validate_supermodular",
    "validate_decomposition",
    "validate_composition",
    "validate_cost",
    # majorization
    "Order",
    "OrderRelation",
    "sort_desc",
    "sort_asc",
    "compare",
    "is_oppositely_ordered",
    # rearrangement
    "ArrangementMatrix",
    "RaResult",
    "objective",
    "partial_aggregate_column",
    "rearrange_column",
    "is_in_opposite_set",
    "run_ra",
    "shuffle_columns",
    "run_ra_restarts",
    # oracle
    "brute_force_min",
    "brute_force_max",
    "brute_force_min_over_opposite_set",
    "comonotonic_value",
    "arrangement_count",
    # bounds
    "BoundsResult",
    "estimate_inf",
    "estimate_sup",
    # errors
    "RaboundsError",
    "NonFiniteQuantile",
    "InvalidRange",
    "ArityMismatch",
    "LengthMismatch",
    "ValidationFailed",
    "BudgetExceeded",
    "InternalInconsistency",
]
