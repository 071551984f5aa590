"""Exception types shared across the package."""

import math


class RaboundsError(Exception):
    """Base class for every error raised by this package."""


class NonFiniteQuantile(RaboundsError):
    """A requested quantile is infinite; the marginal must be truncated first."""


class InvalidRange(RaboundsError):
    """Truncation probabilities do not form a nonempty sub-interval of [0, 1]."""


class ArityMismatch(RaboundsError):
    """A row, weight vector, or matrix does not match the declared dimension."""


class LengthMismatch(RaboundsError):
    """Two vectors that must have equal length do not."""


class ValidationFailed(RaboundsError):
    """A cost function was used before passing (or after failing) validation."""


class BudgetExceeded(RaboundsError):
    """Exhaustive enumeration would need more evaluations than allowed."""

    def __init__(self, required: int, budget: int):
        # Python prints no int of over 4300 digits, which (n!)^(d-1) reaches
        # from n=1559 at d=2, so a long count is stated by its magnitude
        bits = required.bit_length()
        needed = required if bits <= 64 else f"at least 10^{int((bits - 1) * math.log10(2))}"
        super().__init__(
            f"enumeration needs {needed} arrangement evaluations, budget is {budget}"
        )
        self.required = required
        self.budget = budget


class InternalInconsistency(RaboundsError):
    """An impossible state was reached; indicates a bug, not bad input."""
