"""Exception hierarchy shared across the package."""


class SubscanError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(SubscanError, ValueError):
    """An argument violates a stated constraint (range, cardinality, type...)."""


class DimensionMismatchError(SubscanError, ValueError):
    """Shapes or index ranges of related objects disagree."""


class BudgetExceededError(SubscanError, RuntimeError):
    """An exhaustive enumeration would exceed the configured subset budget."""


class DomainError(SubscanError, ValueError):
    """Inputs lie outside the domain of a closed-form quantity (e.g. n >= N)."""
