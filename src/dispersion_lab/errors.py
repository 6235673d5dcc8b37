"""Exception and warning types shared across the package."""


class DispersionLabError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(DispersionLabError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ValidationError(DispersionLabError, ValueError):
    """Malformed input data or configuration."""


class ConditioningError(DispersionLabError, ArithmeticError):
    """A linear system or fit is too ill-conditioned to trust."""


class ContractViolationError(DispersionLabError, ValueError):
    """Caller broke an interface contract (mismatched grids, bad pairing)."""


class StabilityWarning(UserWarning):
    """Explicit SDE step large enough for mode-wise amplification."""


class HypothesisViolationWarning(UserWarning):
    """An experiment was run on data violating its standing hypothesis."""
