"""Exception and warning types shared across the package."""

import contextlib


class DispersionLabError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(DispersionLabError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class SizeError(DomainError):
    """Arrays an argument sizes do not fit in memory, or exceed what numpy can size."""


@contextlib.contextmanager
def fits_in_memory(what: str):
    """Raise SizeError("<what> do not fit in memory") where an array the
    block allocates does not: a MemoryError, or numpy's ValueError for a
    size beyond what it can hold ("Maximum allowed size exceeded")."""
    try:
        yield
    except (MemoryError, ValueError) as exc:
        raise SizeError(f"{what} do not fit in memory ({exc})") from None


class CoarseStepError(DomainError):
    """A grid step too coarse for a march.  potential_nodes is how many nodes
    the box needs for the potential alone, at any momentum."""

    def __init__(self, message: str, potential_nodes: float):
        super().__init__(message)
        self.potential_nodes = potential_nodes


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
