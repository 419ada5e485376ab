"""Exception types shared across the library."""


class VolterraError(Exception):
    """Base class for all library-specific errors."""


class KernelDomainError(VolterraError):
    """Kernel evaluated outside the simplex 0 <= s < t."""


class SingularityError(VolterraError):
    """A kernel evaluator returned a non-finite value."""


class NonIntegrableError(VolterraError):
    """Requested kernel integral diverges."""


class GridMismatchError(VolterraError):
    """Operands live on different time grids."""


class BlowUpError(VolterraError):
    """A trajectory exceeded the overflow guard."""

    def __init__(self, message, step=None, magnitude=None):
        super().__init__(message)
        self.step = step
        self.magnitude = magnitude


class DimensionMismatchError(VolterraError):
    """Measures or states of incompatible dimension were combined."""


class RankDeficiencyError(VolterraError):
    """First-kind inversion is rank deficient and no regularization was supplied."""


class ConfigError(VolterraError):
    """Configuration parse or validation failure.

    Carries the full list of issues so callers can report everything at once.
    """

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join(self.issues))


class BudgetError(VolterraError):
    """A run was refused by the memory budget guard before allocation."""
