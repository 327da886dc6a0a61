"""Error types shared across the package.

Everything derives from ValueError so casual callers can catch broadly;
the CLI maps these onto exit codes (3 for computational dead ends, 4 for
numerically indeterminate answers).
"""


class ModfolError(ValueError):
    """Base class for all package-specific errors."""


class DomainError(ModfolError):
    """Input outside the documented domain of an operation."""


class InternalInvariantError(ModfolError):
    """An internal consistency check failed: a defect, not bad input."""


class DimensionError(ModfolError):
    """Matrix/vector shape mismatch."""


class TruncationError(ModfolError):
    """A q-expansion is too short for the requested operation."""

    def __init__(self, message, required_order=None):
        super().__init__(message)
        self.required_order = required_order


class PrecisionError(ModfolError):
    """Numeric parameters cannot deliver the requested precision."""

    def __init__(self, message, required_terms=None):
        super().__init__(message)
        self.required_terms = required_terms


class IndeterminateRankError(ModfolError):
    """Relation residual fell in the deadband: neither accept nor reject."""


class UndecidedSplitError(ModfolError):
    """Eigenform orbits could not be separated by the supplied primes."""

    def __init__(self, message, next_prime=None):
        super().__init__(message)
        self.next_prime = next_prime


class MultiplicityError(ModfolError):
    """Eigenvalue not simple: the rescaling construction needs rank n-1."""


class DegenerateStepError(ModfolError):
    """Induction step undefined (tied interval lengths)."""


class WrongCaseError(ModfolError):
    """Operation invoked on data from the wrong dynamical case."""


class NoCuspFormsError(ModfolError):
    """The requested level has genus 0: nothing to classify."""
