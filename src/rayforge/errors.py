"""Exception types shared across the package.

Each class carries the CLI exit code it maps to: 2 for usage or bad input
(the base), 3 for numeric non-convergence, 4 for target rejection.
"""


class RayforgeError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 2


class OverflowSignal(RayforgeError, ArithmeticError):
    """A computation left the representable float range.

    Raised instead of silently producing inf/nan.
    """

    exit_code = 3


class DomainError(RayforgeError, ValueError):
    """An argument lies outside the domain a function is defined on."""


class RootSolveError(RayforgeError):
    """Simultaneous root iteration did not reach the residual tolerance."""

    exit_code = 3

    def __init__(self, message, worst_residual=None):
        super().__init__(message)
        self.worst_residual = worst_residual


class TractConfigError(RayforgeError):
    """Strip bounds could not be certified within the sampling budget."""

    exit_code = 3


class AmbiguousTractError(RayforgeError):
    """A point sits in the fuzz zone between two strip estimates."""

    exit_code = 3

    def __init__(self, z, candidates):
        super().__init__(f"tract index of {z} is ambiguous between {candidates}")
        self.z = z
        self.candidates = tuple(candidates)


class BranchSelectionError(RayforgeError):
    """No inverse-branch candidate landed in the requested strip."""

    exit_code = 3

    def __init__(self, message, candidates=()):
        super().__init__(message)
        self.candidates = tuple(candidates)


class NotConvergedError(RayforgeError):
    """An iteration exhausted its depth/step budget before converging.

    ``details`` carries the last iterates or the delta history for diagnosis.
    """

    exit_code = 3

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = details


class NotEscapingError(RayforgeError):
    """A forward orbit failed to enter and stay in the right half-plane."""

    exit_code = 3

    def __init__(self, message, orbit=()):
        super().__init__(message)
        self.orbit = tuple(orbit)


class SpecRejectionError(RayforgeError):
    """A target configuration violates a structural precondition."""

    exit_code = 4


class InvariantViolationError(RayforgeError):
    """A pullback left the region where the iteration is valid."""

    exit_code = 4


class UnsupportedHomotopyError(RayforgeError):
    """The configuration would need nontrivial leg words to pull back."""

    exit_code = 4


class DegenerateCurveError(RayforgeError):
    """A curve touches a marked point or a cut ray tangentially."""
