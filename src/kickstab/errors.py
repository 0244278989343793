"""Exception types shared across the package."""


class KickstabError(Exception):
    """Base class for all package-specific errors."""


class ConstructionFailed(KickstabError):
    """Randomized operator search could not realize the requested unstable count."""

    def __init__(self, message, attempts=0):
        super().__init__(message)
        self.attempts = attempts


class GapViolation(KickstabError):
    """An eigenvalue real part is too close to the splitting level sigma."""


class ContourTouchesSpectrum(KickstabError):
    """A quadrature node on the contour is too close to the spectrum."""


class InvalidContour(KickstabError):
    """Contour parameters outside their admissible range."""


class EmptyGap(KickstabError):
    """No admissible level found inside a ladder segment."""


class SingularGram(KickstabError):
    """Control directions are insufficient against the adjoint unstable basis."""


class RejectionCap(KickstabError):
    """Truncated-Gaussian rejection sampling acceptance rate collapsed."""


class DegenerateCovariance(KickstabError):
    """Projected covariance is numerically rank-deficient."""


class NotUnstable(KickstabError):
    """Operator has no eigenvalue with negative real part."""


class QuadratureUnsupported(KickstabError):
    """No quadrature rule is implemented for the requested dimension."""


class BracketFailure(KickstabError):
    """Root bracketing for the boundary multiplier equation failed."""


class ProbeOffBoundary(KickstabError):
    """Boundary probe started from a point not on the support boundary."""


class NotInterior(KickstabError):
    """First-variation point is not in the interior of the support."""


class BurnInBelowFloor(KickstabError, ValueError):
    """A burn-in is shorter than the deterministic transient of the chain."""


class MissingPrerequisite(KickstabError):
    """A pipeline stage was invoked before its prerequisite artifacts exist."""


class ValidationError(KickstabError):
    """A configuration constraint is violated; names the offending field."""

    def __init__(self, field, message=""):
        self.field = field
        super().__init__(f"{field}: {message}" if message else field)


class ParseError(KickstabError):
    """Configuration file could not be parsed."""
