"""Exception hierarchy shared across the package."""


class QHeineError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(QHeineError):
    """An argument lies outside the domain of the requested operation."""


class DenominatorZero(QHeineError):
    """A series or fraction denominator factor (1 - c q^n) vanished."""


class NoConvergence(QHeineError):
    """An iteration exceeded its term or depth budget without settling."""


class CutError(QHeineError):
    """Evaluation point lies on the branch cut of a fraction."""


class InconsistentCoefficients(QHeineError):
    """g-fraction partial numerators disagree with the raw fraction coefficients."""


class DegenerateCurve(QHeineError):
    """A boundary curve is flat below tolerance; no convexity verdict possible."""


class CapExceeded(QHeineError):
    """A sweep would exceed the configured grid-point cap."""
