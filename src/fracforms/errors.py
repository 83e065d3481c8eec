"""Exception types shared across the package."""


class FracFormsError(Exception):
    """Base class for every error this package raises on purpose."""


class ParseError(FracFormsError):
    """Text input did not match the expression or form grammar."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UnknownCoordinateError(ParseError):
    """An identifier is not one of the declared coordinates."""


class PoleError(FracFormsError):
    """gamma() was asked for a non-positive integer argument; use rgamma."""


class EvalDomainError(FracFormsError):
    """Evaluation hit a non-positive base under a non-integer exponent."""


class ExponentDomainError(FracFormsError):
    """A fractional operator met a term with exponent <= -1 on the active coordinate."""


class BoundarySingularityError(FracFormsError):
    """A boundary evaluation at the initial point is non-removably singular."""


class QuadratureDomainError(FracFormsError):
    """The numeric oracle was asked for a point not above the initial point,
    sampled the integrand where it is undefined, or a GL sum or its scale
    step^-order does not fit in a double."""


class UnsupportedError(FracFormsError):
    """The request is outside what the engine implements (not a bug)."""


class VerificationError(FracFormsError):
    """An internal round-trip check failed; never silently ignored."""


class NegativeQuadraticFormError(FracFormsError):
    """The metric quadratic form came out negative for the given displacement."""


class NonConvergenceWarning(UserWarning):
    """Richardson extrapolants disagree by more than 10x the error estimate."""
