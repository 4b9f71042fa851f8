"""Exception hierarchy shared across the package.

Every failure mode that callers are expected to handle gets its own class so
that the CLI can map errors onto stable exit codes: user input problems
(ParseError), resource caps (CapExceeded subclasses), and broken internal
invariants (InternalInvariant).
"""


class GaloisKitError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GaloisKitError):
    def __init__(self, message, position=None, expected=None):
        super().__init__(message)
        self.position = position
        self.expected = tuple(sorted(expected)) if expected else ()


class CapExceeded(GaloisKitError):
    """A configured resource cap was exceeded; raise caps to proceed."""


class DegreeCap(CapExceeded):
    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class OrderCap(CapExceeded):
    pass


class Budget(CapExceeded):
    pass


class SearchExhausted(CapExceeded):
    pass


class ShapeCap(CapExceeded):
    """An input expression would expand past a parser shape limit."""


class ZeroInverse(GaloisKitError, ZeroDivisionError):
    pass


class ZeroPolynomial(GaloisKitError):
    pass


class DivisionByZeroPoly(GaloisKitError, ZeroDivisionError):
    pass


class ConstantPolynomial(GaloisKitError):
    pass


class NotPrime(GaloisKitError):
    pass


class NotIrreducible(GaloisKitError):
    pass


class NotMonic(GaloisKitError):
    pass


class TowerMismatch(GaloisKitError):
    pass


class NotASubgroup(GaloisKitError):
    pass


class NotNormal(GaloisKitError):
    pass


class InvalidDegree(GaloisKitError):
    pass


class InvalidPolygon(GaloisKitError, ValueError):
    pass


class InternalInvariant(GaloisKitError):
    """A certified-impossible state was reached; indicates an upstream bug."""
