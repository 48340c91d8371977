"""Exception types shared across the package."""


class GkmError(Exception):
    """Base class for all errors raised by this package."""


class NotDivisible(GkmError):
    """An exact polynomial division left a nonzero remainder."""


class GenericityError(GkmError):
    """A chosen direction vector pairs to zero with some edge weight."""


class GraphFormatError(GkmError):
    """Malformed graph, tower, or orbit input data."""


class NotScalarRatio(GkmError):
    """Two polynomials expected to be proportional are not."""


class NonIntegerTheta(GkmError):
    """An edge scalar that must be a nonzero integer is not an integer."""


class ThetaNotOne(GkmError):
    """An orbit canonical-graph edge has scalar different from one."""


class WellDefinednessViolation(GkmError):
    """A path-sum denominator vanished; the input data is inconsistent."""


class NoSeparatingClass(GkmError):
    """Some canonical edge is separated by none of the supplied classes."""


class WeightNotPreserved(GkmError):
    """A tower level fails the weight-preservation check on an edge."""


class NotHorizontal(GkmError):
    """A path expected to project injectively step-by-step does not."""


class NoSolution(GkmError):
    """The localization congruences admit no solution (corrupt input)."""


class NonUniqueSolution(GkmError):
    """The localization congruences do not pin down a unique solution."""


class SubwordCapExceeded(GkmError):
    """A reduced word is too long for exhaustive subword enumeration."""
