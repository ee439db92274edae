"""Exception hierarchy shared by every module.

Two bases matter for callers: ValidationError covers rejected inputs or
configurations (the CLI maps these to exit code 2), InvariantViolation
covers states that are unreachable for correct inputs (exit code 3).
"""


class GeometryError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(GeometryError):
    """A precondition on user-supplied data failed."""


class InvariantViolation(GeometryError):
    """An internal consistency check failed; indicates a bug, not bad input."""


# --- field construction and arithmetic ---------------------------------------

class CompositeCharacteristic(ValidationError):
    """The requested characteristic is not a prime number."""


class ReducibleModulus(ValidationError):
    """The modulus polynomial factors over its prime field."""


class NoDefaultModulus(ValidationError):
    """No built-in modulus is shipped for the requested (p, n)."""


class InvalidDegree(ValidationError, ValueError):
    """The extension degree is not a positive integer."""


class OrderTooLarge(ValidationError, ValueError):
    """The field order exceeds the supported bound."""


class ModulusDegreeMismatch(ValidationError, ValueError):
    """The modulus degree differs from the requested extension degree."""


class ZeroPolynomial(ValidationError):
    """The zero polynomial was passed where a nonzero one is required."""


class MixedFields(ValidationError):
    """Operands belong to different fields."""


class DivisionByZero(ValidationError):
    """Multiplicative inverse of zero requested."""


class OddCharacteristic(ValidationError):
    """Operation requires characteristic two."""


class EmptyMatrix(ValidationError):
    """A linear solve was given no rows or no columns."""


# --- projective plane ---------------------------------------------------------

class CoincidentPoints(ValidationError):
    """Two equal points do not span a line."""


class CoincidentLines(ValidationError):
    """Two equal lines do not meet in a single point."""


# --- conics -------------------------------------------------------------------

class UnclassifiableConic(InvariantViolation):
    """A degenerate form's zero set has a size that matches no degeneracy class."""


class IntersectionTooLarge(ValidationError):
    """A line met the given point set in three or more points."""


class DegenerateConic(ValidationError):
    """Operation requires a proper (non-degenerate) conic."""


class CollinearTriple(ValidationError):
    """Three of the supplied points are collinear."""


class AmbiguousFit(InvariantViolation):
    """The five-point conic fit did not have a one-dimensional solution space."""


# --- pencils ------------------------------------------------------------------

class BasePoint(ValidationError):
    """Every member of the pencil passes through the given point."""


class NoProperMember(ValidationError):
    """The pencil has no non-degenerate member."""


class NucleiDiffer(ValidationError):
    """The proper members of the pencil do not share a nucleus."""


# --- arcs ---------------------------------------------------------------------

class DuplicatePoints(ValidationError):
    """The point collection contains repeats."""


class PointNotInArc(ValidationError):
    """The point to remove is not a member of the arc."""


class ArcTooSmall(ValidationError):
    """Fewer than five points; the conic fit is underdetermined."""


class NotThroughNucleus(ValidationError):
    """The tangent line does not pass through the nucleus."""


class IntersectionNotSingle(InvariantViolation):
    """A line through the nucleus met the conic in != 1 points."""


class InvalidIdealLine(ValidationError):
    """The ideal line hits a base point or the nucleus."""


class HitsBasePoint(InvalidIdealLine):
    """The ideal line passes through a base point."""


class HitsNucleus(InvalidIdealLine):
    """The ideal line passes through the nucleus."""


class InvalidTangentLine(ValidationError):
    """The chosen line through the nucleus is not usable for the family."""


class DegenerateContactPoint(ValidationError):
    """The contact point lies on a degenerate pencil member."""


class ArcDeltaMismatch(InvariantViolation):
    """The member through the contact point is not Past on the ideal line
    with the contact point as one of its two witnesses."""


class UnsupportedField(ValidationError):
    """No valid configuration exists over this field."""


# --- CLI ----------------------------------------------------------------------

class UsageError(ValidationError):
    """Command line arguments could not be parsed or combined."""
