"""Reference computations shared by several test modules; the package
itself never calls them."""

from galois_arrow.field import FieldSpec
from galois_arrow.plane import _cross


def _join_index(f: FieldSpec, a, b) -> int:
    """Plane line index of the join of two distinct points given by their
    values: their cross product, normalized, then indexed."""
    c1, c2, c3 = _cross(f, a, b)
    q = f.order
    if c1:
        s = f._inv_i(c1)
        return f._mul_i(s, c2) * q + f._mul_i(s, c3)
    if c2:
        return q * q + f._mul_i(f._inv_i(c2), c3)
    return q * q + q
