"""Reference computations shared by several test modules; the package
itself never calls them."""

from functools import lru_cache

from galois_arrow.field import FieldSpec
from galois_arrow.plane import ProjPoint, _cross, build_plane, incident, line_through


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


def _base_points_and_nucleus(f: FieldSpec) -> tuple[ProjPoint, ProjPoint, ProjPoint]:
    """The time pencil's base points B1 = (0:1:0) and B2 = (1:0:0) and its
    nucleus N = (0:0:1)."""
    return tuple(ProjPoint(f, values) for values in ((0, 1, 0), (1, 0, 0), (0, 0, 1)))


@lru_cache(maxsize=None)
def _valid_ideal_lines(f: FieldSpec) -> tuple:
    """The plane's lines that miss B1, B2 and N, in plane line order, by
    incidence with every line: the sweep's ideal lines."""
    points = _base_points_and_nucleus(f)
    return tuple([line for line in build_plane(f).lines
                  if not any(incident(point, line) for point in points)])


@lru_cache(maxsize=None)
def _valid_tangent_lines(f: FieldSpec) -> tuple:
    """The plane's lines through N other than its joins with B1 and B2, in
    plane line order, by incidence with every line: the sweep's lines L*."""
    b1, b2, n = _base_points_and_nucleus(f)
    joins = (line_through(n, b1), line_through(n, b2))
    return tuple([line for line in build_plane(f).lines
                  if incident(n, line) and line not in joins])
