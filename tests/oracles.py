"""Reference computations shared by several test modules; the package
itself never calls them."""

from collections import Counter
from functools import lru_cache

from galois_arrow.conic import _evaluate_values, point_set
from galois_arrow.errors import OddCharacteristic
from galois_arrow.field import FieldSpec
from galois_arrow.plane import (ProjPoint, _cross, _incidence_indices, _triples, build_plane,
                                incident, line_through, meet)


def _point_set_scan(conic, plane) -> tuple:
    """All plane points where the conic's form vanishes, in plane order, by
    evaluating it at every point of the plane: the oracle of the closed-form
    zero sets (conic._zero_values, point_set)."""
    field, coeffs = conic.field, conic.values
    return tuple([plane.points[i] for i, values in enumerate(_triples(plane.order))
                  if _evaluate_values(field, coeffs, values) == 0])


def _tangent_tally(conic, plane) -> list:
    """The lines meeting the conic in exactly one point, in plane line
    order: the indices of the lines through each of its points are
    tallied, and a tangent is a line counted once.  The oracle of the
    closed-form tangents (conic._tangent_values, tangent_lines)."""
    hits = Counter(i for pt in point_set(conic, plane)
                   for i in _incidence_indices(plane.field, pt.values))
    return [plane.lines[i] for i in sorted(hits) if hits[i] == 1]


def _nucleus_by_tangents(conic, plane) -> ProjPoint:
    """The common point of the conic's tallied tangents: the meet of the
    first two, checked on all the others; OddCharacteristic if they are not
    concurrent.  The oracle of the closed-form nucleus (conic.nucleus)."""
    tangents = _tangent_tally(conic, plane)
    candidate = meet(tangents[0], tangents[1])
    if all(incident(candidate, t) for t in tangents[2:]):
        return candidate
    raise OddCharacteristic("tangent lines are not concurrent")


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
