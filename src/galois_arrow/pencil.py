"""Pencils of conics: member enumeration over the projective parameter,
base points, and the canonical pencil used for temporal classification.

The canonical ("time") pencil is spanned by x1*x2 and x3^2.  Its members
are indexed by theta = (t1, t2), normalized so the first nonzero entry is
1; the enumeration runs (1, t2) over the field order and ends with (0, 1).
The member (1, t) has discriminant -t, so the proper members are (1, t),
t != 0, and the two degenerate ones are the real line pair (1, 0) and the
double line (0, 1).  The time pencil context keeps these closed forms;
members(), the census by classify, is their oracle.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from typing import NamedTuple

from .errors import (
    BasePoint,
    HitsBasePoint,
    HitsNucleus,
    NoProperMember,
    NucleiDiffer,
)
from .field import FieldSpec
from .conic import (
    Conic,
    DegeneracyClass,
    _evaluate_values,
    _nucleus_char2,
    classify,
)
from .plane import (
    Plane,
    ProjLine,
    ProjPoint,
    _check_field,
    _normalize,
    _triples,
    build_plane,
)


class Pencil(namedtuple("Pencil", "generator1 generator2")):
    """Two linearly independent generator conics."""
    __slots__ = ()

    def __new__(cls, generator1: Conic, generator2: Conic):
        if generator1.field != generator2.field:
            raise ValueError("generators must come from the same field")
        if generator1 == generator2:
            # conics are stored normalized, so equality == proportionality
            raise ValueError("generators must be linearly independent")
        return super().__new__(cls, generator1, generator2)

    @property
    def field(self) -> FieldSpec:
        return self.generator1.field


class PencilMember(NamedTuple):
    """One member: its normalized parameter, its conic, and its degeneracy."""
    theta: tuple[int, int]
    conic: Conic
    degeneracy: DegeneracyClass

    @property
    def is_proper(self) -> bool:
        return self.degeneracy is DegeneracyClass.PROPER


def time_pencil(spec: FieldSpec) -> Pencil:
    """The canonical pencil spanned by x1*x2 and x3^2."""
    return Pencil(Conic(spec, (0, 1, 0, 0, 0, 0)), Conic(spec, (0, 0, 0, 0, 0, 1)))


def _combine(pencil: Pencil, theta: tuple[int, int]) -> Conic:
    field = pencil.field
    mul, add = field._mul_i, field._add_i
    t1, t2 = theta
    coeffs = [add(mul(t1, a), mul(t2, b))
              for a, b in zip(pencil.generator1.values, pencil.generator2.values)]
    return Conic(field, coeffs)


@lru_cache(maxsize=None)
def members(pencil: Pencil, plane: Plane) -> tuple[PencilMember, ...]:
    """All q+1 members, one per normalized parameter: (1, t) in field
    order, then (0, 1) last."""
    thetas = [(1, t) for t in range(pencil.field.order)] + [(0, 1)]
    out = []
    for theta in thetas:
        conic = _combine(pencil, theta)
        out.append(PencilMember(theta, conic, classify(conic, plane)))
    return tuple(out)


def base_points(pencil: Pencil, plane: Plane) -> tuple[ProjPoint, ...]:
    """Points lying on every member, i.e. on both generators; plane order."""
    field = pencil.field
    g1, g2 = pencil.generator1.values, pencil.generator2.values
    return tuple([plane.points[i] for i, values in enumerate(_triples(plane.order))
                  if _evaluate_values(field, g1, values) == 0
                  and _evaluate_values(field, g2, values) == 0])


def member_through(pencil: Pencil, point: ProjPoint, plane: Plane) -> PencilMember:
    """The unique member whose conic vanishes at the point."""
    field = pencil.field
    v1 = _evaluate_values(field, pencil.generator1.values, point.values)
    v2 = _evaluate_values(field, pencil.generator2.values, point.values)
    if v1 == 0 and v2 == 0:
        raise BasePoint(f"{point} lies on every member")
    t1, t2 = _normalize(field, (v2, field._neg_i(v1)))
    # members() lists (1, t) at position t and (0, 1) last, at position q
    return members(pencil, plane)[t2 if t1 else field.order]


def common_nucleus(pencil: Pencil, plane: Plane) -> ProjPoint:
    """The nucleus shared by all proper members (characteristic 2), each
    member's in closed form; conic.nucleus, from its tangents, is the oracle.

    NucleiDiffer is a legitimate outcome for general pencils, not a bug.
    """
    proper = [m for m in members(pencil, plane) if m.is_proper]
    if not proper:
        raise NoProperMember("pencil has no proper member")
    nuclei = [_nucleus_char2(m.conic) for m in proper]
    first = nuclei[0]
    if any(nuc != first for nuc in nuclei[1:]):
        raise NucleiDiffer("proper members have distinct nuclei")
    return first


# ---------------------------------------------------------------------------
# shared, cached machinery around the canonical pencil

def validate_ideal_line(linf: ProjLine, plane: Plane) -> None:
    """Reject ideal lines through a base point, B1 = (0:1:0) or
    B2 = (1:0:0), or the nucleus N = (0:0:1).

    Valid lines are exactly those with all three coefficients nonzero.
    """
    _check_field(linf, plane)
    l1, l2, l3 = linf.values
    if not (l1 and l2):
        raise HitsBasePoint(f"ideal line {linf} passes through a base point")
    if not l3:
        raise HitsNucleus(f"ideal line {linf} passes through the nucleus (0:0:1)")


def _quadratic_roots(spec: FieldSpec) -> list[int | None]:
    """For each k of GF(2^n), a root y of y^2 + y = k, or None if there is
    none, which is exactly when the absolute trace of k is 1; y + 1 is the
    other root.  y -> y^2 + y is two-to-one, so one pass over y fills it."""
    roots = [None] * spec.order
    for y in range(spec.order):
        roots[spec._mul_i(y, y) ^ y] = y
    return roots


class TimePencilContext:
    """Plane, canonical pencil, the proper members' ids and thetas, and the
    distinguished points B1, B2 and N every temporal construction needs,
    all in closed form.  One per field, cached.

    The proper members are (1, t), t != 0 (see the module docstring), at
    position t of members(), which is their id.  In characteristic 2, roots
    is _quadratic_roots(spec), by which arrow._orbit classifies each member
    on an ideal line, and orbits keeps those classifications."""

    __slots__ = ("spec", "plane", "pencil", "ids", "thetas", "roots", "orbits",
                 "B1", "B2", "N")

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.plane = build_plane(spec)
        self.pencil = time_pencil(spec)
        self.B1 = ProjPoint(spec, (0, 1, 0))
        self.B2 = ProjPoint(spec, (1, 0, 0))
        self.N = ProjPoint(spec, (0, 0, 1))
        self.ids = tuple(range(1, spec.order))
        self.thetas = tuple([(1, t) for t in self.ids])
        self.roots = _quadratic_roots(spec) if spec.characteristic == 2 else None
        self.orbits: dict[int, tuple[int | None, ...]] = {}   # arrow._orbit, per orbit u

    def valid_ideal_lines(self) -> tuple[ProjLine, ...]:
        """Lines passing validate_ideal_line, those with all three
        coefficients nonzero, which are the lines (1 : b : c) with bc != 0,
        at index b*q + c, in plane line order."""
        q = self.spec.order
        lines = self.plane.lines
        return tuple([lines[b * q + c] for b in range(1, q) for c in range(1, q)])

    def valid_tangent_lines(self) -> tuple[ProjLine, ...]:
        """Lines through N other than (1:0:0) and (0:1:0), its joins with B1
        and B2, which are the lines (1 : a : 0) with a != 0, at index a*q, in
        plane line order."""
        q = self.spec.order
        return tuple(self.plane.lines[a * q] for a in range(1, q))


@lru_cache(maxsize=None)
def time_pencil_context(spec: FieldSpec) -> TimePencilContext:
    return TimePencilContext(spec)
