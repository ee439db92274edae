"""(q+1)-arcs: verification, nucleus augmentation, puncturing, the
is-it-a-conic test, and the family of arcs carved out of the canonical
pencil by a chosen tangent line through the nucleus.

The family construction: fix an ideal line avoiding both base points and
the nucleus, and a line L* through the nucleus missing both base points.
From each proper pencil member delete the single point where L* touches
it and add the nucleus.  Every resulting set is again a (q+1)-arc, and exactly
one of them is tangent to the ideal line.

The family's points are values first: each proper member's points are
its zero set in plane order (conic._zero_values, in O(q)), and
_family_values gives, one member at a time, its touch point on L* and
its arc.  build_time_family makes them items of the plane
build_plane(spec), its member ids and thetas read from
the kernel's time-pencil context; the family command prints their text
(payloads.py), and family_to_dict of the built family is its oracle in
tests.  Both check a configuration by one function, _check_configuration,
on the lines' values: the field, each line (lines._check_line) and the
contact point A and member Q* in closed form (witnesses._contacts); the
arrow pass, which loads no module of arcs, runs the same line checks and
contacts.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple

from .errors import (
    ArcTooSmall,
    DuplicatePoints,
    IntersectionNotSingle,
    NotThroughNucleus,
    OddCharacteristic,
    PointNotInArc,
    UnsupportedField,
)
from .field import FieldSpec
from .conic import (
    Conic,
    _zero_values,
    evaluate,
    fit_conic,
    nucleus,
    point_set,
)
from .pencil import Pencil, time_pencil
from .kernel import Values, time_pencil_context
from .lines import _check_line
from .linetext import _degenerate_contact
from .plane import (Plane, ProjLine, ProjPoint, _check_field, _line_hits, _triple_index,
                    build_plane, collinear, incident)
from .witnesses import _contacts


class Arc:
    """A set of points no three of which are collinear, in a fixed order.

    Immutable, equal and hashed by its points; not a tuple, so that len()
    and iteration are not those of a one-field record."""
    __slots__ = ("points",)

    def __init__(self, points: tuple[ProjPoint, ...]):
        object.__setattr__(self, "points", points)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of an Arc")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of an Arc")

    def __eq__(self, other):
        return self.points == other.points if type(other) is Arc else NotImplemented

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return f"Arc(points={self.points!r})"

    @property
    def size(self) -> int:
        return len(self.points)

    def __contains__(self, point: ProjPoint) -> bool:
        return point in self.points

    def __iter__(self):
        return iter(self.points)


class FamilyProvenance(NamedTuple):
    """What the family was built from, kept for auditability."""
    pencil: Pencil
    linf: ProjLine
    lstar: ProjLine
    contact_point: ProjPoint           # A = linf ∧ lstar
    qstar_theta: tuple[int, int]       # parameter of the member through A


class ArcFamily(NamedTuple):
    """One arc per proper pencil member, in member order."""
    spec: FieldSpec
    plane: Plane
    members: tuple[Arc, ...]
    member_ids: tuple[int, ...]
    thetas: tuple[tuple[int, int], ...]
    touch_points: tuple[ProjPoint, ...]
    provenance: FamilyProvenance


def is_arc(points: Iterable[ProjPoint]) -> bool:
    """Exhaustive check that no three of the points are collinear."""
    pts = list(points)
    if len(set(pts)) != len(pts):
        raise DuplicatePoints("arc candidates must be distinct points")
    return not any(collinear(a, b, c) for a, b, c in combinations(pts, 3))


def augment_with_nucleus(conic: Conic, plane: Plane) -> Arc:
    """The conic's points plus its nucleus: a (q+2)-arc for q even."""
    if plane.field.characteristic != 2:
        raise OddCharacteristic("only even-order conics have a nucleus")
    pts = {nucleus(conic, plane), *point_set(conic, plane)}
    q = plane.order
    return Arc(tuple(sorted(pts, key=lambda pt: _triple_index(q, pt.values))))


def puncture(arc: Arc, point: ProjPoint) -> Arc:
    """Remove one point; the rest is still an arc."""
    if point not in arc.points:
        raise PointNotInArc(f"{point} is not in the arc")
    return Arc(tuple(p for p in arc.points if p != point))


def is_conic_arc(arc: Arc) -> bool:
    """Whether the arc lies on a conic.

    Fits the unique conic through the first five points (the arc's
    canonical order) and checks containment of the rest; uniqueness of the
    five-point fit makes one subset sufficient.
    """
    if arc.size < 5:
        raise ArcTooSmall("need at least 5 points to pin down a conic")
    fitted = fit_conic(arc.points[:5])
    return all(not evaluate(fitted, p) for p in arc.points)


def touch_point(conic: Conic, lstar: ProjLine, plane: Plane) -> ProjPoint:
    """The single point where a line through the nucleus meets the conic."""
    if plane.field.characteristic != 2:
        raise OddCharacteristic("touch points need characteristic 2")
    if not incident(nucleus(conic, plane), lstar):
        raise NotThroughNucleus(f"{lstar} misses the nucleus")
    # every line through the nucleus is tangent in characteristic 2
    hits = _line_hits(point_set(conic, plane), lstar)
    if len(hits) != 1:
        raise IntersectionNotSingle(f"{lstar} meets the conic in {len(hits)} points")
    return hits[0]


def _family_values(spec: FieldSpec, a: int) -> Iterator[tuple[Values, list[Values]]]:
    """Per proper member x1*x2 + t*x3^2, t != 0, of the time pencil, in
    member order, one at a time, as values: its touch point on
    L* = (1 : a : 0), at position 1/a of its zero set (conic._zero_values,
    in plane order), and its arc, those points without it and with
    N = (0:0:1) last (see build_time_family)."""
    k = spec._inv[a]
    for t in range(1, spec.order):
        points = _zero_values(spec, (0, 1, 0, 0, 0, t))
        touch = points.pop(k)
        points.append((0, 0, 1))
        yield touch, points


@lru_cache(maxsize=1)
def _family_items(spec: FieldSpec, a: int) -> tuple:
    """The touch points and the arcs' points of the family on
    L* = (1 : a : 0) (_family_values), as plane items.  They depend on
    (spec, a) alone, not on the ideal line, so the families of one L*
    share them; the last L*'s are kept."""
    item = build_plane(spec).points._item
    return tuple(zip(*[(item(touch), tuple(map(item, points)))
                       for touch, points in _family_values(spec, a)]))


def _check_configuration(spec: FieldSpec, linf: Values, lstar: Values) -> tuple[int, int]:
    """The checks of a family configuration over spec, its lines given by
    their normalized values, in this order: the field (characteristic 2,
    q >= 4), the ideal line, then L* (lines._check_line), then the
    contact point A = linf ∧ lstar, refused if it lies on a degenerate
    member.  Returns, from witnesses._contacts, the plane index of A and
    the t of the proper member Q* = (1, t) through it."""
    if spec.characteristic != 2:
        raise OddCharacteristic("the family construction needs characteristic 2")
    if spec.order < 4:
        raise UnsupportedField("no valid configuration exists over GF(2)")
    _check_line(spec, linf, False)
    _check_line(spec, lstar, True)
    (contact,) = _contacts(spec, linf, (lstar[1],))
    if contact is None:
        raise _degenerate_contact(spec, linf, lstar[1])
    return contact


def _is_conic(q: int) -> bool:
    """Whether each member of a family over GF(q) lies on a conic, in closed
    form; is_conic_arc is the oracle.  A member is C - P + N: a pencil conic
    C without its touch point P on L*, plus the nucleus N.  At q = 4 that
    is 5 points, no three collinear, which lie on exactly one conic.  At
    q >= 8, a conic C' through C - P + N would share those q > 4 points
    with C, and two distinct conics share at most 4, so C' = C; but N is
    not on C."""
    return q == 4


def build_time_family(spec: FieldSpec, linf: ProjLine, lstar: ProjLine) -> ArcFamily:
    """Build the arc family: per proper member, delete its touch point on
    lstar and add the nucleus.

    No arc is checked here.  Each proper member's discriminant is nonzero,
    so its q+1 points (its zero set; the tests check that they have
    distinct joins to N) form an oval.  In characteristic 2 its nucleus N
    joins them by q+1 distinct lines, so the oval plus N is
    a (q+2)-arc, and the member, without its touch point, stays an arc for
    every lstar.  Each arc keeps its member's plane order, N being the last
    plane point.

    All of it is in closed form, with no census of the members.  The
    contact point A and the member Q* through it come from _contacts.  The
    points of lstar = (1 : a : 0), that is x1 = a*x2, are N, on x1*x2, and
    the points (1 : 1/a : x3): one on x3^2 and one on each proper member
    x1*x2 + t*x3^2, its touch point.  That member's points (1 : t*c^2 : c)
    have x2 = t*c^2, which takes each value of the field once as c does,
    squaring being a bijection in characteristic 2; so in plane order its
    point with x2 = v is at position v, and its touch point at position
    1/a.  member_through over the points of lstar is the oracle in tests.
    The family's points are those of _family_values, each made a plane
    item (_family_items).

    Lines of another field are refused (MixedFields) before the checks of
    _check_configuration.
    """
    ctx = time_pencil_context(spec)
    plane = build_plane(spec)
    _check_field(linf, plane)
    _check_field(lstar, plane)
    index, t = _check_configuration(spec, linf.values, lstar.values)
    touches, arcs = _family_items(spec, lstar.values[1])
    provenance = FamilyProvenance(time_pencil(spec), linf, lstar, plane.points[index], (1, t))
    return ArcFamily(spec, plane, tuple(map(Arc, arcs)), ctx.ids, ctx.thetas, touches,
                     provenance)


def family_to_dict(family: ArcFamily) -> dict:
    """JSON-ready view: configuration plus one entry per member."""
    spec = family.spec
    prov = family.provenance
    fmt = spec.format
    is_conic = _is_conic(spec.order)
    return {
        "q": spec.order,
        "Linf": str(prov.linf),
        "Lstar": str(prov.lstar),
        "A": str(prov.contact_point),
        "Qstar_theta": [*map(fmt, prov.qstar_theta)],
        "members": [
            {
                "theta": [*map(fmt, theta)],
                "points": [str(p) for p in arc.points],
                "is_conic": is_conic,
            }
            for theta, arc in zip(family.thetas, family.members)
        ],
    }
