"""(q+1)-arcs: verification, nucleus augmentation, puncturing, the
is-it-a-conic test, and the family of arcs carved out of the canonical
pencil by a chosen tangent line through the nucleus.

The family construction: fix an ideal line avoiding both base points and
the nucleus, and a line L* through the nucleus missing both base points.
From each proper pencil member delete the single point where L* touches
it and add the nucleus.  Every resulting set is again a (q+1)-arc, and exactly
one of them is tangent to the ideal line.

A family is its two lines: ArcFamily stores L-infinity and L*, as
build_time_family checked them, and nothing else.  Its field and time
pencil, its members' ids and thetas, its touch points, its contact point
A and the member Q* through A, and its arcs are functions of those lines,
so each is a property made when read: the pencil, A and Q* in O(1), A
and Q* from _check_configuration (witnesses._contacts), the ids, thetas
and touch points in O(q), the arcs in O(q^2).  A member's arc is made
from values: _member_values gives one member's, its zero set in plane
order (conic._zero_values, in O(q)) without its touch point on L* and
with N last, and ArcFamily.members makes them items of the plane
build_plane(spec).  No function here takes a plane; augment_with_nucleus
and touch_point read the field from the conic.  The family command
prints the text of _member_values (payloads.py), and family_to_dict of
the built family is its oracle in tests.  Both check a configuration by
one function, _check_configuration, on the lines' values: the field, each
line (lines._check_line) and the contact point A and member Q* in closed
form (witnesses._contacts); the arrow pass, which loads no module of
arcs, runs the same line checks and contacts.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, NamedTuple

from .errors import (
    ArcTooSmall,
    DuplicatePoints,
    IntersectionNotSingle,
    MixedFields,
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
from .kernel import Values
from .lines import _check_line
from .linetext import _degenerate_contact
from .plane import (ProjLine, ProjPoint, _line_hits, _triple_index, build_plane, collinear,
                    incident)
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


class ArcFamily(NamedTuple):
    """The arc family on (L-infinity, L*): one arc per proper member (1, t)
    of the time pencil, id t = 1 .. q-1, in member order.  It stores only
    its two lines, normalized and checked by build_time_family; each other
    attribute is a function of them, made on each read at the cost it
    names, so two families are equal and hashed by their lines."""
    linf: ProjLine
    lstar: ProjLine

    @property
    def spec(self) -> FieldSpec:
        return self.linf.field

    @property
    def pencil(self) -> Pencil:
        """The time pencil the family is cut from, O(1)."""
        return time_pencil(self.spec)

    @property
    def member_ids(self) -> tuple[int, ...]:
        """The proper members' ids t = 1 .. q-1, O(q)."""
        return tuple(range(1, self.spec.order))

    @property
    def thetas(self) -> tuple[tuple[int, int], ...]:
        """The proper members' parameters (1, t), in member order, O(q)."""
        return tuple([(1, t) for t in range(1, self.spec.order)])

    @property
    def touch_points(self) -> tuple[ProjPoint, ...]:
        """The point where L* touches each member, in member order, O(q):
        the point (1 : 1/a : c) of L* = (1 : a : 0) lies on the member
        t = 1/(a*c^2), at position t - 1 (see build_time_family)."""
        spec, a = self.spec, self.lstar.values[1]
        inv, mul, item = spec._inv, spec._mul_i, build_plane(spec).points._item
        touches = [None] * (spec.order - 1)
        for c in range(1, spec.order):
            touches[inv[mul(a, mul(c, c))] - 1] = item((1, inv[a], c))
        return tuple(touches)

    @property
    def contact_point(self) -> ProjPoint:
        """A = linf ∧ lstar, O(1), from _check_configuration."""
        index, _ = _check_configuration(self.spec, self.linf.values, self.lstar.values)
        return build_plane(self.spec).points[index]

    @property
    def qstar_theta(self) -> tuple[int, int]:
        """The parameter (1, t) of the proper member Q* through A, O(1)."""
        _, t = _check_configuration(self.spec, self.linf.values, self.lstar.values)
        return (1, t)

    @property
    def members(self) -> tuple[Arc, ...]:
        """The members' arcs (_member_values), O(q^2) points."""
        item, a = build_plane(self.spec).points._item, self.lstar.values[1]
        return tuple(Arc(tuple(map(item, _member_values(self.spec, a, t))))
                     for t in range(1, self.spec.order))


def is_arc(points: Iterable[ProjPoint]) -> bool:
    """Exhaustive check that no three of the points are collinear."""
    pts = list(points)
    if len(set(pts)) != len(pts):
        raise DuplicatePoints("arc candidates must be distinct points")
    return not any(collinear(a, b, c) for a, b, c in combinations(pts, 3))


def augment_with_nucleus(conic: Conic) -> Arc:
    """The conic's points plus its nucleus: a (q+2)-arc for q even."""
    if conic.field.characteristic != 2:
        raise OddCharacteristic("only even-order conics have a nucleus")
    pts = {nucleus(conic), *point_set(conic)}
    q = conic.field.order
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


def touch_point(conic: Conic, lstar: ProjLine) -> ProjPoint:
    """The single point where a line through the nucleus meets the conic."""
    if conic.field.characteristic != 2:
        raise OddCharacteristic("touch points need characteristic 2")
    if not incident(nucleus(conic), lstar):
        raise NotThroughNucleus(f"{lstar} misses the nucleus")
    # every line through the nucleus is tangent in characteristic 2
    hits = _line_hits(point_set(conic), lstar)
    if len(hits) != 1:
        raise IntersectionNotSingle(f"{lstar} meets the conic in {len(hits)} points")
    return hits[0]


def _member_values(spec: FieldSpec, a: int, t: int) -> list[Values]:
    """The arc of the proper member x1*x2 + t*x3^2, t != 0, of the time
    pencil on L* = (1 : a : 0), as values: its zero set in plane order
    (conic._zero_values) without its touch point on L*, at position 1/a,
    and with N = (0:0:1) last (see build_time_family)."""
    points = _zero_values(spec, (0, 1, 0, 0, 0, t))
    del points[spec._inv[a]]
    points.append((0, 0, 1))
    return points


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
    """The arc family on (linf, lstar): per proper member, delete its touch
    point on lstar and add the nucleus.  Lines of another field are refused
    (MixedFields), then the configuration by _check_configuration's checks,
    in their order; the family is the two lines, so once they pass the
    build does no more work.

    No arc is checked here.  Each proper member's discriminant is nonzero,
    so its q+1 points (its zero set; the tests check that they have
    distinct joins to N) form an oval.  In characteristic 2 its nucleus N
    joins them by q+1 distinct lines, so the oval plus N is
    a (q+2)-arc, and the member, without its touch point, stays an arc for
    every lstar.  Each arc keeps its member's plane order, N being the last
    plane point.

    All of the family is in closed form, with no census of the members.
    The contact point A and the member Q* through it come from _contacts.
    The points of lstar = (1 : a : 0), that is x1 = a*x2, are N, on x1*x2,
    and the points (1 : 1/a : x3): one on x3^2 and one on each proper
    member x1*x2 + t*x3^2, its touch point.  That member's points
    (1 : t*c^2 : c) have x2 = t*c^2, which takes each value of the field
    once as c does, squaring being a bijection in characteristic 2; so in
    plane order its point with x2 = v is at position v, and its touch point
    at position 1/a (_member_values).  The touch points are one pass over
    c != 0: the point (1 : 1/a : c) lies on the member t = 1/(a*c^2), at
    position t - 1 of the member order, with no square root taken
    (ArcFamily.touch_points).  member_through over the points of lstar is
    the oracle in tests.
    """
    if linf.field != spec or lstar.field != spec:
        raise MixedFields("the family's lines belong to a different field")
    _check_configuration(spec, linf.values, lstar.values)
    return ArcFamily(linf, lstar)


def family_to_dict(family: ArcFamily) -> dict:
    """JSON-ready view: configuration plus one entry per member."""
    spec = family.spec
    fmt = spec.format
    is_conic = _is_conic(spec.order)
    return {
        "q": spec.order,
        "Linf": str(family.linf),
        "Lstar": str(family.lstar),
        "A": str(family.contact_point),
        "Qstar_theta": [*map(fmt, family.qstar_theta)],
        "members": [
            {
                "theta": [*map(fmt, theta)],
                "points": [str(p) for p in arc.points],
                "is_conic": is_conic,
            }
            for theta, arc in zip(family.thetas, family.members)
        ],
    }
