"""(q+1)-arcs: verification, nucleus augmentation, puncturing, the
is-it-a-conic test, and the family of arcs carved out of the canonical
pencil by a chosen tangent line through the nucleus.

The family construction: fix an ideal line avoiding both base points and
the nucleus, and a line L* through the nucleus missing both base points.
From each proper pencil member delete the single point where L* touches
it and add the nucleus.  Every resulting set is again a (q+1)-arc, and exactly
one of them is tangent to the ideal line.

The configuration's checks (plane.validate_lines, by lines._check_line)
and its contact point A and member Q* in closed form (witnesses._contacts)
are shared with the arrow pass, which loads no module of arcs.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable, NamedTuple

from .errors import (
    ArcTooSmall,
    DegenerateConic,
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
    DegeneracyClass,
    _nucleus_char2,
    classify,
    evaluate,
    fit_conic,
    point_set,
)
from .pencil import Pencil, time_pencil
from .kernel import TimePencilContext, time_pencil_context
from .linetext import _degenerate_contact
from .plane import (Plane, ProjLine, ProjPoint, _line_hits, _triple_index, collinear, incident,
                    validate_lines)
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
    if classify(conic, plane) is not DegeneracyClass.PROPER:
        raise DegenerateConic(f"{conic} is degenerate")
    pts = set(point_set(conic, plane))
    pts.add(_nucleus_char2(conic))
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
    if classify(conic, plane) is not DegeneracyClass.PROPER:
        raise DegenerateConic(f"{conic} is degenerate")
    if not incident(_nucleus_char2(conic), lstar):
        raise NotThroughNucleus(f"{lstar} misses the nucleus")
    # every line through the nucleus is tangent in characteristic 2
    hits = _line_hits(point_set(conic, plane), lstar)
    if len(hits) != 1:
        raise IntersectionNotSingle(f"{lstar} meets the conic in {len(hits)} points")
    return hits[0]


@lru_cache(maxsize=None)
def _member_points(ctx: TimePencilContext) -> tuple[tuple[ProjPoint, ...], ...]:
    """Per proper member x1*x2 + t*x3^2 of the time pencil, in member order,
    its q+1 points in plane order, in O(q) each: (1 : -t*c^2 : c), c in the
    field, then (0:1:0).  Built on first use, once per context;
    conic.point_set's plane scan is the oracle in tests."""
    spec = ctx.spec
    q = spec.order
    mul = spec._mul_i
    points = ctx.plane.points
    out = []
    for t in ctx.ids:
        s = spec._neg_i(t)
        indices = sorted([_triple_index(q, (1, mul(s, mul(c, c)), c)) for c in range(q)])
        # (0:1:0), at index q*q, comes after every (1 : x2 : x3)
        out.append(tuple([points[i] for i in indices] + [points[q * q]]))
    return tuple(out)


def build_time_family(spec: FieldSpec, linf: ProjLine, lstar: ProjLine) -> ArcFamily:
    """Build the arc family: per proper member, delete its touch point on
    lstar and add the nucleus.

    No arc is checked here.  Each proper member's discriminant is nonzero,
    so its q+1 points (_member_points; the tests check that they are zeros
    of its form with distinct joins to N) form an oval.  In characteristic
    2 its nucleus N joins them by q+1 distinct lines, so the oval plus N is
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
    """
    if spec.characteristic != 2:
        raise OddCharacteristic("the family construction needs characteristic 2")
    if spec.order < 4:
        raise UnsupportedField("no valid configuration exists over GF(2)")
    ctx = time_pencil_context(spec)
    validate_lines(ctx, (linf,), (lstar,))
    (contact,) = _contacts(spec, linf.values, (lstar.values[1],))
    if contact is None:
        raise _degenerate_contact(spec, linf.values, lstar.values[1])
    index, t = contact
    k = spec._inv_i(lstar.values[1])
    member_points = _member_points(ctx)
    touches = tuple([pts[k] for pts in member_points])
    arcs = tuple([Arc(pts[:k] + pts[k + 1:] + (ctx.N,)) for pts in member_points])
    provenance = FamilyProvenance(time_pencil(spec), linf, lstar, ctx.plane.points[index],
                                  (1, t))
    return ArcFamily(spec, ctx.plane, arcs, ctx.ids, ctx.thetas, touches, provenance)


def family_to_dict(family: ArcFamily) -> dict:
    """JSON-ready view: configuration plus one entry per member."""
    spec = family.spec
    prov = family.provenance
    fmt = spec.format
    # Whether each member lies on a conic, in closed form; is_conic_arc is
    # the oracle.  A member is C - P + N: a pencil conic C without its touch
    # point P on L*, plus the nucleus N.  At q = 4 that is 5 points, no
    # three collinear, which lie on exactly one conic.  At q >= 8, a conic
    # C' through C - P + N would share those q > 4 points with C, and two
    # distinct conics share at most 4, so C' = C; but N is not on C.
    is_conic = spec.order == 4
    return {
        "q": spec.order,
        "Linf": str(prov.linf),
        "Lstar": str(prov.lstar),
        "A": str(prov.contact_point),
        "Qstar_theta": [fmt(prov.qstar_theta[0]), fmt(prov.qstar_theta[1])],
        "members": [
            {
                "theta": [fmt(theta[0]), fmt(theta[1])],
                "points": [str(p) for p in arc.points],
                "is_conic": is_conic,
            }
            for theta, arc in zip(family.thetas, family.members)
        ],
    }
