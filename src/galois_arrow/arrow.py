"""Temporal classification against a chosen ideal line.

Once an ideal line is fixed, each conic or arc falls into one of three
classes by how many points it shares with that line: two (Past), one
(Present), zero (Future).  Over GF(2^n) the proper members of the
canonical pencil can never be tangent to a valid ideal line - their
common nucleus is off it - so the pencil's arrow has no Present.  The
arc family built from the same pencil restores exactly one Present
member.

Both arrows classify in closed form: a proper member meets a valid ideal
line where y^2 + y = k for one k of the field, which has two roots when
the absolute trace of k is 0 and none otherwise (Lidl and Niederreiter,
Finite Fields).  A table of roots per field turns each member into one
lookup; the incidence scan (classify_member) is the oracle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import IntersectionTooLarge, OddCharacteristic
from .field import FieldSpec
from .arc import ArcFamily
from .pencil import time_pencil_context, validate_ideal_line
from .plane import ProjLine, ProjPoint, _line_hits, _triple_index


class TemporalClass(enum.Enum):
    PAST = "Past"
    PRESENT = "Present"
    FUTURE = "Future"

    def __str__(self):
        return self.value


# indexed by the number of points on the ideal line, as conic._line_class
_TEMPORAL_BY_HITS = (TemporalClass.FUTURE, TemporalClass.PRESENT, TemporalClass.PAST)


@dataclass(frozen=True)
class MemberClassification:
    member_id: int
    theta: tuple[int, int]
    temporal: TemporalClass
    witnesses: tuple[ProjPoint, ...]   # the member's points on the ideal line


@dataclass(frozen=True)
class ArrowReport:
    """Per-member temporal classes plus tallies, for one ideal line."""
    q: int
    mode: str                          # "conic" or "arc"
    ideal_line: ProjLine
    classifications: tuple[MemberClassification, ...]

    @property
    def tallies(self) -> dict[str, int]:
        temporals = [c.temporal for c in self.classifications]
        # list.count compares by identity first, so no enum attribute is read
        return {"past": temporals.count(TemporalClass.PAST),
                "present": temporals.count(TemporalClass.PRESENT),
                "future": temporals.count(TemporalClass.FUTURE)}

    @property
    def present_member_ids(self) -> tuple[int, ...]:
        return tuple(c.member_id for c in self.classifications
                     if c.temporal is TemporalClass.PRESENT)

    def to_dict(self) -> dict:
        fmt = self.ideal_line.field.format
        return {
            "q": self.q,
            "mode": self.mode,
            "ideal_line": str(self.ideal_line),
            "tallies": self.tallies,
            "members": [
                {
                    "id": c.member_id,
                    "theta": [fmt(c.theta[0]), fmt(c.theta[1])],
                    "class": str(c.temporal),
                    "witnesses": [str(p) for p in c.witnesses],
                }
                for c in self.classifications
            ],
        }


def classify_member(points, linf: ProjLine) -> TemporalClass:
    """Secant -> Past, tangent -> Present, external -> Future."""
    hits = len(_line_hits(points, linf))
    if hits > 2:   # as conic._line_class
        raise IntersectionTooLarge(f"line {linf} meets the set in {hits} points")
    return _TEMPORAL_BY_HITS[hits]


def _report(spec: FieldSpec, mode: str, linf: ProjLine,
            contact: ProjPoint | None = None) -> ArrowReport:
    """Class each proper member of the time pencil by its points on linf,
    which are its witnesses, in plane order; both arrows classify here.

    linf = (1 : b : c), bc != 0, misses (0:1:0) and meets the member
    x1*x2 + t*x3^2 at the points (1 : t*s^2 : s) with b*t*s^2 + c*s = 1.
    With k = (b/c^2)*t and s = d*y, d = 1/(c*k), that is y^2 + y = k: two
    roots y, y + 1 when Tr(k) = 0 (Past), none otherwise (Future).  A
    contact point is left out of the witnesses, which makes its member
    Present."""
    ctx = time_pencil_context(spec)
    q = spec.order
    mul, inv = spec._mul_i, spec._inv_i
    roots, points = ctx.roots, ctx.plane.points
    _, b, c = linf.values
    u = mul(b, inv(mul(c, c)))
    # plane indices are compared, not points: no index is -1
    drop = -1 if contact is None else _triple_index(q, contact.values)
    classifications = []
    for member_id, theta in zip(ctx.ids, ctx.thetas):
        t = theta[1]
        k = mul(u, t)
        y = roots[k]
        hits = ()
        if y is not None:
            d = inv(mul(c, k))
            s0 = mul(d, y)
            s1 = s0 ^ d
            i0 = mul(t, mul(s0, s0)) * q + s0
            i1 = mul(t, mul(s1, s1)) * q + s1
            if i0 > i1:
                i0, i1 = i1, i0
            hits = ((points[i1],) if i0 == drop else (points[i0],) if i1 == drop
                    else (points[i0], points[i1]))
        classifications.append(MemberClassification(
            member_id, theta, _TEMPORAL_BY_HITS[len(hits)], hits))
    return ArrowReport(q, mode, linf, tuple(classifications))


def conic_arrow(spec: FieldSpec, linf: ProjLine) -> ArrowReport:
    """Classify the proper members of the canonical pencil against the
    ideal line.  Over GF(2^n) the Present tally is always zero."""
    if spec.characteristic != 2:
        raise OddCharacteristic("the conic arrow is defined over GF(2^n)")
    validate_ideal_line(linf, time_pencil_context(spec).plane)
    return _report(spec, "conic", linf)


def arc_arrow(family: ArcFamily) -> ArrowReport:
    """Classify every member of an arc family against the family's own
    ideal line; exactly one member comes out Present.

    This is the conic arrow with the contact point A = L-infinity ∧ L*
    removed: an arc member is its conic member minus its touch point on
    L*, plus N; N is off every valid L-infinity, and a touch point lies on
    L-infinity only when it is A.  So only the family's provenance is read,
    not its members."""
    prov = family.provenance
    return _report(family.spec, "arc", prov.linf, prov.contact_point)
