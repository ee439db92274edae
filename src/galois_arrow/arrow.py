"""Temporal classification against a chosen ideal line.

Once an ideal line is fixed, each conic or arc falls into one of three
classes by how many points it shares with that line: two (Past), one
(Present), zero (Future).  Over GF(2^n) the proper members of the
canonical pencil can never be tangent to a valid ideal line - their
common nucleus is off it - so the pencil's arrow has no Present.  The
arc family built from the same pencil restores exactly one Present
member.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import IntersectionTooLarge, OddCharacteristic
from .field import FieldSpec
from .arc import ArcFamily
from .pencil import time_pencil_context, validate_ideal_line
from .plane import Plane, ProjLine, ProjPoint, _line_hits


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


def _temporal(hits: int, linf: ProjLine) -> TemporalClass:
    if hits > 2:   # as conic._line_class
        raise IntersectionTooLarge(f"line {linf} meets the set in {hits} points")
    return _TEMPORAL_BY_HITS[hits]


def classify_member(points, linf: ProjLine) -> TemporalClass:
    """Secant -> Past, tangent -> Present, external -> Future."""
    return _temporal(len(_line_hits(points, linf)), linf)


def _report(spec: FieldSpec, mode: str, plane: Plane, linf: ProjLine,
            ids: tuple[int, ...], thetas: tuple[tuple[int, int], ...],
            masks: tuple[int, ...]) -> ArrowReport:
    """Class each member (ids, thetas and point masks aligned) by its
    points on linf, which are its witnesses; both arrows classify here."""
    line = plane.line_mask(linf)
    classifications = []
    for member_id, theta, mask in zip(ids, thetas, masks):
        hit = mask & line
        classifications.append(MemberClassification(
            member_id, theta, _temporal(hit.bit_count(), linf), plane.points_of(hit)))
    return ArrowReport(spec.order, mode, linf, tuple(classifications))


def conic_arrow(spec: FieldSpec, linf: ProjLine) -> ArrowReport:
    """Classify the proper members of the canonical pencil against the
    ideal line.  Over GF(2^n) the Present tally is always zero."""
    if spec.characteristic != 2:
        raise OddCharacteristic("the conic arrow is defined over GF(2^n)")
    ctx = time_pencil_context(spec)
    validate_ideal_line(linf, ctx.plane)
    return _report(spec, "conic", ctx.plane, linf, ctx.ids, ctx.thetas, ctx.masks)


def arc_arrow(family: ArcFamily) -> ArrowReport:
    """Classify every member of an arc family against the family's own
    ideal line; exactly one member comes out Present."""
    return _report(family.spec, "arc", family.plane, family.provenance.linf,
                   family.member_ids, family.thetas, family.masks)
