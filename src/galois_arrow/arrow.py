"""Temporal classification against a chosen ideal line: the reports of
both arrows and the incidence oracle.

Once an ideal line is fixed, each conic or arc falls into one of three
classes by how many points it shares with that line: two (Past), one
(Present), zero (Future).  Over GF(2^n) the proper members of the
canonical pencil can never be tangent to a valid ideal line - their
common nucleus is off it - so the pencil's arrow has no Present.  The
arc family built from the same pencil restores exactly one Present
member.

Both arrows classify in closed form, in the kernel module: a table of
roots of y^2 + y = k per field, one classification per orbit of ideal
lines, and the arc arrow as the conic arrow with the one member Q*
through the contact point changed (the kernel's docstring derives each).
conic_arrow and arc_arrow build their reports from it; classify_member,
the incidence scan, is its oracle.  The CLI renders the kernel's plane
indices itself and does not import this module.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import OddCharacteristic
from .field import FieldSpec
from .conic import _hit_count
from .arc import ArcFamily
from .kernel import (
    _TEMPORAL_BY_HITS,
    TemporalClass,
    TimePencilContext,
    _arc_deltas,
    _witnesses,
    time_pencil_context,
    validate_ideal_line,
)
from .plane import ProjLine, ProjPoint


class MemberClassification(NamedTuple):
    member_id: int
    theta: tuple[int, int]
    temporal: TemporalClass
    witnesses: tuple[ProjPoint, ...]   # the member's points on the ideal line


class ArrowReport(NamedTuple):
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
    return _TEMPORAL_BY_HITS[_hit_count(points, linf)]


def _report(ctx: TimePencilContext, mode: str, linf: ProjLine,
            witnesses: Sequence[tuple[int, ...]]) -> ArrowReport:
    """The report of the proper members of the time pencil on linf, each
    classed by the number of its witnesses, given as plane indices."""
    points = ctx.plane.points
    return ArrowReport(ctx.spec.order, mode, linf, tuple([
        MemberClassification(member_id, theta, _TEMPORAL_BY_HITS[len(hits)],
                             tuple([points[i] for i in hits]))
        for member_id, theta, hits in zip(ctx.ids, ctx.thetas, witnesses)]))


def conic_arrow(spec: FieldSpec, linf: ProjLine) -> ArrowReport:
    """Classify the proper members of the canonical pencil against the
    ideal line.  Over GF(2^n) the Present tally is always zero."""
    if spec.characteristic != 2:
        raise OddCharacteristic("the conic arrow is defined over GF(2^n)")
    ctx = time_pencil_context(spec)
    validate_ideal_line(linf, ctx.plane)
    return _report(ctx, "conic", linf, _witnesses(ctx, linf))


def arc_arrow(family: ArcFamily) -> ArrowReport:
    """Classify every member of an arc family against the family's own
    ideal line; exactly one member comes out Present.

    This is the conic classification with the member Q* through the
    contact point changed by _arc_deltas, so only the family's provenance
    is read, not its members."""
    ctx = time_pencil_context(family.spec)
    linf, lstar = family.provenance.linf, family.provenance.lstar
    witnesses = list(_witnesses(ctx, linf))
    # build_time_family refuses the configurations _arc_deltas rejects
    ((position, witness),) = _arc_deltas(ctx, linf, (lstar.values[1],), witnesses)
    witnesses[position] = (witness,)
    return _report(ctx, "arc", linf, witnesses)
