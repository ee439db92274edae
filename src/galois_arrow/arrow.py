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

The conic arrow on (1 : b : c) depends only on its orbit u = b/c^2.  The
collineation σ_λ : (x1 : x2 : x3) -> (x1 : λ^2 x2 : λ x3) scales each
member x1*x2 + t*x3^2 by λ^2, so fixes its points as a set, and maps
(1 : b : c) to (1 : b/λ^2 : c/λ).  As (1 : b : c) = σ_{1/c}(1 : u : 1), each
member has the same class on both lines, and its witnesses on (1 : b : c)
are the images (1 : y2/c^2 : y3/c) of those (1 : y2 : y3) on (1 : u : 1).
So the (q-1)^2 valid ideal lines form q-1 orbits of q-1 lines; _orbit
classifies once per orbit, and _witnesses finds its line's witnesses, as
plane indices.

The arc arrow is the conic arrow with one member changed.  Fix a valid
(L-infinity, L*) with contact point A = L-infinity ∧ L* on a proper member
Q*.  Then the arc arrow equals the conic arrow on L-infinity member for
member, except that Q* goes from Past to Present and drops A from its
witnesses:

- an arc member is its conic member, minus its touch point on L*, plus N;
- N is off every valid L-infinity;
- a touch point lies on L-infinity only if it is A, the one point of L*
  on L-infinity, so only Q* changes;
- Q* is Past, since A is on it and the conic arrow has no Present.

_arc_deltas is that change for every L* of one ideal line in one pass on
plane indices: A and Q* from arc._contacts' closed form, a rejection where
A is on a degenerate member, and Q*'s witness other than A, read off the
line's conic witnesses.  It raises ArcDeltaMismatch if Q* is not Past
with A as a witness.  arc_arrow and the CLI, single runs and sweeps alike,
take the arc arrow from it.  Its oracles, in tests only: plane.meet for
A, member_through for Q*, and the incidence scan of Q*'s points on
L-infinity for the witness.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Sequence

from .errors import ArcDeltaMismatch, OddCharacteristic
from .field import FieldSpec
from .conic import _hit_count
from .arc import ArcFamily, _contacts
from .pencil import TimePencilContext, time_pencil_context, validate_ideal_line
from .plane import ProjLine, ProjPoint


class TemporalClass(enum.Enum):
    PAST = "Past"
    PRESENT = "Present"
    FUTURE = "Future"

    def __str__(self):
        return self.value


# indexed by the number of points on the ideal line, as conic.classify_line
_TEMPORAL_BY_HITS = (TemporalClass.FUTURE, TemporalClass.PRESENT, TemporalClass.PAST)


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


def _orbit(ctx: TimePencilContext, linf: ProjLine) -> tuple[int, tuple[int | None, ...]]:
    """The orbit u = b/c^2 of linf = (1 : b : c) and its classification,
    made once per orbit and kept on ctx: for each proper member
    x1*x2 + t*x3^2, a root y of y^2 + y = u*t, or None (Future)."""
    mul = ctx.spec._mul_i
    _, b, c = linf.values
    u = mul(b, ctx.spec._inv_i(mul(c, c)))
    if u not in ctx.orbits:
        ctx.orbits[u] = tuple([ctx.roots[mul(u, t)] for t in ctx.ids])
    return u, ctx.orbits[u]


def _witnesses(ctx: TimePencilContext, linf: ProjLine) -> tuple[tuple[int, ...], ...]:
    """Per proper member of the time pencil, in member order, the plane
    indices of its points on linf, ascending: two (Past) or none (Future).

    linf = (1 : b : c), bc != 0, misses (0:1:0) and meets the member
    x1*x2 + t*x3^2 at the points (1 : t*s^2 : s) with b*t*s^2 + c*s = 1.
    With k = (b/c^2)*t and s = d*y, d = 1/(c*k), that is y^2 + y = k: roots
    y (from _orbit) and y + 1 when Tr(k) = 0 (Past), none otherwise (Future)."""
    spec = ctx.spec
    q = spec.order
    mul, inv = spec._mul_i, spec._inv_i
    u, ys = _orbit(ctx, linf)
    cu = mul(linf.values[2], u)
    out = []
    for t, y in zip(ctx.ids, ys):
        if y is None:
            out.append(())
            continue
        d = inv(mul(cu, t))
        s0 = mul(d, y)
        s1 = s0 ^ d
        i0 = mul(t, mul(s0, s0)) * q + s0
        i1 = mul(t, mul(s1, s1)) * q + s1
        out.append((i0, i1) if i0 < i1 else (i1, i0))
    return tuple(out)


def _arc_deltas(ctx: TimePencilContext, linf: ProjLine, lstar_as: Sequence[int],
                witnesses: Sequence[tuple[int, ...]]) -> list[tuple[int, int] | None]:
    """The arc pass over one ideal line linf, whose conic witnesses are
    witnesses (from _witnesses): per L* = (1 : a : 0), a in lstar_as, None
    if the configuration is rejected (arc._contacts), else the one member in
    which its arc arrow differs from the conic classification (see the
    module docstring): the position of Q* and the plane index of its one
    witness as a Present member, the one other than the contact point A."""
    out = []
    for contact in _contacts(ctx.spec, linf.values, lstar_as):
        if contact is None:
            out.append(None)
            continue
        index, t = contact
        # the proper members are (1, t), t = 1 .. q-1, in order
        hits = witnesses[t - 1]
        if len(hits) != 2 or index not in hits:
            points = ctx.plane.points
            raise ArcDeltaMismatch(
                f"member (1, {t}) through {points[index]} is"
                f" {_TEMPORAL_BY_HITS[len(hits)]} on {linf}"
                f" with witnesses {', '.join(str(points[i]) for i in hits)}")
        out.append((t - 1, hits[1] if hits[0] == index else hits[0]))
    return out


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
