"""The closed forms both arrows over GF(2^n) run on: the time-pencil
context, the checks of ideal lines and of lines L*, and, per ideal line,
its members' witnesses and the one member the arc arrow changes, all as
plane indices.

This module imports only errors, field and plane.  The arrow command runs
on it alone, so it loads no census, conic or arc module.  Those modules,
and the oracles in them, import the kernel, never the reverse.

The canonical ("time") pencil, pencil.time_pencil, is spanned by x1*x2 and
x3^2.  Its members are indexed by theta = (t1, t2), normalized so the
first nonzero entry is 1, in the order (1, t), t over the field, then
(0, 1).  The member (1, t) has discriminant -t, so the proper members are
(1, t), t != 0, at position t, which is their id; pencil.members, the
census by classify, is the oracle.

A proper member meets a valid ideal line where y^2 + y = k for one k of
the field, which has two roots when the absolute trace of k is 0 and none
otherwise (Lidl and Niederreiter, Finite Fields).  A table of roots per
field turns each member into one lookup; arrow.classify_member, the
incidence scan, is the oracle.

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
plane indices: A and Q* from _contacts' closed form, a rejection where A
is on a degenerate member, and Q*'s witness other than A, read off the
line's conic witnesses.  It raises ArcDeltaMismatch if Q* is not Past
with A as a witness.  arrow.arc_arrow and the CLI, single runs and sweeps
alike, take the arc arrow from it.  Its oracles, in tests only:
plane.meet for A, pencil.member_through for Q*, and the incidence scan of
Q*'s points on L-infinity for the witness.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import (
    ArcDeltaMismatch,
    DegenerateContactPoint,
    HitsBasePoint,
    HitsNucleus,
    InvalidTangentLine,
)
from .field import FieldSpec
from .plane import Plane, ProjLine, ProjPoint, _check_field, build_plane


class TemporalClass(enum.Enum):
    PAST = "Past"
    PRESENT = "Present"
    FUTURE = "Future"

    def __str__(self):
        return self.value


# indexed by the number of points on the ideal line, as conic.classify_line
_TEMPORAL_BY_HITS = (TemporalClass.FUTURE, TemporalClass.PRESENT, TemporalClass.PAST)


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
    """Plane, the proper members' ids and thetas, and the distinguished
    points B1, B2 and N every temporal construction needs, all in closed
    form.  One per field, cached; the pencil itself is
    pencil.time_pencil(spec).

    The proper members are (1, t), t != 0 (see the module docstring), at
    position t of pencil.members, which is their id.  In characteristic 2,
    roots is _quadratic_roots(spec), by which _orbit classifies each member
    on an ideal line, and orbits keeps those classifications."""

    __slots__ = ("spec", "plane", "ids", "thetas", "roots", "orbits", "B1", "B2", "N")

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.plane = build_plane(spec)
        self.B1 = ProjPoint(spec, (0, 1, 0))
        self.B2 = ProjPoint(spec, (1, 0, 0))
        self.N = ProjPoint(spec, (0, 0, 1))
        self.ids = tuple(range(1, spec.order))
        self.thetas = tuple([(1, t) for t in self.ids])
        self.roots = _quadratic_roots(spec) if spec.characteristic == 2 else None
        self.orbits: dict[int, tuple[int | None, ...]] = {}   # _orbit, per orbit u

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


def validate_lines(ctx: TimePencilContext, linfs: Iterable[ProjLine],
                   lstars: Iterable[ProjLine]) -> None:
    """The line checks of a family configuration, in this order: each ideal
    line by validate_ideal_line, then each L* must pass through the nucleus
    N = (0:0:1) and miss both base points, that is be neither (1:0:0) nor
    (0:1:0); so the valid L* are those with l3 = 0 and l1*l2 != 0.  _contacts
    checks each pair."""
    for linf in linfs:
        validate_ideal_line(linf, ctx.plane)
    for lstar in lstars:
        _check_field(lstar, ctx.plane)
        l1, l2, l3 = lstar.values
        if l3:
            raise InvalidTangentLine(f"{lstar} does not pass through the nucleus {ctx.N}")
        if not (l1 and l2):
            raise InvalidTangentLine(f"{lstar} joins the nucleus to a base point")


def _contacts(spec: FieldSpec, linf_values: tuple[int, int, int], lstar_as: Iterable[int]
              ) -> list[tuple[int, int] | None]:
    """For linf = (1 : b : c), bc != 0, and each lstar = (1 : a : 0), a != 0,
    a in lstar_as (lines passing validate_lines): None if the contact point
    A = linf ∧ lstar lies on a degenerate member, else the plane index of A
    and the t of the proper member Q* = (1, t) through it.

    In characteristic 2, A = linf × lstar = (ca : c : a + b).  If a = b,
    A = (1 : 1/a : 0) lies on x3^2 = 0, a degenerate member.  Otherwise
    A = (1 : 1/a : (a + b)/(ac)), at index (1/a)*q + (a + b)/(ac), and the
    member x1*x2 + t*x3^2 through it has t = x1*x2/x3^2 = c^2*a/(a + b)^2,
    which is nonzero.  plane.meet and member_through are the oracle."""
    mul, inv = spec._mul_i, spec._inv_i
    q = spec.order
    _, b, c = linf_values
    cc = mul(c, c)
    out = []
    for a in lstar_as:
        a_plus_b = a ^ b
        out.append((inv(a) * q + mul(a_plus_b, inv(mul(a, c))),
                    mul(cc, mul(a, inv(mul(a_plus_b, a_plus_b))))) if a_plus_b else None)
    return out


def _degenerate_contact(ctx: TimePencilContext, linf: ProjLine, lstar: ProjLine
                        ) -> DegenerateContactPoint:
    """The refusal of a configuration _contacts gives None: its contact
    point A = (1 : 1/a : 0), at index (1/a)*q, on the double line."""
    contact = ctx.plane.points[ctx.spec._inv_i(lstar.values[1]) * ctx.spec.order]
    return DegenerateContactPoint(f"{contact} = {linf} ∧ {lstar} lies on a degenerate member")


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
    if the configuration is rejected (_contacts), else the one member in
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
