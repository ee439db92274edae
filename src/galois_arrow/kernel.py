"""The closed forms both arrows over GF(2^n) run on: the time-pencil
context, the checks of ideal lines and of lines L*, and, per ideal line,
its members' witnesses and the one member the arc arrow changes, all as
plane indices.

This module imports only errors and field.  A line is its value triple:
the arrow command runs on this module alone, so it loads no plane, census,
conic or arc module; a sweep takes its lines as values in closed form
(_valid_lines) and a single run's lines are normalized once, by
_normalized, and checked by _check_line.  The plane's enumeration
(_triples, _triple_values, _triple_index) and the scaling of a vector
(_normalized) are defined here and imported by the plane module.  Those
modules, and the oracles in them, import the kernel, never the reverse:
the context reads its plane, B1, B2 and N from the plane module only when
they are asked for.

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

The σ-lemma for (L-infinity, L*) pairs.  σ_λ also maps L* = (1 : a : 0) to
(1 : a/λ^2 : 0), and it fixes N, B1, B2 and every pencil member.  So it
maps the configuration ((1 : b : c), (1 : a : 0)) to ((1 : u : 1),
(1 : a/c^2 : 0)) for λ = c, its contact point to that configuration's
contact point and its member Q* to the same member; a = b holds exactly
when a/c^2 = u, so rejections are preserved.  Hence the arc pass on
(1 : b : c) is the σ_{1/c}-image of the pass on its representative
(1 : u : 1) with each a taken to a/c^2, rejections included, and the
(q-1)^3 configurations fall into (q-1)^2 orbits, q-1 of them rejected.
The test suite checks this for every configuration at q <= 16.

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
from itertools import chain, product
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import (
    ArcDeltaMismatch,
    DegenerateContactPoint,
    HitsBasePoint,
    HitsNucleus,
    InvalidTangentLine,
    MixedFields,
)
from .field import FieldSpec

if TYPE_CHECKING:
    from .plane import Plane, ProjLine, ProjPoint

Values = tuple[int, int, int]


class TemporalClass(enum.Enum):
    PAST = "Past"
    PRESENT = "Present"
    FUTURE = "Future"

    def __str__(self):
        return self.value


# indexed by the number of points on the ideal line, as conic.classify_line
_TEMPORAL_BY_HITS = (TemporalClass.FUTURE, TemporalClass.PRESENT, TemporalClass.PAST)


# --- the plane's enumeration, by values ------------------------------------

def _triples(q: int) -> Iterator[Values]:
    """The normalized values of the plane's enumeration, in order: (1 : a : b)
    by a, then b, then (0 : 1 : a), then (0 : 0 : 1)."""
    return chain(product((1,), range(q), range(q)), product((0,), (1,), range(q)), [(0, 0, 1)])


def _triple_values(q: int, i: int) -> Values:
    """The values at position i, 0 <= i <= q*q + q, of the enumeration."""
    if i < q * q:
        return (1, i // q, i % q)
    if i < q * q + q:
        return (0, 1, i - q * q)
    return (0, 0, 1)


def _triple_index(q: int, values: Values) -> int:
    """Position of normalized values in the enumeration; _triple_values
    inverts it."""
    x1, x2, x3 = values
    if x1:
        return x2 * q + x3
    if x2:
        return q * q + x3
    return q * q + q


def _normalized(spec: FieldSpec, values: Sequence[int]) -> tuple[int, ...]:
    """Packed values scaled by the inverse of the first nonzero one, which
    becomes 1; the zero vector is rejected.  plane._normalize scales every
    point and line through it."""
    lead = next((v for v in values if v != 0), None)
    if lead is None:
        raise ValueError("the zero vector is not projective")
    if lead == 1:
        return tuple(values)
    scale = spec._inv[lead]
    mul = spec._mul_i
    return tuple(mul(scale, v) for v in values)


def _text(spec: FieldSpec, values: Values) -> str:
    """The text (x1:x2:x3) of a point or line by its values, as str() of it."""
    return "(" + ":".join(map(spec.format, values)) + ")"


def _check_field(a, b):
    if a.field != b.field:
        raise MixedFields("operands belong to different fields")


# --- the lines of a configuration ------------------------------------------

def _check_line(spec: FieldSpec, values: Values, tangent: bool) -> None:
    """The check of one line by its values.  An ideal line (tangent false)
    must miss the base points B1 = (0:1:0) and B2 = (1:0:0) and the nucleus
    N = (0:0:1), so have all three coefficients nonzero.  An L* (tangent
    true) must pass through N and miss both base points, that is be neither
    (1:0:0) nor (0:1:0), so have l3 = 0 and l1*l2 != 0."""
    l1, l2, l3 = values
    if tangent:
        if l3:
            raise InvalidTangentLine(
                f"{_text(spec, values)} does not pass through the nucleus (0:0:1)")
        if not (l1 and l2):
            raise InvalidTangentLine(f"{_text(spec, values)} joins the nucleus to a base point")
    elif not (l1 and l2):
        raise HitsBasePoint(f"ideal line {_text(spec, values)} passes through a base point")
    elif not l3:
        raise HitsNucleus(f"ideal line {_text(spec, values)} passes through the nucleus (0:0:1)")


def validate_ideal_line(linf: ProjLine, plane: Plane) -> None:
    """Reject ideal lines through a base point, B1 = (0:1:0) or
    B2 = (1:0:0), or the nucleus N = (0:0:1).

    Valid lines are exactly those with all three coefficients nonzero.
    """
    _check_field(linf, plane)
    _check_line(linf.field, linf.values, False)


def validate_lines(ctx: TimePencilContext, linfs: Iterable[ProjLine],
                   lstars: Iterable[ProjLine]) -> None:
    """The line checks of a family configuration, in this order: each ideal
    line by validate_ideal_line, then each L* must pass through the nucleus
    N = (0:0:1) and miss both base points (_check_line).  _contacts checks
    each pair."""
    for linf in linfs:
        validate_ideal_line(linf, ctx.plane)
    for lstar in lstars:
        _check_field(lstar, ctx.plane)
        _check_line(ctx.spec, lstar.values, True)


def _valid_lines(q: int) -> tuple[Iterator[Values], range]:
    """The lines of the valid configurations, each in plane line order: the
    values of the ideal lines (1 : b : c), bc != 0, and the a of the lines
    L* = (1 : a : 0), a != 0."""
    return product((1,), range(1, q), range(1, q)), range(1, q)


# --- the time-pencil context -------------------------------------------------

def _quadratic_roots(spec: FieldSpec) -> list[int | None]:
    """For each k of GF(2^n), a root y of y^2 + y = k, or None if there is
    none, which is exactly when the absolute trace of k is 1; y + 1 is the
    other root.  y -> y^2 + y is two-to-one, so one pass over y fills it."""
    roots = [None] * spec.order
    for y in range(spec.order):
        roots[spec._mul_i(y, y) ^ y] = y
    return roots


class TimePencilContext:
    """The proper members' ids and thetas, all in closed form, and the
    plane and the distinguished points B1, B2 and N, read from the plane
    module on request.  One per field, cached; the pencil itself is
    pencil.time_pencil(spec).

    The proper members are (1, t), t != 0 (see the module docstring), at
    position t of pencil.members, which is their id.  In characteristic 2,
    roots is _quadratic_roots(spec), by which _orbit classifies each member
    on an ideal line, and orbits keeps those classifications."""

    __slots__ = ("spec", "ids", "thetas", "roots", "orbits")

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.ids = tuple(range(1, spec.order))
        self.thetas = tuple([(1, t) for t in self.ids])
        self.roots = _quadratic_roots(spec) if spec.characteristic == 2 else None
        self.orbits: dict[int, tuple[int | None, ...]] = {}   # _orbit, per orbit u

    @property
    def plane(self) -> Plane:
        """plane.build_plane(spec); the plane module is imported on the
        first read, so a run that reads no plane never loads it."""
        from .plane import build_plane
        return build_plane(self.spec)

    @property
    def B1(self) -> ProjPoint:
        """The base point (0:1:0), at index q*q."""
        return self.plane.points[self.spec.order ** 2]

    @property
    def B2(self) -> ProjPoint:
        """The base point (1:0:0), at index 0."""
        return self.plane.points[0]

    @property
    def N(self) -> ProjPoint:
        """The nucleus (0:0:1), the last point."""
        return self.plane.points[-1]

    def valid_ideal_lines(self) -> tuple[ProjLine, ...]:
        """Lines passing validate_ideal_line, those with all three
        coefficients nonzero, which are the lines (1 : b : c) with bc != 0,
        at index b*q + c, in plane line order."""
        q = self.spec.order
        lines = self.plane.lines
        return tuple([lines[b * q + c] for _, b, c in _valid_lines(q)[0]])

    def valid_tangent_lines(self) -> tuple[ProjLine, ...]:
        """Lines through N other than (1:0:0) and (0:1:0), its joins with B1
        and B2, which are the lines (1 : a : 0) with a != 0, at index a*q, in
        plane line order."""
        q = self.spec.order
        lines = self.plane.lines
        return tuple([lines[a * q] for a in _valid_lines(q)[1]])


@lru_cache(maxsize=None)
def time_pencil_context(spec: FieldSpec) -> TimePencilContext:
    return TimePencilContext(spec)


# --- per ideal line (1 : b : c) -----------------------------------------------

def _contacts(spec: FieldSpec, linf: Values, lstar_as: Iterable[int]
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
    mul, inv = spec._mul_i, spec._inv
    q = spec.order
    _, b, c = linf
    cc = mul(c, c)
    out = []
    for a in lstar_as:
        a_plus_b = a ^ b
        out.append((inv[a] * q + mul(a_plus_b, inv[mul(a, c)]),
                    mul(cc, mul(a, inv[mul(a_plus_b, a_plus_b)]))) if a_plus_b else None)
    return out


def _degenerate_contact(spec: FieldSpec, linf: Values, a: int) -> DegenerateContactPoint:
    """The refusal of a configuration (linf, (1 : a : 0)) _contacts gives
    None: its contact point A = (1 : 1/a : 0) is on the double line."""
    return DegenerateContactPoint(
        f"{_text(spec, (1, spec._inv[a], 0))} = {_text(spec, linf)} ∧ {_text(spec, (1, a, 0))}"
        " lies on a degenerate member")


def _orbit(ctx: TimePencilContext, linf: Values) -> tuple[int, tuple[int | None, ...]]:
    """The orbit u = b/c^2 of linf = (1 : b : c), 1/c^2 read from the field's
    table of inverses, and its classification, made once per orbit and kept
    on ctx: for each proper member x1*x2 + t*x3^2, a root y of
    y^2 + y = u*t, or None (Future)."""
    mul = ctx.spec._mul_i
    _, b, c = linf
    u = mul(b, ctx.spec._inv[mul(c, c)])
    ys = ctx.orbits.get(u)
    if ys is None:
        ys = ctx.orbits[u] = tuple([ctx.roots[mul(u, t)] for t in ctx.ids])
    return u, ys


def _witnesses(ctx: TimePencilContext, linf: Values) -> tuple[tuple[int, ...], ...]:
    """Per proper member of the time pencil, in member order, the plane
    indices of its points on linf, ascending: two (Past) or none (Future).

    linf = (1 : b : c), bc != 0, misses (0:1:0) and meets the member
    x1*x2 + t*x3^2 at the points (1 : t*s^2 : s) with b*t*s^2 + c*s = 1.
    With k = (b/c^2)*t and s = d*y, d = 1/(c*k), that is y^2 + y = k: roots
    y (from _orbit) and y + 1 when Tr(k) = 0 (Past), none otherwise (Future)."""
    spec = ctx.spec
    q = spec.order
    mul, inv = spec._mul_i, spec._inv
    u, ys = _orbit(ctx, linf)
    cu = mul(linf[2], u)
    out = []
    for t, y in zip(ctx.ids, ys):
        if y is None:
            out.append(())
            continue
        d = inv[mul(cu, t)]
        s0 = mul(d, y)
        s1 = s0 ^ d
        i0 = mul(t, mul(s0, s0)) * q + s0
        i1 = mul(t, mul(s1, s1)) * q + s1
        out.append((i0, i1) if i0 < i1 else (i1, i0))
    return tuple(out)


def _arc_deltas(ctx: TimePencilContext, linf: Values, lstar_as: Sequence[int],
                witnesses: Sequence[tuple[int, ...]]) -> list[tuple[int, int] | None]:
    """The arc pass over one ideal line linf, whose conic witnesses are
    witnesses (from _witnesses): per L* = (1 : a : 0), a in lstar_as, None
    if the configuration is rejected (_contacts), else the one member in
    which its arc arrow differs from the conic classification (see the
    module docstring): the position of Q* and the plane index of its one
    witness as a Present member, the one other than the contact point A."""
    out = []
    for contact in _contacts(ctx.spec, linf, lstar_as):
        if contact is None:
            out.append(None)
            continue
        index, t = contact
        # the proper members are (1, t), t = 1 .. q-1, in order
        hits = witnesses[t - 1]
        if len(hits) != 2 or index not in hits:
            spec = ctx.spec
            a, *others = [_text(spec, _triple_values(spec.order, i)) for i in (index, *hits)]
            raise ArcDeltaMismatch(
                f"member (1, {t}) through {a} is {_TEMPORAL_BY_HITS[len(hits)]} on"
                f" {_text(spec, linf)} with witnesses {', '.join(others)}")
        out.append((t - 1, hits[1] if hits[0] == index else hits[0]))
    return out
