"""Per ideal line, as plane indices: its members' witnesses, and the arc
pass, the one member the arc arrow changes for each of its lines L*.

The arrow command loads this module for arc runs and JSON runs only; a
conic CSV run's rows come from the line's Past members
(kernel._past_members) alone.  A plane index is a position in the plane's
enumeration, whose values _triple_values gives; plane._triple_index, its
inverse, and the plane module's items are made from it.

The σ-lemma for (L-infinity, L*) pairs.  σ_λ : (x1 : x2 : x3) ->
(x1 : λ^2 x2 : λx3) (see the kernel's docstring) fixes N, B1, B2 and every
pencil member, and maps (1 : b : c) to (1 : b/λ^2 : c/λ) and
L* = (1 : a : 0) to (1 : a/λ^2 : 0).  So it maps the configuration
((1 : b : c), (1 : a : 0)) to ((1 : u : 1), (1 : a/c^2 : 0)), u = b/c^2,
for λ = c, its contact point to that configuration's contact point and
its member Q* to the same member; a = b holds exactly when a/c^2 = u, so
rejections are preserved.  Hence the arc pass on (1 : b : c) is the
σ_{1/c}-image of the pass on its representative (1 : u : 1) with each a
taken to a/c^2, rejections included, and the (q-1)^3 configurations are
the images of the (q-1)^2 on the lines (1 : u : 1), q-1 of them rejected.  The test suite checks this
for every configuration at q <= 16, and the kernel's τ-lemma, which also
takes L* = (1 : a : 0) to (1 : a/b : 0) on (1 : 1 : 1), for every report.

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
line's conic witnesses.  It raises ArcDeltaMismatch (made by
linetext._delta_mismatch) if Q* is not Past with A as a witness.
arrow.arc_arrow and the CLI, single runs and sweeps alike, take the arc
arrow from it.  Its oracles, in tests only:
plane.meet for A, pencil.member_through for Q*, and the incidence scan of
Q*'s points on L-infinity for the witness.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .field import FieldSpec
from .kernel import Values, _past_members


def _triple_values(q: int, i: int) -> Values:
    """The values at position i, 0 <= i <= q*q + q, of the plane's
    enumeration: (1 : a : b) by a, then b, then (0 : 1 : a), then (0 : 0 : 1)."""
    if i < q * q:
        return (1, i // q, i % q)
    if i < q * q + q:
        return (0, 1, i - q * q)
    return (0, 0, 1)


def _contacts(spec: FieldSpec, linf: Values, lstar_as: Iterable[int]
              ) -> list[tuple[int, int] | None]:
    """For linf = (1 : b : c), bc != 0, and each lstar = (1 : a : 0), a != 0,
    a in lstar_as (lines passing lines._check_line): None if the contact
    point A = linf ∧ lstar lies on a degenerate member, else the plane index
    of A and the t of the proper member Q* = (1, t) through it.

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


def _witnesses(spec: FieldSpec, linf: Values) -> list[tuple[int, ...]]:
    """Per proper member of the time pencil, in member order, the plane
    indices of its points on linf, ascending: two (Past) or none (Future),
    in a new list; the Past members and their points are
    kernel._past_members'."""
    q = spec.order
    mul, inv = spec._mul_i, spec._inv
    _, b, c = linf
    ib, ic = inv[b], inv[c]
    out = [()] * (q - 1)
    for t, y in _past_members(spec, linf)[1]:
        w0, w1 = inv[y], inv[y ^ 1]
        i0 = mul(1 ^ w0, ib) * q + mul(w0, ic)
        i1 = mul(1 ^ w1, ib) * q + mul(w1, ic)
        out[t - 1] = (i0, i1) if i0 < i1 else (i1, i0)
    return out


def _arc_deltas(spec: FieldSpec, linf: Values, lstar_as: Sequence[int],
                witnesses: Sequence[tuple[int, ...]]) -> list[tuple[int, int] | None]:
    """The arc pass over one ideal line linf, whose conic witnesses are
    witnesses (from _witnesses): per L* = (1 : a : 0), a in lstar_as, None
    if the configuration is rejected (_contacts), else the one member in
    which its arc arrow differs from the conic classification (see the
    module docstring): the position of Q* and the plane index of its one
    witness as a Present member, the one other than the contact point A."""
    out = []
    for contact in _contacts(spec, linf, lstar_as):
        if contact is None:
            out.append(None)
            continue
        index, t = contact
        # the proper members are (1, t), t = 1 .. q-1, in order
        hits = witnesses[t - 1]
        if len(hits) != 2 or index not in hits:
            from .linetext import _delta_mismatch
            raise _delta_mismatch(spec, linf, t, index, hits)
        out.append((t - 1, hits[1] if hits[0] == index else hits[0]))
    return out
