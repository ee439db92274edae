"""Pencils of conics: member enumeration over the projective parameter,
base points, and the canonical pencil used for temporal classification.

The canonical ("time") pencil is spanned by x1*x2 and x3^2.  Its members
are indexed by theta = (t1, t2), normalized so the first nonzero entry is
1; the enumeration runs (1, t2) over the field order and ends with (0, 1).
The member (1, t) has discriminant -t, so the proper members are (1, t),
t != 0, and the two degenerate ones are the real line pair (1, 0) and the
double line (0, 1).  The time pencil context, kernel.TimePencilContext,
keeps these closed forms; members(), the census by classify, is their
oracle.  members classifies each member by its discriminant and counts
the zeros of the two degenerate ones, and base_points filters the first
generator's zeros by the second, each zero set from conic._zero_values
in O(q), so neither scans the plane nor keeps a cache.  This module
imports the kernel only to bind time_pencil_context here as well, the
name the benchmark's spans time the context under.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

from .errors import BasePoint, NoProperMember, NucleiDiffer
from .field import FieldSpec
from .conic import (
    Conic,
    DegeneracyClass,
    _evaluate_values,
    _nucleus,
    classify,
    point_set,
)
from .kernel import time_pencil_context  # noqa: F401  (see the module docstring)
from .plane import Plane, ProjPoint, _normalize


class Pencil(namedtuple("Pencil", "generator1 generator2")):
    """Two linearly independent generator conics."""
    __slots__ = ()

    def __new__(cls, generator1: Conic, generator2: Conic):
        if generator1.field != generator2.field:
            raise ValueError("generators must come from the same field")
        if generator1 == generator2:
            # conics are stored normalized, so equality == proportionality
            raise ValueError("generators must be linearly independent")
        return super().__new__(cls, generator1, generator2)

    @property
    def field(self) -> FieldSpec:
        return self.generator1.field


class PencilMember(NamedTuple):
    """One member: its normalized parameter, its conic, and its degeneracy."""
    theta: tuple[int, int]
    conic: Conic
    degeneracy: DegeneracyClass

    @property
    def is_proper(self) -> bool:
        return self.degeneracy is DegeneracyClass.PROPER


def time_pencil(spec: FieldSpec) -> Pencil:
    """The canonical pencil spanned by x1*x2 and x3^2."""
    return Pencil(Conic(spec, (0, 1, 0, 0, 0, 0)), Conic(spec, (0, 0, 0, 0, 0, 1)))


def _combine(pencil: Pencil, theta: tuple[int, int]) -> Conic:
    field = pencil.field
    mul, add = field._mul_i, field._add_i
    t1, t2 = theta
    coeffs = [add(mul(t1, a), mul(t2, b))
              for a, b in zip(pencil.generator1.values, pencil.generator2.values)]
    return Conic(field, coeffs)


def members(pencil: Pencil, plane: Plane) -> tuple[PencilMember, ...]:
    """All q+1 members, one per normalized parameter: (1, t) in field
    order, then (0, 1) last."""
    thetas = [(1, t) for t in range(pencil.field.order)] + [(0, 1)]
    out = []
    for theta in thetas:
        conic = _combine(pencil, theta)
        out.append(PencilMember(theta, conic, classify(conic, plane)))
    return tuple(out)


def base_points(pencil: Pencil, plane: Plane) -> tuple[ProjPoint, ...]:
    """Points lying on every member, i.e. on both generators: the first
    generator's zeros, in plane order, that the second's form vanishes at."""
    g2 = pencil.generator2
    return tuple([p for p in point_set(pencil.generator1, plane)
                  if not _evaluate_values(g2.field, g2.values, p.values)])


def member_through(pencil: Pencil, point: ProjPoint, plane: Plane) -> PencilMember:
    """The unique member whose conic vanishes at the point: the one of
    parameter (v2 : -v1), v1 and v2 the generators' values there, made
    alone, as members() lists it."""
    field = pencil.field
    v1 = _evaluate_values(field, pencil.generator1.values, point.values)
    v2 = _evaluate_values(field, pencil.generator2.values, point.values)
    if v1 == 0 and v2 == 0:
        raise BasePoint(f"{point} lies on every member")
    theta = _normalize(field, (v2, field._neg_i(v1)))
    conic = _combine(pencil, theta)
    return PencilMember(theta, conic, classify(conic, plane))


def common_nucleus(pencil: Pencil, plane: Plane) -> ProjPoint:
    """The nucleus shared by all proper members (characteristic 2), each
    member's in closed form from the coefficients of those the census has
    classed proper (conic._nucleus), so each member is classified once; the
    meet of each member's tangents is the test suite's oracle.

    NucleiDiffer is a legitimate outcome for general pencils, not a bug.
    """
    proper = [m for m in members(pencil, plane) if m.is_proper]
    if not proper:
        raise NoProperMember("pencil has no proper member")
    nuclei = [_nucleus(m.conic) for m in proper]
    first = nuclei[0]
    if any(nuc != first for nuc in nuclei[1:]):
        raise NucleiDiffer("proper members have distinct nuclei")
    return first
