"""The projective plane PG(2, q): points, lines, incidence and collinearity.

Points and lines are normalized homogeneous triples (first nonzero
coordinate scaled to 1), so projectively equal triples compare equal.
Incidence is the exact dot-product test and stays the oracle.  The fast
path is the plane's enumeration, a function of the index: point and line
i both have the values _triple_values(q, i) (from the witnesses module,
which the arrow command runs on without this module), whose inverse is
_triple_index, so the plane stores no points or lines and makes one only
when it is read.  The indices of a line's points (and of a point's lines)
are solved for in closed form in O(q); the test suite checks them against
the incidence scan exhaustively.

A plane is a function of its field, so no function of the package takes
one: the modules that make plane items read the plane of the items'
field from build_plane, and the kernel's time-pencil context holds no
plane.  validate_ideal_line checks an ideal line given as a plane item
by its values (lines._check_line); a family's lines are checked by
arc._check_configuration.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from itertools import chain, product
from typing import Iterable, Iterator

from .element import FieldElement
from .errors import CoincidentLines, CoincidentPoints, MixedFields
from .field import FieldSpec
from .kernel import Values
from .linetext import _text
from .lines import _check_line, _normalized
from .witnesses import _triple_values


def _triples(q: int) -> Iterator[Values]:
    """The normalized values of the plane's enumeration, in order: (1 : a : b)
    by a, then b, then (0 : 1 : a), then (0 : 0 : 1)."""
    return chain(product((1,), range(q), range(q)), product((0,), (1,), range(q)), [(0, 0, 1)])


def _triple_index(q: int, values: Values) -> int:
    """Position of normalized values in the enumeration; _triple_values
    inverts it."""
    x1, x2, x3 = values
    if x1:
        return x2 * q + x3
    if x2:
        return q * q + x3
    return q * q + q


def _check_field(a, b):
    if a.field != b.field:
        raise MixedFields("operands belong to different fields")


def _normalize(field: FieldSpec, entries: tuple) -> tuple[int, ...]:
    """Packed values of a homogeneous vector (elements or ints), scaled so
    that the first nonzero entry is 1 (lines._normalized); the zero vector
    is rejected."""
    vals = []
    for c in entries:
        if isinstance(c, FieldElement):
            if c.field != field:
                raise MixedFields("entry from a different field")
            vals.append(c.value)
        else:
            v = int(c)
            if not 0 <= v < field.order:
                raise ValueError(f"entry {v} outside [0, {field.order})")
            vals.append(v)
    return _normalized(field, vals)


class _Triple:
    __slots__ = ("field", "values")

    def __init__(self, field: FieldSpec, coords: Iterable):
        coords = tuple(coords)
        if len(coords) != 3:
            raise ValueError("homogeneous triples have exactly three coordinates")
        self.field = field
        self.values = _normalize(field, coords)

    @property
    def coords(self) -> tuple[FieldElement, FieldElement, FieldElement]:
        return tuple(FieldElement(self.field, v) for v in self.values)

    def __eq__(self, other):
        return (type(other) is type(self)
                and self.field == other.field
                and self.values == other.values)

    def __hash__(self):
        return hash((type(self), self.field, self.values))

    def __str__(self):
        return _text(self.field, self.values)

    def __repr__(self):
        return f"{type(self).__name__}{self}"


class ProjPoint(_Triple):
    """A point of PG(2, q), normalized."""


class ProjLine(_Triple):
    """A line of PG(2, q); a point lies on it iff the coordinate dot product is 0."""


class _Enumeration(Sequence):
    """The points, or the lines, of PG(2, q) in plane order: a read-only
    sequence with tuple semantics whose items are made from their position
    when read, without _normalize's scaling and checks."""

    __slots__ = ("_cls", "_field", "_q", "_len")

    def __init__(self, cls: type, field: FieldSpec):
        self._cls = cls
        self._field = field
        self._q = field.order
        self._len = self._q * self._q + self._q + 1

    def _item(self, values: tuple[int, int, int]) -> _Triple:
        triple = object.__new__(self._cls)
        triple.field = self._field
        triple.values = values
        return triple

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, key):
        if isinstance(key, slice):
            return tuple([self[i] for i in range(*key.indices(self._len))])
        i = operator.index(key)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError(f"index {key} outside a plane of {self._len} items")
        return self._item(_triple_values(self._q, i))

    def __iter__(self):
        return map(self._item, _triples(self._q))

    def _position(self, item) -> int | None:
        if type(item) is self._cls and item.field == self._field:
            return _triple_index(self._q, item.values)
        return None

    def __contains__(self, item) -> bool:
        return self._position(item) is not None

    def index(self, item, start: int = 0, stop: int | None = None) -> int:
        i = self._position(item)
        if i is None or i not in range(self._len)[start:stop]:
            raise ValueError(f"{item!r} is not in the range searched")
        return i


class Plane:
    """All points and lines of PG(2, q), in a fixed enumeration order, as
    two sequences that store no items.  A plane is a function of its field,
    so planes compare equal and hash by their field, and no function or
    record of the package takes or holds one."""

    __slots__ = ("field", "points", "lines")

    def __init__(self, field: FieldSpec):
        self.field = field
        self.points = _Enumeration(ProjPoint, field)
        self.lines = _Enumeration(ProjLine, field)

    def __eq__(self, other):
        return isinstance(other, Plane) and self.field == other.field

    def __hash__(self):
        return hash(self.field)

    @property
    def order(self) -> int:
        return self.field.order

    def _incident_to(self, triple: _Triple, items: _Enumeration) -> tuple:
        if triple.field != self.field:
            raise MixedFields(f"{triple} belongs to a different field than the plane")
        # incidence is symmetric and points and lines share one enumeration,
        # so a line's points and a point's lines are one function
        return tuple(items[i] for i in _incidence_indices(self.field, triple.values))

    def points_on(self, line: ProjLine) -> tuple[ProjPoint, ...]:
        """The q+1 points of a line, in plane point order."""
        return self._incident_to(line, self.points)

    def lines_through(self, point: ProjPoint) -> tuple[ProjLine, ...]:
        """The q+1 lines through a point, in plane line order."""
        return self._incident_to(point, self.lines)

    def __repr__(self):
        return f"Plane(PG(2,{self.order}), {len(self.points)} points)"


def _incidence_indices(field: FieldSpec, values: tuple[int, int, int]) -> list[int]:
    """Ascending indices of the triples of the enumeration whose dot
    product with the nonzero vector (l1, l2, l3) vanishes, solved for in O(q)."""
    q = field.order
    l1, l2, l3 = values
    mul, add, neg = field._mul_i, field._add_i, field._neg_i
    if l3:
        # (1:a:b) with b = -(l1 + l2*a)/l3 for each a, then (0:1:c) with c = -l2/l3
        s = neg(field._inv_i(l3))
        return ([a * q + mul(s, add(l1, mul(l2, a))) for a in range(q)]
                + [q * q + mul(s, l2)])
    if l2:
        # (1:a:b) with a = -l1/l2 for each b, then (0:0:1)
        a = mul(neg(l1), field._inv_i(l2))
        return [*range(a * q, a * q + q), q * q + q]
    # l1*x1 = 0: (0:1:c) for each c, and (0:0:1)
    return list(range(q * q, q * q + q + 1))


def build_plane(spec: FieldSpec) -> Plane:
    """PG(2, q) over the given field, which stores no items, so making one
    costs O(1)."""
    return Plane(spec)


def incident(point: ProjPoint, line: ProjLine) -> bool:
    """Exact incidence test: l1*x1 + l2*x2 + l3*x3 = 0."""
    _check_field(point, line)
    f = point.field
    x1, x2, x3 = point.values
    l1, l2, l3 = line.values
    mul, add = f._mul_i, f._add_i
    return add(add(mul(l1, x1), mul(l2, x2)), mul(l3, x3)) == 0


def _line_hits(points: Iterable[ProjPoint], line: ProjLine) -> tuple[ProjPoint, ...]:
    """The points lying on the line, in the order given."""
    return tuple(p for p in points if incident(p, line))


def _cross(f: FieldSpec, a, b) -> tuple[int, int, int]:
    a1, a2, a3 = a
    b1, b2, b3 = b
    mul, sub = f._mul_i, f._sub_i
    return (sub(mul(a2, b3), mul(a3, b2)),
            sub(mul(a3, b1), mul(a1, b3)),
            sub(mul(a1, b2), mul(a2, b1)))


def line_through(p1: ProjPoint, p2: ProjPoint) -> ProjLine:
    """The unique line incident with both points."""
    _check_field(p1, p2)
    if p1.values == p2.values:
        raise CoincidentPoints(f"{p1} = {p2}")
    return ProjLine(p1.field, _cross(p1.field, p1.values, p2.values))


def meet(l1: ProjLine, l2: ProjLine) -> ProjPoint:
    """The unique point common to both lines."""
    _check_field(l1, l2)
    if l1.values == l2.values:
        raise CoincidentLines(f"{l1} = {l2}")
    return ProjPoint(l1.field, _cross(l1.field, l1.values, l2.values))


def collinear(p1: ProjPoint, p2: ProjPoint, p3: ProjPoint) -> bool:
    """Whether the 3x3 coordinate determinant vanishes.

    Duplicate points count as collinear, which keeps arc-verification
    loops free of special cases.
    """
    _check_field(p1, p2)
    _check_field(p2, p3)
    f = p1.field
    a1, a2, a3 = p1.values
    b1, b2, b3 = p2.values
    c1, c2, c3 = p3.values
    mul, sub = f._mul_i, f._sub_i
    m1 = sub(mul(b2, c3), mul(b3, c2))
    m2 = sub(mul(b1, c3), mul(b3, c1))
    m3 = sub(mul(b1, c2), mul(b2, c1))
    det = sub(f._add_i(mul(a1, m1), mul(a3, m3)), mul(a2, m2))
    return det == 0


def points_on(line: ProjLine) -> list[ProjPoint]:
    """The q+1 points of the line, in plane point order."""
    return list(build_plane(line.field).points_on(line))


def validate_ideal_line(linf: ProjLine) -> None:
    """Reject ideal lines through a base point, B1 = (0:1:0) or
    B2 = (1:0:0), or the nucleus N = (0:0:1).

    Valid lines are exactly those with all three coefficients nonzero.
    """
    _check_line(linf.field, linf.values, False)
