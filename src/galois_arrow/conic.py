"""Conics as quadratic forms: evaluation, zero sets, degeneracy classes,
tangents, nucleus and five-point fitting by exact Gaussian elimination.

Write a form as a*x1^2 + h*x1x2 + g*x1x3 + b*x2^2 + f*x2x3 + c*x3^2.  It is
proper exactly when Hirschfeld's discriminant

    Delta = 4abc + fgh - af^2 - bg^2 - ch^2

is nonzero, in every characteristic; in characteristic 2 it reads
af^2 + bg^2 + ch^2 + fgh.  (In odd characteristic Delta is half the
determinant of the form's symmetric matrix; unlike that determinant it
still decides degeneracy in characteristic 2.)  A degenerate form is one
point (conjugate line pair), q+1 points (double line) or 2q+1 points (real
line pair), so the size of its zero set names its class.

point_set scans the whole plane; it is the oracle for closed-form zero
sets such as the time pencil's members.  The join census of the test
suite (distinct lines through pairs of zero-set points) is the oracle for
classify, beside the triple loop of arc.is_arc.
"""

from __future__ import annotations

import enum
from collections import Counter
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from .element import FieldElement
from .errors import (
    AmbiguousFit,
    CollinearTriple,
    DegenerateConic,
    EmptyMatrix,
    IntersectionTooLarge,
    MixedFields,
    OddCharacteristic,
    UnclassifiableConic,
)
from .field import FieldSpec
from .kernel import Values
from .plane import (
    Plane,
    ProjLine,
    ProjPoint,
    _incidence_indices,
    _line_hits,
    _normalize,
    _triples,
    collinear,
    incident,
    meet,
)

# coefficient order, fixed everywhere: x1^2, x1x2, x1x3, x2^2, x2x3, x3^2
COEFF_NAMES = ("c11", "c12", "c13", "c22", "c23", "c33")
_MONOMIALS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


class DegeneracyClass(enum.Enum):
    PROPER = "Proper"
    DOUBLE_LINE = "DoubleLine"
    REAL_LINE_PAIR = "RealLinePair"
    CONJUGATE_LINE_PAIR = "ConjugateLinePair"

    def __str__(self):
        return self.value


class LineClass(enum.Enum):
    SECANT = "Secant"
    TANGENT = "Tangent"
    EXTERNAL = "External"

    def __str__(self):
        return self.value


class Conic:
    """Six coefficients c11..c33, stored normalized so that scalar
    multiples of the same form compare equal."""

    __slots__ = ("field", "values")

    def __init__(self, field: FieldSpec, coefficients: Iterable):
        coefficients = tuple(coefficients)
        if len(coefficients) != 6:
            raise ValueError("a conic has exactly six coefficients")
        self.field = field
        self.values = _normalize(field, coefficients)

    @property
    def coefficients(self) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.field, v) for v in self.values)

    def __eq__(self, other):
        return (isinstance(other, Conic)
                and self.field == other.field
                and self.values == other.values)

    def __hash__(self):
        return hash((self.field, self.values))

    def __str__(self):
        fmt = self.field.format
        return "[" + ",".join(fmt(v) for v in self.values) + "]"

    def __repr__(self):
        return f"Conic{self}"


def _evaluate_values(field: FieldSpec, coeffs: Sequence[int], xs: Sequence[int]) -> int:
    mul, add = field._mul_i, field._add_i
    acc = 0
    for c, (i, j) in zip(coeffs, _MONOMIALS):
        if c:
            acc = add(acc, mul(c, mul(xs[i], xs[j])))
    return acc


def evaluate(conic: Conic, point: ProjPoint) -> FieldElement:
    """Value of the quadratic form at the point's normalized coordinates."""
    if conic.field != point.field:
        raise MixedFields("conic and point belong to different fields")
    return FieldElement(conic.field,
                        _evaluate_values(conic.field, conic.values, point.values))


@lru_cache(maxsize=8192)
def point_set(conic: Conic, plane: Plane) -> tuple[ProjPoint, ...]:
    """All plane points where the form vanishes, in plane order, by a scan
    of the whole plane; the oracle for closed-form zero sets."""
    field, coeffs = conic.field, conic.values
    return tuple([plane.points[i] for i, values in enumerate(_triples(plane.order))
                  if _evaluate_values(field, coeffs, values) == 0])


def _discriminant(field: FieldSpec, coeffs: Sequence[int]) -> int:
    """Hirschfeld's Delta = 4abc + fgh - af^2 - bg^2 - ch^2 of the form with
    coefficients (a, h, g, b, f, c) in COEFF_NAMES order; nonzero iff the
    conic is proper.  The 4abc term is a doubled doubling, so it vanishes
    in characteristic 2 by itself."""
    a, h, g, b, f, c = coeffs
    mul, add, sub = field._mul_i, field._add_i, field._sub_i
    abc = mul(mul(a, b), c)
    abc2 = add(abc, abc)
    delta = add(add(abc2, abc2), mul(mul(f, g), h))
    for coeff, other in ((a, f), (b, g), (c, h)):
        delta = sub(delta, mul(coeff, mul(other, other)))
    return delta


def classify(conic: Conic, plane: Plane) -> DegeneracyClass:
    """Degeneracy class by the discriminant.

    Delta != 0 -> proper, and no zero set is computed.  Otherwise the size
    of the zero set decides: 1 point -> conjugate line pair, q+1 -> double
    line, 2q+1 -> real line pair.  Any other size is impossible for a
    genuine quadratic form and raises UnclassifiableConic.
    """
    if _discriminant(conic.field, conic.values):
        return DegeneracyClass.PROPER
    size = len(point_set(conic, plane))
    q = plane.order
    if size == 1:
        return DegeneracyClass.CONJUGATE_LINE_PAIR
    if size == q + 1:
        return DegeneracyClass.DOUBLE_LINE
    if size == 2 * q + 1:
        return DegeneracyClass.REAL_LINE_PAIR
    raise UnclassifiableConic(f"{conic}: zero set of size {size} matches no class")


def canonical_conic(spec: FieldSpec) -> Conic:
    """The reference proper conic x1*x2 - x3^2 (minus collapses to plus in
    characteristic 2)."""
    return Conic(spec, (0, 1, 0, 0, 0, spec._neg_i(1)))


def _canonical_values(spec: FieldSpec) -> list[Values]:
    """The canonical conic's points as normalized values, in parametrization
    order: (1:0:0), then (s^2 : 1 : s) for s in element order, which is
    (0:1:0) at s = 0 and (1 : c^2 : c), c = 1/s, otherwise."""
    return [(1, 0, 0), (0, 1, 0), *[(1, spec._mul_i(c, c), c) for c in spec._inv[1:]]]


def parametrize_canonical(spec: FieldSpec) -> list[ProjPoint]:
    """(1,0,0) followed by (s^2, 1, s) for s in element order, the points of
    _canonical_values; equals the canonical conic's zero set as a set."""
    return [ProjPoint(spec, values) for values in _canonical_values(spec)]


def _hit_count(points: Iterable[ProjPoint], line: ProjLine) -> int:
    """|line ∩ points|, which is at most 2 for the points of a conic or an
    arc; more raises IntersectionTooLarge."""
    hits = len(_line_hits(points, line))
    if hits > 2:
        raise IntersectionTooLarge(f"line {line} meets the set in {hits} points")
    return hits


def classify_line(points: Iterable[ProjPoint], line: ProjLine) -> LineClass:
    """Secant, tangent or external according to |line ∩ points| = 2, 1, 0."""
    return (LineClass.EXTERNAL, LineClass.TANGENT, LineClass.SECANT)[_hit_count(points, line)]


def tangent_lines(conic: Conic, plane: Plane) -> list[ProjLine]:
    """All lines meeting the conic in exactly one point, in plane line order:
    the indices of the lines through each conic point are tallied, and a
    tangent is a line counted once.  classify_line is its oracle in the
    test suite."""
    if classify(conic, plane) is not DegeneracyClass.PROPER:
        raise DegenerateConic(f"{conic} is degenerate")
    hits = Counter(i for pt in point_set(conic, plane)
                   for i in _incidence_indices(plane.field, pt.values))
    return [plane.lines[i] for i in sorted(hits) if hits[i] == 1]


def nucleus(conic: Conic, plane: Plane) -> ProjPoint:
    """The common point of all tangents of a proper conic (q even only)."""
    tangents = tangent_lines(conic, plane)
    candidate = meet(tangents[0], tangents[1])
    if all(incident(candidate, t) for t in tangents[2:]):
        return candidate
    raise OddCharacteristic("tangent lines are not concurrent")


def _nucleus_char2(conic: Conic) -> ProjPoint:
    """Closed-form nucleus in characteristic 2, the common zero of the partial
    derivatives: their matrix is alternating, of rank 0 or 2, and a nonzero
    (c23, c13, c12) spans its null space.  Must agree with nucleus()."""
    f = conic.field
    if f.characteristic != 2:
        raise OddCharacteristic("fast nucleus path needs characteristic 2")
    _, c12, c13, _, c23, _ = conic.values
    if not (c12 or c13 or c23):
        raise DegenerateConic(f"{conic} has no single nucleus")
    return ProjPoint(f, (c23, c13, c12))


def _common_field(rows) -> FieldSpec:
    field = None
    for row in rows:
        for entry in row:
            if field is None:
                field = entry.field
            elif entry.field != field:
                raise MixedFields("matrix entries belong to different fields")
    if field is None:
        raise EmptyMatrix("matrix has no entries")
    return field


def solve_homogeneous(matrix: Sequence[Sequence[FieldElement]]) -> list[list[FieldElement]]:
    """Basis of the null space {v : Mv = 0} by exact Gaussian elimination.

    Pivot order is deterministic (leftmost column, lowest row index), and
    the basis vectors come out one per free column, ascending.
    """
    rows = [list(r) for r in matrix]
    if not rows or any(len(r) == 0 for r in rows):
        raise EmptyMatrix("matrix must have at least one row and one column")
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged matrix")
    field = _common_field(rows)
    m = [[e.value for e in r] for r in rows]
    mul_i, sub_i, inv_i = field._mul_i, field._sub_i, field._inv_i

    pivot_cols: list[int] = []
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        scale = inv_i(m[rank][col])
        m[rank] = [mul_i(scale, x) for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                k = m[r][col]
                m[r] = [sub_i(x, mul_i(k, y)) for x, y in zip(m[r], m[rank])]
        pivot_cols.append(col)
        rank += 1
        if rank == len(m):
            break

    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for free in free_cols:
        vec = [0] * ncols
        vec[free] = 1
        for r, pc in enumerate(pivot_cols):
            vec[pc] = field._neg_i(m[r][free])
        basis.append([FieldElement(field, v) for v in vec])
    return basis


def fit_conic(points: Sequence[ProjPoint]) -> Conic:
    """The unique conic through 5 points, no three collinear.

    One homogeneous 5x6 system, columns in the fixed monomial order
    x1^2, x1x2, x1x3, x2^2, x2x3, x3^2; the null space must come out
    one-dimensional.
    """
    pts = list(points)
    if len(pts) != 5:
        raise ValueError(f"need exactly 5 points, got {len(pts)}")
    for a, b, c in combinations(pts, 3):
        if collinear(a, b, c):
            raise CollinearTriple(f"{a}, {b}, {c} are collinear")
    field = pts[0].field
    mul = field._mul_i
    rows = []
    for p in pts:
        xs = p.values
        rows.append([FieldElement(field, mul(xs[i], xs[j])) for i, j in _MONOMIALS])
    basis = solve_homogeneous(rows)
    if len(basis) != 1:
        raise AmbiguousFit(f"null space dimension {len(basis)} != 1")
    return Conic(field, basis[0])
