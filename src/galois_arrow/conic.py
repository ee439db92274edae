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

Every zero set comes from one closed form, _zero_values, in O(q): each row
of the plane's enumeration is a quadratic in x3, solved from the field's
tables of square roots and of roots of y^2 + y = k (Lidl & Niederreiter,
Finite Fields, 2.3).  Both tables live on the field's time-pencil context
(context.time_pencil_context), so each is made once per field, the square
roots by the first zero set, and freed with the field; no arrow run makes
it.  point_set makes those zeros items of the plane of the conic's field
(plane.build_plane), so no function here takes a plane; classify counts
them, and the pencil and arc modules read them.  A proper conic's
tangent at a zero x is its polar line M*x, M the form's symmetric matrix
(_tangent_values), and in characteristic 2 every tangent passes through
the nucleus (c23 : c13 : c12), the null space of M (Hirschfeld, Projective
Geometries over Finite Fields).  The test suite's oracles
(tests/oracles.py) are the brute forces these replace: the scan of the
whole plane, the tally of the lines through the conic's points, and the
meet of those tangents.  The join census of the test suite (distinct
lines through pairs of zero-set points) is the oracle for classify,
beside the triple loop of arc.is_arc.
"""

from __future__ import annotations

import enum
from functools import partial, reduce
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
from .context import time_pencil_context
from .kernel import Values
from .lines import _normalized
from .plane import (
    ProjLine,
    ProjPoint,
    _line_hits,
    _normalize,
    _triple_index,
    build_plane,
    collinear,
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


def _row_values(spec: FieldSpec, k0, k1, k2):
    """k0 + k1*s + k2*s^2 at each s of the field, in field order."""
    mul, add = spec._mul_i, spec._add_i
    values = [mul(k1, s) for s in range(spec.order)] if k1 else [0] * spec.order
    if k2:
        values = [add(v, mul(k2, mul(s, s))) for s, v in enumerate(values)]
    return [add(k0, v) for v in values] if k0 else values


def _zero_values(spec: FieldSpec, coeffs: Sequence[int]) -> list[Values]:
    """The zeros of the form a*x1^2 + h*x1x2 + g*x1x3 + b*x2^2 + f*x2x3 +
    c*x3^2 (coeffs in COEFF_NAMES order) as normalized values, in plane
    order, in O(q).

    The zeros (1 : s : y) of row s solve c*y^2 + beta*y + gamma = 0 with
    beta = g + f*s and gamma = a + h*s + b*s^2, those (0 : 1 : y) the same
    with beta = f and gamma = b, and (0:0:1) is a zero iff c = 0.  When
    c != 0 the form is first scaled by -1/c, so each row reads
    y^2 = beta*y + gamma: y is a square root of gamma when beta = 0; in
    characteristic 2 y = beta*z with z^2 + z = gamma/beta^2, two roots or
    none; otherwise y = m +- r with m = beta/2 and r^2 = m^2 + gamma.  When
    c = 0 a row has the one root -gamma/beta, or, for beta = 0, every y
    when gamma = 0 and none otherwise.  Both root tables are the field's
    time-pencil context's: squares, made here by the field's first zero
    set, and roots (context._quadratic_roots)."""
    a, h, g, b, f, c = coeffs
    q = spec.order
    mul, add, inv = spec._mul_i, spec._add_i, spec._inv
    if c:
        k = spec._neg_i(inv[c])
        a, h, g, b, f = [mul(k, x) for x in (a, h, g, b, f)]
    ctx = time_pencil_context(spec)
    if ctx.squares is None:
        # the field's square roots, by value the ascending y with y^2 = v:
        # one in characteristic 2, else none, one for 0, or two
        ctx.squares = [() for _ in range(q)]
        for y in range(q):
            ctx.squares[mul(y, y)] += (y,)
    squares, halves = ctx.squares, ctx.roots

    def roots(beta, gamma):
        if not c:
            if beta:
                return (mul(spec._neg_i(gamma), inv[beta]),)
            return () if gamma else range(q)
        if halves:
            z = halves[mul(gamma, inv[mul(beta, beta)])]
            return () if z is None else sorted((mul(beta, z), mul(beta, z ^ 1)))
        m = mul(beta, inv[2])   # 1/2, the packed 2 being 1 + 1 for p > 2
        return sorted(add(m, r) for r in squares[add(mul(m, m), gamma)])

    rows = [*((1, s) for s in range(q)), (0, 1)]
    betas = [*_row_values(spec, g, f, 0), f]
    gammas = [*_row_values(spec, a, h, b), b]
    # a row with beta = 0 reads its roots in one lookup, as every row of a
    # time-pencil member does
    zeros = [(*row, y) for row, beta, gamma in zip(rows, betas, gammas)
             for y in (roots(beta, gamma) if beta or not c else squares[gamma])]
    return zeros if c else [*zeros, (0, 0, 1)]


def point_set(conic: Conic) -> tuple[ProjPoint, ...]:
    """All points where the form vanishes, in plane order: the closed form
    _zero_values, made items of the plane of the conic's field."""
    return tuple(map(build_plane(conic.field).points._item,
                     _zero_values(conic.field, conic.values)))


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


def classify(conic: Conic) -> DegeneracyClass:
    """Degeneracy class by the discriminant.

    Delta != 0 -> proper, and no zero set is computed.  Otherwise the size
    of the zero set (_zero_values, in O(q)) decides, q the conic's order:
    1 point -> conjugate line pair, q+1 -> double line, 2q+1 -> real line
    pair.  Any other size is impossible for a genuine quadratic form and
    raises UnclassifiableConic.
    """
    if _discriminant(conic.field, conic.values):
        return DegeneracyClass.PROPER
    size = len(_zero_values(conic.field, conic.values))
    q = conic.field.order
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


def parametrize_canonical(spec: FieldSpec) -> list[ProjPoint]:
    """(1,0,0) followed by (s^2, 1, s) for s in element order, which is
    (0:1:0) at s = 0 and (1 : c^2 : c), c = 1/s, otherwise; equals the
    canonical conic's zero set as a set."""
    return [ProjPoint(spec, values) for values in
            [(1, 0, 0), (0, 1, 0), *[(1, spec._mul_i(c, c), c) for c in spec._inv[1:]]]]


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


def _tangent_values(spec: FieldSpec, coeffs: Sequence[int]) -> list[Values]:
    """The tangents of the proper form with coefficients (a, h, g, b, f, c)
    in COEFF_NAMES order, one per zero x (_zero_values), as normalized
    values in plane line order: the polar line M*x of x, M the symmetric
    matrix with rows (2a, h, g), (h, 2b, f), (g, f, 2c).  M*x is nonzero at
    every zero of a proper form; in characteristic 2, where the diagonal
    vanishes, only at the nucleus, which lies on no proper conic."""
    a, h, g, b, f, c = coeffs
    mul, add = spec._mul_i, spec._add_i
    rows = ((add(a, a), h, g), (h, add(b, b), f), (g, f, add(c, c)))
    polars = [_normalized(spec, [reduce(add, map(mul, row, x)) for row in rows])
              for x in _zero_values(spec, coeffs)]
    return sorted(polars, key=partial(_triple_index, spec.order))


def tangent_lines(conic: Conic) -> list[ProjLine]:
    """All lines meeting the proper conic in exactly one point, in plane
    line order: each point's polar line (_tangent_values), in O(q)."""
    if classify(conic) is not DegeneracyClass.PROPER:
        raise DegenerateConic(f"{conic} is degenerate")
    return [*map(build_plane(conic.field).lines._item,
                 _tangent_values(conic.field, conic.values))]


def nucleus(conic: Conic) -> ProjPoint:
    """The common point of all tangents of a proper conic, q even only
    (_nucleus)."""
    if classify(conic) is not DegeneracyClass.PROPER:
        raise DegenerateConic(f"{conic} is degenerate")
    return _nucleus(conic)


def _nucleus(conic: Conic) -> ProjPoint:
    """The nucleus of a conic known to be proper, q even only:
    (c23 : c13 : c12), which spans the null space of the form's
    alternating matrix and is nonzero when the conic is proper."""
    if conic.field.characteristic != 2:
        raise OddCharacteristic("only even-order conics have a nucleus")
    _, c12, c13, _, c23, _ = conic.values
    return ProjPoint(conic.field, (c23, c13, c12))


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
