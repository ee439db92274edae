"""PG(2, q): counts, incidence, joins, meets, collinearity."""

from itertools import combinations, product

import pytest

from galois_arrow.arc import build_time_family
from galois_arrow.errors import CoincidentLines, CoincidentPoints, MixedFields
from galois_arrow.field import make_field
from galois_arrow.kernel import _text_table
from galois_arrow.linetext import _text
from galois_arrow.plane import (
    Plane,
    ProjLine,
    ProjPoint,
    _incidence_indices,
    _line_hits,
    _triple_index,
    _triple_values,
    build_plane,
    collinear,
    incident,
    line_through,
    meet,
    points_on,
)

from oracles import _join_index

GF2 = make_field(2, 1)
GF4 = make_field(2, 2)
GF8 = make_field(2, 3)


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (2, 3), (2, 4)])
def test_point_and_line_counts(p, n):
    spec = make_field(p, n)
    q = spec.order
    plane = build_plane(spec)
    assert len(plane.points) == q * q + q + 1
    assert len(plane.lines) == q * q + q + 1
    assert len(set(plane.points)) == len(plane.points)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3)])
def test_line_and_point_degrees_exhaustive(p, n):
    spec = make_field(p, n)
    q = spec.order
    plane = build_plane(spec)
    for line in plane.lines:
        assert sum(1 for pt in plane.points if incident(pt, line)) == q + 1
    for pt in plane.points:
        assert sum(1 for line in plane.lines if incident(pt, line)) == q + 1


@pytest.mark.parametrize("n", [4, 5])
def test_line_and_point_degrees_larger_fields(n):
    """Same degree invariant for q in {16, 32}, via one full incidence scan."""
    spec = make_field(2, n)
    q = spec.order
    plane = build_plane(spec)
    point_degree = {pt: 0 for pt in plane.points}
    for line in plane.lines:
        on_line = plane.points_on(line)
        assert len(on_line) == q + 1
        for pt in on_line:
            point_degree[pt] += 1
    assert set(point_degree.values()) == {q + 1}


def test_normalization_first_nonzero_is_one():
    pt = ProjPoint(GF4, (2, 1, 3))
    assert pt.values[0] == 1
    assert pt == ProjPoint(GF4, (1, 3, 2))
    line = ProjLine(GF8, (0, 4, 6))
    assert line.values == (0, 1, 4)  # scaled by inv(x^2) = x^2 + x + 1


def test_zero_triple_rejected():
    with pytest.raises(ValueError):
        ProjPoint(GF4, (0, 0, 0))


def test_points_and_lines_are_distinct_types():
    assert ProjPoint(GF2, (1, 0, 0)) != ProjLine(GF2, (1, 0, 0))


def test_incident_examples():
    assert incident(ProjPoint(GF2, (1, 0, 0)), ProjLine(GF2, (0, 0, 1)))
    assert not incident(ProjPoint(GF2, (1, 0, 0)), ProjLine(GF2, (1, 0, 0)))
    assert incident(ProjPoint(GF2, (0, 1, 0)), ProjLine(GF2, (0, 0, 1)))


def test_incidence_duality():
    plane = build_plane(GF4)
    for pt in plane.points:
        for ln in plane.lines:
            assert incident(pt, ln) == incident(
                ProjPoint(GF4, ln.values), ProjLine(GF4, pt.values))


def test_line_through_reference_points():
    b1 = ProjPoint(GF8, (0, 1, 0))
    b2 = ProjPoint(GF8, (1, 0, 0))
    n = ProjPoint(GF8, (0, 0, 1))
    assert line_through(b1, b2) == ProjLine(GF8, (0, 0, 1))
    assert line_through(n, b1) == ProjLine(GF8, (1, 0, 0))
    assert line_through(n, b2) == ProjLine(GF8, (0, 1, 0))


def test_line_through_is_incident_with_both():
    plane = build_plane(GF4)
    for p1, p2 in combinations(plane.points[:9], 2):
        line = line_through(p1, p2)
        assert incident(p1, line) and incident(p2, line)


def test_line_through_coincident_points():
    with pytest.raises(CoincidentPoints):
        line_through(ProjPoint(GF4, (1, 1, 1)), ProjPoint(GF4, (1, 1, 1)))


def test_meet_examples():
    assert meet(ProjLine(GF2, (1, 0, 0)), ProjLine(GF2, (0, 1, 0))) == \
        ProjPoint(GF2, (0, 0, 1))
    assert meet(ProjLine(GF2, (0, 0, 1)), ProjLine(GF2, (1, 0, 0))) == \
        ProjPoint(GF2, (0, 1, 0))
    # char-2 cross product of (1,1,1) and (1,gamma,0) with gamma = x
    got = meet(ProjLine(GF4, (1, 1, 1)), ProjLine(GF4, (1, 2, 0)))
    assert got == ProjPoint(GF4, (2, 1, 3))


def test_meet_lies_on_both():
    plane = build_plane(GF4)
    for l1, l2 in combinations(plane.lines[:9], 2):
        pt = meet(l1, l2)
        assert incident(pt, l1) and incident(pt, l2)


def test_meet_coincident_lines():
    with pytest.raises(CoincidentLines):
        meet(ProjLine(GF4, (1, 2, 0)), ProjLine(GF4, (1, 2, 0)))


def test_collinear_examples():
    pts = [ProjPoint(GF4, t) for t in ((1, 0, 0), (0, 1, 0), (1, 1, 0))]
    assert collinear(*pts)
    sq = GF8._mul_i
    one = ProjPoint(GF8, (1, 0, 0))
    for s1, s2 in combinations(range(8), 2):
        p1 = ProjPoint(GF8, (sq(s1, s1), 1, s1))
        p2 = ProjPoint(GF8, (sq(s2, s2), 1, s2))
        assert not collinear(one, p1, p2)
    for s1, s2, s3 in combinations(range(8), 3):
        triple = [ProjPoint(GF8, (sq(s, s), 1, s)) for s in (s1, s2, s3)]
        assert not collinear(*triple)


def test_collinear_duplicates_count_as_collinear():
    a = ProjPoint(GF4, (1, 2, 3))
    b = ProjPoint(GF4, (1, 0, 0))
    assert collinear(a, a, b)
    assert collinear(a, b, a)
    assert collinear(a, a, a)


def test_collinear_permutation_invariant():
    plane = build_plane(GF4)
    import itertools
    pts = plane.points[3:9]
    for trio in combinations(pts, 3):
        results = {collinear(*perm) for perm in itertools.permutations(trio)}
        assert len(results) == 1


def test_points_on_counts_and_membership():
    plane2 = build_plane(GF2)
    got = points_on(ProjLine(GF2, (0, 0, 1)), plane2)
    assert got == [ProjPoint(GF2, t) for t in ((1, 0, 0), (1, 1, 0), (0, 1, 0))]
    for spec in (GF4, GF8):
        plane = build_plane(spec)
        for line in plane.lines:
            assert len(points_on(line, plane)) == spec.order + 1


GF3 = make_field(3)
GF5 = make_field(5)
GF9 = make_field(3, 2, (1, 0, 1))
MASK_FIELDS = [GF2, GF3, GF4, GF5, GF8, GF9]


def _q(spec) -> str:
    return f"q{spec.order}"


@pytest.mark.parametrize("spec", MASK_FIELDS, ids=_q)
def test_plane_caches_agree_with_incidence_oracle(spec):
    """Every line's closed-form point indices are those of the incidence
    scan of all points, ascending, and the same function on a point's
    values gives those of the scan of all lines; q in {2, 3, 4, 5, 8, 9},
    so odd p too."""
    plane = build_plane(spec)
    for line in plane.lines:
        oracle = _line_hits(plane.points, line)
        assert (_incidence_indices(spec, line.values)
                == [plane.points.index(pt) for pt in oracle])
        assert plane.points_on(line) == oracle
    for pt in plane.points:
        oracle = tuple(l for l in plane.lines if incident(pt, l))
        assert (_incidence_indices(spec, pt.values)
                == [i for i, l in enumerate(plane.lines) if incident(pt, l)])
        assert plane.lines_through(pt) == oracle


@pytest.mark.parametrize("spec", MASK_FIELDS, ids=_q)
def test_plane_equals_the_normalizing_construction(spec):
    """The plane makes its points and lines from the enumeration's values
    without normalizing them again; the public constructors, which
    normalize and check, give equal objects."""
    plane = build_plane(spec)
    q = spec.order
    triples = [_triple_values(q, i) for i in range(q * q + q + 1)]
    assert tuple(plane.points) == tuple(ProjPoint(spec, t) for t in triples)
    assert tuple(plane.lines) == tuple(ProjLine(spec, t) for t in triples)


@pytest.mark.parametrize("spec", [GF2, GF3, GF4, GF5], ids=_q)
def test_plane_sequences_have_tuple_semantics(spec):
    """The points and the lines, each made from its position when read,
    behave as the tuple of their items: len, every index and negative
    index, stepped slices, IndexError out of range, iteration, index()
    and `in`."""
    plane = build_plane(spec)
    other = build_plane(GF8)
    for view, other_view, foreign in ((plane.points, other.points, plane.lines),
                                      (plane.lines, other.lines, plane.points)):
        items = tuple(view)
        n = len(items)
        assert len(view) == n == spec.order ** 2 + spec.order + 1
        for i in range(-n, n):
            assert view[i] == items[i]
        for bad in (n, n + 1, -n - 1):
            with pytest.raises(IndexError):
                view[bad]
        for start, stop, step in product((None, 0, 1, -2, n, n + 3), (None, 2, -1, n + 5),
                                          (None, 1, 2, -1, -3)):
            assert view[start:stop:step] == items[start:stop:step]
        for i, item in enumerate(items):
            assert item in view and view.index(item) == i == items.index(item)
            assert view.index(item, i) == i == view.index(item, -n, i + 1)
            for start, stop in ((i + 1, None), (0, i), (-n, i - n)):
                with pytest.raises(ValueError):
                    view.index(item, start, stop)
        for stranger in (other_view[1], foreign[1], items[1].values, None):
            assert stranger not in view and stranger not in items
            with pytest.raises(ValueError):
                view.index(stranger)


def test_triple_values_inverts_triple_index():
    for q in range(2, 65):
        for i in range(q * q + q + 1):
            assert _triple_index(q, _triple_values(q, i)) == i


@pytest.mark.parametrize("spec", MASK_FIELDS, ids=_q)
def test_triple_index_is_the_enumeration_position(spec):
    plane = build_plane(spec)
    for i, (pt, line) in enumerate(zip(plane.points, plane.lines)):
        assert _triple_index(spec.order, pt.values) == i
        assert _triple_index(spec.order, line.values) == i


@pytest.mark.parametrize("spec", [GF3, GF4, GF5, GF9], ids=_q)
def test_join_index_matches_line_through(spec):
    plane = build_plane(spec)
    for a, b in combinations(plane.points, 2):
        assert plane.lines[_join_index(spec, a.values, b.values)] == line_through(a, b)


def test_line_mask_rejects_other_fields():
    with pytest.raises(MixedFields):
        build_plane(GF4).points_on(ProjLine(GF8, (1, 1, 1)))
    with pytest.raises(MixedFields):
        build_plane(GF4).lines_through(ProjPoint(GF2, (1, 1, 1)))


def test_mixed_fields_rejected():
    with pytest.raises(MixedFields):
        incident(ProjPoint(GF2, (1, 0, 0)), ProjLine(GF4, (1, 0, 0)))
    with pytest.raises(MixedFields):
        collinear(ProjPoint(GF2, (1, 0, 0)), ProjPoint(GF2, (0, 1, 0)),
                  ProjPoint(GF4, (0, 0, 1)))


def test_point_serialization_format():
    assert str(ProjPoint(GF8, (0, 1, 5))) == "(0:1:5)"
    gf16 = make_field(2, 4)
    assert str(ProjPoint(gf16, (1, 10, 15))) == "(1:a:f)"
    gf3 = make_field(3, 1)
    assert str(ProjPoint(gf3, (1, 2, 0))) == "(1:2:0)"


@pytest.mark.parametrize("spec", [GF4, GF9, make_field(2, 4)], ids=_q)
def test_point_and_line_texts_match_the_formatted_coordinates(spec):
    """For every point and line of PG(2, q), q in {4, 9, 16} (hex and
    decimal coordinates), its text read from the field's table of
    coordinate strings (kernel._text_table) is its coordinates each
    formatted by spec.format, as linetext._text makes a text one at a time
    and as str() of the plane's ProjPoint and ProjLine gives it."""
    coords, text = _text_table(spec)
    assert coords == [spec.format(v) for v in range(spec.order)]
    plane = build_plane(spec)
    for point, line in zip(plane.points, plane.lines, strict=True):
        formatted = "(" + ":".join(map(spec.format, point.values)) + ")"
        assert text(point.values) == _text(spec, point.values) == str(point) == formatted
        assert text(line.values) == _text(spec, line.values) == str(line) == formatted


def test_plane_order_is_deterministic():
    p1 = build_plane(GF4)
    spec_again = make_field(2, 2)
    p2 = build_plane(spec_again)
    assert p1 == p2 and hash(p1) == hash(p2)  # a plane is a function of its field
    assert [str(p) for p in p1.points[:5]] == ["(1:0:0)", "(1:0:1)", "(1:0:2)",
                                               "(1:0:3)", "(1:1:0)"]


def test_planes_built_apart_over_one_field_are_equal():
    """A plane compares equal and hashes by its field, with no cache to
    share one object: families built apart over one field, each holding
    its own plane, compare equal, and planes of other fields do not."""
    linf, lstar = ProjLine(GF8, (1, 1, 1)), ProjLine(GF8, (1, 2, 0))
    first, second = (build_time_family(GF8, linf, lstar) for _ in range(2))
    assert first.plane is not second.plane
    assert first == second and hash(first) == hash(second)
    plane = Plane(GF8)
    assert plane == build_plane(GF8) and hash(plane) == hash(build_plane(GF8))
    assert plane != build_plane(GF4) and plane != GF8
