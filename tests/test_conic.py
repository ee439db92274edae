"""Conics: evaluation, zero sets, degeneracy classes (the discriminant
against the join census), tangency, nucleus, and the five-point fit."""

import random
from collections import Counter
from itertools import combinations, product

import pytest

from galois_arrow.errors import (
    CollinearTriple,
    DegenerateConic,
    IntersectionTooLarge,
    OddCharacteristic,
)
from galois_arrow.arc import is_arc
from galois_arrow.field import make_field
from galois_arrow.conic import (
    Conic,
    DegeneracyClass,
    LineClass,
    _discriminant,
    _tangent_values,
    _zero_values,
    canonical_conic,
    classify,
    classify_line,
    evaluate,
    fit_conic,
    nucleus,
    parametrize_canonical,
    point_set,
    tangent_lines,
)
from galois_arrow.plane import ProjLine, ProjPoint, build_plane, incident

from oracles import _join_index, _nucleus_by_tangents, _point_set_scan, _tangent_tally

GF2 = make_field(2, 1)
GF3 = make_field(3, 1)
GF4 = make_field(2, 2)
GF5 = make_field(5, 1)
GF8 = make_field(2, 3)
GF9 = make_field(3, 2, (1, 0, 1))


def _join_census(conic, plane):
    """Oracle for classify: the degeneracy class read off the zero set, by
    the plane scan, by the joins of its pairs of points, or None if no
    class fits.

    Exactly one point -> conjugate line pair.  A line holding k of the
    points carries C(k, 2) pairs, so a join carrying C(q+1, 2) pairs is a
    full line inside the set.  q+1 points on one full join -> double line;
    q+1 points with C(q+1, 2) distinct joins, i.e. no three collinear ->
    proper; 2q+1 points holding two full joins -> real line pair.
    """
    pts = _point_set_scan(conic)
    q = plane.order
    if len(pts) == 1:
        return DegeneracyClass.CONJUGATE_LINE_PAIR
    line_pairs = q * (q + 1) // 2
    joins = Counter(_join_index(plane.field, a.values, b.values)
                    for a, b in combinations(pts, 2))
    full_joins = sum(1 for count in joins.values() if count == line_pairs)
    if len(pts) == q + 1 and full_joins == 1:
        return DegeneracyClass.DOUBLE_LINE
    if len(pts) == q + 1 and len(joins) == line_pairs:
        return DegeneracyClass.PROPER
    if len(pts) == 2 * q + 1 and full_joins == 2:
        return DegeneracyClass.REAL_LINE_PAIR
    return None


def test_conic_normalization_and_equality():
    c1 = Conic(GF4, (0, 2, 0, 0, 0, 2))
    c2 = Conic(GF4, (0, 1, 0, 0, 0, 1))
    assert c1 == c2
    assert c1.values == (0, 1, 0, 0, 0, 1)


def test_zero_form_rejected():
    with pytest.raises(ValueError):
        Conic(GF4, (0, 0, 0, 0, 0, 0))


def test_canonical_conic_coefficients():
    assert canonical_conic(GF2).values == (0, 1, 0, 0, 0, 1)
    assert canonical_conic(GF3).values == (0, 1, 0, 0, 0, 2)  # -1 = 2
    assert len(point_set(canonical_conic(GF8))) == 9


def test_evaluate_examples():
    conic = canonical_conic(GF8)
    assert not evaluate(conic, ProjPoint(GF8, (1, 0, 0)))
    assert evaluate(conic, ProjPoint(GF8, (1, 1, 0))) == GF8.one
    mul = GF8._mul_i
    for s in range(8):
        assert not evaluate(conic, ProjPoint(GF8, (mul(s, s), 1, s)))


def test_point_set_smallest_case():
    pts = point_set(canonical_conic(GF2))
    assert set(pts) == {ProjPoint(GF2, t) for t in ((1, 0, 0), (0, 1, 0), (1, 1, 1))}


def test_point_set_of_degenerate_forms():
    plane = build_plane(GF4)
    double = Conic(GF4, (0, 0, 0, 0, 0, 1))        # x3^2
    assert set(point_set(double)) == set(plane.points_on(ProjLine(GF4, (0, 0, 1))))
    pair = Conic(GF4, (0, 1, 0, 0, 0, 0))          # x1*x2
    assert len(point_set(pair)) == 2 * 4 + 1


@pytest.mark.parametrize("spec", [GF2, GF3, GF4], ids=lambda s: f"q{s.order}")
def test_zero_values_are_the_scan_on_every_form(spec):
    """The closed form conic._zero_values, on every nonzero form over GF(2),
    GF(3) and GF(4) as given, unscaled, against the plane scan of its conic,
    in plane order; point_set is the scan's points."""
    for coeffs in product(range(spec.order), repeat=6):
        if any(coeffs):
            conic = Conic(spec, coeffs)
            scan = _point_set_scan(conic)
            assert _zero_values(spec, coeffs) == [p.values for p in scan], coeffs
            assert point_set(conic) == scan


@pytest.mark.parametrize("spec", [GF5, make_field(7, 1), GF8, GF9, make_field(2, 4),
                                  make_field(5, 2, (2, 0, 1)), make_field(3, 3, (1, 2, 0, 1)),
                                  make_field(2, 6)], ids=lambda s: f"q{s.order}")
def test_zero_values_are_the_scan_on_sampled_forms(spec):
    """conic._zero_values against the plane scan, in plane order, on x1^2,
    x3^2, x1*x2, the canonical conic, a time-pencil member, a conjugate
    line pair x1^2 + x1*x2 + b*x2^2 (b the first for which the scan finds
    one point) and 24 seeded forms, about half their coefficients zero."""
    q = spec.order
    rng = random.Random(q)
    pairs = (Conic(spec, (1, 1, 0, b, 0, 0)) for b in range(q))
    forms = [(1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 0),
             canonical_conic(spec).values, (0, 1, 0, 0, 0, q - 1),
             next(c for c in pairs if len(_point_set_scan(c)) == 1).values]
    forms += [tuple(rng.randrange(1, q) if rng.random() < 0.5 else 0 for _ in range(6))
              for _ in range(24)]
    for coeffs in forms:
        if any(coeffs):
            scan = _point_set_scan(Conic(spec, coeffs))
            assert _zero_values(spec, coeffs) == [p.values for p in scan], coeffs


@pytest.mark.parametrize("spec", [GF2, GF3, GF4, GF8], ids=lambda s: f"q{s.order}")
def test_classify_reference_cases(spec):
    assert classify(Conic(spec, (0, 0, 0, 0, 0, 1))) is DegeneracyClass.DOUBLE_LINE
    assert classify(Conic(spec, (0, 1, 0, 0, 0, 0))) is DegeneracyClass.REAL_LINE_PAIR
    assert classify(canonical_conic(spec)) is DegeneracyClass.PROPER


def test_classify_conjugate_line_pair():
    # x1^2 + x1*x2 + x2^2 is irreducible over GF(2): single point (0,0,1)
    conic = Conic(GF2, (1, 1, 0, 1, 0, 0))
    assert classify(conic) is DegeneracyClass.CONJUGATE_LINE_PAIR
    assert point_set(conic) == (ProjPoint(GF2, (0, 0, 1)),)
    # over GF(4) pick x1^2 + x1*x2 + gamma*x2^2, irreducible there
    conic4 = Conic(GF4, (1, 1, 0, 2, 0, 0))
    assert classify(conic4) is DegeneracyClass.CONJUGATE_LINE_PAIR


def test_classify_counts_zeros_against_the_conics_own_order():
    """classify counts a degenerate conic's zeros against its own order:
    over GF(4), x3^2 has 5 zeros and x1^2 + x1*x2 + x2^2 9, q+1 and 2q+1."""
    double, pair = Conic(GF4, (0, 0, 0, 0, 0, 1)), Conic(GF4, (1, 1, 0, 1, 0, 0))
    assert classify(double) is DegeneracyClass.DOUBLE_LINE
    assert classify(pair) is DegeneracyClass.REAL_LINE_PAIR


def test_classify_hidden_double_line_char2():
    # x1^2 + x2^2 = (x1 + x2)^2 in characteristic 2
    conic = Conic(GF4, (1, 0, 0, 1, 0, 0))
    assert classify(conic) is DegeneracyClass.DOUBLE_LINE


@pytest.mark.parametrize("spec", [GF2, GF3, GF4, GF5], ids=lambda s: f"q{s.order}")
def test_census_classifies_every_conic(spec):
    """UnclassifiableConic must be unreachable: every nonzero form over the
    small fields lands in one of the four classes, the discriminant's class
    is the join census's, and each class matches a brute-force description
    of the zero set."""
    plane = build_plane(spec)
    q = spec.order
    lines = {frozenset(plane.points_on(l)) for l in plane.lines}
    line_pairs = {a | b for a, b in combinations(lines, 2)}
    seen = set()
    proper = 0
    for coeffs in product(range(q), repeat=6):
        if not any(coeffs):
            continue
        conic = Conic(spec, coeffs)
        if conic in seen:
            continue
        seen.add(conic)
        cls = classify(conic)
        assert cls is _join_census(conic, plane), conic
        pts = point_set(conic)
        assert (cls is DegeneracyClass.PROPER) == (len(pts) == q + 1 and is_arc(pts))
        assert (cls is DegeneracyClass.DOUBLE_LINE) == (frozenset(pts) in lines)
        assert (cls is DegeneracyClass.REAL_LINE_PAIR) == (frozenset(pts) in line_pairs)
        assert (cls is DegeneracyClass.CONJUGATE_LINE_PAIR) == (len(pts) == 1)
        proper += cls is DegeneracyClass.PROPER
    # normalized forms: (q^6 - 1) / (q - 1), of which q^5 - q^2 are proper
    assert len(seen) == (q ** 6 - 1) // (q - 1)
    assert proper == q ** 5 - q ** 2


def test_discriminant_of_reference_forms():
    # x1^2 + x2^2 + x3^2: Delta = 4abc = 4, nonzero for odd q only
    assert _discriminant(GF3, (1, 0, 0, 1, 0, 1)) == 1
    assert _discriminant(GF5, (1, 0, 0, 1, 0, 1)) == 4
    assert _discriminant(GF4, (1, 0, 0, 1, 0, 1)) == 0
    # x1*x2 + t*x3^2: Delta = -c*h^2 = -t
    assert _discriminant(GF5, (0, 1, 0, 0, 0, 2)) == 3
    assert _discriminant(GF8, (0, 1, 0, 0, 0, 5)) == 5
    assert _discriminant(GF8, (0, 1, 0, 0, 0, 0)) == 0


def test_classify_stable_under_rescaling():
    for k in range(2, 8):
        mul = GF8._mul_i
        scaled = Conic(GF8, tuple(mul(k, v) for v in canonical_conic(GF8).values))
        assert scaled == canonical_conic(GF8)
        assert classify(scaled) is DegeneracyClass.PROPER


@pytest.mark.parametrize("spec", [GF2, GF4, GF8, make_field(2, 4)],
                         ids=lambda s: f"q{s.order}")
def test_parametrization_matches_point_set(spec):
    pts = parametrize_canonical(spec)
    assert len(pts) == spec.order + 1
    assert len(set(pts)) == spec.order + 1
    assert set(pts) == set(_point_set_scan(canonical_conic(spec)))


@pytest.mark.parametrize("spec", [GF2, GF3, GF4, GF5, GF8, GF9], ids=lambda s: f"q{s.order}")
def test_parametrization_is_in_element_order(spec):
    """parametrize_canonical is (1:0:0), then (s^2 : 1 : s) for s in element
    order, each made by ProjPoint's normalizing constructor."""
    mul = spec._mul_i
    assert parametrize_canonical(spec) == [
        ProjPoint(spec, (1, 0, 0)), *(ProjPoint(spec, (mul(s, s), 1, s)) for s in range(spec.order))]


def test_classify_line_examples():
    plane = build_plane(GF4)
    pts = point_set(canonical_conic(GF4))
    assert classify_line(pts, ProjLine(GF4, (0, 0, 1))) is LineClass.SECANT
    assert classify_line(pts, ProjLine(GF4, (0, 1, 0))) is LineClass.TANGENT
    externals = [l for l in plane.lines if classify_line(pts, l) is LineClass.EXTERNAL]
    assert len(externals) == 4 * 3 // 2  # q(q-1)/2


def test_classify_line_rejects_big_intersections():
    plane = build_plane(GF4)
    line = ProjLine(GF4, (0, 0, 1))
    with pytest.raises(IntersectionTooLarge):
        classify_line(plane.points_on(line), line)


@pytest.mark.parametrize("spec,expected", [(GF2, 3), (GF4, 5), (GF8, 9)],
                         ids=lambda v: str(v))
def test_tangent_count_even_q(spec, expected):
    tangents = tangent_lines(canonical_conic(spec))
    assert len(tangents) == expected
    nuc = ProjPoint(spec, (0, 0, 1))
    assert all(incident(nuc, t) for t in tangents)


@pytest.mark.parametrize("spec", [GF4, GF8], ids=lambda s: f"q{s.order}")
def test_tangents_are_exactly_the_lines_through_the_nucleus(spec):
    plane = build_plane(spec)
    conic = canonical_conic(spec)
    nuc = nucleus(conic)
    assert set(tangent_lines(conic)) == set(plane.lines_through(nuc))


@pytest.mark.parametrize("spec", [GF3, GF4, GF5, make_field(7), GF8, GF9],
                         ids=lambda s: f"q{s.order}")
def test_tangent_lines_match_the_line_classifier(spec):
    """20 seeded proper forms per field: the tally of lines through the
    conic's points against classify_line run on every plane line."""
    plane = build_plane(spec)
    rng = random.Random(spec.order)
    conics = []
    while len(conics) < 20:
        coeffs = [rng.randrange(spec.order) for _ in range(6)]
        if not any(coeffs):
            continue   # the zero form is not a conic
        conic = Conic(spec, coeffs)
        if classify(conic) is DegeneracyClass.PROPER:
            conics.append(conic)
    for conic in conics:
        pts = point_set(conic)
        assert tangent_lines(conic) == [
            line for line in plane.lines
            if classify_line(pts, line) is LineClass.TANGENT]


def test_line_class_census_q8():
    plane = build_plane(GF8)
    pts = point_set(canonical_conic(GF8))
    census = {LineClass.SECANT: 0, LineClass.TANGENT: 0, LineClass.EXTERNAL: 0}
    for line in plane.lines:
        census[classify_line(pts, line)] += 1
    assert census[LineClass.TANGENT] == 9
    assert census[LineClass.SECANT] == 8 * 9 // 2
    assert census[LineClass.EXTERNAL] == 8 * 7 // 2
    assert sum(census.values()) == len(plane.lines)


def test_tangents_not_concurrent_for_odd_q():
    plane = build_plane(GF9)
    tangents = tangent_lines(canonical_conic(GF9))
    assert len(tangents) == 10
    common = set(plane.points_on(tangents[0]))
    for t in tangents[1:]:
        common &= set(plane.points_on(t))
    assert not common


def test_nucleus_examples():
    for spec in (GF4, GF8):
        assert nucleus(canonical_conic(spec)) == ProjPoint(spec, (0, 0, 1))


def test_nucleus_odd_characteristic():
    with pytest.raises(OddCharacteristic):
        nucleus(canonical_conic(GF3))


def test_nucleus_rejects_degenerate():
    with pytest.raises(DegenerateConic):
        nucleus(Conic(GF4, (0, 0, 0, 0, 0, 1)))
    with pytest.raises(DegenerateConic):
        tangent_lines(Conic(GF4, (0, 1, 0, 0, 0, 0)))


@pytest.mark.parametrize("spec", [GF2, GF4, GF8, make_field(2, 4)],
                         ids=lambda s: f"q{s.order}")
def test_nucleus_fast_path_agrees_with_tangent_oracle(spec):
    conic = canonical_conic(spec)
    assert nucleus(conic) == _nucleus_by_tangents(conic)
    # every proper member of the canonical pencil too
    for t in range(1, spec.order):
        member = Conic(spec, (0, 1, 0, 0, 0, t))
        assert nucleus(member) == _nucleus_by_tangents(member)


@pytest.mark.parametrize("spec", [GF2, GF4], ids=lambda s: f"q{s.order}")
def test_nucleus_closed_form_agrees_with_tangent_oracle_on_every_form(spec):
    for coeffs in product(range(spec.order), repeat=6):
        if not any(coeffs):
            continue
        conic = Conic(spec, coeffs)
        _, c12, c13, _, c23, _ = conic.values
        if not (c12 or c13 or c23):
            with pytest.raises(DegenerateConic):
                nucleus(conic)
        if classify(conic) is DegeneracyClass.PROPER:
            assert nucleus(conic) == _nucleus_by_tangents(conic)


def _tangents_match_the_oracles(spec, coeffs, plane):
    """Whether coeffs, as given, make a proper conic; if so, its closed-form
    tangents, unscaled and through tangent_lines, are the tally's, and its
    nucleus is the meet of the tallied tangents, or neither exists in odd
    characteristic."""
    conic = Conic(spec, coeffs)
    if classify(conic) is not DegeneracyClass.PROPER:
        return False
    tally = _tangent_tally(conic)
    assert _tangent_values(spec, coeffs) == [line.values for line in tally], coeffs
    assert tangent_lines(conic) == tally, coeffs
    if spec.characteristic == 2:
        assert nucleus(conic) == _nucleus_by_tangents(conic), coeffs
    else:
        for call in (nucleus, _nucleus_by_tangents):
            with pytest.raises(OddCharacteristic):
                call(conic)
    return True


@pytest.mark.parametrize("spec", [GF2, GF3, GF4], ids=lambda s: f"q{s.order}")
def test_tangents_and_nucleus_are_the_oracles_on_every_form(spec):
    """conic._tangent_values, tangent_lines and nucleus on every proper form
    over GF(2), GF(3) and GF(4), as given, unscaled, against the tangent
    tally and the meet of its tangents: (q - 1)(q^5 - q^2) forms, q - 1
    scalings of each of the q^5 - q^2 proper conics."""
    plane = build_plane(spec)
    proper = sum(_tangents_match_the_oracles(spec, coeffs, plane)
                 for coeffs in product(range(spec.order), repeat=6) if any(coeffs))
    assert proper == (spec.order - 1) * (spec.order ** 5 - spec.order ** 2)


@pytest.mark.parametrize("spec", [GF5, make_field(7, 1), GF8, GF9, make_field(2, 4),
                                  make_field(2, 6)], ids=lambda s: f"q{s.order}")
def test_tangents_and_nucleus_are_the_oracles_on_seeded_forms(spec):
    """The same on the canonical conic, a time-pencil member and 20 seeded
    proper forms, about a third of their coefficients zero."""
    plane = build_plane(spec)
    q = spec.order
    rng = random.Random(q)
    forms = [canonical_conic(spec).values, (0, 1, 0, 0, 0, q - 1)]
    while len(forms) < 22:
        coeffs = tuple(rng.randrange(1, q) if rng.random() < 0.7 else 0 for _ in range(6))
        if any(coeffs) and classify(Conic(spec, coeffs)) is DegeneracyClass.PROPER:
            forms.append(coeffs)
    assert all(_tangents_match_the_oracles(spec, coeffs, plane) for coeffs in forms)


def test_fit_conic_recovers_canonical():
    pts = point_set(canonical_conic(GF4))
    assert fit_conic(pts[:5]) == canonical_conic(GF4)


def test_fit_conic_any_five_subset_q8():
    pts = point_set(canonical_conic(GF8))
    for subset in combinations(pts, 5):
        assert fit_conic(subset) == canonical_conic(GF8)


def test_fit_conic_rejects_collinear_and_bad_arity():
    plane = build_plane(GF8)
    on_line = plane.points_on(ProjLine(GF8, (0, 0, 1)))
    pts = point_set(canonical_conic(GF8))
    with pytest.raises(CollinearTriple):
        fit_conic(on_line[:3] + pts[:2])
    with pytest.raises(CollinearTriple):
        fit_conic((pts[0], pts[0], pts[1], pts[2], pts[3]))
    with pytest.raises(ValueError):
        fit_conic(pts[:4])


def test_fit_conic_null_space_is_one_dimensional():
    """The 5x6 fit system for canonical-conic points over GF(4) has a
    one-dimensional solution space."""
    from galois_arrow.conic import _MONOMIALS, solve_homogeneous

    pts = point_set(canonical_conic(GF4))[:5]
    rows = []
    for p in pts:
        xs = p.coords
        rows.append([xs[i] * xs[j] for i, j in _MONOMIALS])
    assert len(solve_homogeneous(rows)) == 1


@pytest.mark.parametrize("spec", [GF2, GF4, GF8, make_field(2, 4), make_field(2, 5)],
                         ids=lambda s: f"q{s.order}")
def test_proper_conics_are_arcs(spec):
    from galois_arrow.arc import is_arc
    assert is_arc(point_set(canonical_conic(spec)))
