"""Arcs: verification, hyperoval construction, puncturing, the conic test,
touch points, and the pencil-derived arc family."""

import pytest

from galois_arrow.errors import (
    ArcTooSmall,
    DegenerateContactPoint,
    DuplicatePoints,
    InvalidIdealLine,
    InvalidTangentLine,
    MixedFields,
    NotThroughNucleus,
    OddCharacteristic,
    PointNotInArc,
    UnsupportedField,
)
from galois_arrow.field import make_field
from galois_arrow.conic import (
    DegeneracyClass,
    canonical_conic,
    classify,
    fit_conic,
    point_set,
)
from galois_arrow.pencil import member_through, members, time_pencil
from galois_arrow.kernel import time_pencil_context
from galois_arrow.plane import ProjLine, ProjPoint, build_plane, incident, meet, points_on
from galois_arrow.arc import (
    Arc,
    _member_values,
    augment_with_nucleus,
    build_time_family,
    family_to_dict,
    is_arc,
    is_conic_arc,
    puncture,
    touch_point,
)

from oracles import _valid_ideal_lines, _valid_tangent_lines

GF2 = make_field(2, 1)
GF4 = make_field(2, 2)
GF8 = make_field(2, 3)


def _family(spec, linf=(1, 1, 1), lstar=None):
    if lstar is None:
        lstar = (1, spec.characteristic if spec.degree >= 2 else 1, 0)
    return build_time_family(spec, ProjLine(spec, linf), ProjLine(spec, lstar))


def _proper(spec):
    """The proper members of the census members(), in member order."""
    return [m for m in members(time_pencil(spec), build_plane(spec)) if m.is_proper]


# --- is_arc ---------------------------------------------------------------------

def test_conic_points_form_an_arc():
    plane = build_plane(GF8)
    assert is_arc(point_set(canonical_conic(GF8), plane))


def test_line_points_are_not_an_arc():
    plane = build_plane(GF4)
    assert not is_arc(plane.points_on(ProjLine(GF4, (0, 0, 1))))


def test_conic_plus_nucleus_is_an_arc():
    plane = build_plane(GF8)
    pts = list(point_set(canonical_conic(GF8), plane))
    pts.append(ProjPoint(GF8, (0, 0, 1)))
    assert is_arc(pts)


def test_is_arc_rejects_duplicates():
    p = ProjPoint(GF4, (1, 1, 1))
    with pytest.raises(DuplicatePoints):
        is_arc([p, p, ProjPoint(GF4, (1, 0, 0))])


# --- hyperovals and puncturing -----------------------------------------------------

@pytest.mark.parametrize("spec", [GF2, GF4, GF8], ids=lambda s: f"q{s.order}")
def test_augment_with_nucleus_sizes(spec):
    plane = build_plane(spec)
    hyper = augment_with_nucleus(canonical_conic(spec), plane)
    assert hyper.size == spec.order + 2
    assert is_arc(hyper.points)
    assert ProjPoint(spec, (0, 0, 1)) in hyper


def test_augment_rejects_odd_characteristic():
    gf3 = make_field(3, 1)
    with pytest.raises(OddCharacteristic):
        augment_with_nucleus(canonical_conic(gf3), build_plane(gf3))


def test_puncture_conic_point_keeps_nucleus():
    plane = build_plane(GF8)
    hyper = augment_with_nucleus(canonical_conic(GF8), plane)
    conic_pt = next(p for p in hyper.points if p != ProjPoint(GF8, (0, 0, 1)))
    arc = puncture(hyper, conic_pt)
    assert arc.size == 9
    assert ProjPoint(GF8, (0, 0, 1)) in arc
    assert len(set(arc.points) & set(point_set(canonical_conic(GF8), plane))) == 8


def test_puncture_nucleus_recovers_the_conic():
    plane = build_plane(GF8)
    hyper = augment_with_nucleus(canonical_conic(GF8), plane)
    arc = puncture(hyper, ProjPoint(GF8, (0, 0, 1)))
    assert set(arc.points) == set(point_set(canonical_conic(GF8), plane))


def test_puncture_missing_point():
    plane = build_plane(GF4)
    hyper = augment_with_nucleus(canonical_conic(GF4), plane)
    with pytest.raises(PointNotInArc):
        puncture(hyper, ProjPoint(GF4, (1, 2, 2)))


# --- is_conic_arc -------------------------------------------------------------------

def test_conic_point_set_is_a_conic_arc():
    plane = build_plane(GF8)
    assert is_conic_arc(Arc(point_set(canonical_conic(GF8), plane)))


def test_punctured_hyperoval_is_not_a_conic_for_q8():
    plane = build_plane(GF8)
    hyper = augment_with_nucleus(canonical_conic(GF8), plane)
    conic_pt = next(p for p in hyper.points if p != ProjPoint(GF8, (0, 0, 1)))
    assert not is_conic_arc(puncture(hyper, conic_pt))


def test_punctured_hyperoval_is_a_conic_for_q4():
    plane = build_plane(GF4)
    hyper = augment_with_nucleus(canonical_conic(GF4), plane)
    conic_pt = next(p for p in hyper.points if p != ProjPoint(GF4, (0, 0, 1)))
    assert is_conic_arc(puncture(hyper, conic_pt))


def test_is_conic_arc_needs_five_points():
    plane = build_plane(GF2)
    hyper = augment_with_nucleus(canonical_conic(GF2), plane)  # 4 points
    with pytest.raises(ArcTooSmall):
        is_conic_arc(hyper)


def test_fitted_conic_through_family_arc_is_proper_but_not_containing():
    from galois_arrow.conic import evaluate
    fam = _family(GF8)
    plane = fam.plane
    arc = fam.members[0]
    fitted = fit_conic(arc.points[:5])
    assert classify(fitted, plane) is DegeneracyClass.PROPER
    assert any(evaluate(fitted, p) for p in arc.points)


# --- touch points --------------------------------------------------------------------

def test_touch_point_is_the_unique_intersection():
    plane = build_plane(GF4)
    member = _proper(GF4)[0]
    lstar = ProjLine(GF4, (1, 2, 0))
    got = touch_point(member.conic, lstar, plane)
    brute = [p for p in point_set(member.conic, plane) if incident(p, lstar)]
    assert brute == [got]


def test_touch_point_on_nb1_is_b1_for_every_member():
    nb1 = ProjLine(GF8, (1, 0, 0))
    for member in _proper(GF8):
        assert touch_point(member.conic, nb1, build_plane(GF8)) == ProjPoint(GF8, (0, 1, 0))


def test_touch_point_requires_line_through_nucleus():
    member = _proper(GF4)[0]
    with pytest.raises(NotThroughNucleus):
        touch_point(member.conic, ProjLine(GF4, (1, 1, 1)), build_plane(GF4))


# --- the family ------------------------------------------------------------------------

def test_family_q8_default_configuration():
    fam = _family(GF8)
    assert len(fam.members) == 7
    n = ProjPoint(GF8, (0, 0, 1))
    for arc in fam.members:
        assert arc.size == 9
        assert n in arc
        assert is_arc(arc.points)


def test_family_q4_default_configuration():
    fam = _family(GF4)
    assert len(fam.members) == 3
    assert all(arc.size == 5 for arc in fam.members)


def test_family_members_share_q_points_with_their_conic():
    fam = _family(GF8)
    ctx = time_pencil_context(GF8)
    for member, t, arc in zip(_proper(GF8), ctx.ids, fam.members, strict=True):
        pts = _member_values(GF8, t)
        assert pts == [p.values for p in point_set(member.conic, fam.plane)]
        assert len({p.values for p in arc.points} & set(pts)) == 8


def test_family_rejects_nb1_as_tangent_line():
    with pytest.raises(InvalidTangentLine):
        _family(GF8, lstar=(1, 0, 0))
    with pytest.raises(InvalidTangentLine):
        _family(GF8, lstar=(0, 1, 0))


def test_family_rejects_line_missing_nucleus():
    with pytest.raises(InvalidTangentLine):
        _family(GF8, lstar=(1, 1, 1))


def test_family_rejects_bad_ideal_lines():
    with pytest.raises(InvalidIdealLine):
        _family(GF8, linf=(1, 0, 0))
    with pytest.raises(InvalidIdealLine):
        _family(GF8, linf=(0, 0, 1))
    with pytest.raises(InvalidIdealLine):
        _family(GF8, linf=(1, 1, 0))


def test_family_rejects_tangent_line_from_another_field():
    with pytest.raises(MixedFields):
        build_time_family(GF8, ProjLine(GF8, (1, 1, 1)), ProjLine(GF4, (1, 2, 0)))


def test_family_rejects_degenerate_contact_point():
    # A = (1:1:0) lands on the double line x3 = 0
    with pytest.raises(DegenerateContactPoint):
        _family(GF8, linf=(1, 1, 1), lstar=(1, 1, 0))


@pytest.mark.parametrize("n", [2, 3, 4, 5], ids=lambda n: f"q{2 ** n}")
def test_contact_member_matches_the_incidence_oracle(n):
    """On every valid (L-infinity, L*) pair, the family's contact point A and
    contact member Q* against plane.meet and member_through, and its
    closed-form touch points against member_through over the points of L*;
    a pair whose A lies on a degenerate member is refused with its message."""
    spec = make_field(2, n)
    ctx = time_pencil_context(spec)
    plane = build_plane(spec)
    pencil = time_pencil(spec)
    rejected = 0
    for lstar in _valid_tangent_lines(spec):
        # each point of L* lies on its own member, so each member's touch
        # point is single: N on x1*x2, one point on x3^2, one per proper member
        on_member = {member_through(pencil, p, plane).theta: p
                     for p in points_on(lstar, plane)}
        assert len(on_member) == spec.order + 1
        touches = tuple(on_member[theta] for theta in ctx.thetas)
        for linf in _valid_ideal_lines(spec):
            contact = meet(linf, lstar)
            qstar = member_through(pencil, contact, plane)
            if not qstar.is_proper:
                rejected += 1
                with pytest.raises(DegenerateContactPoint) as exc:
                    build_time_family(spec, linf, lstar)
                assert str(exc.value) == f"{contact} = {linf} ∧ {lstar} lies on a degenerate member"
                continue
            fam = build_time_family(spec, linf, lstar)
            assert fam.touch_points == touches
            assert fam.provenance == (pencil, linf, lstar, contact, qstar.theta)
    # A lies on the double line x3 = 0 exactly when L-infinity = (1 : a : c), L* = (1 : a : 0)
    assert rejected == (spec.order - 1) ** 2


def test_family_unsupported_fields():
    with pytest.raises(UnsupportedField):
        _family(GF2)
    gf3 = make_field(3, 1)
    with pytest.raises(OddCharacteristic):
        build_time_family(gf3, ProjLine(gf3, (1, 1, 1)), ProjLine(gf3, (1, 1, 0)))


def test_family_provenance_records_qstar():
    fam = _family(GF8)
    a = fam.provenance.contact_point
    assert incident(a, fam.provenance.linf)
    assert incident(a, fam.provenance.lstar)
    # the member through A is proper and its touch point is A itself
    idx = fam.thetas.index(fam.provenance.qstar_theta)
    assert fam.touch_points[idx] == a


def test_touch_points_partition_lstar():
    """On L*: q-1 distinct touch points, the nucleus, and one point on the
    double line account for all q+1 points."""
    fam = _family(GF8)
    lstar_pts = set(points_on(fam.provenance.lstar, fam.plane))
    touches = set(fam.touch_points)
    assert len(touches) == 7
    n = ProjPoint(GF8, (0, 0, 1))
    double_line_pts = set(points_on(ProjLine(GF8, (0, 0, 1)), fam.plane))
    leftovers = lstar_pts - touches - {n}
    assert len(leftovers) == 1
    assert leftovers <= double_line_pts


def test_family_refuses_lstar_not_one_to_one_on_members():
    """Each point of a valid L* lies on its own member, so each member's
    touch point is single; every other line of the plane meets some member
    in no point or in more than one, and the family refuses it."""
    plane = build_plane(GF8)
    census = [set(point_set(m.conic, plane)) for m in members(time_pencil(GF8), plane)]
    one_to_one = []
    for line in plane.lines:
        pts = set(points_on(line, plane))
        if all(len(pts & zeros) == 1 for zeros in census):
            one_to_one.append(line)
            assert _first_unrejected_family(GF8, line).provenance.lstar == line
            continue
        with pytest.raises(InvalidTangentLine):
            _family(GF8, lstar=line.values)
    assert tuple(one_to_one) == _valid_tangent_lines(GF8)


def _first_unrejected_family(spec, lstar):
    for linf in _valid_ideal_lines(spec):
        try:
            return build_time_family(spec, linf, lstar)
        except DegenerateContactPoint:
            pass
    raise AssertionError(f"every ideal line is rejected for {lstar}")


@pytest.mark.parametrize("spec", [GF4, GF8, make_field(2, 4)],
                         ids=lambda s: f"q{s.order}")
def test_family_members_are_arcs_for_every_lstar(spec):
    """Brute-force oracle for the unchecked family build: for every valid
    L*, with the first L-infinity that is not rejected, every member is a
    (q+1)-arc listed in plane order, without its member's touch point on
    L* as the touch_point oracle finds it."""
    proper = _proper(spec)
    lstars = _valid_tangent_lines(spec)
    assert len(lstars) == spec.order - 1
    for lstar in lstars:
        fam = _first_unrejected_family(spec, lstar)
        assert len(fam.members) == spec.order - 1
        # the closed-form is_conic against the five-point fit
        assert ([m["is_conic"] for m in family_to_dict(fam)["members"]]
                == [is_conic_arc(arc) for arc in fam.members])
        for member, arc, touch in zip(proper, fam.members, fam.touch_points):
            assert touch == touch_point(member.conic, lstar, fam.plane)
            assert arc.size == spec.order + 1
            assert touch not in arc
            assert is_arc(arc.points)
            assert list(arc.points) == sorted(arc.points,
                                              key=fam.plane.points.index)


def test_family_serialization_schema():
    fam = _family(GF4)
    d = family_to_dict(fam)
    assert set(d) == {"q", "Linf", "Lstar", "A", "Qstar_theta", "members"}
    assert d["q"] == 4
    assert len(d["members"]) == 3
    for m in d["members"]:
        assert set(m) == {"theta", "points", "is_conic"}
        assert len(m["points"]) == 5
        assert m["is_conic"] is True
