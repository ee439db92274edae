"""Arcs: verification, hyperoval construction, puncturing, the conic test,
touch points, and the pencil-derived arc family."""

import gc
import tracemalloc

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
from galois_arrow.modulus import parse_modulus
from galois_arrow.conic import (
    DegeneracyClass,
    _zero_values,
    canonical_conic,
    classify,
    fit_conic,
    point_set,
)
from galois_arrow.pencil import member_through, members, time_pencil
from galois_arrow.plane import ProjLine, ProjPoint, build_plane, incident, meet, points_on
from galois_arrow.arc import (
    Arc,
    augment_with_nucleus,
    build_time_family,
    family_to_dict,
    is_arc,
    is_conic_arc,
    puncture,
    touch_point,
)

from oracles import _point_set_scan, _valid_ideal_lines, _valid_tangent_lines

GF2 = make_field(2, 1)
GF4 = make_field(2, 2)
GF8 = make_field(2, 3)


def _family(spec, linf=(1, 1, 1), lstar=None):
    if lstar is None:
        lstar = (1, spec.characteristic if spec.degree >= 2 else 1, 0)
    return build_time_family(spec, ProjLine(spec, linf), ProjLine(spec, lstar))


def _proper(spec):
    """The proper members of the census members(), in member order."""
    return [m for m in members(time_pencil(spec)) if m.is_proper]


# --- is_arc ---------------------------------------------------------------------

def test_conic_points_form_an_arc():
    assert is_arc(point_set(canonical_conic(GF8)))


def test_line_points_are_not_an_arc():
    plane = build_plane(GF4)
    assert not is_arc(plane.points_on(ProjLine(GF4, (0, 0, 1))))


def test_conic_plus_nucleus_is_an_arc():
    pts = list(point_set(canonical_conic(GF8)))
    pts.append(ProjPoint(GF8, (0, 0, 1)))
    assert is_arc(pts)


def test_is_arc_rejects_duplicates():
    p = ProjPoint(GF4, (1, 1, 1))
    with pytest.raises(DuplicatePoints):
        is_arc([p, p, ProjPoint(GF4, (1, 0, 0))])


# --- hyperovals and puncturing -----------------------------------------------------

@pytest.mark.parametrize("spec", [GF2, GF4, GF8], ids=lambda s: f"q{s.order}")
def test_augment_with_nucleus_sizes(spec):
    hyper = augment_with_nucleus(canonical_conic(spec))
    assert hyper.size == spec.order + 2
    assert is_arc(hyper.points)
    assert ProjPoint(spec, (0, 0, 1)) in hyper


def test_augment_rejects_odd_characteristic():
    gf3 = make_field(3, 1)
    with pytest.raises(OddCharacteristic):
        augment_with_nucleus(canonical_conic(gf3))


def test_puncture_conic_point_keeps_nucleus():
    hyper = augment_with_nucleus(canonical_conic(GF8))
    conic_pt = next(p for p in hyper.points if p != ProjPoint(GF8, (0, 0, 1)))
    arc = puncture(hyper, conic_pt)
    assert arc.size == 9
    assert ProjPoint(GF8, (0, 0, 1)) in arc
    assert len(set(arc.points) & set(point_set(canonical_conic(GF8)))) == 8


def test_puncture_nucleus_recovers_the_conic():
    hyper = augment_with_nucleus(canonical_conic(GF8))
    arc = puncture(hyper, ProjPoint(GF8, (0, 0, 1)))
    assert set(arc.points) == set(point_set(canonical_conic(GF8)))


def test_puncture_missing_point():
    hyper = augment_with_nucleus(canonical_conic(GF4))
    with pytest.raises(PointNotInArc):
        puncture(hyper, ProjPoint(GF4, (1, 2, 2)))


# --- is_conic_arc -------------------------------------------------------------------

def test_conic_point_set_is_a_conic_arc():
    assert is_conic_arc(Arc(point_set(canonical_conic(GF8))))


def test_punctured_hyperoval_is_not_a_conic_for_q8():
    hyper = augment_with_nucleus(canonical_conic(GF8))
    conic_pt = next(p for p in hyper.points if p != ProjPoint(GF8, (0, 0, 1)))
    assert not is_conic_arc(puncture(hyper, conic_pt))


def test_punctured_hyperoval_is_a_conic_for_q4():
    hyper = augment_with_nucleus(canonical_conic(GF4))
    conic_pt = next(p for p in hyper.points if p != ProjPoint(GF4, (0, 0, 1)))
    assert is_conic_arc(puncture(hyper, conic_pt))


def test_is_conic_arc_needs_five_points():
    hyper = augment_with_nucleus(canonical_conic(GF2))  # 4 points
    with pytest.raises(ArcTooSmall):
        is_conic_arc(hyper)


def test_fitted_conic_through_family_arc_is_proper_but_not_containing():
    from galois_arrow.conic import evaluate
    fam = _family(GF8)
    arc = fam.members[0]
    fitted = fit_conic(arc.points[:5])
    assert classify(fitted) is DegeneracyClass.PROPER
    assert any(evaluate(fitted, p) for p in arc.points)


# --- touch points --------------------------------------------------------------------

def test_touch_point_is_the_unique_intersection():
    member = _proper(GF4)[0]
    lstar = ProjLine(GF4, (1, 2, 0))
    got = touch_point(member.conic, lstar)
    brute = [p for p in point_set(member.conic) if incident(p, lstar)]
    assert brute == [got]


def test_touch_point_on_nb1_is_b1_for_every_member():
    nb1 = ProjLine(GF8, (1, 0, 0))
    for member in _proper(GF8):
        assert touch_point(member.conic, nb1) == ProjPoint(GF8, (0, 1, 0))


def test_touch_point_requires_line_through_nucleus():
    member = _proper(GF4)[0]
    with pytest.raises(NotThroughNucleus):
        touch_point(member.conic, ProjLine(GF4, (1, 1, 1)))


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
    for t, (member, arc) in enumerate(zip(_proper(GF8), fam.members, strict=True), 1):
        assert member.theta == (1, t)
        pts = _zero_values(GF8, (0, 1, 0, 0, 0, t))
        assert pts == [p.values for p in _point_set_scan(member.conic)]
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
    closed-form touch points against member_through over the points of L*,
    and its member ids and thetas against the census; a pair whose A lies on a degenerate member is refused with its message."""
    spec = make_field(2, n)
    pencil = time_pencil(spec)
    # the census's proper members, ids and thetas: (1, t) at position t - 1, id t
    proper = [(i, m.theta) for i, m in enumerate(members(pencil)) if m.is_proper]
    assert proper == [(t, (1, t)) for t in range(1, spec.order)]
    rejected = 0
    for lstar in _valid_tangent_lines(spec):
        # each point of L* lies on its own member, so each member's touch
        # point is single: N on x1*x2, one point on x3^2, one per proper member
        on_member = {member_through(pencil, p).theta: p
                     for p in points_on(lstar)}
        assert len(on_member) == spec.order + 1
        touches = tuple(on_member[theta] for _, theta in proper)
        for linf in _valid_ideal_lines(spec):
            contact = meet(linf, lstar)
            qstar = member_through(pencil, contact)
            if not qstar.is_proper:
                rejected += 1
                with pytest.raises(DegenerateContactPoint) as exc:
                    build_time_family(spec, linf, lstar)
                assert str(exc.value) == f"{contact} = {linf} ∧ {lstar} lies on a degenerate member"
                continue
            fam = build_time_family(spec, linf, lstar)
            assert fam.touch_points == touches
            assert (fam.member_ids, fam.thetas) == tuple(map(tuple, zip(*proper)))
            assert (fam.pencil, fam.linf, fam.lstar, fam.contact_point,
                    fam.qstar_theta) == (pencil, linf, lstar, contact, qstar.theta)
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
    a = fam.contact_point
    assert incident(a, fam.linf)
    assert incident(a, fam.lstar)
    # the member through A is proper and its touch point is A itself
    idx = fam.thetas.index(fam.qstar_theta)
    assert fam.touch_points[idx] == a


def test_touch_points_partition_lstar():
    """On L*: q-1 distinct touch points, the nucleus, and one point on the
    double line account for all q+1 points."""
    fam = _family(GF8)
    lstar_pts = set(points_on(fam.lstar))
    touches = set(fam.touch_points)
    assert len(touches) == 7
    n = ProjPoint(GF8, (0, 0, 1))
    double_line_pts = set(points_on(ProjLine(GF8, (0, 0, 1))))
    leftovers = lstar_pts - touches - {n}
    assert len(leftovers) == 1
    assert leftovers <= double_line_pts


def test_family_refuses_lstar_not_one_to_one_on_members():
    """Each point of a valid L* lies on its own member, so each member's
    touch point is single; every other line of the plane meets some member
    in no point or in more than one, and the family refuses it."""
    plane = build_plane(GF8)
    census = [set(point_set(m.conic)) for m in members(time_pencil(GF8))]
    one_to_one = []
    for line in plane.lines:
        pts = set(points_on(line))
        if all(len(pts & zeros) == 1 for zeros in census):
            one_to_one.append(line)
            assert _first_unrejected_family(GF8, line).lstar == line
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
            assert touch == touch_point(member.conic, lstar)
            assert arc.size == spec.order + 1
            assert touch not in arc
            assert is_arc(arc.points)
            assert list(arc.points) == sorted(arc.points,
                                              key=build_plane(spec).points.index)


@pytest.mark.parametrize("spec", [GF4, GF8, make_field(2, 4)],
                         ids=lambda s: f"q{s.order}")
def test_family_members_are_made_when_read(monkeypatch, spec):
    """build_time_family makes no member's zero set (conic._zero_values,
    as arc reads it); each read of family.members makes the q-1 members'
    zero sets anew, in member order, and equal arcs."""
    from galois_arrow import arc
    calls = []

    def counting(*args, original=arc._zero_values):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(arc, "_zero_values", counting)
    fam = _family(spec)
    assert calls == []
    first = fam.members
    want = [(0, 1, 0, 0, 0, t) for t in fam.member_ids]
    assert calls == want and len(want) == spec.order - 1
    assert fam.members == first
    assert calls == want + want


@pytest.mark.parametrize("n, modulus", [(8, None), (12, "0x1053")], ids=["q256", "q4096"])
def test_family_build_is_o_of_q_and_keeps_nothing(monkeypatch, n, modulus):
    """At q = 256 and 4096, under tracemalloc, a family on an L* not built
    before makes no plane item and no member's zero set, peaks under
    16 KiB whatever q, and once dropped leaves nothing behind: it is its
    two lines, and its touch points and members are made when read."""
    from galois_arrow import arc, plane
    calls = []

    def counting(original):
        def wrapper(*args):
            calls.append(original.__name__)
            return original(*args)
        return wrapper

    monkeypatch.setattr(plane._Enumeration, "_item", counting(plane._Enumeration._item))
    monkeypatch.setattr(arc, "_zero_values", counting(arc._zero_values))
    spec = make_field(2, n, modulus and parse_modulus(modulus, 2))
    linf = ProjLine(spec, (1, 1, 1))
    build_time_family(spec, linf, ProjLine(spec, (1, 3, 0)))
    lstar = ProjLine(spec, (1, 2, 0))
    gc.collect()
    calls.clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fam = build_time_family(spec, linf, lstar)
        peak = tracemalloc.get_traced_memory()[1] - before
        del fam
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert calls == []
    assert peak < 1024 * spec.order and kept < 1024, (peak, kept)
    assert peak < 16 * 1024, peak


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
