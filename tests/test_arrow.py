"""Temporal classification: validation of ideal lines, per-member classes,
and the two arrow modes."""

import pytest

from galois_arrow.errors import (
    DegenerateContactPoint,
    HitsBasePoint,
    HitsNucleus,
    IntersectionTooLarge,
    InvalidIdealLine,
    OddCharacteristic,
)
from galois_arrow.field import make_field
from galois_arrow.pencil import member_through, members, time_pencil
from galois_arrow.plane import (
    ProjLine,
    ProjPoint,
    _line_hits,
    _triple_index,
    build_plane,
    incident,
    meet,
    validate_ideal_line,
)
from galois_arrow.arc import _member_values, build_time_family
from galois_arrow.arrow import TemporalClass, arc_arrow, classify_member, conic_arrow
from galois_arrow.kernel import time_pencil_context
from galois_arrow.witnesses import _arc_deltas, _contacts, _triple_values, _witnesses

from oracles import _valid_ideal_lines, _valid_tangent_lines

GF4 = make_field(2, 2)
GF8 = make_field(2, 3)


def _family(spec, linf=(1, 1, 1), lstar=None):
    if lstar is None:
        lstar = (1, spec.characteristic if spec.degree >= 2 else 1, 0)
    return build_time_family(spec, ProjLine(spec, linf), ProjLine(spec, lstar))


def _proper(ctx):
    """Per proper member, in member order: its id and member from the
    census members(), and its closed-form points from arc._member_values,
    as plane points."""
    census = [(i, m) for i, m in enumerate(members(time_pencil(ctx.spec), build_plane(ctx.spec)))
              if m.is_proper]
    points = [tuple(ProjPoint(ctx.spec, v) for v in _member_values(ctx.spec, t))
              for t in ctx.ids]
    return [(i, m, pts) for (i, m), pts in zip(census, points, strict=True)]


def test_validate_ideal_line_accepts_all_nonzero():
    plane = build_plane(GF8)
    validate_ideal_line(ProjLine(GF8, (1, 1, 1)), plane)
    validate_ideal_line(ProjLine(GF8, (1, 5, 3)), plane)


def test_validate_ideal_line_rejections():
    plane = build_plane(GF8)
    with pytest.raises(HitsBasePoint):
        validate_ideal_line(ProjLine(GF8, (1, 0, 0)), plane)  # through B1 and N
    with pytest.raises(HitsBasePoint):
        validate_ideal_line(ProjLine(GF8, (0, 0, 1)), plane)  # through B1 and B2
    with pytest.raises(HitsNucleus):
        validate_ideal_line(ProjLine(GF8, (1, 1, 0)), plane)  # through N only


def test_valid_iff_all_coefficients_nonzero():
    plane = build_plane(GF4)
    for line in plane.lines:
        ok = all(v != 0 for v in line.values)
        if ok:
            validate_ideal_line(line, plane)
        else:
            with pytest.raises(InvalidIdealLine):
                validate_ideal_line(line, plane)


def test_classify_member_mapping():
    fam = _family(GF8)
    report = arc_arrow(fam)
    linf = fam.provenance.linf
    for cls, arc in zip(report.classifications, fam.members):
        assert classify_member(arc.points, linf) is cls.temporal


def test_classify_member_rejects_three_points_on_the_line():
    plane = build_plane(GF8)
    linf = ProjLine(GF8, (1, 1, 1))
    with pytest.raises(IntersectionTooLarge,
                       match=r"^line \(1:1:1\) meets the set in 3 points$"):
        classify_member(plane.points_on(linf)[:3], linf)


def test_tallies_count_every_class_in_fixed_key_order():
    report = arc_arrow(_family(GF8))
    tallies = report.tallies
    assert list(tallies) == ["past", "present", "future"]
    for key, cls in zip(tallies, TemporalClass):
        assert tallies[key] == sum(1 for c in report.classifications if c.temporal is cls)


def test_conic_arrow_q8_reference_tallies():
    report = conic_arrow(GF8, ProjLine(GF8, (1, 1, 1)))
    assert report.tallies == {"past": 3, "present": 0, "future": 4}
    assert report.q == 8 and report.mode == "conic"


def test_conic_arrow_q4_reference_tallies():
    report = conic_arrow(GF4, ProjLine(GF4, (1, 1, 1)))
    assert report.tallies == {"past": 1, "present": 0, "future": 2}


def test_conic_arrow_never_present_q8_all_lines():
    for linf in _valid_ideal_lines(GF8):
        assert conic_arrow(GF8, linf).tallies["present"] == 0


def test_conic_arrow_rejects_invalid_line():
    with pytest.raises(InvalidIdealLine):
        conic_arrow(GF8, ProjLine(GF8, (1, 0, 1)))


def test_conic_arrow_rejects_odd_characteristic():
    gf3 = make_field(3, 1)
    with pytest.raises(OddCharacteristic):
        conic_arrow(gf3, ProjLine(gf3, (1, 1, 1)))


def test_arc_arrow_q8_reference_tallies():
    report = arc_arrow(_family(GF8))
    assert report.tallies == {"past": 2, "present": 1, "future": 4}
    assert report.mode == "arc"


def test_arc_arrow_q4_reference_tallies():
    report = arc_arrow(_family(GF4))
    assert report.tallies == {"past": 0, "present": 1, "future": 2}


def test_arc_arrow_present_member_comes_from_qstar():
    for spec in (GF4, GF8):
        fam = _family(spec)
        report = arc_arrow(fam)
        (present_id,) = report.present_member_ids
        position = fam.member_ids.index(present_id)
        assert fam.thetas[position] == fam.provenance.qstar_theta


def test_tally_identity_both_modes():
    for spec in (GF4, GF8):
        q = spec.order
        conic_t = conic_arrow(spec, ProjLine(spec, (1, 1, 1))).tallies
        arc_t = arc_arrow(_family(spec)).tallies
        assert sum(conic_t.values()) == q - 1
        assert sum(arc_t.values()) == q - 1


def test_witnesses_lie_on_line_and_member():
    fam = _family(GF8)
    report = arc_arrow(fam)
    linf = fam.provenance.linf
    for cls, arc in zip(report.classifications, fam.members):
        assert len(cls.witnesses) == {"Past": 2, "Present": 1, "Future": 0}[str(cls.temporal)]
        for w in cls.witnesses:
            assert incident(w, linf)
            assert w in arc


def test_conic_witness_counts_match_secant_structure():
    ctx = time_pencil_context(GF8)
    report = conic_arrow(GF8, ProjLine(GF8, (1, 1, 1)))
    for cls, (_, _, pts) in zip(report.classifications, _proper(ctx)):
        assert set(cls.witnesses) <= set(pts)
    total_witnesses = sum(len(c.witnesses) for c in report.classifications)
    assert total_witnesses == 2 * report.tallies["past"]


def test_report_serialization_schema():
    report = arc_arrow(_family(GF4))
    d = report.to_dict()
    assert set(d) == {"q", "mode", "ideal_line", "tallies", "members"}
    assert d["tallies"] == {"past": 0, "present": 1, "future": 2}
    for m in d["members"]:
        assert set(m) == {"id", "theta", "class", "witnesses"}
        assert m["class"] in ("Past", "Present", "Future")


def test_present_classification_is_the_tangent_case():
    fam = _family(GF8)
    report = arc_arrow(fam)
    present = [c for c in report.classifications
               if c.temporal is TemporalClass.PRESENT]
    assert len(present) == 1
    assert len(present[0].witnesses) == 1


_CLASS_BY_HITS = {2: TemporalClass.PAST, 1: TemporalClass.PRESENT, 0: TemporalClass.FUTURE}


def _oracle_row(member_id, theta, points, linf):
    """Class and witnesses by the incidence scan of the member's points."""
    hits = _line_hits(points, linf)
    return (member_id, theta, _CLASS_BY_HITS[len(hits)], hits)


def _rows(report):
    return [(c.member_id, c.theta, c.temporal, c.witnesses)
            for c in report.classifications]


@pytest.mark.parametrize("n", [2, 3, 4, 5], ids=lambda n: f"q{2 ** n}")
def test_conic_arrow_matches_incidence_oracle(n):
    """The closed-form classification agrees with the incidence scan, class
    and witnesses in plane order, for every valid ideal line."""
    spec = make_field(2, n)
    ctx = time_pencil_context(spec)
    proper = _proper(ctx)
    for linf in _valid_ideal_lines(spec):
        expected = [_oracle_row(member_id, member.theta, pts, linf)
                    for member_id, member, pts in proper]
        assert _rows(conic_arrow(spec, linf)) == expected


@pytest.mark.parametrize("n", [2, 3, 4], ids=lambda n: f"q{2 ** n}")
def test_arc_arrow_matches_incidence_oracle(n):
    """Same for the arc arrow over every valid (L-infinity, L*); the oracle
    rebuilds each arc from the member's points, its touch point on L* and
    the nucleus."""
    spec = make_field(2, n)
    ctx = time_pencil_context(spec)
    proper = _proper(ctx)
    built = 0
    for linf in _valid_ideal_lines(spec):
        for lstar in _valid_tangent_lines(spec):
            try:
                family = build_time_family(spec, linf, lstar)
            except DegenerateContactPoint:
                continue
            built += 1
            expected = []
            for member_id, member, pts in proper:
                (touch,) = _line_hits(pts, lstar)
                arc_pts = [p for p in pts if p != touch] + [ProjPoint(spec, (0, 0, 1))]
                expected.append(_oracle_row(member_id, member.theta, arc_pts, linf))
            assert _rows(arc_arrow(family)) == expected
    assert built == (spec.order - 1) ** 3 - (spec.order - 1) ** 2


@pytest.mark.parametrize("n", [2, 3, 4, 5], ids=lambda n: f"q{2 ** n}")
def test_arc_pass_matches_the_incidence_oracle(n):
    """The arc pass of every valid ideal line, one entry per L*, against
    the incidence oracles: the contact point A against plane.meet, Q*
    against member_through, the rejected configurations against a = b
    (L* = (1 : a : 0), L-infinity = (1 : b : c)), and Q*'s one witness as a
    Present member against its points on L-infinity other than A, found by
    _line_hits."""
    spec = make_field(2, n)
    q = spec.order
    ctx = time_pencil_context(spec)
    plane = build_plane(spec)
    pencil = time_pencil(spec)
    lstars = _valid_tangent_lines(spec)
    lstar_as = [lstar.values[1] for lstar in lstars]
    points_of = {member.theta: pts for _, member, pts in _proper(ctx)}
    valid = rejected = 0
    for linf in _valid_ideal_lines(spec):
        contacts = _contacts(spec, linf.values, lstar_as)
        deltas = _arc_deltas(ctx, linf.values, lstar_as, _witnesses(ctx, linf.values))
        for lstar, contact, delta in zip(lstars, contacts, deltas, strict=True):
            a = meet(linf, lstar)
            qstar = member_through(pencil, a, plane)
            if lstar.values[1] == linf.values[1]:
                rejected += 1
                assert not qstar.is_proper and contact is None and delta is None
                continue
            valid += 1
            index, t = contact
            assert plane.points[index] == a
            assert members(pencil, plane)[t] == qstar
            hits = _line_hits(points_of[qstar.theta], linf)
            assert len(hits) == 2 and a in hits
            (other,) = [p for p in hits if p != a]
            position, witness = delta
            assert ctx.thetas[position] == qstar.theta
            assert witness == _triple_index(q, other.values)
    assert (valid, rejected) == ((q - 1) ** 2 * (q - 2), (q - 1) ** 2)


@pytest.mark.parametrize("n", [2, 3, 4], ids=lambda n: f"q{2 ** n}")
def test_arc_pass_is_its_orbit_representatives_image(n):
    """The sigma-lemma for (L-infinity, L*) pairs (kernel docstring), for
    every configuration: the arc pass on L-infinity = (1 : b : c), contacts
    included, is the image under sigma_{1/c} of the pass on (1 : u : 1),
    u = b/c^2, with each L* = (1 : a : 0) taken to (1 : a/c^2 : 0).  The
    same configurations are rejected, Q* is the same member, and the
    contact point and Q*'s witness are the images (1 : y2/c^2 : y3/c).
    The (q-1)^3 configurations fall into (q-1)^2 orbits."""
    spec = make_field(2, n)
    q, mul, inv = spec.order, spec._mul_i, spec._inv_i
    ctx = time_pencil_context(spec)
    lstar_as = range(1, q)
    orbits, rejected = set(), 0
    for linf in _valid_ideal_lines(spec):
        _, b, c = linf.values
        ic = inv(c)
        ic2 = mul(ic, ic)
        rep, rep_as = (1, mul(b, ic2), 1), [mul(a, ic2) for a in lstar_as]

        def image(index):
            y1, y2, y3 = _triple_values(q, index)
            assert y1 == 1
            return _triple_index(q, (1, mul(y2, ic2), mul(y3, ic)))

        contacts = [None if x is None else (image(x[0]), x[1])
                    for x in _contacts(spec, rep, rep_as)]
        deltas = [None if x is None else (x[0], image(x[1]))
                  for x in _arc_deltas(ctx, rep, rep_as, _witnesses(ctx, rep))]
        assert _contacts(spec, linf.values, lstar_as) == contacts
        assert _arc_deltas(ctx, linf.values, lstar_as, _witnesses(ctx, linf.values)) == deltas
        orbits.update((rep[1], a) for a in rep_as)
        rejected += deltas.count(None)
    assert len(orbits) == (q - 1) ** 2 and rejected == (q - 1) ** 2


def _check_orbits(spec):
    """Check conic_arrow on every valid L-infinity = (1 : b : c) against its
    orbit representative (1 : u : 1), u = b/c^2: the same class per member,
    and as witnesses the images (1 : y2/c^2 : y3/c) under sigma_{1/c} of the
    representative's, in plane order.  Returns each class pattern with the
    set of orbits u that show it."""
    q, mul, inv = spec.order, spec._mul_i, spec._inv_i
    representatives, patterns = {}, {}
    for linf in _valid_ideal_lines(spec):
        _, b, c = linf.values
        u = mul(b, inv(mul(c, c)))
        if u not in representatives:
            representatives[u] = conic_arrow(spec, ProjLine(spec, (1, u, 1)))
        rep = representatives[u]
        report = conic_arrow(spec, linf)
        ic = inv(c)
        ic2 = mul(ic, ic)
        for got, want in zip(report.classifications, rep.classifications, strict=True):
            assert (got.member_id, got.theta, got.temporal) == (
                want.member_id, want.theta, want.temporal)
            images = sorted(((y1, mul(y2, ic2), mul(y3, ic))
                             for y1, y2, y3 in (w.values for w in want.witnesses)),
                            key=lambda values: _triple_index(q, values))
            assert [w.values for w in got.witnesses] == images
        pattern = tuple(m.temporal for m in report.classifications)
        patterns.setdefault(pattern, set()).add(u)
    assert all(len(us) == 1 for us in patterns.values())
    return patterns


@pytest.mark.parametrize("n", [2, 3, 4, 5], ids=lambda n: f"q{2 ** n}")
def test_conic_arrow_is_its_orbit_representatives_image(n):
    """The q-1 orbits of valid ideal lines under sigma show q-1 distinct
    class patterns, one per orbit, and each line's witnesses are the
    images of its representative's (the proof is in arrow's docstring)."""
    spec = make_field(2, n)
    assert len(_check_orbits(spec)) == spec.order - 1


def test_conic_arrow_matches_incidence_oracle_q64_by_orbits():
    """At q = 64 the incidence scan checks the 63 orbit representatives
    (1 : u : 1), and every other valid ideal line is checked against its
    representative by _check_orbits."""
    spec = make_field(2, 6)
    ctx = time_pencil_context(spec)
    proper = _proper(ctx)
    for u in range(1, spec.order):
        linf = ProjLine(spec, (1, u, 1))
        expected = [_oracle_row(member_id, member.theta, pts, linf)
                    for member_id, member, pts in proper]
        assert _rows(conic_arrow(spec, linf)) == expected
    assert len(_check_orbits(spec)) == spec.order - 1
