"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Everything is exact; there are no numeric tolerances anywhere.
The optional slow search over PG(2,5) is enabled by GALOIS_ARROW_SLOW=1.
"""

import io
import json
import os
import random
from contextlib import redirect_stdout
from itertools import combinations, product

import pytest

from galois_arrow import cli
from galois_arrow.errors import DegenerateContactPoint, OddCharacteristic
from galois_arrow.field import make_field
from galois_arrow.plane import (
    ProjLine,
    ProjPoint,
    build_plane,
    collinear,
    points_on,
)
from galois_arrow.conic import (
    Conic,
    DegeneracyClass,
    canonical_conic,
    classify,
    evaluate,
    fit_conic,
    nucleus,
    parametrize_canonical,
    point_set,
    tangent_lines,
)
from galois_arrow.pencil import members, time_pencil
from galois_arrow.arc import build_time_family, is_arc, is_conic_arc, touch_point
from galois_arrow.arrow import arc_arrow, conic_arrow

from oracles import _valid_ideal_lines, _valid_tangent_lines

GF2 = make_field(2, 1)
GF3 = make_field(3, 1)
GF4 = make_field(2, 2)
GF8 = make_field(2, 3)
GF9 = make_field(3, 2, (1, 0, 1))
GF16 = make_field(2, 4)
GF32 = make_field(2, 5)

EVEN_FIELDS = (GF2, GF4, GF8, GF16, GF32)


def _criterion(num, description, check):
    try:
        check()
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS  {description}")


def _default_lines(spec):
    linf = ProjLine(spec, (1, 1, 1))
    lstar = ProjLine(spec, (1, spec.characteristic, 0))
    return linf, lstar


def _default_family(spec):
    linf, lstar = _default_lines(spec)
    return build_time_family(spec, linf, lstar)


# --- criterion 1 ----------------------------------------------------------------

def test_criterion_01_conic_cardinality():
    def check():
        for spec in (GF2, GF3, GF4, GF8, GF16, GF32):
            pts = point_set(canonical_conic(spec))
            assert len(pts) == spec.order + 1, f"q={spec.order}"
            assert set(parametrize_canonical(spec)) == set(pts), f"q={spec.order}"
    _criterion(1, "canonical conic has q+1 points, matching its parametrization",
               check)


# --- criterion 2 ----------------------------------------------------------------

def test_criterion_02_conics_are_arcs():
    def check():
        for spec in (GF2, GF3, GF4, GF8, GF16, GF32):
            assert is_arc(point_set(canonical_conic(spec))), f"q={spec.order}"
    _criterion(2, "no three points of the canonical conic are collinear", check)


# --- criterion 3 ----------------------------------------------------------------

def _common_points_of(lines, plane):
    common = set(plane.points_on(lines[0]))
    for line in lines[1:]:
        common &= set(plane.points_on(line))
    return common


def test_criterion_03_tangent_concurrency_even_vs_odd():
    def check():
        for spec in EVEN_FIELDS:
            plane = build_plane(spec)
            tangents = tangent_lines(canonical_conic(spec))
            assert len(tangents) == spec.order + 1, f"q={spec.order}"
            assert len(_common_points_of(tangents, plane)) == 1, f"q={spec.order}"
        for spec in (GF3, GF9):
            plane = build_plane(spec)
            tangents = tangent_lines(canonical_conic(spec))
            assert len(tangents) == spec.order + 1, f"q={spec.order}"
            assert not _common_points_of(tangents, plane), f"q={spec.order}"
            with pytest.raises(OddCharacteristic):
                nucleus(canonical_conic(spec))
    _criterion(3, "tangents concur at one point for even q; concurrency fails "
                  "for q in {3, 9}", check)


# --- criterion 4 ----------------------------------------------------------------

def test_criterion_04_common_nucleus_of_the_pencil():
    def check():
        for spec in (GF4, GF8, GF16, GF32):
            n = ProjPoint(spec, (0, 0, 1))
            for member in members(time_pencil(spec)):
                if member.is_proper:
                    assert nucleus(member.conic) == n, \
                        f"q={spec.order}, theta={member.theta}"
    _criterion(4, "every proper pencil member has nucleus (0:0:1)", check)


# --- criterion 5 ----------------------------------------------------------------

def _census(spec):
    ms = members(time_pencil(spec))
    return {
        "count": len(ms),
        "by_theta": {m.theta: m.degeneracy.value for m in ms if not m.is_proper},
        "proper": sum(1 for m in ms if m.is_proper),
    }


def test_criterion_05_pencil_census():
    def check():
        for spec in EVEN_FIELDS:
            census = _census(spec)
            q = spec.order
            assert census["count"] == q + 1, f"q={q}"
            assert census["proper"] == q - 1, f"q={q}"
            assert census["by_theta"] == {(1, 0): "RealLinePair",
                                          (0, 1): "DoubleLine"}, f"q={q}"
    _criterion(5, "pencil census: q+1 members, RealLinePair at (1,0), "
                  "DoubleLine at (0,1), q-1 proper", check)


# --- criterion 6 ----------------------------------------------------------------

def test_criterion_06_family_members_conic_or_not():
    def check():
        for spec in (GF8, GF16, GF32):
            family = _default_family(spec)
            assert all(not is_conic_arc(arc) for arc in family.members), \
                f"q={spec.order}"
        family4 = _default_family(GF4)
        assert all(is_conic_arc(arc) for arc in family4.members)
    _criterion(6, "family arcs are never conics for q in {8,16,32} and always "
                  "conics for q=4", check)


# --- criterion 7 ----------------------------------------------------------------

def test_criterion_07_conic_arrow_lacks_the_present():
    def check():
        for spec in (GF4, GF8, GF16):
            lines = _valid_ideal_lines(spec)
            assert len(lines) == (spec.order - 1) ** 2
            for linf in lines:
                assert conic_arrow(spec, linf).tallies["present"] == 0, \
                    f"q={spec.order}, linf={linf}"
    _criterion(7, "conic arrow has Present = 0 for every valid ideal line, "
                  "q in {4,8,16}", check)


# --- criterion 8 ----------------------------------------------------------------

def _assert_present_is_qstar(family):
    report = arc_arrow(family)
    assert report.tallies["present"] == 1
    (present_id,) = report.present_member_ids
    position = family.member_ids.index(present_id)
    assert family.thetas[position] == family.provenance.qstar_theta


def test_criterion_08_arc_arrow_restores_the_present():
    def check():
        for spec in (GF4, GF8):
            valid = 0
            for linf in _valid_ideal_lines(spec):
                for lstar in _valid_tangent_lines(spec):
                    try:
                        family = build_time_family(spec, linf, lstar)
                    except DegenerateContactPoint:
                        continue
                    valid += 1
                    _assert_present_is_qstar(family)
            assert valid > 0
        rng = random.Random(20260808)
        for spec in (GF16, GF32):
            configs = [(linf, lstar)
                       for linf in _valid_ideal_lines(spec)
                       for lstar in _valid_tangent_lines(spec)]
            rng.shuffle(configs)
            checked = 0
            for linf, lstar in configs:
                try:
                    family = build_time_family(spec, linf, lstar)
                except DegenerateContactPoint:
                    continue
                _assert_present_is_qstar(family)
                checked += 1
                if checked >= 100:
                    break
            assert checked >= 100, f"q={spec.order}: only {checked} valid pairs"
    _criterion(8, "arc arrow has exactly one Present (the Q* member): "
                  "exhaustive q in {4,8}, 100+ sampled pairs q in {16,32}", check)


# --- criterion 9 ----------------------------------------------------------------

def _conic_tallies_by_ideal_points(spec, linf):
    """Second counting path: walk the ideal line's points and count, per
    proper member, the points of the line lying on it."""
    proper = [m for m in members(time_pencil(spec)) if m.is_proper]
    counts = {m.theta: 0 for m in proper}
    for pt in points_on(linf):
        for member in proper:
            if not evaluate(member.conic, pt):
                counts[member.theta] += 1
    hist = list(counts.values())
    assert all(h in (0, 2) for h in hist)  # tangency is impossible here
    return {"past": hist.count(2), "present": hist.count(1),
            "future": hist.count(0)}


def _arc_tallies_by_ideal_points(spec, linf, lstar):
    """Second counting path for arcs: an ideal point belongs to the arc of
    member theta iff it is on that member's conic and is not the touch
    point (the nucleus is never on a valid ideal line)."""
    proper = [m for m in members(time_pencil(spec)) if m.is_proper]
    touches = [touch_point(member.conic, lstar) for member in proper]
    counts = {m.theta: 0 for m in proper}
    for pt in points_on(linf):
        for member, touch in zip(proper, touches):
            if pt != touch and not evaluate(member.conic, pt):
                counts[member.theta] += 1
    hist = list(counts.values())
    return {"past": hist.count(2), "present": hist.count(1),
            "future": hist.count(0)}


def test_criterion_09_closed_form_tallies_two_paths():
    def check():
        for spec in (GF4, GF8, GF16, GF32):
            q = spec.order
            linf, lstar = _default_lines(spec)
            conic_expected = {"past": (q - 2) // 2, "present": 0, "future": q // 2}
            arc_expected = {"past": (q - 4) // 2, "present": 1, "future": q // 2}
            assert conic_arrow(spec, linf).tallies == conic_expected, f"q={q}"
            assert _conic_tallies_by_ideal_points(spec, linf) == conic_expected, f"q={q}"
            family = _default_family(spec)
            assert arc_arrow(family).tallies == arc_expected, f"q={q}"
            assert _arc_tallies_by_ideal_points(spec, linf, lstar) == arc_expected, f"q={q}"
    _criterion(9, "closed-form tallies {(q-2)/2,0,q/2} and {(q-4)/2,1,q/2} "
                  "agree across two counting paths", check)


# --- criterion 10 ----------------------------------------------------------------

def _all_proper_conic_point_sets(spec):
    seen = set()
    out = set()
    for coeffs in product(range(spec.order), repeat=6):
        if not any(coeffs):
            continue
        conic = Conic(spec, coeffs)
        if conic in seen:
            continue
        seen.add(conic)
        if classify(conic) is DegeneracyClass.PROPER:
            out.add(frozenset(point_set(conic)))
    return out


def test_criterion_10_segre_contrast_q3():
    def check():
        plane = build_plane(GF3)
        conic_sets = _all_proper_conic_point_sets(GF3)
        candidates = list(combinations(plane.points, 4))
        assert len(candidates) == 715
        arcs = 0
        for quad in candidates:
            if any(collinear(a, b, c) for a, b, c in combinations(quad, 3)):
                continue
            arcs += 1
            assert frozenset(quad) in conic_sets, f"arc off every conic: {quad}"
        assert arcs > 0
    _criterion(10, "every 4-arc of PG(2,3) lies on a proper conic "
                   "(715 candidate sets)", check)


def _extend_arcs(points, chosen, start, size, out):
    if len(chosen) == size:
        out.append(tuple(chosen))
        return
    for i in range(start, len(points)):
        cand = points[i]
        if any(collinear(a, b, cand) for a, b in combinations(chosen, 2)):
            continue
        chosen.append(cand)
        _extend_arcs(points, chosen, i + 1, size, out)
        chosen.pop()


@pytest.mark.skipif(os.environ.get("GALOIS_ARROW_SLOW") != "1",
                    reason="set GALOIS_ARROW_SLOW=1 for the PG(2,5) search")
def test_criterion_10_segre_contrast_q5_slow():
    def check():
        gf5 = make_field(5, 1)
        plane = build_plane(gf5)
        arcs: list[tuple] = []
        _extend_arcs(plane.points, [], 0, 6, arcs)
        assert len(arcs) > 0
        for arc in arcs:
            fitted = fit_conic(arc[:5])
            assert not evaluate(fitted, arc[5]), f"6-arc off its conic: {arc}"
            assert classify(fitted) is DegeneracyClass.PROPER
    _criterion(10, "every 6-arc of PG(2,5) lies on a proper conic "
                   "(pruned search)", check)


# --- criterion 11 ----------------------------------------------------------------

def _tally_fingerprint(spec):
    """Everything criteria 5-9 measure, as one comparable structure."""
    linf, lstar = _default_lines(spec)
    census = _census(spec)
    family = _default_family(spec)
    exhaustive_conic = sorted(
        tuple(sorted(conic_arrow(spec, line).tallies.items()))
        for line in _valid_ideal_lines(spec)
    )
    exhaustive_arc: dict[str, int] = {}
    for line in _valid_ideal_lines(spec):
        for tangent in _valid_tangent_lines(spec):
            try:
                fam = build_time_family(spec, line, tangent)
            except DegenerateContactPoint:
                key = "rejected"
            else:
                t = arc_arrow(fam).tallies
                key = f"{t['past']}:{t['present']}:{t['future']}"
            exhaustive_arc[key] = exhaustive_arc.get(key, 0) + 1
    return {
        "census": (census["count"], census["proper"],
                   tuple(sorted((t, c) for t, c in census["by_theta"].items()))),
        "nucleus_common": all(
            nucleus(m.conic) == ProjPoint(spec, (0, 0, 1))
            for m in members(time_pencil(spec)) if m.is_proper),
        "is_conic_flags": tuple(is_conic_arc(a) for a in family.members),
        "conic_tallies": conic_arrow(spec, linf).tallies,
        "arc_tallies": arc_arrow(family).tallies,
        "conic_tallies_path2": _conic_tallies_by_ideal_points(spec, linf),
        "arc_tallies_path2": _arc_tallies_by_ideal_points(spec, linf, lstar),
        "exhaustive_conic_tallies": exhaustive_conic,
        "exhaustive_arc_distribution": dict(sorted(exhaustive_arc.items())),
    }


def test_criterion_11_modulus_independence_gf8():
    def check():
        spec_a = make_field(2, 3, (1, 1, 0, 1))  # 0xB: x^3 + x + 1
        spec_b = make_field(2, 3, (1, 0, 1, 1))  # 0xD: x^3 + x^2 + 1
        assert spec_a != spec_b
        assert _tally_fingerprint(spec_a) == _tally_fingerprint(spec_b)
    _criterion(11, "all criterion 5-9 tallies agree for GF(8) under two "
                   "different irreducible cubics", check)


# --- criterion 12 ----------------------------------------------------------------

def _run_cli_bytes(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    assert code == 0
    return buf.getvalue().encode()


def test_criterion_12_exhaustive_run_is_deterministic():
    def check():
        argv = ["arrow", "--n", "4", "--mode", "arc", "--exhaustive"]
        first, second = _run_cli_bytes(argv), _run_cli_bytes(argv)
        assert first == second
        payload = json.loads(first)
        assert payload["summary"]["valid"] > 0
        assert set(payload["summary"]["tally_distribution"]) == {"6:1:8"}
    _criterion(12, "arrow --n 4 --mode arc --exhaustive is byte-identical "
                   "across two runs", check)
