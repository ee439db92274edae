"""The canonical pencil: member census, base points, the member through a
point, the common nucleus, and the time pencil context's closed forms."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from galois_arrow.errors import (
    BasePoint,
    HitsBasePoint,
    HitsNucleus,
    InvalidIdealLine,
    InvalidTangentLine,
    NoProperMember,
    NucleiDiffer,
)
from galois_arrow import cli, conic, context, driver, pencil
from galois_arrow.field import make_field
from galois_arrow.modulus import parse_modulus
from galois_arrow.conic import (
    Conic,
    DegeneracyClass,
    _evaluate_values,
    _zero_values,
    classify,
    evaluate,
    point_set,
    tangent_lines,
)
from galois_arrow.pencil import (
    Pencil,
    base_points,
    common_nucleus,
    member_through,
    members,
    time_pencil,
)
from galois_arrow.plane import (
    ProjLine,
    ProjPoint,
    build_plane,
    incident,
    line_through,
    meet,
    validate_ideal_line,
)
from galois_arrow.arrow import conic_arrow
from galois_arrow.context import TimePencilContext, _quadratic_roots, time_pencil_context
from galois_arrow.lines import _check_line
from galois_arrow.witnesses import _witnesses

from oracles import (_base_points_and_nucleus, _join_index, _nucleus_by_tangents,
                     _point_set_scan, _valid_ideal_lines, _valid_tangent_lines)

GF2 = make_field(2, 1)
GF3 = make_field(3, 1)
GF4 = make_field(2, 2)
GF5 = make_field(5, 1)
GF8 = make_field(2, 3)
GF9 = make_field(3, 2, (1, 0, 1))
GF16 = make_field(2, 4)
GF32 = make_field(2, 5)
GF64 = make_field(2, 6)
GF128 = make_field(2, 7)
GF256 = make_field(2, 8)


def test_time_pencil_generators():
    pencil = time_pencil(GF2)
    assert pencil.generator1.values == (0, 1, 0, 0, 0, 0)
    assert pencil.generator2.values == (0, 0, 0, 0, 0, 1)


def test_pencil_requires_independent_generators():
    with pytest.raises(ValueError):
        Pencil(Conic(GF4, (0, 1, 0, 0, 0, 0)), Conic(GF4, (0, 2, 0, 0, 0, 0)))


@pytest.mark.parametrize("spec,proper", [(GF2, 1), (GF4, 3), (GF8, 7), (GF16, 15)],
                         ids=lambda v: str(v))
def test_member_census(spec, proper):
    ms = members(time_pencil(spec))
    assert len(ms) == spec.order + 1
    assert ms[0].theta == (1, 0)
    assert ms[0].degeneracy is DegeneracyClass.REAL_LINE_PAIR
    assert ms[-1].theta == (0, 1)
    assert ms[-1].degeneracy is DegeneracyClass.DOUBLE_LINE
    assert sum(1 for m in ms if m.is_proper) == proper
    assert sum(1 for m in ms if not m.is_proper) == 2


def test_member_ordering_is_theta2_in_field_order():
    ms = members(time_pencil(GF8))
    assert [m.theta for m in ms] == [(1, t) for t in range(8)] + [(0, 1)]


def test_member_conics_are_the_stated_combinations():
    ms = members(time_pencil(GF8))
    for m in ms:
        t1, t2 = m.theta
        expected = (0, t1, 0, 0, 0, t2)
        assert m.conic == Conic(GF8, expected)


def test_base_points():
    for spec in (GF4, GF16):
        got = set(base_points(time_pencil(spec)))
        assert got == {ProjPoint(spec, (0, 1, 0)), ProjPoint(spec, (1, 0, 0))}


@pytest.mark.parametrize("spec", [GF2, GF3, GF4, GF5, GF8, GF9], ids=lambda s: f"q{s.order}")
def test_time_pencil_base_points_are_b2_then_b1(spec):
    """The pencil command prints (B2, B1) = ((1:0:0), (0:1:0)) in closed form;
    base_points is its oracle, and the scan of every plane point on both
    generators is base_points'."""
    b1, b2, _ = _base_points_and_nucleus(spec)
    pencil = time_pencil(spec)
    assert base_points(pencil) == (b2, b1)
    on_g2 = set(_point_set_scan(pencil.generator2))
    assert [p for p in _point_set_scan(pencil.generator1) if p in on_g2] == [b2, b1]
    assert [p.values for p in (b2, b1)] == [(1, 0, 0), (0, 1, 0)]


def test_base_points_of_double_line_pencil():
    pencil = Pencil(Conic(GF4, (1, 0, 0, 0, 0, 0)), Conic(GF4, (0, 0, 0, 1, 0, 0)))
    got = base_points(pencil)
    assert set(got) == {ProjPoint(GF4, (0, 0, 1))}


def test_member_through_examples():
    pencil = time_pencil(GF4)
    m = member_through(pencil, ProjPoint(GF4, (1, 1, 0)))
    assert m.theta == (0, 1) and m.degeneracy is DegeneracyClass.DOUBLE_LINE
    m = member_through(pencil, ProjPoint(GF4, (0, 1, 1)))
    assert m.theta == (1, 0) and m.degeneracy is DegeneracyClass.REAL_LINE_PAIR
    m = member_through(pencil, ProjPoint(GF4, (2, 1, 3)))
    assert m.is_proper and m.theta == (1, 1)


def test_member_through_vanishes_at_the_point():
    plane = build_plane(GF8)
    pencil = time_pencil(GF8)
    b1 = ProjPoint(GF8, (0, 1, 0))
    b2 = ProjPoint(GF8, (1, 0, 0))
    for pt in plane.points:
        if pt in (b1, b2):
            continue
        member = member_through(pencil, pt)
        assert not evaluate(member.conic, pt)


def test_member_through_base_point():
    with pytest.raises(BasePoint):
        member_through(time_pencil(GF4), ProjPoint(GF4, (0, 1, 0)))


@pytest.mark.parametrize("spec", [GF4, GF8], ids=lambda s: f"q{s.order}")
def test_members_partition_non_base_points(spec):
    plane = build_plane(spec)
    pencil = time_pencil(spec)
    base = set(base_points(pencil))
    ms = members(pencil)
    for pt in plane.points:
        if pt in base:
            continue
        containing = [m for m in ms if not evaluate(m.conic, pt)]
        assert len(containing) == 1


@pytest.mark.parametrize("spec", [GF4, GF8, make_field(2, 5)],
                         ids=lambda s: f"q{s.order}")
def test_common_nucleus(spec):
    assert common_nucleus(time_pencil(spec)) == ProjPoint(spec, (0, 0, 1))


@pytest.mark.parametrize("spec", [GF4, GF8, GF16], ids=lambda s: f"q{s.order}")
def test_common_nucleus_closed_form_agrees_with_tangent_oracle(spec):
    pencil = time_pencil(spec)
    oracle = {_nucleus_by_tangents(m.conic)
              for m in members(pencil) if m.is_proper}
    assert oracle == {common_nucleus(pencil)}


def test_common_nucleus_classifies_each_member_once(monkeypatch):
    """common_nucleus reads each proper member's nucleus from the census's
    classes, not through conic.nucleus, which classifies its conic again:
    q + 1 calls of classify at q = 256, one per member."""
    calls = []

    def counted(conic):
        calls.append(conic)
        return classify(conic)

    for module in (conic, pencil):
        monkeypatch.setattr(module, "classify", counted)
    nucleus = common_nucleus(time_pencil(GF256))
    assert nucleus == ProjPoint(GF256, (0, 0, 1))
    assert len(calls) == GF256.order + 1


def test_common_nucleus_no_proper_member():
    # theta1*x1^2 + theta2*x2^2 = (s*x1 + t*x2)^2 in char 2: all double lines
    pencil = Pencil(Conic(GF4, (1, 0, 0, 0, 0, 0)), Conic(GF4, (0, 0, 0, 1, 0, 0)))
    with pytest.raises(NoProperMember):
        common_nucleus(pencil)


def test_common_nucleus_differs_for_general_pencil():
    # x1*x2 + x3^2 has nucleus (0,0,1); x1*x3 + x2^2 has nucleus (0,1,0)
    pencil = Pencil(Conic(GF4, (0, 1, 0, 0, 0, 1)), Conic(GF4, (0, 0, 1, 1, 0, 0)))
    with pytest.raises(NucleiDiffer):
        common_nucleus(pencil)


def test_real_pair_component_lines_concur_at_n():
    plane = build_plane(GF8)
    pair = members(time_pencil(GF8))[0]
    l1, l2 = ProjLine(GF8, (1, 0, 0)), ProjLine(GF8, (0, 1, 0))
    union = set(plane.points_on(l1)) | set(plane.points_on(l2))
    assert set(point_set(pair.conic)) == union
    assert meet(l1, l2) == ProjPoint(GF8, (0, 0, 1))


def test_every_proper_member_contains_both_base_points():
    pencil = time_pencil(GF8)
    b1, b2 = ProjPoint(GF8, (0, 1, 0)), ProjPoint(GF8, (1, 0, 0))
    for m in members(pencil):
        if m.is_proper:
            pts = set(point_set(m.conic))
            assert b1 in pts and b2 in pts


@pytest.mark.parametrize("spec", [GF4, GF8, GF16, GF32], ids=lambda s: f"q{s.order}")
def test_time_pencil_is_self_dual_under_the_standard_polarity(spec):
    """The abstract calls the time pencil "self-dual" (galois-arrow, arXiv
    2003; PAPER.md holds only the abstract).  The reading checked here: the
    polarity (x1:x2:x3) -> [x1:x2:x3] of PG(2, 2^n) maps the pencil's
    distinguished points onto its degenerate members and back.  It takes the
    base points B1 and B2 to the lines x2 = 0 and x1 = 0, the two lines of
    the real line pair x1*x2 = 0, and the nucleus N to the double line
    x3 = 0.  It takes the points of the double line onto the lines through
    N, which are the tangents of every proper member, and the points of
    the line pair onto the lines through B1 or B2."""
    plane = build_plane(spec)
    b1, b2, n = _base_points_and_nucleus(spec)

    def polar(point):
        return ProjLine(spec, point.values)

    pair, *proper, double = members(time_pencil(spec))
    assert (pair.degeneracy, double.degeneracy) == (DegeneracyClass.REAL_LINE_PAIR,
                                                    DegeneracyClass.DOUBLE_LINE)
    x1, x2, x3 = (ProjLine(spec, v) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert (polar(b1), polar(b2), polar(n)) == (x2, x1, x3)
    pair_points, double_points = (_point_set_scan(m.conic) for m in (pair, double))
    assert set(pair_points) == set(plane.points_on(x1) + plane.points_on(x2))
    assert double_points == plane.points_on(x3)
    through_n = set(plane.lines_through(n))
    assert {polar(p) for p in double_points} == through_n
    assert all(set(tangent_lines(m.conic)) == through_n for m in proper)
    assert ({polar(p) for p in pair_points}
            == set(plane.lines_through(b1) + plane.lines_through(b2)))


def test_arrow_members_are_the_proper_members_in_order():
    """An arrow's members, (1, t) with id t at position t - 1, are the
    census's proper members in order, each of q + 1 points."""
    census = members(time_pencil(GF8))
    proper = [(i, m.theta) for i, m in enumerate(census) if m.is_proper]
    assert proper == [(t, (1, t)) for t in range(1, 8)]
    report = conic_arrow(GF8, ProjLine(GF8, (1, 1, 1)))
    assert [(c.member_id, c.theta) for c in report.classifications] == proper
    assert all(len(_zero_values(GF8, (0, 1, 0, 0, 0, t))) == 9 for t in range(1, 8))
    assert len(_valid_ideal_lines(GF8)) == 7 * 7
    assert len(_valid_tangent_lines(GF8)) == 7


@pytest.mark.parametrize("spec", [GF3, GF4, GF5, GF8, GF9, GF16, GF32],
                         ids=lambda s: f"q{s.order}")
def test_closed_form_ids_and_thetas_are_the_census_proper_members(spec):
    """The closed-form ids and thetas, (1, t) at census position t for
    t != 0 and at position t - 1 of the proper members, against the proper
    members of the census members()."""
    census = members(time_pencil(spec))
    ids = tuple(range(1, spec.order))
    assert ids == tuple(i for i, m in enumerate(census) if m.is_proper)
    assert tuple([(1, t) for t in ids]) == tuple(census[i].theta for i in ids)


@pytest.mark.parametrize("spec", [GF3, GF4, GF5, GF8, GF9, GF16, GF32],
                         ids=lambda s: f"q{s.order}")
def test_context_masks_are_the_member_point_sets(spec):
    """The closed-form member points (conic._zero_values of x1*x2 + t*x3^2)
    against the plane scan, and the degenerate members' scans against their
    lines."""
    plane = build_plane(spec)
    x1, x2, x3 = (plane.points_on(ProjLine(spec, v))
                  for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    ids = range(1, spec.order)
    proper = zip(ids, [(1, t) for t in ids], [_zero_values(spec, (0, 1, 0, 0, 0, t)) for t in ids],
                 strict=True)
    for idx, m in enumerate(members(time_pencil(spec))):
        scan = _point_set_scan(m.conic)
        if m.theta == (1, 0):       # x1*x2: the lines x1 = 0 and x2 = 0
            assert m.degeneracy is DegeneracyClass.REAL_LINE_PAIR
            assert list(scan) == sorted(set(x1) | set(x2), key=plane.points.index)
        elif m.theta == (0, 1):     # x3^2: the line x3 = 0, twice
            assert m.degeneracy is DegeneracyClass.DOUBLE_LINE
            assert scan == x3
        else:
            assert m.is_proper
            member_id, theta, pts = next(proper)
            assert (member_id, theta) == (idx, m.theta)
            assert pts == [p.values for p in scan]
    assert next(proper, None) is None


@pytest.mark.parametrize("spec", [GF2, GF3, GF4, GF5, GF8, GF9, GF16, GF32, GF64, GF128, GF256],
                         ids=lambda s: f"q{s.order}")
def test_member_points_are_zeros_with_distinct_joins_to_n(spec):
    """Each proper member's closed-form points are q+1 distinct zeros of its
    form, so all of its zero set; in characteristic 2, N joins them by q+1
    distinct lines, so N is its nucleus and swapping any one point for N
    leaves an arc, which build_time_family relies on."""
    q = spec.order
    n = (0, 0, 1)
    for t in range(1, q):
        values = (0, 1, 0, 0, 0, t)   # x1*x2 + t*x3^2
        pts = _zero_values(spec, values)
        assert len(set(pts)) == q + 1
        assert not any(_evaluate_values(spec, values, p) for p in pts)
        if spec.characteristic == 2:
            assert len({_join_index(spec, n, p) for p in pts}) == q + 1


@pytest.mark.parametrize("spec", [GF4, GF9], ids=lambda s: f"q{s.order}")
def test_context_set_up_runs_no_census_scan_or_check(spec):
    """Building the context classifies no member, finds no zero set and
    joins no points: none of classify, point_set, _zero_values,
    _evaluate_values and _join_index is called.  The census members(),
    which keeps no cache, calls classify and _zero_values under the same
    watch, so the watch sees such calls."""
    watched = {func.__code__: func.__name__
               for func in (classify, point_set, _zero_values, _evaluate_values, _join_index)}
    called = []

    def watch(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            called.append(watched[frame.f_code])

    sys.setprofile(watch)
    try:
        ctx = TimePencilContext(spec)
        set_up = set(called)
        members(time_pencil(ctx.spec))
    finally:
        sys.setprofile(None)
    assert set_up == set()
    assert set(called) == {"classify", "_zero_values"}


_LIBRARY_CALLS = """
import sys
from galois_arrow.conic import Conic, classify, nucleus, point_set, tangent_lines
from galois_arrow.field import make_field
from galois_arrow.pencil import base_points, members, time_pencil
calls = 0

def profile(frame, event, arg):
    global calls
    if event == "call":
        calls += 1

def work(spec):
    proper = Conic(spec, (0, 1, 0, 0, 0, 1))
    return {
        "point_set x1x2+x3^2": lambda: point_set(Conic(spec, (0, 1, 0, 0, 0, 1))),
        "point_set x3^2": lambda: point_set(Conic(spec, (0, 0, 0, 0, 0, 1))),
        "classify x1x2": lambda: classify(Conic(spec, (0, 1, 0, 0, 0, 0))),
        "classify x3^2": lambda: classify(Conic(spec, (0, 0, 0, 0, 0, 1))),
        "tangent_lines x1x2+x3^2": lambda: tangent_lines(proper),
        "nucleus": lambda: nucleus(proper),
        "members": lambda: members(time_pencil(spec)),
        "base_points": lambda: base_points(time_pencil(spec)),
    }[sys.argv[1]]

counts = []
for n in (4, 6, 8):
    spec = make_field(2, n)
    run = work(spec)
    calls = 0
    sys.setprofile(profile)
    run()
    sys.setprofile(None)
    counts.append(calls)
print(counts)
"""


@pytest.mark.parametrize("call", ["point_set x1x2+x3^2", "point_set x3^2", "classify x1x2",
                                  "classify x3^2", "tangent_lines x1x2+x3^2", "nucleus",
                                  "members", "base_points"])
def test_zero_sets_and_census_do_o_of_q_work(call):
    """The Python calls of point_set, of classify with Delta = 0, of
    tangent_lines and nucleus of a proper conic, of the census members and
    of base_points at q = 16, 64 and 256, counted under sys.setprofile in a
    fresh interpreter once the field is built: each fourfold
    q at most multiplies them by 6, where the closed forms
    (conic._zero_values, conic._tangent_values) give about 4, and a scan of
    the plane or a tally of the lines through a conic's points about 16."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", _LIBRARY_CALLS, call], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    q16, q64, q256 = ast.literal_eval(proc.stdout)
    assert q64 / q16 < 6 and q256 / q64 < 6, (q16, q64, q256)


@pytest.mark.parametrize("spec", [GF3, GF4, GF5, GF8, GF9, GF16],
                         ids=lambda s: f"q{s.order}")
def test_line_validity_from_coefficients_matches_incidence(spec):
    """The errors validate_ideal_line and lines._check_line, on an L*,
    raise for every plane line, read off coefficients, against their
    incidence definitions: an ideal line avoids B1, B2 and N; L* passes
    through N and is neither NB1 nor NB2.  The valid lines themselves are
    the sweep's (test_cli.py::test_sweep_lines_are_the_valid_lines_by_incidence)."""
    plane = build_plane(spec)
    b1, b2, n = _base_points_and_nucleus(spec)
    nb1, nb2 = line_through(n, b1), line_through(n, b2)
    for line in plane.lines:
        if not incident(n, line):
            expected = (InvalidTangentLine, f"{line} does not pass through the nucleus {n}")
        elif line in (nb1, nb2):
            expected = (InvalidTangentLine, f"{line} joins the nucleus to a base point")
        else:
            expected = None
        try:
            _check_line(spec, line.values, True)
            got = None
        except InvalidTangentLine as exc:
            got = (type(exc), str(exc))
        assert got == expected
        if incident(b1, line) or incident(b2, line):
            expected = (HitsBasePoint, f"ideal line {line} passes through a base point")
        elif incident(n, line):
            expected = (HitsNucleus, f"ideal line {line} passes through the nucleus {n}")
        else:
            expected = None
        try:
            validate_ideal_line(line)
            got = None
        except InvalidIdealLine as exc:
            got = (type(exc), str(exc))
        assert got == expected


@pytest.mark.parametrize("spec", [GF2, GF4, GF8, GF16, GF32], ids=lambda s: f"q{s.order}")
def test_valid_ideal_lines_match_the_coefficient_filter(spec):
    """The closed-form valid ideal lines of a sweep, (1 : b : c) at index
    b*q + c, against the filter of the plane's lines by their coefficients."""
    config = cli.parse_args(
        f"arrow --n {spec.degree} --mode conic --exhaustive --output csv".split())
    expected = tuple(line.values for line in build_plane(spec).lines if all(line.values))
    got = tuple(linf for linf, _, _ in driver._arrow_reports(spec, config, []))
    assert len(got) == len(expected) == (spec.order - 1) ** 2
    assert all(a == b for a, b in zip(got, expected))

def _trace(spec, k):
    """Absolute trace k + k^2 + k^4 + ... + k^(2^(n-1)) of GF(2^n), by n - 1
    squarings."""
    total = k
    for _ in range(spec.degree - 1):
        k = spec._mul_i(k, k)
        total ^= k
    return total


@pytest.mark.parametrize("spec", [make_field(2, n) for n in range(1, 9)]
                         + [make_field(2, 10, parse_modulus("0x409", 2))],
                         ids=lambda s: f"q{s.order}")
def test_quadratic_roots_follow_the_trace(spec):
    """roots[k] is None exactly when Tr(k) = 1, and otherwise solves
    y^2 + y = k; the time pencil context carries the same table."""
    roots = _quadratic_roots(spec)
    assert len(roots) == spec.order
    for k, y in enumerate(roots):
        tr = _trace(spec, k)
        assert tr in (0, 1)
        if tr:
            assert y is None
        else:
            assert spec._mul_i(y, y) ^ y == k
    if spec.order <= 32:
        assert time_pencil_context(spec).roots == roots


# Moduli of GF(2^n) for n > 8, where none is shipped.
TRACE_MODULI = {9: "0x211", 10: "0x409", 11: "0x805", 12: "0x1053", 13: "0x201b",
                14: "0x4443", 15: "0x8003", 16: "0x1100b"}


@pytest.mark.parametrize("n", range(2, 17), ids=lambda n: f"q{2 ** n}")
def test_conic_tallies_follow_the_trace_at_every_supported_order(n):
    """On (1 : b : c), member t meets the ideal line where y^2 + y = u*t,
    u = b/c^2, so it is Past exactly when Tr(u*t) = 0; as t runs over
    GF(q)* so does u*t.  So every valid ideal line has as many Past members
    as GF(q)* has elements of trace 0, q/2 - 1: the conic arrow
    {(q-2)/2, 0, q/2}.  The context's roots follow the trace at every
    supported q = 2^n, and at q <= 64 every valid ideal line's Past members
    by _witnesses are those with Tr(u*t) = 0, that many."""
    modulus = TRACE_MODULI.get(n)
    spec = make_field(2, n, modulus and parse_modulus(modulus, 2))
    ctx = time_pencil_context(spec)
    q = spec.order
    traces = [_trace(spec, k) for k in range(q)]
    assert [root is not None for root in ctx.roots] == [tr == 0 for tr in traces]
    past = traces[1:].count(0)
    assert past == q // 2 - 1
    if q <= 64:
        for b in range(1, q):
            for c in range(1, q):
                witnesses = _witnesses(spec, (1, b, c))
                u = spec._mul_i(b, spec._inv[spec._mul_i(c, c)])
                assert [len(w) == 2 for w in witnesses] == [
                    traces[spec._mul_i(u, t)] == 0 for t in range(1, q)], (b, c)
                assert len(witnesses) - witnesses.count(()) == past, (b, c)


def test_context_is_made_once_and_lives_on_its_spec(monkeypatch):
    """time_pencil_context(spec) is one object for as long as spec lives,
    kept on the spec; a new spec has none until it is asked for.  The root
    table of y^2 + y = k is made once per field, by the context, and the
    zero sets read it from there; the conic arrow does not read it."""
    made = []

    def counted(spec):
        made.append(spec)
        return _quadratic_roots(spec)

    monkeypatch.setattr(context, "_quadratic_roots", counted)
    spec = make_field(2, 6, (1, 1, 1, 0, 0, 1, 1))   # x^6 + x^5 + x^2 + x + 1, unused elsewhere
    assert spec._context is None
    ctx = time_pencil_context(spec)
    assert len(point_set(Conic(spec, (0, 1, 0, 0, 0, 1)))) == spec.order + 1
    assert len(members(time_pencil(spec))) == spec.order + 1
    conic_arrow(spec, ProjLine(spec, (1, 1, 1)))
    assert time_pencil_context(spec) is ctx is spec._context
    assert time_pencil_context(make_field(2, 6, (1, 1, 1, 0, 0, 1, 1))) is ctx
    assert made == [spec]


def test_context_has_no_roots_in_odd_characteristic():
    assert time_pencil_context(GF9).roots is None
