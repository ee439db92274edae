"""Command-line surface: parsing, payloads, exit codes, output formats,
and the streamed arrow output against its to_dict oracle."""

import ast
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from galois_arrow.errors import (
    ArcDeltaMismatch,
    DegenerateContactPoint,
    InvariantViolation,
    UsageError,
    ValidationError,
)
from galois_arrow import cli, driver, plane, witnesses
from galois_arrow.arc import Arc, build_time_family
from galois_arrow.argparser import _build_parser
from galois_arrow.arrow import TemporalClass, arc_arrow, classify_member, conic_arrow
from galois_arrow.field import make_field
from galois_arrow.pencil import PencilMember, members, time_pencil
from galois_arrow.plane import ProjLine, _line_hits, _triple_index, build_plane
from galois_arrow.witnesses import _arc_deltas, _witnesses

from oracles import (_nucleus_by_tangents, _payload_family, _payload_plane, _point_set_scan,
                     _tangent_tally, _valid_ideal_lines, _valid_tangent_lines)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# --- parsing -------------------------------------------------------------------

def test_parse_arrow_arc_defaults():
    cfg = cli.parse_args(["arrow", "--n", "3", "--mode", "arc"])
    assert cfg.command == "arrow" and cfg.mode == "arc"
    assert (cfg.p, cfg.n) == (2, 3)
    assert cfg.linf == (1, 1, 1)
    assert cfg.lstar == (1, 2, 0)   # gamma is the class of x
    assert cfg.output == "json" and not cfg.exhaustive


def test_parse_family_q2_is_rejected():
    with pytest.raises(UsageError):
        cli.parse_args(["family", "--n", "1"])


def test_parse_pencil_csv():
    cfg = cli.parse_args(["pencil", "--n", "2", "--output", "csv"])
    assert cfg.command == "pencil" and cfg.output == "csv"
    assert cfg.p ** cfg.n == 4


def test_parse_rejects_unknown_flag():
    with pytest.raises(UsageError):
        cli.parse_args(["arrow", "--n", "3", "--frobnicate"])


def test_parse_rejects_unknown_command():
    with pytest.raises(UsageError):
        cli.parse_args(["teleport", "--n", "3"])


def test_parse_rejects_malformed_triples():
    with pytest.raises(UsageError):
        cli.parse_args(["arrow", "--n", "3", "--linf", "1,1"])
    with pytest.raises(UsageError):
        cli.parse_args(["arrow", "--n", "3", "--linf", "1,1,one"])
    with pytest.raises(UsageError):
        cli.parse_args(["arrow", "--n", "3", "--linf", "0,0,0"])
    with pytest.raises(UsageError):
        cli.parse_args(["arrow", "--n", "2", "--linf", "1,9,1"])


def test_parse_rejects_odd_characteristic_for_char2_commands():
    with pytest.raises(UsageError):
        cli.parse_args(["arrow", "--p", "3", "--n", "1"])
    with pytest.raises(UsageError):
        cli.parse_args(["family", "--p", "3", "--n", "2"])


def test_parse_rejects_csv_for_point_listings():
    with pytest.raises(UsageError):
        cli.parse_args(["plane", "--n", "2", "--output", "csv"])


def test_parse_modulus_flags():
    cfg_hex = cli.parse_args(["field-info", "--n", "3", "--modulus", "0xB"])
    cfg_list = cli.parse_args(["field-info", "--n", "3", "--modulus", "1,1,0,1"])
    assert cfg_hex.modulus == cfg_list.modulus == (1, 1, 0, 1)
    with pytest.raises(UsageError):
        cli.parse_args(["field-info", "--n", "3", "--modulus", "0xZZ"])


@pytest.mark.parametrize("argv", [["--help"]] + [[name, "--help"] for name in cli.COMMANDS],
                         ids=" ".join)
def test_help_exits_0_and_names_no_private_function(argv):
    """--help prints usage and exits 0; the program's help states the exit
    codes, and no help text names a private (_-prefixed) function."""
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    text = out.getvalue()
    assert text.startswith("usage: galois-arrow")
    assert re.findall(r"(?<![\w-])_\w+", text) == []
    if argv == ["--help"]:
        assert ("Exit codes: 0 success, 2 rejected input or usage error, 3 internal"
                " invariant violation.") in " ".join(text.split())


# A hex modulus of 120,000 digits, near the 128 KiB the kernel allows one
# argv string, whose degree is refused after its bits are expanded.
LONG_MODULUS = ["field-info", "--n", "4", "--modulus", "0x1" + "0" * 119_999]

GOLDEN_COMMANDS = [
    *json.loads((Path(__file__).resolve().parent / "golden_stdout.json").read_text()),
    *json.loads((Path(__file__).resolve().parents[1] / "bench" / "golden.json").read_text()),
]


def _argv_grid() -> list[list[str]]:
    """Every argv written in this module (the argument lists and the
    command strings of its tests), the streamed-output grid, and per
    command every option of any command with the values '', 0, 05, -1,
    0x13 and x and each choice and one non-choice, as a pair and as
    --flag=value, with no value, repeated, abbreviated, after "--" and
    with a stray token; -h and --help, alone and after each command."""
    grid = []
    for node in ast.walk(ast.parse(Path(__file__).read_text())):
        if isinstance(node, ast.List) and node.elts and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts):
            argv = [e.value for e in node.elts]
            if argv[0] in cli.COMMANDS or argv[0].startswith("-"):
                grid.append(argv)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.split()[:1] and node.value.split()[0] in cli.COMMANDS):
            grid.append(node.value.split())
    grid += [f"arrow {field} --mode {mode}{sweep} --output {output}".split()
             for field in STREAMED_FIELDS for mode in ("conic", "arc")
             for sweep in ("", " --exhaustive") for output in ("json", "csv")]
    grid += [[], ["-h"], ["--help"], ["--n", "3", "arrow"], ["Arrow"], ["arr"]]
    for command in cli.COMMANDS:
        grid += [[command], [command, "-h"], [command, "--help"], [command, "--"],
                 [command, "--", "--n", "3"], [command, "stray"],
                 [command, "--n", "3", "stray"], [command, "--n", "3", "--"]]
        for flag, kind, _, choices, _ in cli._OPTIONS:
            if kind is bool:
                grid += [[command, flag], [command, flag, flag], [command, flag, "x"],
                         [command, f"{flag}=1"], [command, "--n", "2", flag, "--n", "3"]]
                continue
            values = ["", "0", "05", "-1", "0x13", "x", *(choices or ()), "xml"]
            for value in values:
                grid += [[command, flag, value], [command, f"{flag}={value}"],
                         [command, "--n", "3", flag, value]]
            last = choices[-1] if choices else "3"
            grid += [[command, flag], [command, "--n", "3", flag],
                     [command, flag, "2", flag, last], [command, flag, last, flag, "x"],
                     [command, flag[:4], last], [command, flag[:-1], last],
                     [command, "--", flag, last], [command, flag, last, "stray"]]
    grid.append(LONG_MODULUS)
    return grid


def test_plain_argv_reads_as_argparse_does():
    """parse_args reads argv in plain form without argparse and leaves
    every other argv to it: on each argv of the grid the plain reader
    either defers or returns exactly argparse's namespace, and it answers
    every golden and benchmark command itself."""
    parser = _build_parser(cli.COMMANDS, cli._OPTIONS)
    answered = 0
    for argv in _argv_grid():
        plain = cli._plain_args(argv)
        if plain is not None:
            assert plain == vars(parser.parse_args(argv)), argv
            answered += 1
    assert answered > 100
    for command in GOLDEN_COMMANDS:
        assert cli._plain_args(command.split()) is not None, command


# --- running --------------------------------------------------------------------

def test_run_arrow_arc_q8():
    code, out, err = _run(["arrow", "--n", "3", "--mode", "arc"])
    assert code == 0 and not err
    payload = json.loads(out)
    assert payload["tallies"] == {"past": 2, "present": 1, "future": 4}


def test_run_arrow_conic_q8_lacks_present():
    code, out, _ = _run(["arrow", "--n", "3", "--mode", "conic"])
    assert code == 0
    payload = json.loads(out)
    assert payload["tallies"]["present"] == 0
    assert payload["tallies"] == {"past": 3, "present": 0, "future": 4}


def test_run_plane_q4_lists_21_points():
    code, out, _ = _run(["plane", "--n", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["num_points"] == 21
    assert len(payload["points"]) == 21
    assert payload["points"][0] == "(1:0:0)"


def test_run_field_info_reports_modulus():
    code, out, _ = _run(["field-info", "--n", "3"])
    payload = json.loads(out)
    assert code == 0
    assert payload["modulus"] == [1, 1, 0, 1]
    assert payload["modulus_hex"] == "0xb"
    assert payload["q"] == 8


def test_run_conic_includes_nucleus_only_for_even_q():
    _, out, _ = _run(["conic", "--n", "2"])
    assert json.loads(out)["nucleus"] == "(0:0:1)"
    _, out3, _ = _run(["conic", "--p", "3"])
    assert json.loads(out3)["nucleus"] is None


@pytest.mark.parametrize("argv", ["conic --n 3", "conic --p 3", "pencil --n 3",
                                  "pencil --n 3 --output csv", "pencil --p 5",
                                  "pencil --p 5 --output csv"])
def test_run_conic_and_pencil_call_no_scan_tally_or_census(monkeypatch, argv):
    """conic and pencil print closed forms: neither calls point_set or
    tangent_lines, which make plane items, the member census members or
    common_nucleus, which stay their oracles.  The payload builders
    import what they read when they run, so they would call the patched
    counters."""
    from galois_arrow import conic, pencil
    calls = []
    for module, name in [(conic, "point_set"), (conic, "tangent_lines"),
                         (pencil, "members"), (pencil, "common_nucleus")]:
        def counting(*args, name=name, original=getattr(module, name)):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(module, name, counting)
    code, out, _ = _run(argv.split())
    assert code == 0 and out
    assert calls == []


def test_run_pencil_census_json():
    code, out, _ = _run(["pencil", "--n", "3"])
    payload = json.loads(out)
    assert code == 0
    classes = [m["class"] for m in payload["members"]]
    assert classes[0] == "RealLinePair" and classes[-1] == "DoubleLine"
    assert classes.count("Proper") == 7
    assert payload["common_nucleus"] == "(0:0:1)"


def test_run_family_json_schema():
    code, out, _ = _run(["family", "--n", "3"])
    payload = json.loads(out)
    assert code == 0
    assert payload["q"] == 8
    assert len(payload["members"]) == 7
    assert all(m["is_conic"] is False for m in payload["members"])


def test_run_rejected_configuration_exits_2():
    code, out, err = _run(["family", "--n", "3", "--linf", "1,0,0"])
    assert code == 2 and not out
    diagnostic = json.loads(err.strip())
    assert diagnostic["error"] == "HitsBasePoint"
    assert "\n" not in err.strip()


def test_run_degenerate_contact_point_exits_2():
    code, _, err = _run(["family", "--n", "3", "--lstar", "1,1,0"])
    assert code == 2
    assert json.loads(err.strip())["error"] == "DegenerateContactPoint"


def test_usage_error_exits_2():
    code, out, err = _run(["family", "--n", "1"])
    assert code == 2 and not out
    assert json.loads(err.strip())["error"] == "UsageError"


def test_invariant_violation_exits_3(monkeypatch):
    def boom(config):
        raise InvariantViolation("forced for the exit-code contract")
    monkeypatch.setattr(driver, "_execute", boom)
    code, _, err = _run(["arrow", "--n", "3"])
    assert code == 3
    assert json.loads(err.strip())["error"] == "InvariantViolation"


def test_csv_arrow_rows():
    code, out, _ = _run(["arrow", "--n", "3", "--mode", "arc", "--output", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "q,mode,member_id,theta,class"
    assert len(lines) == 1 + 7
    assert all(line.startswith("8,arc,") for line in lines[1:])
    classes = [line.split(",")[-1] for line in lines[1:]]
    assert classes.count("Present") == 1


def test_csv_pencil_rows():
    code, out, _ = _run(["pencil", "--n", "2", "--output", "csv"])
    lines = out.strip().split("\n")
    assert lines[0] == "q,member_id,theta,class"
    assert len(lines) == 1 + 5


def test_plane_command_makes_no_plane_item(monkeypatch):
    """The plane command prints the text of each value triple of the
    enumeration, one list for its points and its lines: it makes no
    ProjPoint or ProjLine, and prints what str() of build_plane's items,
    the oracle, gives."""
    made = []
    item, init = plane._Enumeration._item, plane._Triple.__init__
    monkeypatch.setattr(plane._Enumeration, "_item",
                        lambda self, values: made.append(values) or item(self, values))
    monkeypatch.setattr(plane._Triple, "__init__",
                        lambda self, *args: made.append(args) or init(self, *args))
    code, out, err = _run(["plane", "--n", "3"])
    monkeypatch.undo()
    assert (code, err, made) == (0, "", [])
    oracle = plane.build_plane(make_field(2, 3))
    assert json.loads(out) == {"q": 8, "num_points": 73, "num_lines": 73,
                               "points": [str(p) for p in oracle.points],
                               "lines": [str(l) for l in oracle.lines]}


@pytest.mark.parametrize("argv", [
    "plane --n 1", "plane --n 2", "plane --p 3", "plane --n 3 --modulus 0xd", "plane --n 4",
    "plane --p 3 --n 2 --modulus 1,0,1", "plane --p 5 --n 2 --modulus 2,0,1",
    "family --n 2", "family --n 3 --modulus 0xd --linf 1,5,3 --lstar 1,6,0",
    "family --n 4 --linf 2,4,6 --lstar 3,5,0", "family --n 5 --linf 1,7,1 --lstar 1,1,0"])
def test_plane_and_family_stream_the_json_of_their_whole_payload(argv):
    """plane and family (JSON) yield from driver._execute the text of
    json.dumps(payload, indent=2) of their whole payloads, the oracles,
    in chunks of a row of the plane or one member each: no chunk holds
    more than 4/q of the output."""
    config = cli.parse_args(argv.split())
    spec = make_field(config.p, config.n, config.modulus)
    payload = (_payload_plane(spec) if config.command == "plane"
               else _payload_family(spec, config.linf, config.lstar))
    chunks = list(driver._execute(config))
    out = "".join(chunks)
    assert out == json.dumps(payload, indent=2) + "\n"
    assert max(map(len, chunks)) * spec.order < 4 * len(out)


class _Sink(io.TextIOBase):
    """A stdout that counts the characters written and keeps none."""

    def __init__(self):
        super().__init__()
        self.written = 0

    def writable(self):
        return True

    def write(self, text):
        self.written += len(text)
        return len(text)


@pytest.mark.parametrize("argv", ["plane --n 8", "family --n 8"])
def test_plane_and_family_json_hold_less_than_a_tenth_of_their_output(argv):
    """At q = 256, plane (2.2 MB) and family (1.4 MB) in JSON, run through
    main with the modules loaded, allocate at their peak (tracemalloc)
    less than a tenth of what they print: the payload is never whole,
    nor is its text.  Built whole and encoded by json.dumps, each peaked
    at about 7 times its output."""
    with redirect_stdout(_Sink()):
        assert cli.main(argv.split()) == 0
    sink = _Sink()
    tracemalloc.start()
    try:
        with redirect_stdout(sink):
            code = cli.main(argv.split())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and peak * 10 < sink.written, (peak, sink.written)


def _scaled(spec, values, k) -> str:
    return ",".join(str(spec._mul_i(k, v)) for v in values)


# Three (L-infinity, L*) pairs that every GF(2^n), n >= 2, accepts, as
# normalized values, each with the scales its lines are given by: the last
# pair is given unnormalized.
FAMILY_CSV_PAIRS = [((1, 1, 1), (1, 2, 0), (1, 1)), ((1, 2, 3), (1, 3, 0), (1, 1)),
                    ((1, 3, 1), (1, 1, 0), (2, 3))]


@pytest.mark.parametrize("n", [2, 3, 4], ids=lambda n: f"q{2 ** n}")
def test_family_csv_builds_no_family(monkeypatch, n):
    """The family's CSV rows come from the context's thetas once the
    configuration passes arc._check_configuration: none of
    build_time_family, arc._member_values and the members' zero sets
    (conic._zero_values, as arc reads it) is called, and the rows equal
    those read off the built family, each member's size len(arc.points),
    its theta and is_conic_arc, the oracles."""
    from galois_arrow import arc
    spec = make_field(2, n)
    q, fmt = spec.order, spec.format
    calls = []
    for name in ("build_time_family", "_member_values", "_zero_values"):
        def counting(*args, name=name, original=getattr(arc, name)):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(arc, name, counting)
    for linf, lstar, (k, kstar) in FAMILY_CSV_PAIRS:
        family = build_time_family(spec, ProjLine(spec, linf), ProjLine(spec, lstar))
        want = ["q,member_id,theta,size,is_conic"] + [
            f"{q},{m},{fmt(t1)}:{fmt(t2)},{len(a.points)},{str(arc.is_conic_arc(a)).lower()}"
            for m, ((t1, t2), a) in enumerate(zip(family.thetas, family.members))]
        calls.clear()
        code, out, err = _run(["family", "--n", str(n), "--linf", _scaled(spec, linf, k),
                               "--lstar", _scaled(spec, lstar, kstar), "--output", "csv"])
        assert (code, err, calls) == (0, "", [])
        assert out.splitlines() == want


def _run_counting_plane_items(argv):
    """_run of argv, and what it made of the plane and the family: each
    ProjPoint and ProjLine, each Plane and build_plane call, and each call
    of build_time_family and family_to_dict."""
    from galois_arrow import arc
    made = []
    item, init, plane_init = plane._Enumeration._item, plane._Triple.__init__, plane.Plane.__init__
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(plane._Enumeration, "_item",
                      lambda self, values: made.append(values) or item(self, values))
        patch.setattr(plane._Triple, "__init__",
                      lambda self, *args: made.append(args) or init(self, *args))
        patch.setattr(plane.Plane, "__init__",
                      lambda self, *args: made.append("Plane") or plane_init(self, *args))
        for module, name in ((plane, "build_plane"), (arc, "build_time_family"),
                             (arc, "family_to_dict")):
            def counting(*args, name=name, original=getattr(module, name)):
                made.append(name)
                return original(*args)

            patch.setattr(module, name, counting)
        return (*_run(argv), made)


@pytest.mark.parametrize("spec", [make_field(2, 2), make_field(2, 3), make_field(2, 4),
                                  make_field(3, 2, (1, 0, 1)), make_field(5, 2, (2, 0, 1))],
                         ids=lambda s: f"q{s.order}")
def test_conic_and_family_commands_make_no_plane_item(spec):
    """conic, and family in JSON and CSV, print from values: they make no
    ProjPoint, ProjLine or plane and call neither build_time_family nor
    family_to_dict.  Their stdout is what the library, the oracle, gives:
    for conic, str() of parametrize_canonical's points in plane order, which
    are the plane scan's, and of their polar lines, which are the tangent
    tally's, with classify and the meet of the tallied tangents; for family,
    family_to_dict of build_time_family and the rows read off that family,
    on three (L-infinity, L*) pairs, the last given unnormalized.  In odd
    characteristic, where the polar of (x1 : x2 : x3) is (x2 : x1 : -2x3)
    scaled to normal form, conic runs alone."""
    from galois_arrow.arc import family_to_dict, is_conic_arc
    from galois_arrow.conic import canonical_conic, classify, parametrize_canonical
    q, fmt = spec.order, spec.format
    field = ["--p", str(spec.characteristic), "--n", str(spec.degree),
             "--modulus", ",".join(map(str, spec.modulus))]
    conic, oracle = canonical_conic(spec), plane.build_plane(spec)
    points = sorted(parametrize_canonical(spec), key=oracle.points.index)
    assert points == list(_point_set_scan(conic))
    polars = sorted([ProjLine(spec, (x2, x1, spec._neg_i(spec._add_i(x3, x3))))
                     for x1, x2, x3 in (p.values for p in points)], key=oracle.lines.index)
    assert polars == _tangent_tally(conic)
    want = {"q": q, "coefficients": [str(c) for c in conic.coefficients],
            "class": str(classify(conic)), "points": [str(p) for p in points],
            "tangent_lines": [str(l) for l in polars],
            "nucleus": (str(_nucleus_by_tangents(conic))
                        if spec.characteristic == 2 else None)}
    assert _run_counting_plane_items(["conic", *field]) == (
        0, json.dumps(want, indent=2) + "\n", "", [])
    pairs = FAMILY_CSV_PAIRS if spec.characteristic == 2 else []
    for linf, lstar, (k, kstar) in pairs:
        family = build_time_family(spec, ProjLine(spec, linf), ProjLine(spec, lstar))
        rows = ["q,member_id,theta,size,is_conic"] + [
            f"{q},{m},{fmt(t1)}:{fmt(t2)},{len(a.points)},{str(is_conic_arc(a)).lower()}"
            for m, ((t1, t2), a) in enumerate(zip(family.thetas, family.members))]
        argv = ["family", *field, "--linf", _scaled(spec, linf, k),
                "--lstar", _scaled(spec, lstar, kstar)]
        assert _run_counting_plane_items(argv) == (
            0, json.dumps(family_to_dict(family), indent=2) + "\n", "", [])
        assert _run_counting_plane_items([*argv, "--output", "csv"]) == (
            0, "\n".join(rows) + "\n", "", [])


FAMILY_LINES = ["1,1,1", "2,4,6", "1,2,3", "7,7,7", "1,0,0", "0,1,0", "0,0,1", "0,3,4",
                "1,1,0", "1,2,0", "2,4,0", "3,5,0", "5,5,0"]


def test_family_csv_refuses_what_the_family_build_refuses():
    """On every pair of a grid of lines over GF(8), valid and invalid, some
    given unnormalized, the family's JSON and CSV exit as build_time_family,
    the oracle, does on the same lines: 0, or 2 with the diagnostic line of
    the error it raises."""
    spec = make_field(2, 3)
    errors = set()
    for linf in FAMILY_LINES:
        for lstar in FAMILY_LINES:
            try:
                build_time_family(spec, *(ProjLine(spec, map(int, line.split(",")))
                                          for line in (linf, lstar)))
                want = None
            except ValidationError as exc:
                want = {"error": type(exc).__name__, "message": str(exc)}
            argv = ["family", "--n", "3", "--linf", linf, "--lstar", lstar]
            for output in ("json", "csv"):
                code, out, err = _run([*argv, "--output", output])
                assert (code, bool(out), json.loads(err) if err else None) == (
                    (0, True, None) if want is None else (2, False, want)), (argv, output)
            errors.add(want and want["error"])
    assert errors == {None, "HitsBasePoint", "HitsNucleus", "InvalidTangentLine",
                      "DegenerateContactPoint"}


def test_json_output_round_trips():
    for argv in (["arrow", "--n", "2", "--mode", "arc"],
                 ["arrow", "--n", "2", "--mode", "conic"],
                 ["family", "--n", "2"],
                 ["pencil", "--n", "2"]):
        _, out, _ = _run(argv)
        payload = json.loads(out)
        assert json.loads(json.dumps(payload)) == payload


def test_exhaustive_arc_summary_q4():
    code, out, _ = _run(["arrow", "--n", "2", "--mode", "arc", "--exhaustive"])
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["total_configurations"] == 9 * 3
    assert payload["summary"]["valid"] + payload["summary"]["rejected"] == 27
    assert set(payload["summary"]["tally_distribution"]) == {"0:1:2"}


def test_exhaustive_conic_q4_has_no_rejections():
    _, out, _ = _run(["arrow", "--n", "2", "--mode", "conic", "--exhaustive"])
    payload = json.loads(out)
    assert payload["summary"]["rejected"] == 0
    assert payload["summary"]["valid"] == 9
    assert set(payload["summary"]["tally_distribution"]) == {"1:0:2"}


def test_exhaustive_deterministic_across_runs():
    argv = ["arrow", "--n", "2", "--mode", "arc", "--exhaustive"]
    assert _run(argv)[1] == _run(argv)[1]


def test_csv_exhaustive_includes_configuration_columns():
    code, out, _ = _run(["arrow", "--n", "2", "--mode", "arc", "--exhaustive",
                         "--output", "csv"])
    lines = out.strip().split("\n")
    assert lines[0] == "q,mode,linf,lstar,member_id,theta,class"
    # 18 valid configurations, 3 members each
    assert len(lines) == 1 + 18 * 3


@pytest.mark.parametrize("argv, error", [
    (["field-info", "--n", "17"], "OrderTooLarge"),
    (["field-info", "--n", "3", "--modulus", "1,1"], "ModulusDegreeMismatch"),
    (["field-info", "--n", "3", "--modulus", "0,0,0"], "ZeroPolynomial"),
    (["arrow", "--n", "3", "--mode", "conic", "--linf", "1,0,0"], "HitsBasePoint"),
    (["arrow", "--n", "3", "--mode", "arc", "--linf", "1,0,0"], "HitsBasePoint"),
    (["field-info", "--p", "2305843009213693951", "--n", "1"], "OrderTooLarge"),
    (["field-info", "--p", "3", "--n", "30000000"], "OrderTooLarge"),
    (["arrow", "--n", "2", "--mode", "conic", "--exhaustive", "--linf", "1,1,0"], "UsageError"),
    (["arrow", "--n", "2", "--mode", "arc", "--exhaustive", "--lstar", "1,1,0"], "UsageError"),
    (["arrow", "--n", "3", "--mode", "conic", "--lstar", "1,1,1"], "UsageError"),
    (["arrow", "--n", "3", "--lstar", "1,0,0"], "UsageError"),
    (["plane", "--n", "16"], "OrderTooLarge"),
    (["conic", "--n", "11", "--modulus", "0x805"], "OrderTooLarge"),
    (["pencil", "--p", "65521", "--modulus", "0,1"], "OrderTooLarge"),
    (["family", "--n", "16", "--modulus", "0x1100b"], "OrderTooLarge"),
    (["arrow", "--n", "11", "--modulus", "0x805", "--exhaustive"], "OrderTooLarge"),
    (LONG_MODULUS, "ModulusDegreeMismatch"),
    (["field-info", "--modulus", ""], "UsageError"),
])
def test_rejected_input_follows_the_exit_code_contract(argv, error):
    code, out, err = _run(argv)   # an exception escaping main is a traceback
    assert code == 2 and not out
    lines = err.splitlines()
    assert len(lines) == 1 and "Traceback" not in err
    assert json.loads(lines[0])["error"] == error


# --- streamed arrow output ------------------------------------------------------

def _oracle_arc_report(family) -> dict:
    report = arc_arrow(family).to_dict()
    report["lstar"] = str(family.provenance.lstar)
    return report


def _oracle_payload(config) -> dict:
    """The arrow payload built whole from ArrowReport.to_dict."""
    spec = make_field(config.p, config.n, config.modulus)
    if not config.exhaustive:
        linf = ProjLine(spec, config.linf)
        if config.mode == "conic":
            return conic_arrow(spec, linf).to_dict()
        return _oracle_arc_report(
            build_time_family(spec, linf, ProjLine(spec, config.lstar)))
    reports, rejected = [], []
    if config.mode == "conic":
        reports = [conic_arrow(spec, linf).to_dict() for linf in _valid_ideal_lines(spec)]
    else:
        for linf in _valid_ideal_lines(spec):
            for lstar in _valid_tangent_lines(spec):
                try:
                    family = build_time_family(spec, linf, lstar)
                except DegenerateContactPoint:
                    rejected.append({"linf": str(linf), "lstar": str(lstar),
                                     "rejected": "DegenerateContactPoint"})
                else:
                    reports.append(_oracle_arc_report(family))
    distribution = {}
    for report in reports:
        t = report["tallies"]
        key = f"{t['past']}:{t['present']}:{t['future']}"
        distribution[key] = distribution.get(key, 0) + 1
    return {
        "q": spec.order,
        "mode": config.mode,
        "exhaustive": True,
        "reports": reports,
        "rejected": rejected,
        "summary": {
            "total_configurations": len(reports) + len(rejected),
            "valid": len(reports),
            "rejected": len(rejected),
            "tally_distribution": {k: distribution[k] for k in sorted(distribution)},
        },
    }


def _oracle_csv_lines(config, payload: dict) -> list[str]:
    if config.exhaustive:
        lines = ["q,mode,linf,lstar,member_id,theta,class"]
        for report in payload["reports"]:
            lstar = report.get("lstar", "")
            for m in report["members"]:
                lines.append(f"{report['q']},{report['mode']},{report['ideal_line']},"
                             f"{lstar},{m['id']},{m['theta'][0]}:{m['theta'][1]},{m['class']}")
        return lines
    lines = ["q,mode,member_id,theta,class"]
    for m in payload["members"]:
        lines.append(f"{payload['q']},{payload['mode']},{m['id']},"
                     f"{m['theta'][0]}:{m['theta'][1]},{m['class']}")
    return lines


def _oracle_stdout(argv) -> str:
    config = cli.parse_args(argv)
    payload = _oracle_payload(config)
    if config.output == "csv":
        return "\n".join(_oracle_csv_lines(config, payload)) + "\n"
    return json.dumps(payload, indent=2) + "\n"


STREAMED_FIELDS = ["--n 2", "--n 3", "--n 3 --modulus 0xd", "--n 4"]
# the benchmark's two sweeps, as bench/run.py runs them
BENCH_ARGVS = ["arrow --n 4 --modulus 0x13 --mode arc --exhaustive",
               "arrow --n 5 --modulus 0x25 --mode conic --exhaustive --output csv"]


@pytest.mark.parametrize("field", STREAMED_FIELDS)
@pytest.mark.parametrize("mode", ["conic", "arc"])
@pytest.mark.parametrize("sweep", ["", " --exhaustive"])
@pytest.mark.parametrize("output", ["json", "csv"])
def test_streamed_arrow_matches_the_to_dict_oracle(field, mode, sweep, output):
    argv = f"arrow {field} --mode {mode}{sweep} --output {output}".split()
    code, out, err = _run(argv)
    assert code == 0 and not err
    expected = _oracle_stdout(argv)
    if out != expected:
        # named by its first differing line: pytest's own diff of the
        # megabytes of a q = 16 sweep would take minutes
        lines, want = out.splitlines(), expected.splitlines()
        i = next((i for i, (a, b) in enumerate(zip(lines, want)) if a != b),
                 min(len(lines), len(want)))
        pytest.fail(f"stdout line {i + 1} is {lines[i:i + 1]}, the oracle's {want[i:i + 1]}")


@pytest.mark.parametrize("argv", [
    "arrow --n 5 --mode conic",
    "arrow --n 5 --mode conic --linf 1,5,17",
    "arrow --n 5 --mode arc",
    "arrow --n 5 --mode arc --linf 1,5,17 --lstar 1,9,0",
    "arrow --n 5 --modulus 0x3d --mode arc --linf 1,31,1 --lstar 1,30,0",
    "arrow --n 6 --mode conic",
    "arrow --n 6 --modulus 0x6d --mode conic --linf 1,49,57",
    "arrow --n 6 --mode arc",
    "arrow --n 6 --mode arc --linf 1,40,3 --lstar 1,7,0",
    "arrow --n 6 --mode arc --linf 1,63,63 --lstar 1,1,0",
])
def test_single_arrow_json_matches_the_to_dict_oracle_at_q32_and_q64(argv):
    """One configuration's JSON at q = 32 and 64, where every member's text
    is made from texts kept for the run, against json.dumps of the
    report's to_dict with indent=2."""
    code, out, err = _run(argv.split())
    assert code == 0 and not err
    assert out == _oracle_stdout(argv.split())


@pytest.mark.parametrize("mode", ["conic", "arc"])
def test_single_arrow_json_goes_out_in_chunks_of_256_members(mode):
    """A single run at q = 1024 yields its report from driver._execute in
    chunks of 256 members, the head with the first, then its tail: the
    1023 members in four chunks, whose text is the to_dict oracle's."""
    argv = f"arrow --n 10 --modulus 0x409 --mode {mode}".split()
    chunks = list(driver._execute(cli.parse_args(argv)))
    assert [chunk.count('"id": ') for chunk in chunks] == [256, 256, 256, 255, 0]
    assert "".join(chunks) == _oracle_stdout(argv)


def test_first_report_is_written_before_the_last_configuration_is_built(monkeypatch):
    """The q = 8 arc sweep, 445 KB, goes out in several blocks: some of it
    is on stdout before the last ideal line's configurations are built."""
    out, lengths = io.StringIO(), []

    def recording(*args):
        deltas = _arc_deltas(*args)   # one pass per ideal line, one entry per L*
        lengths.extend([len(out.getvalue())] * len(deltas))
        return deltas

    monkeypatch.setattr(witnesses, "_arc_deltas", recording)
    with redirect_stdout(out):
        code = cli.main(["arrow", "--n", "3", "--mode", "arc", "--exhaustive"])
    assert code == 0 and len(lengths) == 7 ** 3
    assert 0 < lengths[-1] < len(out.getvalue())


SWEEP_Q4 = ["arrow", "--n", "2", "--mode", "arc", "--exhaustive"]


def _fail_on_the_second_ideal_line(monkeypatch) -> str:
    """Make the arc pass over SWEEP_Q4's second ideal line raise an
    InvariantViolation; the stdout chunk made before it is returned."""
    first = next(driver._execute(cli.parse_args(SWEEP_Q4)))
    built = []

    def second_fails(*args):
        built.append(args)
        if len(built) == 2:
            raise InvariantViolation("forced on the second ideal line")
        return _arc_deltas(*args)

    monkeypatch.setattr(witnesses, "_arc_deltas", second_fails)
    return first


def test_invariant_violation_mid_sweep_exits_3(monkeypatch):
    """What was made before the violation, the first ideal line's chunk,
    is written once: not dropped, nor written twice."""
    first = _fail_on_the_second_ideal_line(monkeypatch)
    code, out, err = _run(SWEEP_Q4)
    assert code == 3 and out == first   # the reports before it were written
    lines = err.splitlines()
    assert len(lines) == 1 and "Traceback" not in err
    assert json.loads(lines[0])["error"] == "InvariantViolation"


class _RawRecorder(io.RawIOBase):
    def __init__(self):
        super().__init__()
        self.data = bytearray()

    def writable(self):
        return True

    def write(self, b):
        self.data += b
        return len(b)


def test_report_text_reaches_stdout_before_the_diagnostic(monkeypatch):
    """With stdout buffered (here a 1 MiB buffer over a recording raw
    stream), the first ideal line's chunk has reached stdout's raw stream,
    whole, when the diagnostic of a violation on the second line is
    written to stderr."""
    first = _fail_on_the_second_ideal_line(monkeypatch)
    raw = _RawRecorder()
    stdout = io.TextIOWrapper(io.BufferedWriter(raw, buffer_size=1 << 20), encoding="utf-8")
    seen = []

    class Stderr(io.StringIO):
        def write(self, text):
            seen.append(bytes(raw.data))
            return super().write(text)

    err = Stderr()
    with redirect_stdout(stdout), redirect_stderr(err):
        code = cli.main(SWEEP_Q4)
    assert code == 3 and json.loads(err.getvalue())["error"] == "InvariantViolation"
    assert seen and all(data == first.encode() for data in seen)


class _RecordingStdout(io.StringIO):
    """A stdout that keeps the text of each write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


@pytest.mark.parametrize("argv, writes", [
    # each ideal line's chunk of 42 KB as it is, then the summary
    (BENCH_ARGVS[0], range(226, 227)),
    # 961 chunks of about 1 KB, one per ideal line, joined into blocks:
    # at most ceil(962,001 / 32 KiB) writes, not 961
    (BENCH_ARGVS[1], range(1, -(-962_001 // (1 << 15)) + 1)),
], ids=["arc-q16", "conic-csv-q32"])
def test_stdout_is_written_in_blocks(argv, writes):
    """driver.run, the one writer of stdout, joins the chunks a run yields
    into blocks: every write but the last holds at least 32 KiB, the
    writes concatenate to the to_dict oracle's stdout, the q = 16 arc
    sweep makes 226 writes and the q = 32 conic CSV sweep at most 30."""
    out = _RecordingStdout()
    with redirect_stdout(out):
        code = cli.main(argv.split())
    assert code == 0 and driver._BLOCK == 1 << 15
    assert all(len(text) >= 1 << 15 for text in out.writes[:-1])
    assert len(out.writes) in writes
    assert "".join(out.writes) == _oracle_stdout(argv.split())


@pytest.mark.parametrize("n", [2, 3, 4], ids=lambda n: f"q{2 ** n}")
def test_arc_sweep_matches_the_incidence_oracle(n):
    """Each report of the arc sweep, made from its ideal line's one
    classification with one member changed, has the classes and witnesses
    that the incidence scan finds on build_time_family's arcs, for every
    valid (L-infinity, L*)."""
    code, out, err = _run(["arrow", "--n", str(n), "--mode", "arc", "--exhaustive"])
    assert code == 0 and not err
    reports = iter(json.loads(out)["reports"])
    spec = make_field(2, n)
    for linf in _valid_ideal_lines(spec):
        for lstar in _valid_tangent_lines(spec):
            try:
                family = build_time_family(spec, linf, lstar)
            except DegenerateContactPoint:
                continue
            report = next(reports)
            assert (report["ideal_line"], report["lstar"]) == (str(linf), str(lstar))
            expected = [(member_id, str(classify_member(arc.points, linf)),
                         [str(p) for p in _line_hits(arc.points, linf)])
                        for member_id, arc in zip(family.member_ids, family.members)]
            assert [(m["id"], m["class"], m["witnesses"])
                    for m in report["members"]] == expected
    assert next(reports, None) is None


@pytest.mark.parametrize("mode, n", [("conic", 1), ("arc", 2), ("arc", 3), ("arc", 4)],
                         ids=lambda v: v if isinstance(v, str) else f"q{2 ** v}")
def test_sweep_lines_are_the_valid_lines_by_incidence(mode, n):
    """A sweep's lines, the package's one definition of the valid lines,
    against their incidence definitions over every plane line: its
    L-infinity are the lines that miss B1, B2 and N, which are the lines
    (1 : b : c), bc != 0, all coefficients nonzero, and in arc mode the
    L* of each, from its configurations and its rejections, are the lines
    through N other than N∨B1 and N∨B2, the lines (1 : a : 0), a != 0;
    each in plane line order."""
    spec = make_field(2, n)
    q = spec.order
    lines = build_plane(spec).lines
    ideal, tangent = _valid_ideal_lines(spec), _valid_tangent_lines(spec)
    assert ideal == tuple(line for line in lines if all(line.values))
    assert ideal == tuple(ProjLine(spec, (1, b, c)) for b in range(1, q) for c in range(1, q))
    assert tangent == tuple(ProjLine(spec, (1, a, 0)) for a in range(1, q))
    assert (len(ideal), len(tangent)) == ((q - 1) ** 2, q - 1)
    config = cli.parse_args(f"arrow --n {n} --mode {mode} --exhaustive --output csv".split())
    rejected = []
    linfs = []
    for linf, _, configurations in driver._arrow_reports(spec, config, rejected):
        linfs.append(linf)
        if mode == "arc":
            lstar_as = [a for a, _ in configurations] + [a for _, a in rejected]
            assert {line for line, _ in rejected} <= {linf}
            assert [(1, a, 0) for a in sorted(lstar_as)] == [line.values for line in tangent]
            rejected.clear()
    assert linfs == [line.values for line in ideal]


def _future(witnesses, spec):
    return [() for _ in witnesses]


def _past_without_the_contact_point(witnesses, spec):
    # B2 and N lie on no valid ideal line, so neither is a contact point
    others = tuple(_triple_index(spec.order, values) for values in ((1, 0, 0), (0, 0, 1)))
    return [others if hits else hits for hits in witnesses]


@pytest.mark.parametrize("change", [_future, _past_without_the_contact_point])
@pytest.mark.parametrize("argv", ["arrow --n 2 --mode arc --exhaustive",
                                  "arrow --n 3 --mode arc --output csv"])
def test_qstar_not_past_with_the_contact_point_exits_3(monkeypatch, change, argv):
    """The arc reports rely on Q* being Past with the contact point as a
    witness; a classification that breaks this stops the run with exit 3."""
    def changed(spec, linf):
        return tuple(change(_witnesses(spec, linf), spec))

    monkeypatch.setattr(witnesses, "_witnesses", changed)
    code, out, err = _run(argv.split())
    assert code == 3 and not out
    lines = err.splitlines()
    assert len(lines) == 1 and "Traceback" not in err
    assert json.loads(lines[0])["error"] == "ArcDeltaMismatch"
    assert issubclass(ArcDeltaMismatch, InvariantViolation)


@pytest.mark.parametrize("argv", BENCH_ARGVS)
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_0_quietly(argv, unbuffered):
    """Each benchmark sweep as a real process, its stdout closed by the
    reader after one byte, as `| head -c 1` does, with stdout buffered and
    with PYTHONUNBUFFERED=1: the write that meets the closed pipe, the
    final write of the held text included, ends the run with exit 0 and
    nothing on stderr."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "galois_arrow.cli", *argv.split()],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(1)
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=60), len(head), err) == (0, 1, b"")


@pytest.mark.parametrize("mode, tallies", [("conic", [511, 0, 512]), ("arc", [510, 1, 512])],
                         ids=["conic", "arc"])
def test_single_arrow_run_reads_o_of_q_plane_items(monkeypatch, mode, tallies):
    """A single arrow run at q = 1024 reads a few plane items per member,
    not the q^2 + q + 1 of a plane scan.  Every item made from its
    position (_triple_values) and every item of a scan (_triples) counts,
    in whichever module calls it: the witnesses module defines the first
    and the plane module the second, and other modules import them.  The
    JSON renderer is loaded first, so that its report text's binding of
    the first is patched whichever run comes first."""
    import galois_arrow.arrow_json  # noqa: F401
    read = [0]
    originals = {"_triple_values": witnesses._triple_values, "_triples": plane._triples}

    def triple_values(q, i):
        read[0] += 1
        return originals["_triple_values"](q, i)

    def triples(q):
        for values in originals["_triples"](q):
            read[0] += 1
            yield values

    fakes = {"_triple_values": triple_values, "_triples": triples}
    for module in [m for name, m in sys.modules.items() if name.startswith("galois_arrow")]:
        for name, original in originals.items():
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, fakes[name])
    code, out, err = _run(["arrow", "--n", "10", "--modulus", "0x409", "--mode", mode])
    assert (code, err) == (0, "")
    assert list(json.loads(out)["tallies"].values()) == tallies
    assert 0 < read[0] <= 4 * 1024


def _added_modules(statement: str, watched: str, preload: tuple[str, ...] = ("argparse", "json")
                   ) -> str:
    """The stdout of a fresh interpreter that runs statement after the
    modules of preload are loaded and prints, sorted, the modules it added
    that pass the filter expression watched (over the module name m)."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (f"import {', '.join(('sys', *preload))}\n"
            "before = set(sys.modules)\n"
            f"{statement}\n"
            f"print(sorted(m for m in set(sys.modules) - before if {watched}))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """The records are named tuples and slotted classes, so importing the
    CLI adds neither module to those argparse and json already load."""
    assert _added_modules("import galois_arrow.cli", "m in {'dataclasses', 'inspect'}") == "[]\n"


@pytest.mark.parametrize("statement, loaded", [
    # the CLI loads the driver and the field; a field's construction loads
    # the polynomials (its modulus is validated) and the table build, and
    # the kernel loads with the arrow command's first run
    ("import galois_arrow.cli",
     ["cli", "driver", "errors", "field", "polynomial", "tables"]),
    # the benchmark's set-up child: the field and the time-pencil context,
    # in a module of its own
    ("from galois_arrow import make_field, parse_modulus, time_pencil_context",
     ["context", "errors", "field", "modulus", "polynomial", "tables"]),
    # a field over GF(2^n) is built without the element API and the Zech
    # arithmetic, each loaded on first use
    ("from galois_arrow import make_field; make_field(2, 8)",
     ["errors", "field", "polynomial", "tables"]),
    ("from galois_arrow import make_field; make_field(3, 2, (1, 0, 1))",
     ["errors", "field", "polynomial", "tables", "zech"]),
    ("from galois_arrow import make_field; make_field(2, 3).one",
     ["element", "errors", "field", "polynomial", "tables"]),
    ("from galois_arrow.element import inv",
     ["element", "errors", "field", "polynomial", "tables"]),
    ("from galois_arrow.modulus import parse_modulus", ["modulus"]),
    # a context is the field's root tables alone: it has no plane, and
    # reading one loads no plane module
    ("from galois_arrow import make_field, time_pencil_context\n"
     "assert not hasattr(time_pencil_context(make_field(2, 3)), 'plane')",
     ["context", "errors", "field", "polynomial", "tables"]),
    # a single arrow run reads its members off the line's points, in the
    # kernel and witnesses, and loads no context module, as no sweep does
    ("import contextlib, io\nimport galois_arrow.cli as c\n"
     "with contextlib.redirect_stdout(io.StringIO()):\n"
     "    assert c.main(['arrow', '--n', '3']) == 0",
     ["arrow_json", "cli", "driver", "errors", "field", "kernel", "lines", "polynomial",
      "report_text", "tables", "witnesses"]),
    ("import contextlib, io\nimport galois_arrow.cli as c\n"
     "with contextlib.redirect_stdout(io.StringIO()):\n"
     "    assert c.main(['arrow', '--n', '3', '--mode', 'arc', '--output', 'csv']) == 0",
     ["arrow_csv", "cli", "driver", "errors", "field", "kernel", "lines", "polynomial",
      "tables", "witnesses"]),
    # field-info reads the field only, its generator's value from the field
    # module: no element API, and the payload builders import the plane and
    # the context when they run
    ("import contextlib, io\nimport galois_arrow.cli as c\n"
     "with contextlib.redirect_stdout(io.StringIO()):\n"
     "    assert c.main(['field-info', '--n', '2']) == 0",
     ["cli", "driver", "errors", "field", "payloads", "polynomial", "tables"]),
    # pencil prints its members in closed form and its points from their
    # values by the kernel's text table: no context, plane module, census
    # (pencil), conic module or linetext
    ("import contextlib, io\nimport galois_arrow.cli as c\n"
     "with contextlib.redirect_stdout(io.StringIO()):\n"
     "    assert c.main(['pencil', '--n', '2']) == 0",
     ["cli", "driver", "errors", "field", "kernel", "payloads", "polynomial", "tables"]),
    # plane joins the rows of the enumeration from the kernel's coordinate
    # strings: no plane module
    ("import contextlib, io\nimport galois_arrow.cli as c\n"
     "with contextlib.redirect_stdout(io.StringIO()):\n"
     "    assert c.main(['plane', '--n', '2']) == 0",
     ["cli", "driver", "errors", "field", "kernel", "payloads", "polynomial", "tables"]),
    # the family's CSV checks its configuration in the arc module, which
    # loads the plane, census and conic modules, and builds no family
    ("import contextlib, io\nimport galois_arrow.cli as c\n"
     "with contextlib.redirect_stdout(io.StringIO()):\n"
     "    assert c.main(['family', '--n', '2', '--output', 'csv']) == 0",
     ["arc", "cli", "conic", "context", "driver", "element", "errors", "field", "kernel",
      "lines", "linetext", "payloads", "pencil", "plane", "polynomial", "tables", "witnesses"]),
    # a dunder a spec or a context lacks, as copy probes for, is refused
    # without loading the element module
    ("from galois_arrow import make_field, time_pencil_context\n"
     "assert not hasattr(make_field(2, 3), '__deepcopy__')\n"
     "assert not hasattr(time_pencil_context(make_field(2, 3)), '__deepcopy__')",
     ["context", "errors", "field", "polynomial", "tables"]),
])
def test_imports_load_only_the_modules_they_run(statement, loaded):
    """The package resolves its names lazily, the CLI imports the census
    (pencil), conic and arc modules only in the commands that use them, and
    the kernel never reads the plane module, so neither import loads them;
    no arrow run loads the context module;
    a spec loads the element API, and a field the Zech arithmetic, only
    when first used, and the --modulus reader loads only where it is
    imported."""
    want = ["galois_arrow", *(f"galois_arrow.{m}" for m in loaded)]
    assert _added_modules(statement, "m.startswith('galois_arrow')") == f"{want}\n"


def test_plain_argv_loads_no_argparse():
    """The benchmark's sweeps are read and run without argparse, which
    (with gettext) is loaded only for help and for argv not in plain form;
    in a fresh process help still exits 0 and a bad value 2."""
    runs = ("import galois_arrow.cli as c\n"
            f"for argv in {[argv.split() for argv in BENCH_ARGVS]!r}:\n"
            "    c.parse_args(argv)\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert c.main(argv) == 0")
    assert _added_modules(runs, "m in {'argparse', 'gettext'}",
                          preload=("contextlib", "io")) == "[]\n"
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    for argv, code, stdout, stderr in [
            ("arrow --help", 0, "usage: galois-arrow arrow", ""),
            ("arrow --n x", 2, "", '{"error": "UsageError", "message": '
                                   '"argument --n: invalid int value: \'x\'"}\n')]:
        proc = subprocess.run([sys.executable, "-m", "galois_arrow.cli", *argv.split()],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == code and proc.stdout.startswith(stdout), argv
        assert proc.stderr == stderr, argv


def _main_quietly(argvs: list[str]) -> str:
    """A statement that runs each argv through cli.main, stdout redirected."""
    return ("import galois_arrow.cli as c\n"
            f"for argv in {[argv.split() for argv in argvs]!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert c.main(argv) == 0")


def test_arrow_runs_load_only_the_arrow_modules():
    """Each of the benchmark's sweeps, run through main in a fresh
    interpreter, loads exactly the package, cli, driver, errors, the field
    with its polynomials, tables and --modulus reader, kernel and the
    renderer of its --output (for JSON, the document and the report text),
    and for the arc sweep the witnesses, and no json: the sweeps run on
    value triples, with no plane; the JSON sweep loads no CSV renderer and
    the CSV sweep no JSON renderer nor witnesses; the payloads module and
    json are for the other commands and for diagnostics."""
    for argv, extra in zip(BENCH_ARGVS, (("arrow_json", "report_text", "witnesses"),
                                          ("arrow_csv",))):
        loaded = sorted(("cli", "driver", "errors", "field", "kernel", "modulus", "polynomial",
                         "tables", *extra))
        want = ["galois_arrow", *(f"galois_arrow.{m}" for m in loaded)]
        assert _added_modules(_main_quietly([argv]),
                              "m.split('.')[0] in ('galois_arrow', 'json')",
                              preload=("contextlib", "io")) == f"{want}\n", argv


# The digests of single arc runs' stdout, recorded when the CLI normalized
# --linf and --lstar through plane.ProjLine; the second run's lines are not
# normalized as given.
SINGLE_ARC_DIGESTS = {
    "arrow --n 8 --mode arc":
        "1cd7619f95428710d492899acd953cdbc0c2e2f45c87e28ee1c7ce0ecad09335",
    "arrow --n 8 --mode arc --linf 2,4,6 --lstar 3,5,0":
        "18333d1fe17ed42c937c6d73e788aec9f3732bad54229a562416182e78412a07",
}


def test_single_arrow_runs_load_no_plane_module():
    """A single configuration normalizes its --linf and --lstar by
    kernel._normalized and checks them by kernel._check_line, so, run
    through main in a fresh interpreter, it loads no plane module, and
    prints the recorded bytes; a refused configuration given unnormalized
    names its lines normalized, as plane.ProjLine did."""
    runs = ("import hashlib\nimport galois_arrow.cli as c\n"
            f"for argv in {[argv.split() for argv in SINGLE_ARC_DIGESTS]!r}:\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        assert c.main(argv) == 0\n"
            "    print(hashlib.sha256(out.getvalue().encode()).hexdigest())")
    assert _added_modules(runs, "m == 'galois_arrow.plane'", preload=("contextlib", "io")
                          ).split("\n") == [*SINGLE_ARC_DIGESTS.values(), "[]", ""]
    code, out, err = _run("arrow --n 8 --mode arc --linf 2,4,6".split())
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "DegenerateContactPoint",
                               "message": "(1:8e:0) = (1:2:3) \u2227 (1:2:0) lies on a "
                                          "degenerate member"}


# Per argv, the most AST nodes the galois_arrow modules it loads may hold
# in all, and any one of them.  Without cached bytecode a run compiles every
# module it loads, and that compile time and memory are most of what the
# package adds to a gated sweep's wall time and peak RSS, the peak being
# set while the largest module compiles.  With the element API in
# field.py, both renderers in cli.py and, for a single run, the plane
# module loaded, these runs compiled 9,170, 9,170 and 11,002 nodes, and
# cli.py alone held 3,519; with field.py's polynomials and reference
# methods, kernel.py's plane-facing members and witness pass and cli.py's
# run driver and argparse reader in the modules they loaded, 7,866, 7,255
# and 7,866, and field.py held 2,480.  With the JSON renderer in one module
# of 1,161 nodes, compiled last, the arc runs' peak was set while it
# compiled; its document and its report text are two modules of at most
# JSON_RENDERER_BUDGET nodes each.  With field.py and kernel.py resolving
# and listing names that other modules define, these runs compiled 6,790,
# 5,485 and 6,884 nodes.
COMPILE_BUDGETS = [(BENCH_ARGVS[0], 6650), (BENCH_ARGVS[1], 5350),
                   ("arrow --n 8 --mode arc", 6750)]
MODULE_BUDGET = 1010
JSON_RENDERER = ("galois_arrow.arrow_json", "galois_arrow.report_text")
JSON_RENDERER_BUDGET = 650


def _ast_nodes(module: str) -> int:
    """The ast.walk node count of a galois_arrow module's source."""
    package = Path(cli.__file__).resolve().parent
    name = module.partition(".")[2] or "__init__"
    return sum(1 for _ in ast.walk(ast.parse((package / f"{name}.py").read_text())))


@pytest.mark.parametrize("argv, budget", COMPILE_BUDGETS, ids=[a for a, _ in COMPILE_BUDGETS])
def test_arrow_runs_compile_within_their_node_budgets(argv, budget):
    loaded = ast.literal_eval(_added_modules(_main_quietly([argv]),
                                             "m.split('.')[0] == 'galois_arrow'",
                                             preload=("contextlib", "io")))
    nodes = {module: _ast_nodes(module) for module in loaded}
    assert sum(nodes.values()) <= budget, nodes
    assert max(nodes.values()) <= MODULE_BUDGET, nodes
    assert all(nodes[m] <= JSON_RENDERER_BUDGET for m in JSON_RENDERER if m in nodes), nodes


# The functions a module these runs load may hold without entering them,
# each with its reason; any other function they load and never call is
# compiled for nothing.
NEVER_CALLED = {
    "__getattr__": "the package's PEP 562 hook, and FieldSpec's hook that binds the element "
                   "API onto it on first read",
    "__dir__": "the package's PEP 562 dir()",
    "__repr__": "FieldSpec's text for a prompt or a traceback",
    "__reduce__": "FieldSpec's copy and pickle support",
    "_emit_error": "the diagnostic line of a failed run",
}

_NEVER_ENTERED = """
import ast, contextlib, io, sys
entered = set()

def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))

sys.setprofile(profile)
import galois_arrow.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = galois_arrow.cli.main(sys.argv[1:])
sys.setprofile(None)
assert code == 0
never = []
for name, module in sorted(sys.modules.items()):
    if name.split(".")[0] != "galois_arrow":
        continue
    for node in ast.walk(ast.parse(open(module.__file__).read())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # a decorated function's code starts at its first decorator
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if (module.__file__, first, node.name) not in entered:
                never.append(f"{name}.{node.name}")
print(never)
"""


@pytest.mark.parametrize("argv", [*BENCH_ARGVS, "arrow --n 8 --mode arc"])
def test_arrow_runs_compile_no_function_they_never_call(argv):
    """Run through main in a fresh interpreter under sys.setprofile, each
    benchmark sweep and a single arc run enter every function of every
    galois_arrow module they load, but for the hooks, text forms and error
    path of NEVER_CALLED: each module loads only for the runs that call
    it."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", _NEVER_ENTERED, *argv.split()], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    never = ast.literal_eval(proc.stdout)
    assert [name for name in never if name.rpartition(".")[2] not in NEVER_CALLED] == []


_REPORT_TEXT_CALLS = """
import collections, contextlib, io, json, sys
import galois_arrow.cli
calls = collections.Counter()

def profile(frame, event, arg):
    if event == "call" and frame.f_back.f_code.co_name == "member_json":
        calls[frame.f_code.co_name] += 1

out = io.StringIO()
sys.setprofile(profile)
with contextlib.redirect_stdout(out):
    code = galois_arrow.cli.main(sys.argv[1:])
sys.setprofile(None)
assert code == 0
witnesses = [w for report in json.loads(out.getvalue())["reports"]
             for member in report["members"] for w in member["witnesses"]]
print([dict(calls), len(witnesses), len(set(witnesses))])
"""


def test_json_sweep_makes_each_point_text_in_python_once():
    """The JSON arc sweep at q = 16, run through main in a fresh interpreter
    under sys.setprofile: the Python calls report_text's member_json makes,
    but for the member heads, are one per distinct witness, when its point
    text is made; every later read of it is a dict hit, with no Python
    call per witness read."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", _REPORT_TEXT_CALLS, *BENCH_ARGVS[0].split()],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    calls, reads, distinct = ast.literal_eval(proc.stdout)
    assert reads > distinct
    calls.pop("_member_head")
    assert sum(calls.values()) == distinct, (calls, reads, distinct)


_CALLS_PER_ORDER = """
import contextlib, io, sys
import galois_arrow.cli
calls = 0

def profile(frame, event, arg):
    global calls
    if event == "call":
        calls += 1

def run(n):
    with contextlib.redirect_stdout(io.StringIO()):
        assert galois_arrow.cli.main([*sys.argv[1:], "--n", str(n)]) == 0

run(3)
counts = []
for n in (4, 6, 8):
    calls = 0
    sys.setprofile(profile)
    run(n)
    sys.setprofile(None)
    counts.append(calls)
print(counts)
"""


@pytest.mark.parametrize("argv", ["conic", "pencil", "pencil --output csv",
                                  "family --output csv"])
def test_conic_and_pencil_do_o_of_q_work(argv):
    """The Python calls of conic, pencil and the family's CSV at q = 16, 64
    and 256, counted under sys.setprofile in a fresh interpreter after a
    run at q = 8 has loaded the modules (each field's derived data lives on
    its own spec, so no count reads another's): each fourfold q at most
    multiplies them by 6, where O(q) work gives about 4
    and a plane scan, a tally of its lines or a build of the family's
    (q-1)(q+1) points about 16."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", _CALLS_PER_ORDER, *argv.split()], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    q16, q64, q256 = ast.literal_eval(proc.stdout)
    assert q64 / q16 < 6 and q256 / q64 < 6, (q16, q64, q256)


@pytest.mark.parametrize("argv", ["field-info --n 2", "plane --n 2", "conic --n 2",
                                  "pencil --n 2", "family --n 2"])
def test_other_commands_load_the_payloads_module(argv):
    assert _added_modules(_main_quietly([argv]), "m == 'galois_arrow.payloads'",
                          preload=("contextlib", "io")) == "['galois_arrow.payloads']\n"


def _records():
    """Per record type: two equal records built apart, and an unequal one."""
    gf8 = make_field(2, 3)
    census = members(time_pencil(gf8))
    families = [build_time_family(gf8, ProjLine(gf8, (1, 1, 1)), ProjLine(gf8, lstar))
                for lstar in ((1, 2, 0), (1, 2, 0), (1, 3, 0))]
    reports = [arc_arrow(family) for family in families]
    return {
        "Pencil": [time_pencil(gf8), time_pencil(gf8), time_pencil(make_field(2, 2))],
        "PencilMember": [census[1], PencilMember(*census[1]), census[2]],
        "Arc": [family.members[0] for family in families],
        "FamilyProvenance": [family.provenance for family in families],
        "ArcFamily": families,
        "MemberClassification": [
            next(c for c in r.classifications if c.temporal is TemporalClass.PRESENT)
            for r in reports],
        "ArrowReport": reports,
        "RunConfig": [cli.parse_args(argv.split())
                      for argv in ("arrow --n 3", "arrow --n 3", "arrow --n 4")],
    }


@pytest.mark.parametrize("name", ["Pencil", "PencilMember", "Arc", "FamilyProvenance",
                                  "ArcFamily", "MemberClassification", "ArrowReport",
                                  "RunConfig"])
def test_records_are_immutable_and_equal_by_value(name):
    record, again, other = _records()[name]
    assert type(record).__name__ == name
    assert record is not again and record == again and hash(record) == hash(again)
    assert record != other
    assert {record, again, other} == {record, other}
    field = getattr(record, "_fields", ("points",))[0]
    for name in (field, "unknown_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) == getattr(again, field)


def test_an_arc_is_not_a_one_field_tuple():
    gf8 = make_field(2, 3)
    arc = build_time_family(gf8, ProjLine(gf8, (1, 1, 1)), ProjLine(gf8, (1, 2, 0))).members[0]
    assert isinstance(arc, Arc) and not isinstance(arc, tuple)
    assert list(arc) == list(arc.points) and arc.size == 9
    assert all(p in arc for p in arc.points)
