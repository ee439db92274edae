"""Command-line surface: parsing, payloads, exit codes, output formats,
and the streamed arrow output against its to_dict oracle."""

import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from galois_arrow.errors import (
    ArcDeltaMismatch,
    DegenerateContactPoint,
    InvariantViolation,
    UsageError,
)
from galois_arrow import cli
from galois_arrow import plane as plane_module
from galois_arrow.arc import Arc, build_time_family
from galois_arrow.arrow import arc_arrow, classify_member, conic_arrow
from galois_arrow.field import make_field
from galois_arrow.kernel import TemporalClass, _arc_deltas, _witnesses, time_pencil_context
from galois_arrow.pencil import PencilMember, members, time_pencil
from galois_arrow.plane import ProjLine, _line_hits, _triple_index


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


def test_run_conic_scans_the_lines_for_tangents_once(monkeypatch):
    """The nucleus comes from the closed form, not from a second scan of
    every line through conic.nucleus.  The payload builder imports
    conic.tangent_lines when it runs, so it calls the patched one."""
    from galois_arrow import conic
    tangent_lines, calls = conic.tangent_lines, []

    def counting(*args):
        calls.append(args)
        return tangent_lines(*args)

    monkeypatch.setattr(conic, "tangent_lines", counting)
    code, out, _ = _run(["conic", "--n", "3"])
    assert code == 0 and json.loads(out)["nucleus"] == "(0:0:1)"
    assert len(calls) == 1


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
    monkeypatch.setattr(cli, "_execute", boom)
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
])
def test_rejected_input_follows_the_exit_code_contract(argv, error):
    code, out, err = _run(argv)   # an exception escaping main is a traceback
    assert code in (0, 2, 3) and not out
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
    ctx = time_pencil_context(spec)
    reports, rejected = [], []
    if config.mode == "conic":
        reports = [conic_arrow(spec, linf).to_dict() for linf in ctx.valid_ideal_lines()]
    else:
        for linf in ctx.valid_ideal_lines():
            for lstar in ctx.valid_tangent_lines():
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


@pytest.mark.parametrize("field", ["--n 2", "--n 3", "--n 3 --modulus 0xd", "--n 4"])
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


def test_first_report_is_written_before_the_last_configuration_is_built(monkeypatch):
    out, lengths = io.StringIO(), []

    def recording(*args):
        deltas = _arc_deltas(*args)   # one pass per ideal line, one entry per L*
        lengths.extend([len(out.getvalue())] * len(deltas))
        return deltas

    monkeypatch.setattr(cli, "_arc_deltas", recording)
    with redirect_stdout(out):
        code = cli.main(["arrow", "--n", "2", "--mode", "arc", "--exhaustive"])
    assert code == 0 and len(lengths) == 27
    assert 0 < lengths[-1] < len(out.getvalue())


def test_invariant_violation_mid_sweep_exits_3(monkeypatch):
    built = []

    def second_fails(*args):
        built.append(args)
        if len(built) == 2:
            raise InvariantViolation("forced on the second ideal line")
        return _arc_deltas(*args)

    monkeypatch.setattr(cli, "_arc_deltas", second_fails)
    code, out, err = _run(["arrow", "--n", "2", "--mode", "arc", "--exhaustive"])
    assert code == 3 and out   # the reports before it were already written
    lines = err.splitlines()
    assert len(lines) == 1 and "Traceback" not in err
    assert json.loads(lines[0])["error"] == "InvariantViolation"


class _CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("output", ["json", "csv"])
def test_arc_sweep_writes_once_per_ideal_line(output):
    """Each valid ideal line's reports go out in one write: at q = 8, 49
    writes, the first also holding the opening (the JSON head or the CSV
    header), and in JSON one more for the closing summary; not one per
    configuration."""
    out = _CountingStdout()
    with redirect_stdout(out):
        code = cli.main(["arrow", "--n", "3", "--mode", "arc", "--exhaustive",
                         "--output", output])
    assert code == 0
    assert out.writes == 7 * 7 + (1 if output == "json" else 0)
    assert out.getvalue() == _oracle_stdout(
        ["arrow", "--n", "3", "--mode", "arc", "--exhaustive", "--output", output])


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
    ctx = time_pencil_context(spec)
    for linf in ctx.valid_ideal_lines():
        for lstar in ctx.valid_tangent_lines():
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


def _future(witnesses, ctx):
    return [() for _ in witnesses]


def _past_without_the_contact_point(witnesses, ctx):
    # B2 and N lie on no valid ideal line, so neither is a contact point
    others = tuple(_triple_index(ctx.spec.order, p.values) for p in (ctx.B2, ctx.N))
    return [others if hits else hits for hits in witnesses]


@pytest.mark.parametrize("change", [_future, _past_without_the_contact_point])
@pytest.mark.parametrize("argv", ["arrow --n 2 --mode arc --exhaustive",
                                  "arrow --n 3 --mode arc --output csv"])
def test_qstar_not_past_with_the_contact_point_exits_3(monkeypatch, change, argv):
    """The arc reports rely on Q* being Past with the contact point as a
    witness; a classification that breaks this stops the run with exit 3."""
    def changed(ctx, linf):
        return tuple(change(_witnesses(ctx, linf), ctx))

    monkeypatch.setattr(cli, "_witnesses", changed)
    code, out, err = _run(argv.split())
    assert code == 3 and not out
    lines = err.splitlines()
    assert len(lines) == 1 and "Traceback" not in err
    assert json.loads(lines[0])["error"] == "ArcDeltaMismatch"
    assert issubclass(ArcDeltaMismatch, InvariantViolation)


def test_closed_stdout_exits_0_quietly():
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "galois_arrow.cli", "arrow", "--n", "4",
         "--mode", "arc", "--exhaustive"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 0
    assert len(head) == 100
    assert err == b"" and b"Traceback" not in err


@pytest.mark.parametrize("mode, tallies", [("conic", [511, 0, 512]), ("arc", [510, 1, 512])],
                         ids=["conic", "arc"])
def test_single_arrow_run_reads_o_of_q_plane_items(monkeypatch, mode, tallies):
    """A single arrow run at q = 1024 reads a few plane items per member,
    not the q^2 + q + 1 of a plane scan.  Every item made from its
    position (_triple_values) and every item of a scan (_triples) counts,
    in whichever module calls it."""
    read = [0]
    originals = {name: getattr(plane_module, name) for name in ("_triple_values", "_triples")}

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


def _added_modules(statement: str, watched: str) -> str:
    """The stdout of a fresh interpreter that runs statement after argparse
    and json are loaded and prints, sorted, the modules it added that pass
    the filter expression watched (over the module name m)."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, argparse, json\n"
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
    # the arrow command runs on the kernel alone
    ("import galois_arrow.cli",
     ["cli", "errors", "field", "kernel", "plane"]),
    # the benchmark's set-up child: the field and the time-pencil context
    ("from galois_arrow import make_field, parse_modulus, time_pencil_context",
     ["errors", "field", "kernel", "plane"]),
])
def test_imports_load_only_the_modules_they_run(statement, loaded):
    """The package resolves its names lazily and the CLI imports the
    census (pencil), conic and arc modules only in the commands that use
    them, so neither import loads them."""
    want = ["galois_arrow", *(f"galois_arrow.{m}" for m in loaded)]
    assert _added_modules(statement, "m.startswith('galois_arrow')") == f"{want}\n"


def _records():
    """Per record type: two equal records built apart, and an unequal one."""
    gf8 = make_field(2, 3)
    ctx = time_pencil_context(gf8)
    census = members(time_pencil(ctx.spec), ctx.plane)
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
