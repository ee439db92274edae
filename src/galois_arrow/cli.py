"""Command-line surface.

Reports go to stdout, diagnostics to stderr as a single machine-parsable
JSON line.  Exit codes: 0 success, 2 rejected input or usage error, 3
internal invariant violation (never reachable from shipped defaults).

Output is byte-identical across runs for identical configurations.  The
arrow command runs one loop over ideal lines L-infinity, each with its
configurations (L-infinity, L*); a single configuration is the one-pair
case.  Each ideal line's reports are joined into one string and written
at once, as soon as that line is done, so a sweep holds one ideal line's
texts in memory, not all of its reports, and makes one write per ideal
line (the first also holding the opening, a JSON sweep one more for its
summary).  Members' CSV rows are rendered once per orbit of ideal lines
(kernel._orbit); JSON, which prints each line's own witnesses, classifies
and renders once per ideal line.  In arc mode one pass per ideal line,
kernel._arc_deltas, gives for every L* the member Q* through the contact
point, which goes from Past to Present, and its one remaining witness,
all as plane indices; that member is rendered anew and joined with the
others' texts, made once per ideal line, and the L*'s tail, made once per
run.  Reports are laid out once, as entries of a sweep; a single
configuration's one report is dedented to the top level.

The arrow command runs on the kernel module alone; the conic, pencil and
family payloads import their modules when they run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterator, NamedTuple

from .errors import (
    InvariantViolation,
    OddCharacteristic,
    OrderTooLarge,
    UsageError,
    ValidationError,
)
from .field import FieldSpec, field_order, make_field, parse_modulus
from .plane import ProjLine, _triple_values, build_plane
from .kernel import (_TEMPORAL_BY_HITS, TemporalClass, _arc_deltas, _degenerate_contact, _orbit,
                     _witnesses, time_pencil_context, validate_lines)

COMMANDS = ("field-info", "plane", "conic", "pencil", "family", "arrow")
_DESCRIPTION = (
    "Exact finite geometry over GF(p^n): the field, PG(2, q), the canonical conic, the time "
    "pencil, its arc family and their members' Past/Present/Future classes on an ideal line. "
    "Reports go to stdout; a failure prints one JSON line on stderr.  Exit codes: 0 success, "
    "2 rejected input or usage error, 3 internal invariant violation.")
_CSV_COMMANDS = ("pencil", "family", "arrow")
# The largest order at which the commands that scan or print the whole
# plane, and arrow sweeps, are accepted.  Their work grows as q^2 or
# faster; at q = 2^10 each of plane, conic, pencil and family takes at
# most about 8 s and 425 MiB on 2 cores.
_PLANE_MAX_ORDER = 1 << 10
_PLANE_COMMANDS = ("plane", "conic", "pencil", "family")


class RunConfig(NamedTuple):
    command: str
    p: int
    n: int
    modulus: tuple[int, ...] | None
    linf: tuple[int, int, int]
    lstar: tuple[int, int, int]
    mode: str                # "conic" | "arc" (arrow only)
    output: str              # "json" | "csv"
    exhaustive: bool


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="galois-arrow", description=_DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--p", type=int, default=2)
        cmd.add_argument("--n", type=int, default=1)
        cmd.add_argument("--modulus", type=str, default=None)
        cmd.add_argument("--output", choices=("json", "csv"), default="json")
        if name in ("family", "arrow"):
            cmd.add_argument("--linf", type=str, default=None)
            cmd.add_argument("--lstar", type=str, default=None)
        if name == "arrow":
            cmd.add_argument("--mode", choices=("conic", "arc"), default="conic")
            cmd.add_argument("--exhaustive", action="store_true")
    return parser


def _parse_triple(text: str, q: int) -> tuple[int, int, int]:
    try:
        parts = tuple(int(tok, 0) for tok in text.split(","))
    except ValueError as exc:
        raise UsageError(f"malformed coordinate triple {text!r}") from exc
    if len(parts) != 3:
        raise UsageError(f"expected three comma-separated coordinates, got {text!r}")
    if any(not 0 <= v < q for v in parts):
        raise UsageError(f"coordinates in {text!r} must lie in [0, {q})")
    if all(v == 0 for v in parts):
        raise UsageError("the zero triple is not a line")
    return parts


def parse_args(argv: list[str]) -> RunConfig:
    """Deterministic parse; invalid combinations raise UsageError."""
    ns = _build_parser().parse_args(argv)
    if ns.p < 2:
        raise UsageError(f"--p must be at least 2, got {ns.p}")
    if ns.n < 1:
        raise UsageError(f"--n must be at least 1, got {ns.n}")
    modulus = None
    if ns.modulus is not None:
        try:
            modulus = parse_modulus(ns.modulus, ns.p)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    if ns.command in ("family", "arrow") and ns.p != 2:
        raise UsageError(f"{ns.command} requires characteristic 2, got p={ns.p}")
    q = field_order(ns.p, ns.n)
    exhaustive = getattr(ns, "exhaustive", False)
    if q > _PLANE_MAX_ORDER and (ns.command in _PLANE_COMMANDS or exhaustive):
        what = "arrow --exhaustive" if exhaustive else ns.command
        raise OrderTooLarge(f"{what} at q = {q} exceeds its supported bound 2^10")
    mode = getattr(ns, "mode", "conic")
    if ns.command == "family" or (ns.command == "arrow" and mode == "arc"):
        if q < 4:
            raise UsageError(f"q={q} is unsupported for the arc family; need q >= 4")
    if ns.output == "csv" and ns.command not in _CSV_COMMANDS:
        raise UsageError(f"csv output is only available for {', '.join(_CSV_COMMANDS)}")

    linf_text = getattr(ns, "linf", None)
    lstar_text = getattr(ns, "lstar", None)
    if exhaustive and (linf_text is not None or lstar_text is not None):
        raise UsageError("--exhaustive sweeps every valid line and takes no --linf or --lstar")
    if ns.command == "arrow" and mode == "conic" and lstar_text is not None:
        raise UsageError("--lstar selects the arc family; --mode conic takes none")
    gen = ns.p if ns.n >= 2 else 1   # canonical generator value
    linf = _parse_triple(linf_text, q) if linf_text else (1, 1, 1)
    lstar = _parse_triple(lstar_text, q) if lstar_text else (1, gen, 0)
    return RunConfig(
        command=ns.command, p=ns.p, n=ns.n, modulus=modulus,
        linf=linf, lstar=lstar, mode=mode, output=ns.output,
        exhaustive=exhaustive,
    )


# --- per-command payload builders --------------------------------------------

def _payload_field_info(spec: FieldSpec) -> dict:
    payload = {
        "p": spec.characteristic,
        "n": spec.degree,
        "q": spec.order,
        "modulus": list(spec.modulus),
        "generator": str(spec.generator),
        "num_elements": spec.order,
    }
    if spec.characteristic == 2:
        payload["modulus_hex"] = hex(sum(c << i for i, c in enumerate(spec.modulus)))
    return payload


def _payload_plane(spec: FieldSpec) -> dict:
    plane = build_plane(spec)
    return {
        "q": spec.order,
        "num_points": len(plane.points),
        "num_lines": len(plane.lines),
        "points": [str(p) for p in plane.points],
        "lines": [str(l) for l in plane.lines],
    }


def _payload_conic(spec: FieldSpec) -> dict:
    from .conic import _nucleus_char2, canonical_conic, classify, point_set, tangent_lines
    plane = build_plane(spec)
    conic = canonical_conic(spec)
    tangents = tangent_lines(conic, plane)
    try:
        # the closed form; conic.nucleus would scan every line again
        nuc = str(_nucleus_char2(conic))
    except OddCharacteristic:
        nuc = None
    return {
        "q": spec.order,
        "coefficients": [str(c) for c in conic.coefficients],
        "class": str(classify(conic, plane)),
        "points": [str(p) for p in point_set(conic, plane)],
        "tangent_lines": [str(l) for l in tangents],
        "nucleus": nuc,
    }


def _payload_pencil(spec: FieldSpec) -> dict:
    from .pencil import common_nucleus, members, time_pencil
    ctx = time_pencil_context(spec)
    pencil = time_pencil(spec)
    fmt = spec.format
    payload = {
        "q": spec.order,
        # x1*x2 = x3^2 = 0 in plane order, for every q; pencil.base_points is the oracle
        "base_points": [str(ctx.B2), str(ctx.B1)],
        "members": [
            {
                "theta": [fmt(m.theta[0]), fmt(m.theta[1])],
                "conic": [str(c) for c in m.conic.coefficients],
                "class": str(m.degeneracy),
            }
            for m in members(pencil, ctx.plane)
        ],
    }
    if spec.characteristic == 2:
        payload["common_nucleus"] = str(common_nucleus(pencil, ctx.plane))
    return payload


def _payload_family(spec: FieldSpec, config: RunConfig) -> dict:
    from .arc import build_time_family, family_to_dict
    linf, lstar = ProjLine(spec, config.linf), ProjLine(spec, config.lstar)
    return family_to_dict(build_time_family(spec, linf, lstar))


# --- arrow reports, streamed ------------------------------------------------

def _arrow_reports(spec: FieldSpec, config: RunConfig, rejected: list[tuple[ProjLine, ProjLine]]
                   ) -> Iterator[tuple[ProjLine, tuple[tuple[int, ...], ...] | None,
                                       list[tuple[ProjLine | None, tuple[int, int] | None]]]]:
    """Per L-infinity of the run, one at a time: the line, its members'
    witnesses as plane indices (kernel._witnesses; None in a conic CSV run,
    whose rows come from the line's orbit) and its configurations (L*,
    delta), one per report.  A delta (position, witness) is the member in
    which the report differs from the line's conic classification: Q*,
    Present with that one witness.  In conic mode the one configuration is
    (None, None); in arc mode there is one per L*, from the line's one
    pass, kernel._arc_deltas.  A single run is the one-pair case.  Arc
    configurations whose contact point lies on a degenerate member are
    appended to rejected during a sweep; a single run raises
    DegenerateContactPoint."""
    ctx = time_pencil_context(spec)
    arc = config.mode == "arc"
    if config.exhaustive:
        linfs = ctx.valid_ideal_lines()
        lstars = ctx.valid_tangent_lines() if arc else ()
    else:
        linfs = (ProjLine(spec, config.linf),)
        lstars = (ProjLine(spec, config.lstar),) if arc else ()
    validate_lines(ctx, linfs, lstars)
    lstar_as = [lstar.values[1] for lstar in lstars]   # each L* is (1 : a : 0)
    for linf in linfs:
        witnesses = _witnesses(ctx, linf) if arc or config.output == "json" else None
        if not arc:
            yield linf, witnesses, [(None, None)]
            continue
        configurations = []
        for lstar, delta in zip(lstars, _arc_deltas(ctx, linf, lstar_as, witnesses)):
            if delta is not None:
                configurations.append((lstar, delta))
            elif config.exhaustive:
                rejected.append((linf, lstar))
            else:
                raise _degenerate_contact(ctx, linf, lstar)
        yield linf, witnesses, configurations


def _json_block(items: list[str], pad: str, brackets: str = "[]") -> str:
    """A list or dict laid out as json.dumps(..., indent=2) lays it out,
    from its rendered items (each starting with its own newline and
    indentation); pad is the indentation of the closing bracket."""
    if not items:
        return brackets
    return brackets[0] + ",".join(items) + "\n" + pad + brackets[1]


class _ReportText:
    """Text of arrow reports: JSON byte-equal to json.dumps of
    ArrowReport.to_dict with indent=2, laid out as an entry of a sweep's
    "reports" list (every line after the first indented four spaces), or
    CSV rows.  Every string in a report is hex or decimal digits, (a:b:c)
    or a class name, so nothing needs escaping.  A report's text is its
    head, its members' texts and its tail; the callers make the members'
    texts once per ideal line (CSV rows once per orbit).  Point strings,
    L* tails and each member's id and theta text are built on first use
    and reused for the run."""

    def __init__(self, spec: FieldSpec):
        self._fmt = spec.format
        self._q = spec.order
        self._triples: dict[tuple[int, int, int], str] = {}
        self._points: dict[int, str] = {}
        self._json_heads: dict[tuple, str] = {}
        self._json_tails: dict[tuple[int, int, int] | None, str] = {}
        self._csv_rows: dict[tuple, str] = {}
        self._classes = [temporal.value for temporal in _TEMPORAL_BY_HITS]

    def triple(self, values: tuple[int, int, int]) -> str:
        text = self._triples.get(values)
        if text is None:
            text = self._triples[values] = "(" + ":".join(map(self._fmt, values)) + ")"
        return text

    def point(self, index: int) -> str:
        """The text of the plane point at index, made from its values."""
        text = self._points[index] = self.triple(_triple_values(self._q, index))
        return text

    def json_head(self, q: int, mode: str, linf: ProjLine, tallies: tuple[int, int, int]) -> str:
        """The report's text up to the opening bracket of its members (every
        report has a member: a proper pencil member exists for q >= 2)."""
        past, present, future = tallies
        return (
            f'{{\n      "q": {q},\n      "mode": "{mode}",\n'
            f'      "ideal_line": "{self.triple(linf.values)}",\n'
            f'      "tallies": {{\n        "past": {past},\n'
            f'        "present": {present},\n'
            f'        "future": {future}\n      }},\n'
            f'      "members": [')

    def json_tail(self, lstar: ProjLine | None) -> str:
        """The report's text after its last member."""
        key = lstar.values if lstar else None
        text = self._json_tails.get(key)
        if text is None:
            tail = f',\n      "lstar": "{self.triple(key)}"' if lstar else ""
            text = self._json_tails[key] = f"\n      ]{tail}\n    }}"
        return text

    def member_json(self, member_id: int, theta: tuple[int, int], witnesses: tuple[int, ...]
                    ) -> str:
        """The member's text, classed by its number of witnesses on the
        ideal line, given as plane indices."""
        key = (member_id, theta)
        head = self._json_heads.get(key)
        if head is None:
            fmt = self._fmt
            head = self._json_heads[key] = (
                f'\n        {{\n          "id": {member_id},\n          "theta": [\n'
                f'            "{fmt(theta[0])}",\n            "{fmt(theta[1])}"\n'
                f'          ],\n          "class": "')
        texts = self._points
        # _json_block inlined: this runs once per member of every ideal line
        listed = ('[\n            "'
                  + '",\n            "'.join([texts[i] if i in texts else self.point(i)
                                               for i in witnesses])
                  + '"\n          ]') if witnesses else "[]"
        return (f'{head}{self._classes[len(witnesses)]}",\n'
                f'          "witnesses": {listed}\n        }}')

    def member_csv(self, member_id: int, theta: tuple[int, int], temporal: TemporalClass) -> str:
        """The member's row after the configuration columns: id,theta,class;
        one string per (member, class), shared by every orbit's rows."""
        key = (member_id, theta, temporal)
        row = self._csv_rows.get(key)
        if row is None:
            fmt = self._fmt
            row = self._csv_rows[key] = f"{member_id},{fmt(theta[0])}:{fmt(theta[1])},{temporal}"
        return row


def _arrow_json(spec: FieldSpec, config: RunConfig) -> Iterator[str]:
    """One chunk per ideal line, holding its reports, then the summary."""
    ctx = time_pencil_context(spec)
    text = _ReportText(spec)
    rejected: list[tuple[ProjLine, ProjLine]] = []
    # the opening goes out with the first ideal line's reports, so that a
    # run refused before them prints nothing
    opening = (f'{{\n  "q": {spec.order},\n  "mode": "{config.mode}",\n'
               f'  "exhaustive": true,\n  "reports": [')
    separator = opening + "\n    " if config.exhaustive else ""
    distribution: dict[str, int] = {}
    for linf, witnesses, configurations in _arrow_reports(spec, config, rejected):
        future = witnesses.count(())
        tallies = (len(witnesses) - future, 0, future)
        if config.mode == "arc":   # Q* goes from Past to Present in every report of the line
            tallies = (tallies[0] - 1, 1, future)
        head = text.json_head(spec.order, config.mode, linf, tallies)
        # the members' texts with commas between them, member i at 2i; a
        # report takes them by reference, so the line's texts are copied
        # once, into its chunk
        members = [","] * (2 * len(witnesses) - 1)
        members[::2] = map(text.member_json, ctx.ids, ctx.thetas, witnesses)
        pieces = []
        for lstar, delta in configurations:
            pieces += (separator, head)
            if delta is None:
                pieces += members
            else:
                i, witness = delta
                pieces += members[:2 * i]
                pieces.append(text.member_json(ctx.ids[i], ctx.thetas[i], (witness,)))
                pieces += members[2 * i + 1:]
            pieces.append(text.json_tail(lstar))
            separator = ",\n    "
        if not config.exhaustive:
            # the one report stands at the top level, not inside "reports"
            yield "".join(pieces).replace("\n    ", "\n") + "\n"
            return
        key = "%d:%d:%d" % tallies
        distribution[key] = distribution.get(key, 0) + len(configurations)
        yield "".join(pieces)
    triple = text.triple
    entries = [f'\n    {{\n      "linf": "{triple(linf.values)}",\n'
               f'      "lstar": "{triple(lstar.values)}",\n'
               f'      "rejected": "DegenerateContactPoint"\n    }}'
               for linf, lstar in rejected]
    counts = [f'\n      "{key}": {distribution[key]}' for key in sorted(distribution)]
    valid = sum(distribution.values())
    yield ("\n  ]" if distribution else opening + "]") + (
        f',\n  "rejected": {_json_block(entries, "  ")},\n  "summary": {{\n'
        f'    "total_configurations": {valid + len(rejected)},\n'
        f'    "valid": {valid},\n    "rejected": {len(rejected)},\n'
        f'    "tally_distribution": {_json_block(counts, "    ", "{}")}\n  }}\n}}\n')


def _arrow_csv(spec: FieldSpec, config: RunConfig) -> Iterator[str]:
    """One chunk per ideal line, holding its rows, the header with the first."""
    text = _ReportText(spec)
    ctx = time_pencil_context(spec)
    header = f"q,mode,{'linf,lstar,' if config.exhaustive else ''}member_id,theta,class\n"
    lead = f"{spec.order},{config.mode},"
    rows_by_orbit: dict[int, list[str]] = {}
    for linf, _, configurations in _arrow_reports(spec, config, []):
        u, ys = _orbit(ctx, linf)
        rows = rows_by_orbit.get(u)
        if rows is None:   # a member with no root y is Future, as in kernel._witnesses
            classes = [TemporalClass.FUTURE if y is None else TemporalClass.PAST for y in ys]
            rows = rows_by_orbit[u] = list(map(text.member_csv, ctx.ids, ctx.thetas, classes))
        pieces = [header]
        for lstar, delta in configurations:
            prefix = lead
            if config.exhaustive:
                prefix += f"{text.triple(linf.values)},{text.triple(lstar.values) if lstar else ''},"
            if delta is not None:   # Q* is Present in this report only
                i = delta[0]
                kept, rows[i] = rows[i], text.member_csv(ctx.ids[i], ctx.thetas[i],
                                                         TemporalClass.PRESENT)
            pieces += (prefix, ("\n" + prefix).join(rows), "\n")
            if delta is not None:
                rows[i] = kept
        header = ""
        yield "".join(pieces)
    if header:   # a run with no report prints the header alone
        yield header


# --- CSV flattening (pencil, family) -------------------------------------------

def _csv_lines(config: RunConfig, payload: dict) -> list[str]:
    if config.command == "pencil":
        lines = ["q,member_id,theta,class"]
        for i, m in enumerate(payload["members"]):
            lines.append(f"{payload['q']},{i},{m['theta'][0]}:{m['theta'][1]},{m['class']}")
        return lines
    lines = ["q,member_id,theta,size,is_conic"]
    for i, m in enumerate(payload["members"]):
        lines.append(f"{payload['q']},{i},{m['theta'][0]}:{m['theta'][1]},"
                     f"{len(m['points'])},{str(m['is_conic']).lower()}")
    return lines


# --- driver ---------------------------------------------------------------------

def _execute(config: RunConfig) -> Iterator[str]:
    """The command's stdout, in chunks; an arrow run yields one per report."""
    spec = make_field(config.p, config.n, config.modulus)
    if config.command == "arrow":
        if config.output == "csv":
            yield from _arrow_csv(spec, config)
        else:
            yield from _arrow_json(spec, config)
        return
    if config.command == "family":
        payload = _payload_family(spec, config)
    else:
        payload = {"field-info": _payload_field_info, "plane": _payload_plane,
                   "conic": _payload_conic, "pencil": _payload_pencil}[config.command](spec)
    if config.output == "csv":
        yield "\n".join(_csv_lines(config, payload)) + "\n"
    else:
        yield json.dumps(payload, indent=2) + "\n"


def _emit_error(exc: Exception) -> None:
    line = json.dumps({"error": type(exc).__name__, "message": str(exc)})
    print(line, file=sys.stderr)


def run(config: RunConfig) -> int:
    """Execute one command; report on stdout, exit code returned.

    Output is written as it is produced, so after exit 3 stdout may hold
    a truncated report."""
    try:
        for chunk in _execute(config):
            sys.stdout.write(chunk)
        sys.stdout.flush()
    except InvariantViolation as exc:
        _emit_error(exc)
        return 3
    except ValidationError as exc:
        _emit_error(exc)
        return 2
    except BrokenPipeError:
        # the reader has closed stdout (as `| head` does): what it did not
        # read is dropped, and stdout points at devnull so that the flush at
        # interpreter exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
    except (UsageError, OrderTooLarge) as exc:
        _emit_error(exc)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
