"""Command-line surface.

Reports go to stdout, diagnostics to stderr as a single machine-parsable
JSON line.  Exit codes: 0 success, 2 rejected input or usage error, 3
internal invariant violation (never reachable from shipped defaults).

Output is byte-identical across runs for identical configurations.  The
arrow command runs one loop over ideal lines L-infinity, each with its
configurations (L-infinity, L*); a single configuration is the one-pair
case.  Each ideal line's reports are joined into one string and written
as soon as that line is done.  CSV rows are rendered once per orbit of
ideal lines (kernel._orbit), JSON members once per ideal line; in arc
mode, per L*, only the member Q* through the contact point is rendered
anew (kernel._arc_deltas).  Each member's text, but for its witness
points, is made once per run.  A single configuration's report is laid
out as a sweep's entry and dedented to the top level.

The arrow command runs on the kernel module alone, on lines as value
triples; only a single run loads the plane module, to normalize its
--linf and --lstar.  The other commands' payloads live in the payloads
module, imported only when they run.  argv in plain form, a command and
then options by their full flags, is read without argparse, from the
table of options argparse is built from; help and any other argv go to
argparse, which is imported only then.
"""

from __future__ import annotations

import os
import sys
from typing import Iterator, NamedTuple

from .errors import (
    InvariantViolation,
    OrderTooLarge,
    UsageError,
    ValidationError,
)
from .field import FieldSpec, field_order, make_field, parse_modulus
from .kernel import (_TEMPORAL_BY_HITS, TimePencilContext, Values, _arc_deltas,
                     _degenerate_contact, _orbit, _triple_values, _valid_lines, _witnesses,
                     time_pencil_context, validate_lines)

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


# Each option of the commands: its flag, its value type (bool for a flag
# that takes no value), default and choices, and the commands that take it.
# The plain-argv reader and argparse are both built from it.
_OPTIONS = (
    ("--p", int, 2, None, COMMANDS),
    ("--n", int, 1, None, COMMANDS),
    ("--modulus", str, None, None, COMMANDS),
    ("--output", str, "json", ("json", "csv"), COMMANDS),
    ("--linf", str, None, None, ("family", "arrow")),
    ("--lstar", str, None, None, ("family", "arrow")),
    ("--mode", str, "conic", ("conic", "arc"), ("arrow",)),
    ("--exhaustive", bool, False, None, ("arrow",)),
)


def _build_parser():
    """The argparse parser: the reference for every argv, and the only
    reader of help requests and of argv that is not in plain form."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise UsageError(message)

    parser = _Parser(prog="galois-arrow", description=_DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        for flag, kind, default, choices, commands in _OPTIONS:
            if name not in commands:
                continue
            if kind is bool:
                cmd.add_argument(flag, action="store_true")
            else:
                cmd.add_argument(flag, type=kind, default=default, choices=choices)
    return parser


def _plain_args(argv: list[str]) -> dict | None:
    """vars() of the namespace argparse makes from argv, when argv is in
    plain form: a command, then options by their full flags, each but
    --exhaustive followed by a value that does not start with "-", that
    int() reads where an int is due and that is one of the choices where
    there are choices.  None for any other argv (help, abbreviations,
    --flag=value, "--", stray tokens, values argparse rejects), which
    argparse reads."""
    if not argv or argv[0] not in COMMANDS:
        return None
    options = {flag: (kind, default, choices) for flag, kind, default, choices, commands
               in _OPTIONS if argv[0] in commands}
    values = {"command": argv[0]}
    values.update((flag[2:], default) for flag, (_, default, _) in options.items())
    tokens = iter(argv[1:])
    for flag in tokens:
        if flag not in options:
            return None
        kind, _, choices = options[flag]
        if kind is bool:
            values[flag[2:]] = True
            continue
        value = next(tokens, "-")   # a missing value is left to argparse
        if value.startswith("-") or (choices and value not in choices):
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        values[flag[2:]] = value
    return values


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
    """Deterministic parse; invalid combinations raise UsageError.  argv
    in plain form is read without argparse, which reads any other."""
    args = _plain_args(argv)
    if args is None:
        args = vars(_build_parser().parse_args(argv))
    command, p, n = args["command"], args["p"], args["n"]
    if p < 2:
        raise UsageError(f"--p must be at least 2, got {p}")
    if n < 1:
        raise UsageError(f"--n must be at least 1, got {n}")
    modulus = None
    if args["modulus"] is not None:
        try:
            modulus = parse_modulus(args["modulus"], p)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    if command in ("family", "arrow") and p != 2:
        raise UsageError(f"{command} requires characteristic 2, got p={p}")
    q = field_order(p, n)
    exhaustive = args.get("exhaustive", False)
    if q > _PLANE_MAX_ORDER and (command in _PLANE_COMMANDS or exhaustive):
        what = "arrow --exhaustive" if exhaustive else command
        raise OrderTooLarge(f"{what} at q = {q} exceeds its supported bound 2^10")
    mode = args.get("mode", "conic")
    if command == "family" or (command == "arrow" and mode == "arc"):
        if q < 4:
            raise UsageError(f"q={q} is unsupported for the arc family; need q >= 4")
    if args["output"] == "csv" and command not in _CSV_COMMANDS:
        raise UsageError(f"csv output is only available for {', '.join(_CSV_COMMANDS)}")

    linf_text = args.get("linf")
    lstar_text = args.get("lstar")
    if exhaustive and (linf_text is not None or lstar_text is not None):
        raise UsageError("--exhaustive sweeps every valid line and takes no --linf or --lstar")
    if command == "arrow" and mode == "conic" and lstar_text is not None:
        raise UsageError("--lstar selects the arc family; --mode conic takes none")
    gen = p if n >= 2 else 1   # canonical generator value
    linf = _parse_triple(linf_text, q) if linf_text else (1, 1, 1)
    lstar = _parse_triple(lstar_text, q) if lstar_text else (1, gen, 0)
    return RunConfig(
        command=command, p=p, n=n, modulus=modulus,
        linf=linf, lstar=lstar, mode=mode, output=args["output"],
        exhaustive=exhaustive,
    )


# --- arrow reports, streamed ------------------------------------------------

def _arrow_reports(spec: FieldSpec, config: RunConfig, rejected: list[tuple[Values, int]]
                   ) -> Iterator[tuple[Values, tuple[tuple[int, ...], ...] | None,
                                       list[tuple[int | None, tuple[int, int] | None]]]]:
    """Per L-infinity = (1 : b : c) of the run, one at a time: its values,
    its members' witnesses as plane indices (kernel._witnesses; None in a
    conic CSV run, whose rows come from the line's orbit) and its
    configurations (a, delta), L* = (1 : a : 0), one per report.  A delta
    (position, witness) is the member in which the report differs from the
    line's conic classification: Q*, Present with that one witness.  In
    conic mode the one configuration is (None, None); in arc mode there is
    one per L*, from the line's one pass, kernel._arc_deltas.  A single run
    is the one-pair case.  Arc configurations whose contact point lies on a
    degenerate member are appended to rejected during a sweep; a single run
    raises DegenerateContactPoint."""
    ctx = time_pencil_context(spec)
    arc = config.mode == "arc"
    if config.exhaustive:
        linfs, lstar_as = _valid_lines(spec.order)
    else:
        from .plane import ProjLine
        linf = ProjLine(spec, config.linf)
        lstars = (ProjLine(spec, config.lstar),) if arc else ()
        validate_lines(ctx, (linf,), lstars)
        linfs, lstar_as = (linf.values,), [lstar.values[1] for lstar in lstars]
    for linf in linfs:
        witnesses = _witnesses(ctx, linf) if arc or config.output == "json" else None
        if not arc:
            yield linf, witnesses, [(None, None)]
            continue
        configurations = []
        for a, delta in zip(lstar_as, _arc_deltas(ctx, linf, lstar_as, witnesses)):
            if delta is not None:
                configurations.append((a, delta))
            elif config.exhaustive:
                rejected.append((linf, a))
            else:
                raise _degenerate_contact(spec, linf, a)
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
    texts once per ideal line (CSV rows once per orbit).  Made on first use
    and kept for the run: a Future member's whole text, a Past or Present
    member's text up to its first witness, point texts, L* tails and CSV
    rows.  Point and line texts are made from the q coordinate strings."""

    def __init__(self, ctx: TimePencilContext):
        spec = ctx.spec
        self._q = spec.order
        self.coords = [spec.format(v) for v in range(spec.order)]
        self._ids = ctx.ids
        self._thetas = ctx.thetas
        self._points: dict[int, str] = {}
        # per number of witnesses (Future, Present, Past), per member position
        self._member_heads: list[list[str | None]] = [[None] * len(ctx.ids) for _ in range(3)]
        self._json_tails: dict[int | None, str] = {}
        self._csv_rows: list[list[str | None]] = [[None] * len(ctx.ids) for _ in range(3)]

    def triple(self, values: Values) -> str:
        coords = self.coords
        return "(" + ":".join([coords[v] for v in values]) + ")"

    def point(self, index: int) -> str:
        """The text of the plane point at index, made from its values."""
        text = self._points[index] = self.triple(_triple_values(self._q, index))
        return text

    def json_head(self, q: int, mode: str, linf: Values, tallies: tuple[int, int, int]) -> str:
        """The report's text up to the opening bracket of its members (every
        report has a member: a proper pencil member exists for q >= 2)."""
        past, present, future = tallies
        return (
            f'{{\n      "q": {q},\n      "mode": "{mode}",\n'
            f'      "ideal_line": "{self.triple(linf)}",\n'
            f'      "tallies": {{\n        "past": {past},\n'
            f'        "present": {present},\n'
            f'        "future": {future}\n      }},\n'
            f'      "members": [')

    def json_tail(self, a: int | None) -> str:
        """The report's text after its last member, L* = (1 : a : 0) in an
        arc report."""
        text = self._json_tails.get(a)
        if text is None:
            tail = f',\n      "lstar": "{self.triple((1, a, 0))}"' if a else ""
            text = self._json_tails[a] = f"\n      ]{tail}\n    }}"
        return text

    def _member_head(self, i: int, hits: int) -> str:
        """The text of the member at position i with hits witnesses, up to
        its first witness; the whole text for a Future member."""
        t1, t2 = self._thetas[i]
        head = (f'\n        {{\n          "id": {self._ids[i]},\n          "theta": [\n'
                f'            "{self.coords[t1]}",\n            "{self.coords[t2]}"\n'
                f'          ],\n          "class": "{_TEMPORAL_BY_HITS[hits].value}",\n'
                f'          "witnesses": ' + ('[\n            "' if hits else '[]\n        }'))
        self._member_heads[hits][i] = head
        return head

    def member_json(self, i: int, witnesses: tuple[int, ...]) -> str:
        """The text of the proper member at position i, classed by its
        number of witnesses on the ideal line, given as plane indices."""
        head = self._member_heads[len(witnesses)][i] or self._member_head(i, len(witnesses))
        if not witnesses:
            return head
        # _json_block inlined: this runs once per member of every ideal line
        points = self._points
        a = witnesses[0]
        text = head + (points[a] if a in points else self.point(a))
        if len(witnesses) == 2:   # Past; Present has one witness
            b = witnesses[1]
            text += '",\n            "' + (points[b] if b in points else self.point(b))
        return text + '"\n          ]\n        }'

    def member_csv(self, i: int, hits: int) -> str:
        """The row of the member at position i with hits witnesses, after
        the configuration columns: id,theta,class and the newline; one
        string per (member, class), shared by every orbit's rows."""
        row = self._csv_rows[hits][i]
        if row is None:
            t1, t2 = self._thetas[i]
            row = self._csv_rows[hits][i] = (
                f"{self._ids[i]},{self.coords[t1]}:{self.coords[t2]},"
                f"{_TEMPORAL_BY_HITS[hits].value}\n")
        return row


def _arrow_json(spec: FieldSpec, config: RunConfig) -> Iterator[str]:
    """One chunk per ideal line, holding its reports, then the summary."""
    ctx = time_pencil_context(spec)
    text = _ReportText(ctx)
    rejected: list[tuple[Values, int]] = []
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
        members[::2] = map(text.member_json, range(len(witnesses)), witnesses)
        pieces = []
        for a, delta in configurations:
            pieces += (separator, head)
            pieces += members
            if delta is not None:   # Q* is member i of the members just added
                i, witness = delta
                pieces[2 * i - len(members)] = text.member_json(i, (witness,))
            pieces.append(text.json_tail(a))
            separator = ",\n    "
        if not config.exhaustive:
            # the one report stands at the top level, not inside "reports"
            yield "".join(pieces).replace("\n    ", "\n") + "\n"
            return
        key = "%d:%d:%d" % tallies
        distribution[key] = distribution.get(key, 0) + len(configurations)
        yield "".join(pieces)
    triple = text.triple
    entries = [f'\n    {{\n      "linf": "{triple(linf)}",\n'
               f'      "lstar": "{triple((1, a, 0))}",\n'
               f'      "rejected": "DegenerateContactPoint"\n    }}'
               for linf, a in rejected]
    counts = [f'\n      "{key}": {distribution[key]}' for key in sorted(distribution)]
    valid = sum(distribution.values())
    yield ("\n  ]" if distribution else opening + "]") + (
        f',\n  "rejected": {_json_block(entries, "  ")},\n  "summary": {{\n'
        f'    "total_configurations": {valid + len(rejected)},\n'
        f'    "valid": {valid},\n    "rejected": {len(rejected)},\n'
        f'    "tally_distribution": {_json_block(counts, "    ", "{}")}\n  }}\n}}\n')


def _arrow_csv(spec: FieldSpec, config: RunConfig) -> Iterator[str]:
    """One chunk per ideal line, holding its rows, the header with the first."""
    ctx = time_pencil_context(spec)
    text = _ReportText(ctx)
    coords = text.coords
    header = f"q,mode,{'linf,lstar,' if config.exhaustive else ''}member_id,theta,class\n"
    lead = f"{spec.order},{config.mode},"
    # per orbit, "" and the members' rows: prefix.join(rows) prefixes each
    rows_by_orbit: dict[int, list[str]] = {}
    for linf, _, configurations in _arrow_reports(spec, config, []):
        u, ys = _orbit(ctx, linf)
        rows = rows_by_orbit.get(u)
        if rows is None:   # a member with no root y is Future, as in kernel._witnesses
            hits = [0 if y is None else 2 for y in ys]
            rows = rows_by_orbit[u] = ["", *map(text.member_csv, range(len(hits)), hits)]
        pieces = [header]
        if config.exhaustive:   # the configuration columns, from the coordinate strings
            line_lead = f"{lead}(1:{coords[linf[1]]}:{coords[linf[2]]}),"
        for a, delta in configurations:
            prefix = (line_lead + (f"(1:{coords[a]}:0)," if a else ",")
                      if config.exhaustive else lead)
            if delta is not None:   # Q* is Present in this report only
                i = delta[0]
                kept, rows[i + 1] = rows[i + 1], text.member_csv(i, 1)
            pieces.append(prefix.join(rows))
            if delta is not None:
                rows[i + 1] = kept
        header = ""
        yield "".join(pieces)
    if header:   # a run with no report prints the header alone
        yield header


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
    from .payloads import render
    yield render(spec, config)


def _emit_error(exc: Exception) -> None:
    import json
    line = json.dumps({"error": type(exc).__name__, "message": str(exc)})
    print(line, file=sys.stderr)


def run(config: RunConfig) -> int:
    """Execute one command; report on stdout, exit code returned.

    Output is written as it is produced, so after exit 3 stdout may hold
    a truncated report.  stdout is flushed before a diagnostic is written,
    so the report text made before a failure reaches stdout first."""
    code, error = 0, None
    try:
        try:
            for chunk in _execute(config):
                sys.stdout.write(chunk)
        except InvariantViolation as exc:
            code, error = 3, exc
        except ValidationError as exc:
            code, error = 2, exc
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has closed stdout (as `| head` does): what it did not
        # read is dropped, and stdout points at devnull so that the flush at
        # interpreter exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    if error is not None:
        _emit_error(error)
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
    except (UsageError, OrderTooLarge) as exc:
        _emit_error(exc)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
