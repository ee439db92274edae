"""Command-line surface.

Reports go to stdout, diagnostics to stderr as a single machine-parsable
JSON line.  Exit codes: 0 success, 2 rejected input or usage error, 3
internal invariant violation (never reachable from shipped defaults).

Output is byte-identical across runs for identical configurations.  The
arrow command runs one loop over ideal lines L-infinity, each with its
configurations (L-infinity, L*), _arrow_reports; a single configuration
is the one-pair case.  Each ideal line's reports are joined into one
string by the renderer of the --output format and written as soon as
that line is done: JSON in the arrow_json module, CSV in the arrow_csv
module, each imported only for its format.

The arrow command runs on the kernel module alone, on lines as value
triples: a single run normalizes its --linf and --lstar by
kernel._normalized and checks them by kernel._check_line, so no arrow run
loads the plane module.  The other commands' payloads live in the
payloads module, imported only when they run.  argv in plain form, a
command and then options by their full flags, is read without argparse,
from the table of options argparse is built from; help and any other argv
go to argparse, which is imported only then.
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
from .kernel import (Values, _arc_deltas, _check_line, _degenerate_contact, _normalized,
                     _valid_lines, _witnesses, time_pencil_context)

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
    is the one-pair case, its lines normalized by kernel._normalized and
    checked by kernel._check_line.  Arc configurations whose contact point lies on a
    degenerate member are appended to rejected during a sweep; a single run
    raises DegenerateContactPoint."""
    ctx = time_pencil_context(spec)
    arc = config.mode == "arc"
    if config.exhaustive:
        linfs, lstar_as = _valid_lines(spec.order)
    else:
        linf = _normalized(spec, config.linf)
        lstars = (_normalized(spec, config.lstar),) if arc else ()
        _check_line(spec, linf, False)
        for lstar in lstars:
            _check_line(spec, lstar, True)
        linfs, lstar_as = (linf,), [lstar[1] for lstar in lstars]
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


# --- driver ---------------------------------------------------------------------

def _execute(config: RunConfig) -> Iterator[str]:
    """The command's stdout, in chunks; an arrow run yields one per report."""
    spec = make_field(config.p, config.n, config.modulus)
    if config.command == "arrow":
        rejected: list[tuple[Values, int]] = []
        reports = _arrow_reports(spec, config, rejected)
        if config.output == "csv":
            from .arrow_csv import _arrow_csv
            yield from _arrow_csv(spec, config, reports)
        else:
            from .arrow_json import _arrow_json
            yield from _arrow_json(spec, config, reports, rejected)
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
