"""Command-line surface: argv read into a RunConfig, then run.

Reports go to stdout, diagnostics to stderr as a single machine-parsable
JSON line.  Exit codes: 0 success, 2 rejected input or usage error, 3
internal invariant violation (never reachable from shipped defaults).

Output is byte-identical across runs for identical configurations.  This
module reads argv; the driver module runs the command (run), and the
renderers and payload builders it imports make its stdout.  argv in plain
form, a command and then options by their full flags, is read without
argparse, from the table of options argparse is built from; help and any
other argv go to the argparser module, which imports argparse, loaded
only then.  --modulus is read by the modulus module and --linf and
--lstar by the linetext module, each imported only when its option is
given.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

from .driver import _emit_error, run
from .errors import OrderTooLarge, UsageError
from .field import _generator_value, field_order

COMMANDS = ("field-info", "plane", "conic", "pencil", "family", "arrow")
_CSV_COMMANDS = ("pencil", "family", "arrow")
# The largest order at which plane, conic, pencil, family and arrow sweeps
# are accepted.  At q = 2^10 on 2 cores, streamed, plane takes 0.07-0.11 s
# and 14 MiB and family (JSON) 0.54-0.63 s and 15 MiB (0.8-0.9 s and 301
# MiB, 0.9 s and 200 MiB whole); conic, pencil and the family's CSV, O(q),
# 0.06-0.07 s and 15-16 MiB.  It stays until a closed-form work estimate
# replaces it (ROADMAP item 6).
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


def parse_args(argv: list[str]) -> RunConfig:
    """Deterministic parse; invalid combinations raise UsageError.  argv
    in plain form is read without argparse, which reads any other."""
    args = _plain_args(argv)
    if args is None:
        from .argparser import _build_parser
        args = vars(_build_parser(COMMANDS, _OPTIONS).parse_args(argv))
    command, p, n = args["command"], args["p"], args["n"]
    if p < 2:
        raise UsageError(f"--p must be at least 2, got {p}")
    if n < 1:
        raise UsageError(f"--n must be at least 1, got {n}")
    modulus = None
    if args["modulus"] is not None:
        from .modulus import parse_modulus
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
    if linf_text or lstar_text:
        from .linetext import _parse_triple
    linf = _parse_triple(linf_text, q) if linf_text else (1, 1, 1)
    lstar = _parse_triple(lstar_text, q) if lstar_text else (1, _generator_value(p, n), 0)
    return RunConfig(
        command=command, p=p, n=n, modulus=modulus,
        linf=linf, lstar=lstar, mode=mode, output=args["output"],
        exhaustive=exhaustive,
    )


def main(argv: list[str] | None = None) -> int:
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
    except (UsageError, OrderTooLarge) as exc:
        _emit_error(exc)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
