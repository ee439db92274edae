"""The argparse reader of the command line: help, and any argv that is not
in plain form.

cli.parse_args reads argv in plain form, a command and then options by
their full flags, itself, from the same table of options, and imports
this module, and argparse, only for any other argv.  argparse is the
reference for every argv in the test suite.
"""

from __future__ import annotations

import argparse

from .errors import UsageError

_DESCRIPTION = (
    "Exact finite geometry over GF(p^n): the field, PG(2, q), the canonical conic, the time "
    "pencil, its arc family and their members' Past/Present/Future classes on an ideal line. "
    "Reports go to stdout; a failure prints one JSON line on stderr.  Exit codes: 0 success, "
    "2 rejected input or usage error, 3 internal invariant violation.")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser(commands: tuple[str, ...], options: tuple) -> argparse.ArgumentParser:
    """The argparse parser of the commands, each with the options of the
    table (cli._OPTIONS) that name it."""
    parser = _Parser(prog="galois-arrow", description=_DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in commands:
        cmd = sub.add_parser(name)
        for flag, kind, default, choices, takers in options:
            if name not in takers:
                continue
            if kind is bool:
                cmd.add_argument(flag, action="store_true")
            else:
                cmd.add_argument(flag, type=kind, default=default, choices=choices)
    return parser
