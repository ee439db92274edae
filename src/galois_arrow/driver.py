"""The run driver of the command line: one RunConfig in, its report on
stdout and its exit code out.

Reports go to stdout, diagnostics to stderr as a single machine-parsable
JSON line.  Exit codes: 0 success, 2 rejected input, 3 internal invariant
violation (never reachable from shipped defaults).

The arrow command runs one loop over ideal lines L-infinity, each with its
configurations (L-infinity, L*), _arrow_reports; a single configuration
is the one-pair case.  Each ideal line's reports are joined into one
string by the renderer of the --output format and written as soon as
that line is done: JSON in arrow_json and report_text, CSV in arrow_csv,
each of them loaded only for its format.

The arrow command runs on value triples, from the kernel and the modules
it imports only for the runs that call them: the witnesses module for arc
and JSON runs, the lines module for a single configuration and the
linetext module for a diagnostic that names a line.  So no arrow run loads
the plane module.  The other commands' payloads live in the payloads
module, imported only when they run.  The cli module reads argv and calls
run; this module does not import it, since it runs as __main__ under
python -m galois_arrow.cli.
"""

from __future__ import annotations

import os
import sys
from itertools import product
from typing import TYPE_CHECKING, Iterator

from .errors import InvariantViolation, ValidationError
from .field import FieldSpec, make_field

if TYPE_CHECKING:
    from .cli import RunConfig
    from .kernel import Values


# --- arrow reports, streamed ------------------------------------------------

def _arrow_reports(spec: FieldSpec, config: RunConfig, rejected: list[tuple[Values, int]]
                   ) -> Iterator[tuple[Values, tuple[tuple[int, ...], ...] | None,
                                       list[tuple[int | None, tuple[int, int] | None]]]]:
    """Per L-infinity = (1 : b : c) of the run, one at a time: its values,
    its members' witnesses as plane indices (witnesses._witnesses; None in
    a conic CSV run, whose rows come from the line's orbit) and its
    configurations (a, delta), L* = (1 : a : 0), one per report.  A delta
    (position, witness) is the member in which the report differs from the
    line's conic classification: Q*, Present with that one witness.  In
    conic mode the one configuration is (None, None); in arc mode there is
    one per L*, from the line's one pass, witnesses._arc_deltas.  A sweep
    takes every valid configuration, in plane line order: the ideal lines
    (1 : b : c), bc != 0, which miss B1 = (0:1:0), B2 = (1:0:0) and
    N = (0:0:1), and the lines L* = (1 : a : 0), a != 0, the lines through
    N other than its joins with B1 and B2; this is the package's one
    definition of them.  A single run is the one-pair case, its lines
    normalized by lines._normalized and checked by lines._check_line.  Arc
    configurations whose contact point lies on a degenerate member are
    appended to rejected during a sweep; a single run raises
    DegenerateContactPoint."""
    from .kernel import time_pencil_context
    ctx = time_pencil_context(spec)
    arc = config.mode == "arc"
    if config.exhaustive:
        q = spec.order
        linfs, lstar_as = product((1,), range(1, q), range(1, q)), range(1, q)
    else:
        from .lines import _check_line, _normalized
        linf = _normalized(spec, config.linf)
        lstars = (_normalized(spec, config.lstar),) if arc else ()
        _check_line(spec, linf, False)
        for lstar in lstars:
            _check_line(spec, lstar, True)
        linfs, lstar_as = (linf,), [lstar[1] for lstar in lstars]
    witnessed = arc or config.output == "json"
    if witnessed:
        from .witnesses import _arc_deltas, _witnesses
    for linf in linfs:
        witnesses = _witnesses(ctx, linf) if witnessed else None
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
                from .linetext import _degenerate_contact
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
