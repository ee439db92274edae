"""One measured unit of the benchmark, run in a fresh interpreter.

    python bench/child.py MODE REPORT_FD ARG...

MODE is one of:

  cli     run ``galois_arrow.cli`` with ARG... exactly as
          ``python -m galois_arrow.cli ARG...`` would;
  setup   import galois_arrow and build the field and the time-pencil
          context; ARG... is ``N MODULUS``;
  spans   run the CLI in-process with timing wrappers around the public
          functions of each layer (no profiler, so the times are close to
          the untraced ones);
  counts  run the CLI in-process under cProfile and count the calls of the
          geometric predicates the hot loops are made of.

At exit the child writes one JSON line to the file descriptor REPORT_FD:
its own peak RSS (``VmHWM`` from ``/proc/self/status``; the parent's
``ru_maxrss`` would include the RSS the child inherited from the parent at
fork) and, for ``spans`` and ``counts``, what it measured.  The program
under test is imported from ``PYTHONPATH``; nothing under ``src/`` is
edited.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
import time
from collections import Counter

_dumps = json.dumps   # unwrapped: the spans mode wraps json.dumps for the CLI


def _peak_rss_kb() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


class Spans:
    """Self time, returns and raises per span name.

    A span's self time is its duration minus the time of the spans
    opened inside it, so the layers' times add up without overlap.
    """

    def __init__(self):
        self.self_s: Counter = Counter()
        self.returned: Counter = Counter()
        self.raised: Counter = Counter()
        self.members_classified = 0
        self._open: list[float] = []    # child time of each open span

    def wrap(self, name, func):
        def spanned(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                self.raised[name] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[name] += elapsed - self._open.pop()
                if self._open:
                    self._open[-1] += elapsed
            self.returned[name] += 1
            if name == "arrow.classify":
                self.members_classified += len(result.classifications)
            return result
        return spanned


def _install_spans(spans: Spans) -> None:
    """Route every call of each layer's public entry point through a span.

    Each function is replaced by identity in every ``galois_arrow`` module
    namespace that binds it, so calls between modules are caught whatever
    name they use.  An entry point that a module no longer has is skipped
    and its span reads 0.
    """
    import galois_arrow.arrow
    import galois_arrow.cli

    targets = [
        ("field.make_field", "galois_arrow.field", "make_field"),
        ("plane.build_plane", "galois_arrow.plane", "build_plane"),
        ("conic.census", "galois_arrow.conic", "classify"),
        ("pencil.context", "galois_arrow.pencil", "time_pencil_context"),
        ("arc.build_family", "galois_arrow.arc", "build_time_family"),
        ("arrow.classify", "galois_arrow.arrow", "arc_arrow"),
        ("arrow.classify", "galois_arrow.arrow", "conic_arrow"),
        ("cli.encode", "galois_arrow.cli", "_csv_lines"),
    ]
    modules = [m for name, m in list(sys.modules.items())
               if name == "galois_arrow" or name.startswith("galois_arrow.")]
    for span, module_name, attr in targets:
        original = getattr(sys.modules[module_name], attr, None)
        if original is None:
            continue
        wrapped = spans.wrap(span, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    report = galois_arrow.arrow.ArrowReport
    report.to_dict = spans.wrap("arrow.to_dict", report.to_dict)
    json.dumps = spans.wrap("cli.encode", _dumps)


def _run_cli_in_process(argv: list[str]) -> int:
    import galois_arrow.cli
    code = galois_arrow.cli.main(argv)
    sys.stdout.flush()
    return code


def main() -> int:
    mode, report_fd, args = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    report: dict = {}

    def write_report():
        report["peak_rss_kb"] = _peak_rss_kb()
        os.write(report_fd, (_dumps(report) + "\n").encode())

    atexit.register(write_report)

    if mode == "cli":
        import runpy
        sys.argv = ["galois_arrow.cli", *args]
        runpy.run_module("galois_arrow.cli", run_name="__main__", alter_sys=True)
        return 0    # the CLI exits through SystemExit; this is never reached
    if mode == "setup":
        from galois_arrow import make_field, parse_modulus, time_pencil_context
        n, modulus = args
        time_pencil_context(make_field(2, int(n), parse_modulus(modulus, 2)))
        return 0
    if mode == "spans":
        start = time.perf_counter()
        import galois_arrow.cli  # noqa: F401  (the import is the span)
        import_s = time.perf_counter() - start
        spans = Spans()
        _install_spans(spans)
        code = _run_cli_in_process(args)
        report.update(
            import_s=import_s,
            self_s=dict(spans.self_s),
            returned=dict(spans.returned),
            raised=dict(spans.raised),
            members_classified=spans.members_classified,
        )
        return code
    if mode == "counts":
        import cProfile
        import inspect
        import galois_arrow.cli  # noqa: F401
        from galois_arrow import conic, plane
        watched = {inspect.unwrap(func).__code__: name for name, func in (
            ("incident", plane.incident),
            ("collinear", plane.collinear),
            ("classify", conic.classify),   # lru_cache misses only
        )}
        profiler = cProfile.Profile(builtins=False, subcalls=False)
        profiler.enable()
        try:
            code = _run_cli_in_process(args)
        finally:
            profiler.disable()
        calls = dict.fromkeys(watched.values(), 0)
        for entry in profiler.getstats():
            if entry.code in watched:
                calls[watched[entry.code]] = entry.callcount
        report["calls"] = calls
        return code
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main())
