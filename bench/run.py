"""Benchmark of the galois-arrow CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

One single-threaded process runs the CLI as child processes, one at a
time (a closed loop with one client), from the root of the repository,
and checks every output with ``gate.check``.  The seed picks the inputs: the
field modulus among the irreducible polynomials of degree n and, for the
single-configuration workloads, the (L-infinity, L*) pair.

``--trace 0`` measures end-to-end figures, each child a fresh interpreter
as a CLI user gets: ``wall_rel`` (the wall time of one CLI invocation,
stdout drained, over the mean wall time of the yardstick runs right before
and right after it, see ``yardstick.py``), ``setup_s`` (import plus
``make_field`` and ``time_pencil_context``) and ``peak_rss_mb`` (the CLI
child's own VmHWM); each is the median over the run.  ``--trace 1`` splits
the time by module with spans around each layer's public functions
(``child.py spans``), counts calls of the hot predicates under cProfile in
a separate child (``child.py counts``), and reports its own overhead
against untraced invocations made in the same run.  The last line of
stdout is the JSON result; a readable summary goes to stderr.  ``--smoke``
runs the q = 4 variants of the three kinds of workload in both modes in a
few seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import yardstick

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
YARDSTICK = BENCH / "yardstick.py"

MIN_ROUNDS = 3          # rounds of (CLI, setup) per end-to-end run
SETUP_ROUND_S = 0.5     # set-up children in a round: until they took this long
RUN_LIMIT_S = 170.0     # no child starts after this; a running one is killed

# --mode and output flags of the ``arrow`` command for each kind of workload
COMMAND_TAIL = {
    "arc-sweep": ["--mode", "arc", "--exhaustive"],
    "arc-single": ["--mode", "arc"],
    "conic-sweep": ["--mode", "conic", "--exhaustive", "--output", "csv"],
}


@dataclass(frozen=True)
class Workload:
    kind: str
    n: int


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "sweep-arc-q16": Workload("arc-sweep", 4),
    "sweep-conic-q32": Workload("conic-sweep", 5),
    # Not in BENCHMARK.json: at 6-8 s per invocation a run holds too few
    # invocations for a steady median.  It can still be run by name.
    "single-arc-q64": Workload("arc-single", 6),
    # q = 4 variants of the same commands, for --smoke
    "sweep-arc-q4": Workload("arc-sweep", 2),
    "single-arc-q4": Workload("arc-single", 2),
    "sweep-conic-q4": Workload("conic-sweep", 2),
}
SMOKE = ("sweep-arc-q4", "single-arc-q4", "sweep-conic-q4")

END_TO_END_UNITS = {"wall_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MiB"}
# printed on stderr beside the end-to-end metrics, not part of the result
RAW_UNITS = {"wall_s": "s", "yardstick_s": "s"}
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "field.make_field_s": "s",
    "plane.build_plane_s": "s",
    "pencil.context_s": "s",
    "conic.census_s": "s",
    "conic.classify_calls": "count",
    "plane.collinear_calls": "count",
    "arc.build_family_s": "s",
    "arc.families_built": "count",
    "arc.configs_rejected": "count",
    "arrow.classify_s": "s",
    "arrow.members_classified": "count",
    "plane.incident_calls": "count",
    "arrow.to_dict_s": "s",
    "cli.encode_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}
# per-layer time metric -> span recorded by child.py
SPAN_OF = {
    "field.make_field_s": "field.make_field",
    "plane.build_plane_s": "plane.build_plane",
    "pencil.context_s": "pencil.context",
    "conic.census_s": "conic.census",
    "arc.build_family_s": "arc.build_family",
    "arrow.classify_s": "arrow.classify",
    "arrow.to_dict_s": "arrow.to_dict",
    "cli.encode_s": "cli.encode",
}


def _gf2_mod(a: int, b: int) -> int:
    while a.bit_length() >= b.bit_length():
        a ^= b << (a.bit_length() - b.bit_length())
    return a


def irreducible_moduli(n: int) -> list[int]:
    """Degree-n irreducible polynomials over GF(2) as bitmasks, ascending;
    computed here so that input generation does not depend on the program."""
    return [m for m in range(1 << n, 1 << (n + 1))
            if all(_gf2_mod(m, d) for d in range(2, 1 << (n // 2 + 1)))]


def cli_argv(workload: Workload, seed: int) -> list[str]:
    """The CLI arguments the seed picks for the workload."""
    rng = random.Random(seed)
    modulus = rng.choice(irreducible_moduli(workload.n))
    argv = ["arrow", "--n", str(workload.n), "--modulus", hex(modulus),
            *COMMAND_TAIL[workload.kind]]
    if workload.kind == "arc-single":
        # A valid L-infinity (1:a:b) misses B1, B2 and N: a, b != 0.  A valid
        # L* (1:c:0) passes through N but not B1 or B2: c != 0.  The pair is
        # rejected iff A = L-infinity ^ L* lies on the double line x3 = 0,
        # i.e. iff c = a.
        q = 1 << workload.n
        a, b = rng.randrange(1, q), rng.randrange(1, q)
        c = rng.choice([x for x in range(1, q) if x != a])
        argv += ["--linf", f"1,{a},{b}", "--lstar", f"1,{c},0"]
    return argv


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "GALOIS_ARROW_THREADS"}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    return env


@dataclass
class Outcome:
    returncode: int | None      # None: killed at the run limit
    wall: float
    stdout: bytes
    stderr: bytes
    report: dict | None         # what child.py wrote at exit


class Harness:
    """Runs children and counts attempted and failed operations."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = child_env()
        self.golden = gate.load_golden()
        self.attempted = 0
        self.failed = 0

    def child(self, mode: str, args: list[str]) -> Outcome:
        read_fd, write_fd = os.pipe()
        cmd = [sys.executable, str(CHILD), mode, str(write_fd), *args]
        start = time.perf_counter()
        try:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE, pass_fds=(write_fd,))
        finally:
            os.close(write_fd)
        with os.fdopen(read_fd, "rb") as report_pipe:
            try:
                stdout, stderr = proc.communicate(
                    timeout=max(self.deadline - time.perf_counter(), 0.0))
                returncode = proc.returncode
            except subprocess.TimeoutExpired:
                proc.kill()
                stdout, stderr = proc.communicate()
                returncode = None
            except BaseException:       # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
            raw = report_pipe.read()
        try:
            report = json.loads(raw)
        except ValueError:
            report = None
        return Outcome(returncode, wall, stdout, stderr, report)

    def yardstick(self) -> float:
        """Wall time of one yardstick child; it is not an operation of the
        program, so a yardstick that fails ends the run."""
        start = time.perf_counter()
        done = subprocess.run([sys.executable, str(YARDSTICK)], cwd=ROOT, env=self.env,
                              capture_output=True,
                              timeout=max(self.deadline - start, 0.0))
        wall = time.perf_counter() - start
        if done.returncode != 0 or done.stdout.decode().strip() != yardstick.CHECKSUM:
            raise RuntimeError(f"yardstick failed: exit {done.returncode}, "
                               f"{done.stdout.decode(errors='replace').strip()!r}")
        return wall

    def record(self, out: Outcome, reason: str | None = None) -> bool:
        """Count one operation; it fails on a nonzero exit, a missing
        report or a reason from the output gate."""
        self.attempted += 1
        if out.returncode != 0:
            reason = f"exit {out.returncode}: {out.stderr.decode(errors='replace')[-500:]}"
        elif out.report is None:
            reason = "no report from the child"
        if reason is None:
            return True
        self.failed += 1
        print(f"bench: failed operation: {reason}", file=sys.stderr)
        return False

    def record_cli(self, workload: Workload, argv: list[str], out: Outcome,
                   reference: str | None = None) -> bool:
        """Count one CLI output, gated; with a reference sha256 the bytes
        must also equal those of the untraced CLI."""
        reason = None
        if out.returncode == 0:
            reason = gate.check(workload.kind, 1 << workload.n, argv, out.stdout,
                                self.golden)
            if reason is None and reference is not None \
                    and hashlib.sha256(out.stdout).hexdigest() != reference:
                reason = "traced stdout differs from the untraced stdout"
        return self.record(out, reason)

    def out_of_time(self) -> bool:
        return time.perf_counter() >= self.deadline


def end_to_end(harness: Harness, workload: Workload, argv: list[str],
               seconds: float) -> dict[str, list[float]]:
    setup_args = [str(workload.n), argv[argv.index("--modulus") + 1]]
    samples: dict[str, list[float]] = {name: [] for name in {**END_TO_END_UNITS, **RAW_UNITS}}
    setup_round_s = SETUP_ROUND_S if seconds else 0.0    # one set-up a round in --smoke
    start, rounds = time.perf_counter(), 0
    while (rounds < MIN_ROUNDS or time.perf_counter() - start < seconds) \
            and not harness.out_of_time():
        before = harness.yardstick()
        out = harness.child("cli", argv)
        after = harness.yardstick()
        samples["yardstick_s"] += [before, after]
        if harness.record_cli(workload, argv, out):
            samples["wall_s"].append(out.wall)
            samples["wall_rel"].append(out.wall / ((before + after) / 2))
            samples["peak_rss_mb"].append(out.report["peak_rss_kb"] / 1024)
        setup_start = time.perf_counter()
        while True:
            out = harness.child("setup", setup_args)
            if harness.record(out):
                samples["setup_s"].append(out.wall)
            if time.perf_counter() - setup_start >= setup_round_s or harness.out_of_time():
                break
        rounds += 1
    return samples


def traced(harness: Harness, workload: Workload, argv: list[str],
           seconds: float) -> dict[str, list[float]]:
    start = time.perf_counter()
    out = harness.child("cli", argv)
    if not harness.record_cli(workload, argv, out):
        return {}
    reference = hashlib.sha256(out.stdout).hexdigest()
    walls = [out.wall]
    stdout_bytes = len(out.stdout)

    out = harness.child("counts", argv)
    if not harness.record_cli(workload, argv, out, reference):
        return {}
    calls = out.report["calls"]

    spans: list[dict] = []
    span_walls: list[float] = []
    while (not spans or time.perf_counter() - start < seconds) and not harness.out_of_time():
        out = harness.child("spans", argv)
        if harness.record_cli(workload, argv, out, reference):
            spans.append(out.report)
            span_walls.append(out.wall)
        out = harness.child("cli", argv)
        if harness.record_cli(workload, argv, out, reference):
            walls.append(out.wall)
    if not spans:
        return {}

    first = spans[0]
    samples: dict[str, list[float]] = {
        "cli.import_s": [s["import_s"] for s in spans],
        "conic.classify_calls": [calls["classify"]],
        "plane.collinear_calls": [calls["collinear"]],
        "plane.incident_calls": [calls["incident"]],
        "arc.families_built": [first["returned"].get("arc.build_family", 0)],
        "arc.configs_rejected": [first["raised"].get("arc.build_family", 0)],
        "arrow.members_classified": [first["members_classified"]],
        "cli.stdout_bytes": [stdout_bytes],
        "trace.overhead_frac": [statistics.median(span_walls) / statistics.median(walls) - 1],
    }
    for metric, span in SPAN_OF.items():
        samples[metric] = [s["self_s"].get(span, 0.0) for s in spans]
    return samples


def summarize(samples: dict[str, list[float]], units: dict[str, str]) -> dict[str, dict]:
    metrics = {}
    for name, unit in units.items():
        values = samples[name]
        median = statistics.median(values)
        metrics[name] = {"value": median, "unit": unit}
        spread = ""
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = f" [q1 {q1:.6g}, q3 {q3:.6g}]"
        shown = f"{median:.6g}" if isinstance(median, float) else median
        print(f"bench:   {name} = {shown} {unit}{spread} (median of {len(values)})",
              file=sys.stderr)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict | None:
    """One benchmark run; None when no metric could be measured."""
    workload = WORKLOADS[name]
    harness = Harness(time.perf_counter() + RUN_LIMIT_S)
    argv = cli_argv(workload, seed)
    print(f"bench: {name} seed {seed}: galois-arrow {' '.join(argv)}", file=sys.stderr)

    # Untimed warm-up at q = 4: compiles the .pyc files, so that compilation
    # lands in neither wall_rel nor setup_s.
    warm = harness.child("cli", cli_argv(Workload(workload.kind, 2), seed))
    if warm.returncode != 0:
        print(f"bench: warm-up failed: {warm.stderr.decode(errors='replace')[-500:]}",
              file=sys.stderr)
        return None

    measure, units = (traced, PER_LAYER_UNITS) if trace else (end_to_end, END_TO_END_UNITS)
    samples = measure(harness, workload, argv, seconds)
    if any(not samples.get(metric) for metric in units):
        print("bench: no successful sample for some metric", file=sys.stderr)
        return None
    metrics = summarize(samples, units)
    if not trace:
        summarize(samples, RAW_UNITS)
    print(f"bench:   fail_rate = {harness.failed}/{harness.attempted}", file=sys.stderr)
    return {"correct": harness.failed == 0, "attempted": harness.attempted,
            "failed": harness.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the q = 4 workloads once in both modes")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "galois_arrow" / "cli.py").is_file():
        print(f"bench: no galois_arrow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        results = [run_workload(name, args.seed, 0, trace)
                   for name in SMOKE for trace in (False, True)]
        for result in results:
            print(json.dumps(result))
        return 0 if all(r and r["correct"] for r in results) else 1
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
