"""Mutation check of the kernel: every closed form in
src/galois_arrow/kernel.py is pinned by some test.

    python tests/mutants.py

Each mutation below is applied to a fresh copy of src/, and the tests
named for it run on that copy in a subprocess (pytest, under a timeout).
A mutant is killed when they fail or time out, and survives when they
pass.  The script exits 1 if a mutant survives, if a mutation's source
text no longer occurs exactly once in the kernel, or if the named tests
fail on the unmutated copy.  It uses only the standard library and pytest;
the tier-1 run does not collect it (it is not a test_*.py file).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KERNEL = Path("galois_arrow") / "kernel.py"
TIMEOUT_S = 120
JOBS = 2

ARC = ["tests/test_arrow.py::test_arc_pass_matches_the_incidence_oracle[q8]"]
SIGMA = ["tests/test_arrow.py::test_arc_pass_is_its_orbit_representatives_image[q8]"]
CONIC = ["tests/test_arrow.py::test_conic_arrow_matches_incidence_oracle[q8]"]
SWEEPS = ["tests/test_golden_stdout.py::test_sweep_stdout_matches_benchmark_digest"]
ENUMERATION = ["tests/test_plane.py::test_triple_values_inverts_triple_index",
               "tests/test_plane.py::test_triple_index_is_the_enumeration_position",
               "tests/test_plane.py::test_plane_equals_the_normalizing_construction"]
LINE_CHECKS = ["tests/test_pencil.py::test_line_validity_from_coefficients_matches_incidence"]
CONTEXT = ["tests/test_pencil.py::"
           "test_context_reads_its_plane_points_and_lines_from_the_plane_module"]

# (what the mutation breaks, the kernel's text, its replacement, the tests
# that must fail)
MUTANTS = [
    ("c^2 -> c in _contacts' t", "cc = mul(c, c)", "cc = c", ARC),
    ("orbit u = b/c^2 -> b/c", "u = mul(b, ctx.spec._inv[mul(c, c)])",
     "u = mul(b, ctx.spec._inv[c])", CONIC),
    ("the second witness s1 = s0 ^ d -> s0", "s1 = s0 ^ d", "s1 = s0", CONIC),
    ("the root y -> y + 1", "s0 = mul(d, y)", "s0 = mul(d, y + 1)", CONIC),
    ("a witness (1 : t*s^2 : s) -> (1 : t*s : s)", "i0 = mul(t, mul(s0, s0)) * q + s0",
     "i0 = mul(t, s0) * q + s0", CONIC),
    ("+ -> - in a witness's index", "i1 = mul(t, mul(s1, s1)) * q + s1",
     "i1 = mul(t, mul(s1, s1)) * q - s1", CONIC),
    ("witnesses left unsorted", "out.append((i0, i1) if i0 < i1 else (i1, i0))",
     "out.append((i0, i1))", CONIC),
    ("the roots of y^2 + y -> of y^2", "roots[spec._mul_i(y, y) ^ y] = y",
     "roots[spec._mul_i(y, y)] = y", CONIC),
    ("orbits looked up by b, not u", "ys = ctx.orbits.get(u)", "ys = ctx.orbits.get(b)", CONIC),
    ("Q*'s other witness hits[1] -> hits[0]", "hits[1] if hits[0] == index else hits[0]",
     "hits[0] if hits[0] == index else hits[0]", ARC),
    ("Q*'s position t - 1 -> t", "out.append((t - 1, ", "out.append((t, ", ARC),
    ("a + b as a | b", "a_plus_b = a ^ b", "a_plus_b = a | b", ARC),
    ("the contact point's x2 = 1/a -> a", "(inv[a] * q + mul(", "(a * q + mul(", SIGMA),
    ("Q* not checked for the contact point", "if len(hits) != 2 or index not in hits:",
     "if len(hits) != 2:",
     ["tests/test_cli.py::test_qstar_not_past_with_the_contact_point_exits_3"]),
    ("the refused contact point (1 : 1/a : 0) -> (1 : a : 0)", "(1, spec._inv[a], 0)",
     "(1, a, 0)", ["tests/test_arc.py::test_contact_member_matches_the_incidence_oracle[q8]"]),
    *[(f"the sweep's {name} {what}", "product((1,), range(1, q), range(1, q)), range(1, q)",
       text, SWEEPS) for name, what, text in [
        ("b", "from 0", "product((1,), range(0, q), range(1, q)), range(1, q)"),
        ("c", "from 0", "product((1,), range(1, q), range(0, q)), range(1, q)"),
        ("a", "from 0", "product((1,), range(1, q), range(1, q)), range(0, q)"),
        ("b", "stopping at q - 1", "product((1,), range(1, q - 1), range(1, q)), range(1, q)"),
        ("c", "stopping at q - 1", "product((1,), range(1, q), range(1, q - 1)), range(1, q)"),
        ("a", "stopping at q - 1", "product((1,), range(1, q), range(1, q)), range(1, q - 1)"),
    ]],
    ("i // q -> i % q in _triple_values", "return (1, i // q, i % q)",
     "return (1, i % q, i % q)", ENUMERATION),
    ("the points (0 : 1 : x) one further in _triple_values", "if i < q * q + q:",
     "if i <= q * q + q:", ENUMERATION),
    ("_triple_index off by one", "return q * q + x3", "return q * q + x3 + 1", ENUMERATION),
    ("and -> or in the ideal line check", "elif not (l1 and l2):", "elif not (l1 or l2):",
     LINE_CHECKS),
    ("and -> or in the L* check", "        if not (l1 and l2):", "        if not (l1 or l2):",
     LINE_CHECKS),
    ("an ideal line's nucleus check reads l2", "elif not l3:", "elif not l2:", LINE_CHECKS),
    ("B1 one point further", "self.plane.points[self.spec.order ** 2]",
     "self.plane.points[self.spec.order ** 2 + 1]", CONTEXT),
]


def _run_tests(src: Path, tests: list[str]) -> tuple[bool, float]:
    """Whether the tests pass with the package imported from src, and how
    long they took; a run past the timeout counts as failed."""
    start = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                               "no:cacheprovider", *tests],
                              cwd=ROOT, env=env, capture_output=True, timeout=TIMEOUT_S)
        passed = proc.returncode == 0
    except subprocess.TimeoutExpired:
        passed = False
    return passed, time.perf_counter() - start


def _copy_with(kernel: str, tests: list[str]) -> tuple[bool, float]:
    """_run_tests on a copy of src/ whose kernel reads kernel."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        (src / KERNEL).write_text(kernel)
        return _run_tests(src, tests)


def main() -> int:
    kernel = (ROOT / "src" / KERNEL).read_text()
    stale = [name for name, old, _, _ in MUTANTS if kernel.count(old) != 1]
    if stale:
        print(f"mutations whose text does not occur exactly once: {stale}")
        return 1
    every_test = sorted({test for *_, tests in MUTANTS for test in tests})
    passed, took = _copy_with(kernel, every_test)
    print(f"unmutated: the {len(every_test)} named test groups "
          f"{'pass' if passed else 'FAIL'} ({took:.1f} s)")
    if not passed:
        return 1
    with ThreadPoolExecutor(JOBS) as pool:
        runs = [pool.submit(_copy_with, kernel.replace(old, new), tests)
                for _, old, new, tests in MUTANTS]
        survivors = 0
        for (name, *_), run in zip(MUTANTS, runs):
            passed, took = run.result()
            survivors += passed
            print(f"{'SURVIVED' if passed else 'killed  '}  {name} ({took:.1f} s)")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
