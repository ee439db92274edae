"""Byte-identity gate: the CLI's stdout for a fixed command set must keep
the sha256 digests recorded in golden_stdout.json, and that of the other
commands at larger q in golden_stdout_large.json.

A refactor that changes one byte of any report fails here.  After an
intended output change, regenerate the digests with

    PYTHONPATH=src python tests/test_golden_stdout.py > tests/golden_stdout.json
    PYTHONPATH=src python tests/test_golden_stdout.py large > tests/golden_stdout_large.json
"""

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from galois_arrow import cli

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_stdout.json"
LARGE_GOLDEN_PATH = GOLDEN_PATH.with_name("golden_stdout_large.json")
# the benchmark's own digests, every sweep modulus and both single
# configurations; read here, never written
BENCH_GOLDEN_PATH = Path(__file__).resolve().parents[1] / "bench" / "golden.json"
BENCH_GOLDEN = json.loads(BENCH_GOLDEN_PATH.read_text())


def _commands() -> list[str]:
    out = []
    for n in ("2", "3"):
        q = f"--n {n}"
        out += [f"field-info {q}", f"plane {q}", f"conic {q}"]
        for output in ("json", "csv"):
            o = f"--output {output}"
            out += [f"pencil {q} {o}", f"family {q} {o}",
                    f"arrow {q} --mode conic {o}", f"arrow {q} --mode arc {o}",
                    f"arrow {q} --mode conic --exhaustive {o}",
                    f"arrow {q} --mode arc --exhaustive {o}"]
    out += [
        "field-info --p 3", "plane --p 3", "conic --p 3", "pencil --p 3",
        "field-info --n 3 --modulus 0xD",
        "family --n 3 --modulus 0xD --linf 1,5,3 --lstar 1,6,0",
        "arrow --n 3 --mode arc --linf 1,5,3 --lstar 1,6,0",
        "arrow --n 3 --mode conic --linf 1,5,3",
        # odd q: the 4abc term of the discriminant and the degenerate members
        "pencil --p 3 --n 2 --modulus 1,0,1", "pencil --p 5",
    ]
    # larger fields: the arc arrow at q = 64 and q = 128, the conic arrow at 128
    out += ["arrow --n 6 --mode arc", "arrow --n 7 --mode arc",
            "arrow --n 7 --mode conic"]
    return out


def _large_commands() -> list[str]:
    """plane, conic, pencil and family at q = 16 to 256, under non-default
    moduli of GF(2^6) and GF(2^8) (0x11b's table generator is x + 1, not
    x), and over odd fields that have no default modulus; family also at
    other (L-infinity, L*) pairs, one given unnormalized."""
    defaults = [f"--n {n}" for n in (4, 5, 6, 8)]
    gf64, gf256 = "--n 6 --modulus 0x5b", "--n 8 --modulus 0x11b"
    out = []
    for f in defaults + [gf64, gf256]:
        out += [f"conic {f}", f"pencil {f} --output json", f"pencil {f} --output csv",
                f"family {f} --output csv"]
    # the family's JSON under 0x11b at a pair below
    out += [f"family {f} --output json" for f in defaults + [gf64]]
    out += [f"plane {f}" for f in defaults]
    for f in ("--p 5 --n 2 --modulus 2,0,1", "--p 3 --n 3 --modulus 1,2,0,1",
              "--p 7 --n 2 --modulus 1,0,1", "--p 3 --n 4 --modulus 2,1,0,0,1"):
        out += [f"conic {f}", f"pencil {f}", f"pencil {f} --output csv"]
    pairs = ("--linf 1,2,3 --lstar 1,5,0", "--linf 1,7,1 --lstar 1,1,0",
             "--linf 2,4,6 --lstar 3,5,0")
    for f in defaults[:3] + [gf64]:
        out += [f"family {f} {pair}" for pair in pairs]
    out += [f"family --n 8 {pairs[2]}", f"family {gf256} {pairs[0]}"]
    return out


def _stdout_digest(command: str) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(command.split())
    assert code == 0, command
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def _golden(path: Path = GOLDEN_PATH) -> dict[str, str]:
    return json.loads(path.read_text())


def test_golden_covers_exactly_the_command_set():
    assert sorted(_golden()) == sorted(_commands())
    assert sorted(_golden(LARGE_GOLDEN_PATH)) == sorted(_large_commands())


@pytest.mark.parametrize("command", _commands())
def test_stdout_matches_golden_digest(command):
    assert _stdout_digest(command) == _golden()[command]


@pytest.mark.parametrize("command", _large_commands())
def test_stdout_matches_large_golden_digest(command):
    assert _stdout_digest(command) == _golden(LARGE_GOLDEN_PATH)[command]


@pytest.mark.parametrize("command", [
    "field-info --n 2", "plane --n 2", "conic --n 2", "pencil --n 2 --output json",
    "family --n 2 --output json", "arrow --n 2 --mode arc --exhaustive --output json"])
def test_fresh_interpreter_stdout_matches_golden_digest(command):
    """python -m galois_arrow.cli in a new interpreter, without bytecode:
    each command imports only the modules it runs, so an import cycle or
    a missing import in a command's code shows here, in a process that has
    not loaded the package's other modules."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "galois_arrow.cli", *command.split()],
                          env=env, capture_output=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == _golden()[command]


@pytest.mark.parametrize("command", sorted(BENCH_GOLDEN))
def test_sweep_stdout_matches_benchmark_digest(command):
    assert _stdout_digest(command) == BENCH_GOLDEN[command]


if __name__ == "__main__":
    commands = _large_commands() if sys.argv[1:] == ["large"] else _commands()
    print(json.dumps({c: _stdout_digest(c) for c in commands}, indent=2))
