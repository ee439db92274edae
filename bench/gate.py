"""Correctness gate for one CLI output.

An output passes when it parses, every report's tallies agree with its
members' classes and with the paper's closed form for its mode, the
exhaustive sweeps have the configuration counts the construction
predicts, and, where a digest was recorded for the exact command, its
sha256 matches.  ``check`` returns None for a pass and the reason
otherwise.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

CSV_HEADER = "q,mode,linf,lstar,member_id,theta,class"


def closed_form(mode: str, q: int) -> dict[str, int]:
    """Conic arrow {(q-2)/2, 0, q/2}; arc arrow {(q-4)/2, 1, q/2}."""
    if mode == "conic":
        return {"past": (q - 2) // 2, "present": 0, "future": q // 2}
    return {"past": (q - 4) // 2, "present": 1, "future": q // 2}


def load_golden() -> dict[str, str]:
    """Recorded sha256 of stdout, keyed by the CLI arguments joined by spaces."""
    return json.loads(GOLDEN_PATH.read_text())


def _tallies_of(classes) -> dict[str, int]:
    counts = Counter(c.lower() for c in classes)
    return {k: counts[k] for k in ("past", "present", "future")}


def _check_report(report: dict, mode: str, q: int) -> str | None:
    expected = closed_form(mode, q)
    if report["q"] != q or report["mode"] != mode:
        return f"report for q={report['q']} mode={report['mode']}"
    if len(report["members"]) != q - 1:
        return f"{report['ideal_line']}: {len(report['members'])} members"
    if _tallies_of(m["class"] for m in report["members"]) != report["tallies"]:
        return f"{report['ideal_line']}: tallies disagree with member classes"
    if report["tallies"] != expected:
        return f"{report['ideal_line']}: tallies {report['tallies']} != {expected}"
    return None


def _check_arc_sweep(data: dict, q: int) -> str | None:
    reports = data["reports"]
    for report in reports:
        reason = _check_report(report, "arc", q)
        if reason:
            return reason
    summary = data["summary"]
    total, rejected = (q - 1) ** 3, (q - 1) ** 2
    valid = total - rejected
    t = closed_form("arc", q)
    expected = {
        "total_configurations": total,
        "valid": valid,
        "rejected": rejected,
        "tally_distribution": {f"{t['past']}:{t['present']}:{t['future']}": valid},
    }
    if summary != expected:
        return f"summary {summary} != {expected}"
    if len(reports) != valid or len(data["rejected"]) != rejected:
        return f"{len(reports)} reports and {len(data['rejected'])} rejections"
    return None


def _check_conic_sweep_csv(text: str, q: int) -> str | None:
    lines = text.split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        return "csv header or trailing newline missing"
    classes: dict[str, list[str]] = {}
    for row in lines[1:-1]:
        fields = row.split(",")
        if len(fields) != 7 or fields[0] != str(q) or fields[1] != "conic" or fields[3]:
            return f"malformed row {row!r}"
        classes.setdefault(fields[2], []).append(fields[6])
    if len(classes) != (q - 1) ** 2:
        return f"{len(classes)} ideal lines, expected {(q - 1) ** 2}"
    expected = closed_form("conic", q)
    for linf, member_classes in classes.items():
        if len(member_classes) != q - 1 or _tallies_of(member_classes) != expected:
            return f"{linf}: tallies {_tallies_of(member_classes)} != {expected}"
    return None


def check(kind: str, q: int, argv: list[str], stdout: bytes,
          golden: dict[str, str]) -> str | None:
    """Gate one output of ``galois-arrow ARGV``; kind names its shape."""
    digest = golden.get(" ".join(argv))
    if digest is not None and hashlib.sha256(stdout).hexdigest() != digest:
        return "stdout differs from the recorded sha256"
    try:
        text = stdout.decode()
        if kind == "conic-sweep":
            return _check_conic_sweep_csv(text, q)
        data = json.loads(text)
        if kind == "arc-sweep":
            return _check_arc_sweep(data, q)
        return _check_report(data, "arc", q)
    except (UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
        return f"unparsable output: {type(exc).__name__}: {exc}"
