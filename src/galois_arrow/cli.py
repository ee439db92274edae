"""Command-line surface.

Reports go to stdout, diagnostics to stderr as a single machine-parsable
JSON line.  Exit codes: 0 success, 2 rejected input or usage error, 3
internal invariant violation (never reachable from shipped defaults).

Output is byte-identical across runs for identical configurations.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .errors import (
    DegenerateContactPoint,
    InvariantViolation,
    UsageError,
    ValidationError,
)
from .field import FieldSpec, make_field, parse_modulus
from .plane import ProjLine, build_plane
from .conic import canonical_conic, classify, nucleus, point_set, tangent_lines
from .pencil import base_points, common_nucleus, time_pencil_context
from .arc import ArcFamily, build_time_family, family_to_dict
from .arrow import arc_arrow, conic_arrow
from .errors import OddCharacteristic

COMMANDS = ("field-info", "plane", "conic", "pencil", "family", "arrow")
_CSV_COMMANDS = ("pencil", "family", "arrow")


@dataclass(frozen=True)
class RunConfig:
    command: str
    p: int
    n: int
    modulus: tuple[int, ...] | None
    linf: tuple[int, int, int]
    lstar: tuple[int, int, int]
    mode: str                # "conic" | "arc" (arrow only)
    output: str              # "json" | "csv"
    exhaustive: bool


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="galois-arrow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--p", type=int, default=2)
        cmd.add_argument("--n", type=int, default=1)
        cmd.add_argument("--modulus", type=str, default=None)
        cmd.add_argument("--output", choices=("json", "csv"), default="json")
        if name in ("family", "arrow"):
            cmd.add_argument("--linf", type=str, default=None)
            cmd.add_argument("--lstar", type=str, default=None)
        if name == "arrow":
            cmd.add_argument("--mode", choices=("conic", "arc"), default="conic")
            cmd.add_argument("--exhaustive", action="store_true")
    return parser


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
    """Deterministic parse; invalid combinations raise UsageError."""
    ns = _build_parser().parse_args(argv)
    if ns.p < 2:
        raise UsageError(f"--p must be at least 2, got {ns.p}")
    if ns.n < 1:
        raise UsageError(f"--n must be at least 1, got {ns.n}")
    modulus = None
    if ns.modulus is not None:
        try:
            modulus = parse_modulus(ns.modulus, ns.p)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    q = ns.p ** ns.n
    if ns.command in ("family", "arrow") and ns.p != 2:
        raise UsageError(f"{ns.command} requires characteristic 2, got p={ns.p}")
    mode = getattr(ns, "mode", "conic")
    if ns.command == "family" or (ns.command == "arrow" and mode == "arc"):
        if q < 4:
            raise UsageError(f"q={q} is unsupported for the arc family; need q >= 4")
    if ns.output == "csv" and ns.command not in _CSV_COMMANDS:
        raise UsageError(f"csv output is only available for {', '.join(_CSV_COMMANDS)}")

    linf_text = getattr(ns, "linf", None)
    lstar_text = getattr(ns, "lstar", None)
    linf = _parse_triple(linf_text, q) if linf_text else (1, 1, 1)
    if lstar_text:
        lstar = _parse_triple(lstar_text, q)
    else:
        gen = ns.p if ns.n >= 2 else 1   # canonical generator value
        lstar = (1, gen, 0)
    return RunConfig(
        command=ns.command, p=ns.p, n=ns.n, modulus=modulus,
        linf=linf, lstar=lstar, mode=mode, output=ns.output,
        exhaustive=getattr(ns, "exhaustive", False),
    )


# --- per-command payload builders --------------------------------------------

def _payload_field_info(spec: FieldSpec) -> dict:
    payload = {
        "p": spec.characteristic,
        "n": spec.degree,
        "q": spec.order,
        "modulus": list(spec.modulus),
        "generator": str(spec.generator),
        "num_elements": spec.order,
    }
    if spec.characteristic == 2:
        payload["modulus_hex"] = hex(sum(c << i for i, c in enumerate(spec.modulus)))
    return payload


def _payload_plane(spec: FieldSpec) -> dict:
    plane = build_plane(spec)
    return {
        "q": spec.order,
        "num_points": len(plane.points),
        "num_lines": len(plane.lines),
        "points": [str(p) for p in plane.points],
        "lines": [str(l) for l in plane.lines],
    }


def _payload_conic(spec: FieldSpec) -> dict:
    plane = build_plane(spec)
    conic = canonical_conic(spec)
    tangents = tangent_lines(conic, plane)
    try:
        nuc = str(nucleus(conic, plane))
    except OddCharacteristic:
        nuc = None
    return {
        "q": spec.order,
        "coefficients": [str(c) for c in conic.coefficients],
        "class": str(classify(conic, plane)),
        "points": [str(p) for p in point_set(conic, plane)],
        "tangent_lines": [str(l) for l in tangents],
        "nucleus": nuc,
    }


def _payload_pencil(spec: FieldSpec) -> dict:
    ctx = time_pencil_context(spec)
    fmt = spec.format
    payload = {
        "q": spec.order,
        "base_points": [str(p) for p in base_points(ctx.pencil, ctx.plane)],
        "members": [
            {
                "theta": [fmt(m.theta[0]), fmt(m.theta[1])],
                "conic": [str(c) for c in m.conic.coefficients],
                "class": str(m.degeneracy),
            }
            for m in ctx.members
        ],
    }
    if spec.characteristic == 2:
        payload["common_nucleus"] = str(common_nucleus(ctx.pencil, ctx.plane))
    return payload


def _payload_family(spec: FieldSpec, config: RunConfig) -> dict:
    linf = ProjLine(spec, config.linf)
    lstar = ProjLine(spec, config.lstar)
    return family_to_dict(build_time_family(spec, linf, lstar))


def _arc_report(family: ArcFamily) -> dict:
    report = arc_arrow(family).to_dict()
    report["lstar"] = str(family.provenance.lstar)
    return report


def _payload_arrow(spec: FieldSpec, config: RunConfig) -> dict:
    linf = ProjLine(spec, config.linf)
    if config.mode == "conic":
        return conic_arrow(spec, linf).to_dict()
    return _arc_report(build_time_family(spec, linf, ProjLine(spec, config.lstar)))


def _payload_arrow_exhaustive(spec: FieldSpec, config: RunConfig) -> dict:
    """One report per valid configuration plus a summary."""
    ctx = time_pencil_context(spec)
    reports: list[dict] = []
    rejected: list[dict] = []
    if config.mode == "conic":
        reports = [conic_arrow(spec, linf).to_dict() for linf in ctx.valid_ideal_lines()]
    else:
        for linf in ctx.valid_ideal_lines():
            for lstar in ctx.valid_tangent_lines():
                try:
                    family = build_time_family(spec, linf, lstar)
                except DegenerateContactPoint:
                    rejected.append({"linf": str(linf), "lstar": str(lstar),
                                     "rejected": "DegenerateContactPoint"})
                else:
                    reports.append(_arc_report(family))

    distribution: dict[str, int] = {}
    for report in reports:
        t = report["tallies"]
        key = f"{t['past']}:{t['present']}:{t['future']}"
        distribution[key] = distribution.get(key, 0) + 1
    return {
        "q": spec.order,
        "mode": config.mode,
        "exhaustive": True,
        "reports": reports,
        "rejected": rejected,
        "summary": {
            "total_configurations": len(reports) + len(rejected),
            "valid": len(reports),
            "rejected": len(rejected),
            "tally_distribution": {k: distribution[k] for k in sorted(distribution)},
        },
    }


# --- CSV flattening ------------------------------------------------------------

def _csv_lines(config: RunConfig, payload: dict) -> list[str]:
    if config.command == "pencil":
        lines = ["q,member_id,theta,class"]
        for i, m in enumerate(payload["members"]):
            lines.append(f"{payload['q']},{i},{m['theta'][0]}:{m['theta'][1]},{m['class']}")
        return lines
    if config.command == "family":
        lines = ["q,member_id,theta,size,is_conic"]
        for i, m in enumerate(payload["members"]):
            lines.append(f"{payload['q']},{i},{m['theta'][0]}:{m['theta'][1]},"
                         f"{len(m['points'])},{str(m['is_conic']).lower()}")
        return lines
    if config.exhaustive:
        lines = ["q,mode,linf,lstar,member_id,theta,class"]
        for report in payload["reports"]:
            lstar = report.get("lstar", "")
            for m in report["members"]:
                lines.append(f"{report['q']},{report['mode']},{report['ideal_line']},"
                             f"{lstar},{m['id']},{m['theta'][0]}:{m['theta'][1]},{m['class']}")
        return lines
    lines = ["q,mode,member_id,theta,class"]
    for m in payload["members"]:
        lines.append(f"{payload['q']},{payload['mode']},{m['id']},"
                     f"{m['theta'][0]}:{m['theta'][1]},{m['class']}")
    return lines


# --- driver ---------------------------------------------------------------------

def _execute(config: RunConfig) -> dict:
    spec = make_field(config.p, config.n, config.modulus)
    if config.command == "field-info":
        return _payload_field_info(spec)
    if config.command == "plane":
        return _payload_plane(spec)
    if config.command == "conic":
        return _payload_conic(spec)
    if config.command == "pencil":
        return _payload_pencil(spec)
    if config.command == "family":
        return _payload_family(spec, config)
    if config.exhaustive:
        return _payload_arrow_exhaustive(spec, config)
    return _payload_arrow(spec, config)


def _emit_error(exc: Exception) -> None:
    line = json.dumps({"error": type(exc).__name__, "message": str(exc)})
    print(line, file=sys.stderr)


def run(config: RunConfig) -> int:
    """Execute one command; report on stdout, exit code returned."""
    try:
        payload = _execute(config)
    except InvariantViolation as exc:
        _emit_error(exc)
        return 3
    except ValidationError as exc:
        _emit_error(exc)
        return 2
    if config.output == "csv":
        sys.stdout.write("\n".join(_csv_lines(config, payload)) + "\n")
    else:
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        _emit_error(exc)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
