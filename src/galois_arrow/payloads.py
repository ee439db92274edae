"""Stdout of the commands other than arrow: field-info, plane, conic,
pencil and family.  Each builds its whole payload and prints it as JSON
(json.dumps with indent=2) or, for pencil and family, as CSV rows; a
family's CSV rows are read from the built family, so no point is
rendered for them.

conic and pencil print closed forms in O(q): the canonical conic's points
from its parametrization, each point's tangent as its polar line, and the
time pencil's members, classes and common nucleus from the kernel's
context.  The plane scans and tallies that find the same (conic.point_set,
conic.tangent_lines, pencil.members, pencil.common_nucleus) are the
tests' oracles, not called here.

driver._execute imports this module for those commands only, so an arrow
run does not compile it.  Each builder imports the modules it reads when
it runs.
"""

from __future__ import annotations

import json

from .field import FieldSpec


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
    from .plane import build_plane
    plane = build_plane(spec)
    return {
        "q": spec.order,
        "num_points": len(plane.points),
        "num_lines": len(plane.lines),
        "points": [str(p) for p in plane.points],
        "lines": [str(l) for l in plane.lines],
    }


def _payload_conic(spec: FieldSpec) -> dict:
    from .conic import _nucleus_char2, canonical_conic, classify, parametrize_canonical
    from .plane import ProjLine, build_plane
    plane = build_plane(spec)
    conic = canonical_conic(spec)
    points = sorted(parametrize_canonical(spec), key=plane.points.index)
    # each point's tangent is its polar line (x2 : x1 : -2x3) of x1*x2 - x3^2,
    # in characteristic 2 its join with N; conic.tangent_lines is the oracle
    tangents = sorted([ProjLine(spec, (x2, x1, spec._neg_i(spec._add_i(x3, x3))))
                       for x1, x2, x3 in (pt.values for pt in points)], key=plane.lines.index)
    return {
        "q": spec.order,
        "coefficients": [str(c) for c in conic.coefficients],
        # Delta != 0, so classify scans nothing
        "class": str(classify(conic, plane)),
        "points": [str(p) for p in points],
        "tangent_lines": [str(l) for l in tangents],
        "nucleus": str(_nucleus_char2(conic)) if spec.characteristic == 2 else None,
    }


def _payload_pencil(spec: FieldSpec) -> dict:
    from .kernel import time_pencil_context
    ctx = time_pencil_context(spec)
    fmt = spec.format
    payload = {
        "q": spec.order,
        # x1*x2 = x3^2 = 0 in plane order, for every q; pencil.base_points is the oracle
        "base_points": [str(ctx.B2), str(ctx.B1)],
        # the members t1*x1*x2 + t2*x3^2 in closed form: (1, 0), the proper
        # (1, t) of discriminant -t, then (0, 1); pencil.members, the census
        # by classify, is the oracle, and pencil.common_nucleus for N
        "members": [
            {
                "theta": [fmt(t1), fmt(t2)],
                "conic": [fmt(c) for c in (0, t1, 0, 0, 0, t2)],
                "class": "Proper" if t1 * t2 else ("DoubleLine", "RealLinePair")[t1],
            }
            for t1, t2 in ((1, 0), *ctx.thetas, (0, 1))
        ],
    }
    if spec.characteristic == 2:
        payload["common_nucleus"] = str(ctx.N)
    return payload


def _payload_family(spec: FieldSpec, config):
    # for CSV the family itself, whose rows print no point
    from .arc import build_time_family, family_to_dict
    from .plane import ProjLine
    family = build_time_family(spec, ProjLine(spec, config.linf), ProjLine(spec, config.lstar))
    return family if config.output == "csv" else family_to_dict(family)


def _csv_lines(config, payload) -> list[str]:
    if config.command == "pencil":
        lines = ["q,member_id,theta,class"]
        for i, m in enumerate(payload["members"]):
            lines.append(f"{payload['q']},{i},{m['theta'][0]}:{m['theta'][1]},{m['class']}")
        return lines
    # is_conic by family_to_dict's closed form
    q = payload.spec.order
    fmt = payload.spec.format
    lines = ["q,member_id,theta,size,is_conic"]
    for i, ((t1, t2), arc) in enumerate(zip(payload.thetas, payload.members)):
        lines.append(f"{q},{i},{fmt(t1)}:{fmt(t2)},{len(arc.points)},{str(q == 4).lower()}")
    return lines


def render(spec: FieldSpec, config) -> str:
    """The whole stdout of config (a cli.RunConfig) for one of the commands
    above."""
    if config.command == "family":
        payload = _payload_family(spec, config)
    else:
        payload = {"field-info": _payload_field_info, "plane": _payload_plane,
                   "conic": _payload_conic, "pencil": _payload_pencil}[config.command](spec)
    if config.output == "csv":
        return "\n".join(_csv_lines(config, payload)) + "\n"
    return json.dumps(payload, indent=2) + "\n"
