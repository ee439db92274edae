"""Stdout of the commands other than arrow: field-info, plane, conic,
pencil and family.  Each builds its whole payload and prints it as JSON
(json.dumps with indent=2) or, for pencil and family, as CSV rows.

driver._execute imports this module for those commands only, so an arrow
run does not compile it.  Each builder imports the modules it reads when
it runs.
"""

from __future__ import annotations

import json

from .errors import OddCharacteristic
from .field import FieldSpec
from .kernel import time_pencil_context
from .plane import ProjLine, build_plane


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
    from .conic import _nucleus_char2, canonical_conic, classify, point_set, tangent_lines
    plane = build_plane(spec)
    conic = canonical_conic(spec)
    tangents = tangent_lines(conic, plane)
    try:
        # the closed form; conic.nucleus would scan every line again
        nuc = str(_nucleus_char2(conic))
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
    from .pencil import common_nucleus, members, time_pencil
    ctx = time_pencil_context(spec)
    pencil = time_pencil(spec)
    fmt = spec.format
    payload = {
        "q": spec.order,
        # x1*x2 = x3^2 = 0 in plane order, for every q; pencil.base_points is the oracle
        "base_points": [str(ctx.B2), str(ctx.B1)],
        "members": [
            {
                "theta": [fmt(m.theta[0]), fmt(m.theta[1])],
                "conic": [str(c) for c in m.conic.coefficients],
                "class": str(m.degeneracy),
            }
            for m in members(pencil, ctx.plane)
        ],
    }
    if spec.characteristic == 2:
        payload["common_nucleus"] = str(common_nucleus(pencil, ctx.plane))
    return payload


def _payload_family(spec: FieldSpec, config) -> dict:
    from .arc import build_time_family, family_to_dict
    linf, lstar = ProjLine(spec, config.linf), ProjLine(spec, config.lstar)
    return family_to_dict(build_time_family(spec, linf, lstar))


def _csv_lines(config, payload: dict) -> list[str]:
    if config.command == "pencil":
        lines = ["q,member_id,theta,class"]
        for i, m in enumerate(payload["members"]):
            lines.append(f"{payload['q']},{i},{m['theta'][0]}:{m['theta'][1]},{m['class']}")
        return lines
    lines = ["q,member_id,theta,size,is_conic"]
    for i, m in enumerate(payload["members"]):
        lines.append(f"{payload['q']},{i},{m['theta'][0]}:{m['theta'][1]},"
                     f"{len(m['points'])},{str(m['is_conic']).lower()}")
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
