"""Stdout of the commands other than arrow: field-info, plane, conic,
pencil and family.  Each builds its whole payload and prints it as JSON
(json.dumps with indent=2) or, for pencil and family, as CSV rows.

plane, pencil and the family's CSV rows print from values, with no plane
item or arc family made only to be printed.  plane prints the text of
each value triple of the enumeration (plane._triples) once, as both its
points and its lines, since point i and line i share their values.  The
family's q-1 CSV rows, one per proper member, come from the context's
thetas once the configuration passes arc._check_configuration, the checks
build_time_family makes: each member has q+1 points, and lies on a conic
by arc._is_conic.  The family's JSON prints family_to_dict of the built
family.

conic and pencil print closed forms in O(q): the canonical conic's points
from its parametrization, each point's tangent as its polar line, and the
time pencil's members and classes from the kernel's context, its base
points (1:0:0) and (0:1:0) and common nucleus (0:0:1) from their values.
The builds, plane scans and tallies that find the same (build_plane,
build_time_family, conic.point_set, conic.tangent_lines, pencil.members,
pencil.common_nucleus) are the tests' oracles, not called here.

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
    from .linetext import _text
    from .plane import _triples
    # point i and line i share their values, so one list is both
    texts = [_text(spec, values) for values in _triples(spec.order)]
    return {
        "q": spec.order,
        "num_points": len(texts),
        "num_lines": len(texts),
        "points": texts,
        "lines": texts,
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
    from .linetext import _text
    ctx = time_pencil_context(spec)
    fmt = spec.format
    payload = {
        "q": spec.order,
        # x1*x2 = x3^2 = 0 in plane order, for every q; pencil.base_points is the oracle
        "base_points": [_text(spec, (1, 0, 0)), _text(spec, (0, 1, 0))],
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
        payload["common_nucleus"] = _text(spec, (0, 0, 1))
    return payload


def _payload_family(spec: FieldSpec, config) -> dict:
    from .arc import build_time_family, family_to_dict
    from .plane import ProjLine
    return family_to_dict(build_time_family(spec, ProjLine(spec, config.linf),
                                            ProjLine(spec, config.lstar)))


def _family_csv_lines(spec: FieldSpec, config) -> list[str]:
    """The family's CSV rows, one per proper member (1, t), t != 0, in
    member order, each of size q+1, once the configuration passes the
    checks build_time_family makes; build_time_family is the oracle."""
    from .arc import _check_configuration, _is_conic
    from .kernel import time_pencil_context
    from .lines import _normalized
    _check_configuration(spec, _normalized(spec, config.linf), _normalized(spec, config.lstar))
    q = spec.order
    fmt = spec.format
    tail = f",{q + 1},{str(_is_conic(q)).lower()}"
    return ["q,member_id,theta,size,is_conic",
            *[f"{q},{i},{fmt(t1)}:{fmt(t2)}{tail}"
              for i, (t1, t2) in enumerate(time_pencil_context(spec).thetas)]]


def _pencil_csv_lines(payload: dict) -> list[str]:
    lines = ["q,member_id,theta,class"]
    for i, m in enumerate(payload["members"]):
        lines.append(f"{payload['q']},{i},{m['theta'][0]}:{m['theta'][1]},{m['class']}")
    return lines


def render(spec: FieldSpec, config) -> str:
    """The whole stdout of config (a cli.RunConfig) for one of the commands
    above."""
    if config.output == "csv":
        lines = (_family_csv_lines(spec, config) if config.command == "family"
                 else _pencil_csv_lines(_payload_pencil(spec)))
        return "\n".join(lines) + "\n"
    if config.command == "family":
        payload = _payload_family(spec, config)
    else:
        payload = {"field-info": _payload_field_info, "plane": _payload_plane,
                   "conic": _payload_conic, "pencil": _payload_pencil}[config.command](spec)
    return json.dumps(payload, indent=2) + "\n"
