"""Stdout of the commands other than arrow: field-info, plane, conic,
pencil and family.  Each builds its whole payload and prints it as JSON
(json.dumps with indent=2) or, for pencil and family, as CSV rows.

plane, conic, pencil and family print from values and closed forms, with
no plane item or arc family made only to be printed.  plane prints the
text of each value triple of the enumeration (plane._triples) once, as
both its points and its lines, since point i and line i share their
values.  conic prints the canonical conic's zero set (conic._zero_values,
in plane order) and its tangents, each point's polar line in plane line
order (conic._tangent_values); pencil its members and classes from the
kernel's context, its base points (1:0:0) and (0:1:0) and common nucleus
(0:0:1) from their values.  family checks its configuration by
arc._check_configuration, the checks build_time_family makes, then
prints each member's arc from arc._member_values, or, as CSV, one row
per proper member from the context's thetas, each of size q+1, on a
conic by arc._is_conic.  The library calls that make the same plane
items and families (build_plane, parametrize_canonical,
build_time_family, family_to_dict), the census that finds the same
(pencil.members, pencil.common_nucleus) and the tests' plane scan and
tangent tally are their oracles, not called here.  Every text of a
point, line or coordinate is read from the field's coordinate strings,
made once per command, each point and line in the kernel's layout
(kernel._text_table).

driver._execute imports this module for those commands only, so an arrow
run does not compile it.  Each builder imports the modules it reads when
it runs.
"""

from __future__ import annotations

import json

from .field import FieldSpec, _generator_value


def _payload_field_info(spec: FieldSpec) -> dict:
    payload = {
        "p": spec.characteristic,
        "n": spec.degree,
        "q": spec.order,
        "modulus": list(spec.modulus),
        "generator": spec.format(_generator_value(spec.characteristic, spec.degree)),
        "num_elements": spec.order,
    }
    if spec.characteristic == 2:
        payload["modulus_hex"] = hex(sum(c << i for i, c in enumerate(spec.modulus)))
    return payload


def _payload_plane(spec: FieldSpec) -> dict:
    from .kernel import _text_table
    from .plane import _triples
    # point i and line i share their values, so one list is both
    texts = [*map(_text_table(spec)[1], _triples(spec.order))]
    return {
        "q": spec.order,
        "num_points": len(texts),
        "num_lines": len(texts),
        "points": texts,
        "lines": texts,
    }


def _payload_conic(spec: FieldSpec) -> dict:
    from .conic import _tangent_values, _zero_values, canonical_conic
    from .kernel import _text_table
    coords, text = _text_table(spec)
    conic = canonical_conic(spec).values
    return {
        "q": spec.order,
        "coefficients": [coords[c] for c in conic],
        # x1*x2 - x3^2 has Delta = 1; conic.classify is the oracle
        "class": "Proper",
        "points": [*map(text, _zero_values(spec, conic))],
        "tangent_lines": [*map(text, _tangent_values(spec, conic))],
        # (c23 : c13 : c12) of x1*x2 + x3^2; conic.nucleus is the oracle
        "nucleus": text((0, 0, 1)) if spec.characteristic == 2 else None,
    }


def _payload_pencil(spec: FieldSpec) -> dict:
    from .kernel import _text_table, time_pencil_context
    ctx = time_pencil_context(spec)
    coords, text = _text_table(spec)
    payload = {
        "q": spec.order,
        # x1*x2 = x3^2 = 0 in plane order, for every q; pencil.base_points is the oracle
        "base_points": [text((1, 0, 0)), text((0, 1, 0))],
        # the members t1*x1*x2 + t2*x3^2 in closed form: (1, 0), the proper
        # (1, t) of discriminant -t, then (0, 1); pencil.members, the census
        # by classify, is the oracle, and pencil.common_nucleus for N
        "members": [
            {
                "theta": [coords[t1], coords[t2]],
                "conic": [coords[c] for c in (0, t1, 0, 0, 0, t2)],
                "class": "Proper" if t1 * t2 else ("DoubleLine", "RealLinePair")[t1],
            }
            for t1, t2 in ((1, 0), *ctx.thetas, (0, 1))
        ],
    }
    if spec.characteristic == 2:
        payload["common_nucleus"] = text((0, 0, 1))
    return payload


def _payload_family(spec: FieldSpec, config) -> dict | list[str]:
    """The family's payload, or with --output csv its rows, once its
    configuration passes arc._check_configuration, the checks
    build_time_family makes.  Each member's points are the text of its arc
    from arc._member_values; each CSV row, one per proper member (1, t),
    t != 0, in member order, has size q+1.  family_to_dict of
    build_time_family is the oracle."""
    from .arc import _check_configuration, _is_conic, _member_values
    from .kernel import _text_table, time_pencil_context
    from .lines import _normalized
    linf, lstar = _normalized(spec, config.linf), _normalized(spec, config.lstar)
    index, t = _check_configuration(spec, linf, lstar)
    q = spec.order
    coords, text = _text_table(spec)
    thetas = time_pencil_context(spec).thetas
    is_conic = _is_conic(q)
    if config.output == "csv":
        tail = f",{q + 1},{str(is_conic).lower()}"
        return ["q,member_id,theta,size,is_conic",
                *[f"{q},{i},{coords[t1]}:{coords[t2]}{tail}" for i, (t1, t2) in enumerate(thetas)]]
    from .witnesses import _triple_values
    return {
        "q": q,
        "Linf": text(linf),
        "Lstar": text(lstar),
        "A": text(_triple_values(q, index)),
        "Qstar_theta": [coords[1], coords[t]],
        "members": [
            {
                "theta": [coords[t1], coords[t2]],
                "points": [*map(text, _member_values(spec, lstar[1], t2))],
                "is_conic": is_conic,
            }
            for t1, t2 in thetas
        ],
    }


def _pencil_csv_lines(payload: dict) -> list[str]:
    lines = ["q,member_id,theta,class"]
    for i, m in enumerate(payload["members"]):
        lines.append(f"{payload['q']},{i},{m['theta'][0]}:{m['theta'][1]},{m['class']}")
    return lines


def render(spec: FieldSpec, config) -> str:
    """The whole stdout of config (a cli.RunConfig) for one of the commands
    above."""
    if config.command == "family":
        payload = _payload_family(spec, config)
    elif config.output == "csv":
        payload = _pencil_csv_lines(_payload_pencil(spec))
    else:
        payload = {"field-info": _payload_field_info, "plane": _payload_plane,
                   "conic": _payload_conic, "pencil": _payload_pencil}[config.command](spec)
    return ("\n".join(payload) if config.output == "csv" else json.dumps(payload, indent=2)) + "\n"
