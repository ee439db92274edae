"""Stdout of the commands other than arrow: field-info, plane, conic,
pencil and family, in chunks for driver.run to write.  plane and family
(JSON), whose output is O(q^2), stream their JSON in chunks of O(q),
laid out as json.dumps with indent=2 lays out their whole payloads (the
tests' oracles._payload_plane and _payload_family).  field-info, conic
and pencil, whose output is O(q), build their whole payload and print it
by json.dumps with indent=2, and pencil and family their CSV rows whole.

plane, conic, pencil and family print from values and closed forms, with
no plane item or arc family made only to be printed.  plane prints the
text of each value triple of the enumeration (plane._triples), in rows
joined from the coordinate strings, as its points and again as its
lines, since point i and line i share their values.  conic prints the
canonical conic's zero set (conic._zero_values, in plane order) and its
tangents, each point's polar line in plane line order
(conic._tangent_values); pencil its members and classes in closed form,
its base points (1:0:0) and (0:1:0) and common nucleus
(0:0:1) from their values.  family checks its configuration by
arc._check_configuration, the checks build_time_family makes, then
prints each member's arc from arc._member_values, or, as CSV, one row
per proper member (1, t), t != 0, each of size q+1, on a
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
it runs.  Every string they print is hex or decimal digits, (a:b:c), a
class name or a boolean, so nothing needs escaping.
"""

from __future__ import annotations

import json
from typing import Iterator

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
    from .kernel import _text_table
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
            for t1, t2 in [(1, 0), *[(1, t) for t in range(1, spec.order)], (0, 1)]
        ],
    }
    if spec.characteristic == 2:
        payload["common_nucleus"] = text((0, 0, 1))
    return payload


def _plane_json(spec: FieldSpec) -> Iterator[str]:
    """plane's JSON, laid out as json.dumps(payload, indent=2) lays out
    the whole payload (tests' oracles._payload_plane): its counts, then its
    points and again its lines, since point i and line i share their
    values.  Each list goes out in the rows (x1 : x2 : *) of the plane's
    enumeration (plane._triples), one chunk of q texts per row joined from
    the coordinate strings, then (0 : 0 : 1) with what closes the list."""
    from .kernel import _text_table
    coords = _text_table(spec)[0]
    zero, one = coords[0], coords[1]
    q = spec.order
    count = q * q + q + 1
    tails = [f'{c})"' for c in coords]
    # the rows (1 : x2 : *), x2 in element order, then (0 : 1 : *)
    rows = [f'\n    "({one}:{x2}:' for x2 in coords] + [f'\n    "({zero}:{one}:']
    yield f'{{\n  "q": {q},\n  "num_points": {count},\n  "num_lines": {count},\n  "points": ['
    for close in ('\n  ],\n  "lines": [', "\n  ]\n}\n"):
        for row in rows:
            yield row + ("," + row).join(tails) + ","
        yield f'\n    "({zero}:{zero}:{one})"' + close


def _family(spec: FieldSpec, config) -> Iterator[str]:
    """The family's stdout once its configuration passes
    arc._check_configuration, the checks build_time_family makes.  As
    JSON, laid out as json.dumps(payload, indent=2) lays out the whole
    payload (tests' oracles._payload_family), one chunk per member: the
    text of its arc from arc._member_values.  As CSV, whole: one row per
    proper member (1, t), t != 0, in member order, of size q+1.
    family_to_dict of build_time_family is the oracle of both."""
    from .arc import _check_configuration, _is_conic, _member_values
    from .kernel import _text_table
    from .lines import _normalized
    linf, lstar = _normalized(spec, config.linf), _normalized(spec, config.lstar)
    index, t = _check_configuration(spec, linf, lstar)
    q = spec.order
    coords, text = _text_table(spec)
    thetas = [(1, s) for s in range(1, q)]
    is_conic = str(_is_conic(q)).lower()
    if config.output == "csv":
        tail = f",{q + 1},{is_conic}"
        yield "\n".join(["q,member_id,theta,size,is_conic",
                         *[f"{q},{i},{coords[t1]}:{coords[t2]}{tail}"
                           for i, (t1, t2) in enumerate(thetas)]]) + "\n"
        return
    from .witnesses import _triple_values
    separator = (f'{{\n  "q": {q},\n  "Linf": "{text(linf)}",\n  "Lstar": "{text(lstar)}",\n'
                 f'  "A": "{text(_triple_values(q, index))}",\n'
                 f'  "Qstar_theta": [\n    "{coords[1]}",\n    "{coords[t]}"\n  ],\n'
                 f'  "members": [')
    for t1, t2 in thetas:
        points = '",\n        "'.join(map(text, _member_values(spec, lstar[1], t2)))
        yield (f'{separator}\n    {{\n      "theta": [\n        "{coords[t1]}",\n'
               f'        "{coords[t2]}"\n      ],\n      "points": [\n        "{points}"\n'
               f'      ],\n      "is_conic": {is_conic}\n    }}')
        separator = ","
    yield "\n  ]\n}\n"


def _pencil_csv_lines(payload: dict) -> list[str]:
    lines = ["q,member_id,theta,class"]
    for i, m in enumerate(payload["members"]):
        lines.append(f"{payload['q']},{i},{m['theta'][0]}:{m['theta'][1]},{m['class']}")
    return lines


def render(spec: FieldSpec, config) -> Iterator[str]:
    """The stdout of config (a cli.RunConfig) for one of the commands
    above, in chunks: plane's and family's streamed, the others' whole."""
    if config.command == "plane":
        yield from _plane_json(spec)
    elif config.command == "family":
        yield from _family(spec, config)
    elif config.output == "csv":
        yield "\n".join(_pencil_csv_lines(_payload_pencil(spec))) + "\n"
    else:
        payload = {"field-info": _payload_field_info, "conic": _payload_conic,
                   "pencil": _payload_pencil}[config.command](spec)
        yield json.dumps(payload, indent=2) + "\n"
