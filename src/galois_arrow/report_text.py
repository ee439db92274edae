"""The text of the arrow command's JSON reports: each member's text up to
its first witness per class, point texts and L* tails, each made once by
a _ReportText from the field's coordinate strings, each of them formatted
on its first read, in the kernel's layout (kernel._text_table).

arrow_json._arrow_json makes one _ReportText per sweep, and per chunk of
a single run's members, and lays its texts out as the document; like that
module, this one is loaded by JSON arrow runs only.
"""

from __future__ import annotations

from .field import FieldSpec
from .kernel import _CLASS_BY_HITS, Values, _text_table
from .witnesses import _triple_values


class _Texts(dict):
    """Texts by key, each made by make on its first read; later reads are
    dict hits, in C."""

    def __init__(self, make):
        self._make = make

    def __missing__(self, key) -> str:
        text = self[key] = self._make(key)
        return text


class _ReportText:
    """JSON text of arrow reports, byte-equal to json.dumps of
    ArrowReport.to_dict with indent=2, laid out as an entry of a sweep's
    "reports" list (every line after the first indented four spaces).
    Every string in a report is hex or decimal digits, (a:b:c) or a class
    name, so nothing needs escaping.  A report's text is its head, its
    members' texts and its tail; the caller makes the members' texts once
    per ideal line.  Made on first use and kept, in dicts of this object,
    so freed with it (a sweep makes one, a single run one per chunk of
    members): a Future member's whole text, a Past or Present member's text
    up to its first witness, point texts, L* tails and the coordinate
    strings they read, with the text of a point or line read from those,
    triple (kernel._text_table)."""

    def __init__(self, spec: FieldSpec):
        self._q = q = spec.order
        self._coords, triple = _text_table(spec, _Texts(spec.format))
        self.triple = triple
        self._points = _Texts(lambda i: triple(_triple_values(q, i)))
        # per number of witnesses (Future, Present, Past), by member
        # position, the member's text
        self._member_heads = ({}, {}, {})
        self._json_tails = {}   # json_tail, by L*'s a, None for a conic report

    def json_head(self, mode: str, linf: Values, tallies: tuple[int, int, int]) -> str:
        """The report's text up to the opening bracket of its members (every
        report has a member: a proper pencil member exists for q >= 2)."""
        past, present, future = tallies
        return (
            f'{{\n      "q": {self._q},\n      "mode": "{mode}",\n'
            f'      "ideal_line": "{self.triple(linf)}",\n'
            f'      "tallies": {{\n        "past": {past},\n'
            f'        "present": {present},\n'
            f'        "future": {future}\n      }},\n'
            f'      "members": [')

    def json_tail(self, a: int | None) -> str:
        """The report's text after its last member, L* = (1 : a : 0) in an
        arc report."""
        text = self._json_tails.get(a)
        if text is None:
            tail = f',\n      "lstar": "{self.triple((1, a, 0))}"' if a else ""
            text = self._json_tails[a] = f"\n      ]{tail}\n    }}"
        return text

    def _member_head(self, i: int, hits: int) -> str:
        """The text of the member (1, t), t = i + 1, at position i with hits
        witnesses, up to its first witness; the whole text for a Future
        member."""
        head = (f'\n        {{\n          "id": {i + 1},\n          "theta": [\n'
                f'            "{self._coords[1]}",\n            "{self._coords[i + 1]}"\n'
                f'          ],\n          "class": "{_CLASS_BY_HITS[hits]}",\n'
                f'          "witnesses": ' + ('[\n            "' if hits else '[]\n        }'))
        self._member_heads[hits][i] = head
        return head

    def member_json(self, i: int, witnesses: tuple[int, ...]) -> str:
        """The text of the proper member at position i, classed by its
        number of witnesses on the ideal line, given as plane indices."""
        try:
            head = self._member_heads[len(witnesses)][i]
        except KeyError:   # its first read; in a single run, every read
            head = self._member_head(i, len(witnesses))
        if not witnesses:
            return head
        text = head + self._points[witnesses[0]]
        if len(witnesses) == 2:   # Past; Present has one witness
            text += '",\n            "' + self._points[witnesses[1]]
        return text + '"\n          ]\n        }'
