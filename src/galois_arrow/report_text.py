"""The text of the arrow command's JSON reports: each member's text up to
its first witness per class, point texts and L* tails, each made once per
run from the field's coordinate strings, in the kernel's layout
(kernel._text_table).

arrow_json._arrow_json makes one _ReportText per run and lays its texts
out as the document; like that module, this one is loaded by JSON arrow
runs only.
"""

from __future__ import annotations

from .kernel import _CLASS_BY_HITS, TimePencilContext, Values
from .witnesses import _triple_values


class _PointTexts(dict):
    """The text of each plane point read, by its index, made from its
    values on the first read; later reads are dict hits, in C."""

    def __init__(self, q: int, triple):
        self._q = q
        self._triple = triple

    def __missing__(self, i: int) -> str:
        text = self[i] = self._triple(_triple_values(self._q, i))
        return text


class _ReportText:
    """JSON text of arrow reports, byte-equal to json.dumps of
    ArrowReport.to_dict with indent=2, laid out as an entry of a sweep's
    "reports" list (every line after the first indented four spaces).
    Every string in a report is hex or decimal digits, (a:b:c) or a class
    name, so nothing needs escaping.  A report's text is its head, its
    members' texts and its tail; the caller makes the members' texts once
    per ideal line.  Made on first use and kept for the run, in dicts and
    lists of this object, so freed with it: a Future member's whole text, a
    Past or Present member's text up to its first witness, point texts and
    L* tails, from the field's coordinate strings coords and the text of a
    point or line read from them, triple (kernel._text_table)."""

    def __init__(self, ctx: TimePencilContext, coords: list[str], triple):
        self._q = ctx.spec.order
        self._coords = coords
        self._triple = triple
        self._ids = ctx.ids
        self._thetas = ctx.thetas
        self._points = _PointTexts(self._q, triple)
        # per number of witnesses (Future, Present, Past), per member
        # position, its text or None
        self._member_heads = [[None] * len(ctx.ids) for _ in range(3)]
        self._json_tails = {}   # json_tail, by L*'s a, None for a conic report

    def json_head(self, mode: str, linf: Values, tallies: tuple[int, int, int]) -> str:
        """The report's text up to the opening bracket of its members (every
        report has a member: a proper pencil member exists for q >= 2)."""
        past, present, future = tallies
        return (
            f'{{\n      "q": {self._q},\n      "mode": "{mode}",\n'
            f'      "ideal_line": "{self._triple(linf)}",\n'
            f'      "tallies": {{\n        "past": {past},\n'
            f'        "present": {present},\n'
            f'        "future": {future}\n      }},\n'
            f'      "members": [')

    def json_tail(self, a: int | None) -> str:
        """The report's text after its last member, L* = (1 : a : 0) in an
        arc report."""
        text = self._json_tails.get(a)
        if text is None:
            tail = f',\n      "lstar": "{self._triple((1, a, 0))}"' if a else ""
            text = self._json_tails[a] = f"\n      ]{tail}\n    }}"
        return text

    def _member_head(self, i: int, hits: int) -> str:
        """The text of the member at position i with hits witnesses, up to
        its first witness; the whole text for a Future member."""
        t1, t2 = self._thetas[i]
        head = (f'\n        {{\n          "id": {self._ids[i]},\n          "theta": [\n'
                f'            "{self._coords[t1]}",\n            "{self._coords[t2]}"\n'
                f'          ],\n          "class": "{_CLASS_BY_HITS[hits]}",\n'
                f'          "witnesses": ' + ('[\n            "' if hits else '[]\n        }'))
        self._member_heads[hits][i] = head
        return head

    def member_json(self, i: int, witnesses: tuple[int, ...]) -> str:
        """The text of the proper member at position i, classed by its
        number of witnesses on the ideal line, given as plane indices."""
        head = self._member_heads[len(witnesses)][i] or self._member_head(i, len(witnesses))
        if not witnesses:
            return head
        text = head + self._points[witnesses[0]]
        if len(witnesses) == 2:   # Past; Present has one witness
            text += '",\n            "' + self._points[witnesses[1]]
        return text + '"\n          ]\n        }'
