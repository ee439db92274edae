"""The text of the arrow command's JSON reports: the q coordinate
strings, point texts, each member's text up to its first witness per
class, and L* tails, each made once per run.

arrow_json._arrow_json makes one _ReportText per run and lays its texts
out as the document; like that module, this one is loaded by JSON arrow
runs only.
"""

from __future__ import annotations

from .kernel import _CLASS_BY_HITS, TimePencilContext, Values
from .witnesses import _triple_values


class _ReportText:
    """JSON text of arrow reports, byte-equal to json.dumps of
    ArrowReport.to_dict with indent=2, laid out as an entry of a sweep's
    "reports" list (every line after the first indented four spaces).
    Every string in a report is hex or decimal digits, (a:b:c) or a class
    name, so nothing needs escaping.  A report's text is its head, its
    members' texts and its tail; the caller makes the members' texts once
    per ideal line.  Made on first use and kept for the run: a Future
    member's whole text, a Past or Present member's text up to its first
    witness, point texts and L* tails.  Point and line texts are made from
    the q coordinate strings."""

    def __init__(self, ctx: TimePencilContext):
        spec = ctx.spec
        self._q = spec.order
        self.coords = [spec.format(v) for v in range(spec.order)]
        self._ids = ctx.ids
        self._thetas = ctx.thetas
        self._points: dict[int, str] = {}
        # per number of witnesses (Future, Present, Past), per member position
        self._member_heads: list[list[str | None]] = [[None] * len(ctx.ids) for _ in range(3)]
        self._json_tails: dict[int | None, str] = {}

    def triple(self, values: Values) -> str:
        coords = self.coords
        return "(" + ":".join([coords[v] for v in values]) + ")"

    def point(self, index: int) -> str:
        """The text of the plane point at index, made from its values."""
        text = self._points[index] = self.triple(_triple_values(self._q, index))
        return text

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
        """The text of the member at position i with hits witnesses, up to
        its first witness; the whole text for a Future member."""
        t1, t2 = self._thetas[i]
        head = (f'\n        {{\n          "id": {self._ids[i]},\n          "theta": [\n'
                f'            "{self.coords[t1]}",\n            "{self.coords[t2]}"\n'
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
        points = self._points
        a = witnesses[0]
        text = head + (points.get(a) or self.point(a))
        if len(witnesses) == 2:   # Past; Present has one witness
            b = witnesses[1]
            text += '",\n            "' + (points.get(b) or self.point(b))
        return text + '"\n          ]\n        }'
