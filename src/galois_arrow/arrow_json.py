"""JSON text of the arrow command: one chunk per ideal line, holding its
reports, then a sweep's summary, byte-equal to json.dumps of
ArrowReport.to_dict with indent=2 (the test suite's oracle).

driver._execute imports this module only for --output json, so a CSV run
does not compile it.  The reports come from driver._arrow_reports, one ideal
line at a time.  Members' texts are made once per ideal line; in arc
mode, per L*, only the member Q* through the contact point is rendered
anew (witnesses._arc_deltas).  Each member's text, but for its witness
points, is made once per run.  A single configuration's report is laid
out as a sweep's entry and dedented to the top level.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from .kernel import _CLASS_BY_HITS, TimePencilContext, Values, time_pencil_context
from .witnesses import _triple_values

if TYPE_CHECKING:
    from .cli import RunConfig
    from .field import FieldSpec


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

    def json_head(self, q: int, mode: str, linf: Values, tallies: tuple[int, int, int]) -> str:
        """The report's text up to the opening bracket of its members (every
        report has a member: a proper pencil member exists for q >= 2)."""
        past, present, future = tallies
        return (
            f'{{\n      "q": {q},\n      "mode": "{mode}",\n'
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
        text = head + (points[a] if a in points else self.point(a))
        if len(witnesses) == 2:   # Past; Present has one witness
            b = witnesses[1]
            text += '",\n            "' + (points[b] if b in points else self.point(b))
        return text + '"\n          ]\n        }'


def _arrow_json(spec: FieldSpec, config: RunConfig, reports: Iterator,
                rejected: list[tuple[Values, int]]) -> Iterator[str]:
    """One chunk per ideal line, holding its reports, then the summary;
    reports is driver._arrow_reports, which appends a sweep's rejected
    configurations to rejected."""
    ctx = time_pencil_context(spec)
    text = _ReportText(ctx)
    # the opening goes out with the first ideal line's reports, so that a
    # run refused before them prints nothing
    opening = (f'{{\n  "q": {spec.order},\n  "mode": "{config.mode}",\n'
               f'  "exhaustive": true,\n  "reports": [')
    separator = opening + "\n    " if config.exhaustive else ""
    distribution: dict[str, int] = {}
    for linf, witnesses, configurations in reports:
        future = witnesses.count(())
        tallies = (len(witnesses) - future, 0, future)
        if config.mode == "arc":   # Q* goes from Past to Present in every report of the line
            tallies = (tallies[0] - 1, 1, future)
        head = text.json_head(spec.order, config.mode, linf, tallies)
        # the members' texts with commas between them, member i at 2i; a
        # report takes them by reference, so the line's texts are copied
        # once, into its chunk
        members = [","] * (2 * len(witnesses) - 1)
        members[::2] = map(text.member_json, range(len(witnesses)), witnesses)
        pieces = []
        for a, delta in configurations:
            pieces += (separator, head)
            pieces += members
            if delta is not None:   # Q* is member i of the members just added
                i, witness = delta
                pieces[2 * i - len(members)] = text.member_json(i, (witness,))
            pieces.append(text.json_tail(a))
            separator = ",\n    "
        if not config.exhaustive:
            # the one report stands at the top level, not inside "reports"
            yield "".join(pieces).replace("\n    ", "\n") + "\n"
            return
        key = "%d:%d:%d" % tallies
        distribution[key] = distribution.get(key, 0) + len(configurations)
        yield "".join(pieces)
    triple = text.triple
    entries = [f'\n    {{\n      "linf": "{triple(linf)}",\n'
               f'      "lstar": "{triple((1, a, 0))}",\n'
               f'      "rejected": "DegenerateContactPoint"\n    }}'
               for linf, a in rejected]
    counts = [f'\n      "{key}": {distribution[key]}' for key in sorted(distribution)]
    valid = sum(distribution.values())
    # the rejections and the distribution, each laid out as json.dumps(...,
    # indent=2) lays out a list or dict: its items (each starting with its
    # own newline and indentation) and its closing bracket on a line of its
    # own, or [] and {} when empty
    rejected_block = "[" + ",".join(entries) + "\n  ]" if entries else "[]"
    counts_block = "{" + ",".join(counts) + "\n    }" if counts else "{}"
    yield ("\n  ]" if distribution else opening + "]") + (
        f',\n  "rejected": {rejected_block},\n  "summary": {{\n'
        f'    "total_configurations": {valid + len(rejected)},\n'
        f'    "valid": {valid},\n    "rejected": {len(rejected)},\n'
        f'    "tally_distribution": {counts_block}\n  }}\n}}\n')
