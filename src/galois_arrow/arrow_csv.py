"""CSV rows of the arrow command: one chunk per ideal line, holding its
rows, the header with the first.

driver._execute imports this module only for --output csv, so a JSON run
does not compile it.  The reports come from driver._arrow_reports, one ideal
line at a time.  The members' rows are rendered once per scale k = c^2/b
of the ideal lines (1 : b : c) with the same Past members
(kernel._past_members), each row once per run from the field's coordinate
strings (kernel._text_table), and prefixed per configuration by one join;
in arc mode, per L*, only the row of the member Q* through the contact
point differs (witnesses._arc_deltas).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from .kernel import _CLASS_BY_HITS, _past_members, _text_table

if TYPE_CHECKING:
    from .cli import RunConfig
    from .field import FieldSpec


def _arrow_csv(spec: FieldSpec, config: RunConfig, reports: Iterator) -> Iterator[str]:
    """One chunk per ideal line, holding its rows, the header with the
    first; reports is driver._arrow_reports."""
    coords, triple = _text_table(spec)
    # per number of witnesses (Future, Present, Past), per member position
    made: list[list[str | None]] = [[None] * (spec.order - 1) for _ in range(3)]

    def row(i: int, hits: int) -> str:
        """The row of the member (1, t), t = i + 1, at position i with hits
        witnesses, after the configuration columns; one string per (member,
        class), made on first use and shared by every scale's rows."""
        text = made[hits][i]
        if text is None:
            text = made[hits][i] = (f"{i + 1},{coords[1]}:{coords[i + 1]},"
                                    f"{_CLASS_BY_HITS[hits]}\n")
        return text

    header = f"q,mode,{'linf,lstar,' if config.exhaustive else ''}member_id,theta,class\n"
    lead = f"{spec.order},{config.mode},"
    # "" and the members' rows, all Future, and per scale k the line's:
    # prefix.join(rows) prefixes each
    future = ["", *[row(i, 0) for i in range(spec.order - 1)]]
    rows_by_scale: dict[int, list[str]] = {}
    for linf, _, configurations in reports:
        k, past = _past_members(spec, linf)
        rows = rows_by_scale.get(k)
        if rows is None:
            rows = rows_by_scale[k] = future.copy()
            for t, _ in past:
                rows[t] = row(t - 1, 2)
        pieces = [header]
        if config.exhaustive:   # the configuration columns
            line_lead = f"{lead}{triple(linf)},"
        for a, delta in configurations:
            prefix = (line_lead + (f"{triple((1, a, 0))}," if a else ",")
                      if config.exhaustive else lead)
            if delta is not None:   # Q* is Present in this report only
                i = delta[0]
                kept, rows[i + 1] = rows[i + 1], row(i, 1)
            pieces.append(prefix.join(rows))
            if delta is not None:
                rows[i + 1] = kept
        header = ""
        yield "".join(pieces)
    if header:   # a run with no report prints the header alone
        yield header
