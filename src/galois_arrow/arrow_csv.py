"""CSV rows of the arrow command: one chunk per ideal line, holding its
rows, the header with the first.

driver._execute imports this module only for --output csv, so a JSON run
does not compile it.  The reports come from driver._arrow_reports, one ideal
line at a time.  The members' rows are rendered once per orbit of ideal
lines (kernel._orbit) and prefixed per configuration by one join; in arc
mode, per L*, only the row of the member Q* through the contact point
differs (witnesses._arc_deltas).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from .kernel import _CLASS_BY_HITS, TimePencilContext, _orbit, time_pencil_context

if TYPE_CHECKING:
    from .cli import RunConfig
    from .field import FieldSpec


class _MemberRows:
    """The rows of the proper members, after the configuration columns, made
    from the q coordinate strings on first use and kept for the run."""

    def __init__(self, ctx: TimePencilContext):
        spec = ctx.spec
        self.coords = [spec.format(v) for v in range(spec.order)]
        self._ids = ctx.ids
        self._thetas = ctx.thetas
        # per number of witnesses (Future, Present, Past), per member position
        self._csv_rows: list[list[str | None]] = [[None] * len(ctx.ids) for _ in range(3)]

    def member_csv(self, i: int, hits: int) -> str:
        """The row of the member at position i with hits witnesses, after
        the configuration columns: id,theta,class and the newline; one
        string per (member, class), shared by every orbit's rows."""
        row = self._csv_rows[hits][i]
        if row is None:
            t1, t2 = self._thetas[i]
            row = self._csv_rows[hits][i] = (
                f"{self._ids[i]},{self.coords[t1]}:{self.coords[t2]},"
                f"{_CLASS_BY_HITS[hits]}\n")
        return row


def _arrow_csv(spec: FieldSpec, config: RunConfig, reports: Iterator) -> Iterator[str]:
    """One chunk per ideal line, holding its rows, the header with the
    first; reports is driver._arrow_reports."""
    ctx = time_pencil_context(spec)
    text = _MemberRows(ctx)
    coords = text.coords
    header = f"q,mode,{'linf,lstar,' if config.exhaustive else ''}member_id,theta,class\n"
    lead = f"{spec.order},{config.mode},"
    # per orbit, "" and the members' rows: prefix.join(rows) prefixes each
    rows_by_orbit: dict[int, list[str]] = {}
    for linf, _, configurations in reports:
        u, ys = _orbit(ctx, linf)
        rows = rows_by_orbit.get(u)
        if rows is None:   # a member with no root y is Future, as in witnesses._witnesses
            hits = [0 if y is None else 2 for y in ys]
            rows = rows_by_orbit[u] = ["", *map(text.member_csv, range(len(hits)), hits)]
        pieces = [header]
        if config.exhaustive:   # the configuration columns, from the coordinate strings
            line_lead = f"{lead}(1:{coords[linf[1]]}:{coords[linf[2]]}),"
        for a, delta in configurations:
            prefix = (line_lead + (f"(1:{coords[a]}:0)," if a else ",")
                      if config.exhaustive else lead)
            if delta is not None:   # Q* is Present in this report only
                i = delta[0]
                kept, rows[i + 1] = rows[i + 1], text.member_csv(i, 1)
            pieces.append(prefix.join(rows))
            if delta is not None:
                rows[i + 1] = kept
        header = ""
        yield "".join(pieces)
    if header:   # a run with no report prints the header alone
        yield header
