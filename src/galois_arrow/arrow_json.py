"""JSON text of the arrow command: one chunk per ideal line, holding its
reports, then a sweep's summary, byte-equal to json.dumps of
ArrowReport.to_dict with indent=2 (the test suite's oracle).

driver._execute imports this module only for --output json, so a CSV run
does not compile it.  The reports come from driver._arrow_reports, one ideal
line at a time.  This module lays out the document: the reports, whose
texts come from report_text._ReportText, and the separators between them,
a single configuration's report, laid out as a sweep's entry and dedented
to the top level, and a sweep's rejections and tally distribution.
Members' texts are made once per ideal line; in arc mode, per L*, only
the member Q* through the contact point is rendered anew
(witnesses._arc_deltas).  The document and the report text are two
modules, each loaded by every JSON run and by no other, so that neither
compile, the last a JSON run makes, is a large one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from .kernel import Values, _text_table, time_pencil_context
from .report_text import _ReportText

if TYPE_CHECKING:
    from .cli import RunConfig
    from .field import FieldSpec


def _arrow_json(spec: FieldSpec, config: RunConfig, reports: Iterator,
                rejected: list[tuple[Values, int]]) -> Iterator[str]:
    """One chunk per ideal line, holding its reports, then the summary;
    reports is driver._arrow_reports, which appends a sweep's rejected
    configurations to rejected."""
    coords, triple = _text_table(spec)
    text = _ReportText(time_pencil_context(spec), coords, triple)
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
        head = text.json_head(config.mode, linf, tallies)
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
