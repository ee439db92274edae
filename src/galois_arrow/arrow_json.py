"""JSON text of the arrow command: in a sweep one chunk per ideal line,
holding its reports, then the summary, and in a single run its report in
chunks of 256 members, byte-equal to json.dumps of ArrowReport.to_dict
with indent=2 (the test suite's oracle).

driver._execute imports this module only for --output json, so a CSV run
does not compile it.  The reports come from driver._arrow_reports, one ideal
line at a time.  This module lays out the document: the reports, whose
texts come from report_text._ReportText, and the separators between them,
a single configuration's report, laid out as a sweep's entry and dedented
to the top level, and a sweep's rejections and tally distribution.
In a sweep, members' texts are made once per ideal line; in arc mode, per
L*, only the member Q* through the contact point is rendered anew
(witnesses._arc_deltas).  A single run makes its texts, down to the
coordinate strings, per chunk and keeps none past it.  The document and
the report text are two modules, each loaded by every JSON run and by no
other, so that neither compile, the last a JSON run makes, is a large one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from .kernel import Values
from .report_text import _ReportText

if TYPE_CHECKING:
    from .cli import RunConfig
    from .field import FieldSpec


def _arrow_json(spec: FieldSpec, config: RunConfig, reports: Iterator,
                rejected: list[tuple[Values, int]]) -> Iterator[str]:
    """In a sweep one chunk per ideal line, holding its reports, then the
    summary; in a single run the report in chunks of 256 members.  reports
    is driver._arrow_reports, which appends a sweep's rejected
    configurations to rejected."""
    text = _ReportText(spec)
    # the opening goes out with the first ideal line's reports, so that a
    # run refused before them prints nothing
    opening = (f'{{\n  "q": {spec.order},\n  "mode": "{config.mode}",\n'
               f'  "exhaustive": true,\n  "reports": [')
    separator = opening + "\n    "
    distribution = {}
    for linf, witnesses, configurations in reports:
        future = witnesses.count(())
        tallies = (len(witnesses) - future, 0, future)
        if config.mode == "arc":   # Q* goes from Past to Present in every report of the line
            tallies = (tallies[0] - 1, 1, future)
        head = text.json_head(config.mode, linf, tallies)
        if not config.exhaustive:
            # the one report stands at the top level, not inside "reports":
            # its members go out 256 at a time, each chunk's texts, down to
            # the coordinates, made by a _ReportText of its own, so that none
            # outlives its chunk
            ((a, delta),) = configurations
            if delta:   # Q* is Present, with its one witness
                witnesses[delta[0]] = delta[1:]
            for i in range(0, len(witnesses), 256):
                yield (head + ",".join(map(_ReportText(spec).member_json,
                                           range(i, i + 256), witnesses[i:i + 256]))
                       ).replace("\n    ", "\n")
                head = ","
            yield text.json_tail(a).replace("\n    ", "\n") + "\n"
            return
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
        key = "%d:%d:%d" % tallies
        distribution[key] = distribution.get(key, 0) + len(configurations)
        yield "".join(pieces)
    entries = [f'\n    {{\n      "linf": "{text.triple(linf)}",\n'
               f'      "lstar": "{text.triple((1, a, 0))}",\n'
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
