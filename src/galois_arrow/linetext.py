"""Lines read from the command line's --linf and --lstar, and the text
(x1:x2:x3) of a point or line made one at a time, by str() of a plane item
and in the diagnostics that name a line, in the kernel's one layout
(kernel._triple_text).

The arrow command imports this module only when --linf or --lstar is
given or a diagnostic names a line, so a run on the default lines that
succeeds does not compile it.
"""

from __future__ import annotations

from .errors import ArcDeltaMismatch, DegenerateContactPoint, UsageError
from .field import FieldSpec
from .kernel import _CLASS_BY_HITS, Values, _triple_text


def _parse_triple(text: str, q: int) -> tuple[int, int, int]:
    try:
        parts = tuple(int(tok, 0) for tok in text.split(","))
    except ValueError as exc:
        raise UsageError(f"malformed coordinate triple {text!r}") from exc
    if len(parts) != 3:
        raise UsageError(f"expected three comma-separated coordinates, got {text!r}")
    if any(not 0 <= v < q for v in parts):
        raise UsageError(f"coordinates in {text!r} must lie in [0, {q})")
    if all(v == 0 for v in parts):
        raise UsageError("the zero triple is not a line")
    return parts


def _text(spec: FieldSpec, values: Values) -> str:
    """The text (x1:x2:x3) of a point or line by its values, as str() of it:
    kernel._triple_text over the texts of its three coordinates alone, so
    that a text made one at a time builds no table of the field."""
    return _triple_text({v: spec.format(v) for v in values}, values)


def _degenerate_contact(spec: FieldSpec, linf: Values, a: int) -> DegenerateContactPoint:
    """The refusal of a configuration (linf, (1 : a : 0)) whose contact point
    witnesses._contacts gives as None: A = (1 : 1/a : 0) is on the double
    line."""
    return DegenerateContactPoint(
        f"{_text(spec, (1, spec._inv[a], 0))} = {_text(spec, linf)} ∧ {_text(spec, (1, a, 0))}"
        " lies on a degenerate member")


def _delta_mismatch(spec: FieldSpec, linf: Values, t: int, index: int,
                    hits: tuple[int, ...]) -> ArcDeltaMismatch:
    """The stop of an arc pass (witnesses._arc_deltas) whose member
    Q* = (1, t), through the contact point A at plane index index, has the
    witnesses hits on linf, not two of which A is one."""
    from .witnesses import _triple_values
    a, *others = [_text(spec, _triple_values(spec.order, i)) for i in (index, *hits)]
    return ArcDeltaMismatch(
        f"member (1, {t}) through {a} is {_CLASS_BY_HITS[len(hits)]} on"
        f" {_text(spec, linf)} with witnesses {', '.join(others)}")
