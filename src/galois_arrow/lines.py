"""The lines of one configuration, by their values: scaled to normal form
and checked.

The arrow command imports this module for a single configuration only; a
sweep takes its lines in closed form, all valid and normalized.  The
plane module scales every point and line through _normalized, and checks
lines given as plane items through _check_line.
"""

from __future__ import annotations

from typing import Sequence

from .errors import HitsBasePoint, HitsNucleus, InvalidTangentLine
from .field import FieldSpec
from .kernel import Values


def _normalized(spec: FieldSpec, values: Sequence[int]) -> tuple[int, ...]:
    """Packed values scaled by the inverse of the first nonzero one, which
    becomes 1; the zero vector is rejected.  plane._normalize scales every
    point and line through it."""
    lead = next((v for v in values if v != 0), None)
    if lead is None:
        raise ValueError("the zero vector is not projective")
    if lead == 1:
        return tuple(values)
    scale = spec._inv[lead]
    mul = spec._mul_i
    return tuple(mul(scale, v) for v in values)


def _check_line(spec: FieldSpec, values: Values, tangent: bool) -> None:
    """The check of one line by its values.  An ideal line (tangent false)
    must miss the base points B1 = (0:1:0) and B2 = (1:0:0) and the nucleus
    N = (0:0:1), so have all three coefficients nonzero.  An L* (tangent
    true) must pass through N and miss both base points, that is be neither
    (1:0:0) nor (0:1:0), so have l3 = 0 and l1*l2 != 0.  The refusal names
    the line by its text (linetext._text)."""
    l1, l2, l3 = values
    if tangent:
        if l3:
            error, message = InvalidTangentLine, "{} does not pass through the nucleus (0:0:1)"
        elif not (l1 and l2):
            error, message = InvalidTangentLine, "{} joins the nucleus to a base point"
        else:
            return
    elif not (l1 and l2):
        error, message = HitsBasePoint, "ideal line {} passes through a base point"
    elif not l3:
        error, message = HitsNucleus, "ideal line {} passes through the nucleus (0:0:1)"
    else:
        return
    from .linetext import _text
    raise error(message.format(_text(spec, values)))
