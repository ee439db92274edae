"""The field's time-pencil context: the root tables conic._zero_values
reads, made once per field and kept on its spec.

This module imports only field.  No arrow run loads it: the arrows read
their members' points in closed form (kernel._past_members).
"""

from __future__ import annotations

from .field import FieldSpec


def _quadratic_roots(spec: FieldSpec) -> list[int | None]:
    """For each k of GF(2^n), a root y of y^2 + y = k, or None if there is
    none, which is exactly when the absolute trace of k is 1; y + 1 is the
    other root.  y -> y^2 + y is two-to-one, so one pass over y fills it."""
    roots = [None] * spec.order
    for y in range(spec.order):
        roots[spec._mul_i(y, y) ^ y] = y
    return roots


class TimePencilContext:
    """The field's root tables, for the zero set of any conic
    (conic._zero_values).  One per field, kept on its spec by
    time_pencil_context, so it lives and dies with the spec; the pencil
    itself is pencil.time_pencil(spec) and its plane plane.build_plane(spec).

    In characteristic 2, roots is _quadratic_roots(spec), by which each row
    of a zero set is solved in one lookup; squares, the field's square
    roots by value, is made by the field's first zero set."""

    __slots__ = ("spec", "roots", "squares")

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.roots = _quadratic_roots(spec) if spec.characteristic == 2 else None
        self.squares = None


def time_pencil_context(spec: FieldSpec) -> TimePencilContext:
    """The spec's one context, made on the first call."""
    if spec._context is None:
        spec._context = TimePencilContext(spec)
    return spec._context
