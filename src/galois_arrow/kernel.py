"""The closed forms both arrows over GF(2^n) start from: the time-pencil
context and, per orbit of ideal lines, the classification of its members.

This module imports only field.  A line is its value triple, and the arrow
command runs on this module and those it loads only for the runs that
call them, so it loads no plane, census, conic or arc module:

- witnesses: per ideal line, its members' witnesses and the arc pass, as
  plane indices, for arc and JSON runs;
- lines: a single run's --linf and --lstar, normalized and checked;
- linetext: a line read from argv, and the text of a point or line made
  one at a time, for str() of a plane item or a diagnostic.

The text (x1:x2:x3) of every point and line the package prints has one
layout, _triple_text, over the text of each coordinate.  A run that makes
many texts reads them from the field's one table of coordinate strings,
made once per run by _text_table (a JSON arrow run's are made on their
first read); a text made one at a time formats only its own three
coordinates (linetext._text).

A sweep takes its lines in closed form: the ideal lines (1 : b : c),
bc != 0, and the lines L* = (1 : a : 0), a != 0, written only in
driver._arrow_reports.  The context is plain data the kernel computes;
the plane, its points B1 = (0:1:0), B2 = (1:0:0) and N = (0:0:1) and the
lines as plane items are the plane module's (plane.build_plane), which
the modules that make plane items call.  The plane module imports the
kernel's Values, never the reverse; it checks an ideal line given as a
plane item by lines._check_line (validate_ideal_line;
arc._check_configuration checks a family's lines).

The canonical ("time") pencil, pencil.time_pencil, is spanned by x1*x2 and
x3^2.  Its members are indexed by theta = (t1, t2), normalized so the
first nonzero entry is 1, in the order (1, t), t over the field, then
(0, 1).  The member (1, t) has discriminant -t, so the proper members are
(1, t), t != 0, at position t, which is their id; pencil.members, the
census by classify, is the oracle.

A proper member meets a valid ideal line where y^2 + y = k for one k of
the field, which has two roots when the absolute trace of k is 0 and none
otherwise (Lidl and Niederreiter, Finite Fields).  A table of roots per
field turns each member into one lookup; arrow.classify_member, the
incidence scan, is the oracle.

The conic arrow on (1 : b : c) depends only on its orbit u = b/c^2.  The
collineation σ_λ : (x1 : x2 : x3) -> (x1 : λ^2 x2 : λ x3) scales each
member x1*x2 + t*x3^2 by λ^2, so fixes its points as a set, and maps
(1 : b : c) to (1 : b/λ^2 : c/λ).  As (1 : b : c) = σ_{1/c}(1 : u : 1), each
member has the same class on both lines, and its witnesses on (1 : b : c)
are the images (1 : y2/c^2 : y3/c) of those (1 : y2 : y3) on (1 : u : 1).
So the (q-1)^2 valid ideal lines form q-1 orbits of q-1 lines; _orbit
classifies once per orbit, and witnesses._witnesses finds its line's
witnesses, as plane indices.
"""

from __future__ import annotations

from functools import partial

from .field import FieldSpec

Values = tuple[int, int, int]

# The temporal classes' names, indexed by the number of points a member
# shares with the ideal line, as conic.classify_line; arrow.TemporalClass
# is the enum of them.
_CLASS_BY_HITS = ("Future", "Present", "Past")


def _quadratic_roots(spec: FieldSpec) -> list[int | None]:
    """For each k of GF(2^n), a root y of y^2 + y = k, or None if there is
    none, which is exactly when the absolute trace of k is 1; y + 1 is the
    other root.  y -> y^2 + y is two-to-one, so one pass over y fills it."""
    roots = [None] * spec.order
    for y in range(spec.order):
        roots[spec._mul_i(y, y) ^ y] = y
    return roots


def _triple_text(coords, values: Values) -> str:
    """The text (x1:x2:x3) of a point or line by its values, each read from
    coords: the field's table (_text_table) or, for a text made one at a
    time, its three coordinates' texts by value (linetext._text)."""
    x1, x2, x3 = values
    return f"({coords[x1]}:{coords[x2]}:{coords[x3]})"


def _text_table(spec: FieldSpec, coords=None) -> tuple:
    """The field's coordinate strings, spec.format of each value, by value,
    and _triple_text reading them: the one table of a run that makes many
    texts of points, lines or members, made once per run.  Given coords, a
    mapping that makes each string on its first read (report_text._Texts),
    no table is made."""
    if coords is None:
        coords = [*map(spec.format, range(spec.order))]
    return coords, partial(_triple_text, coords)


class TimePencilContext:
    """The proper members' ids and thetas, all in closed form, and what
    classifies them on an ideal line.  One per field, kept on its spec by
    time_pencil_context, so it lives and dies with the spec; the pencil
    itself is pencil.time_pencil(spec) and its plane plane.build_plane(spec).

    The proper members are (1, t), t != 0 (see the module docstring), at
    position t of pencil.members, which is their id.  In characteristic 2,
    roots is _quadratic_roots(spec), by which _orbit classifies each member
    on an ideal line, and orbits keeps those classifications.  squares, the
    field's square roots by value, is made by the field's first zero set
    (conic._zero_values), so no arrow run makes it."""

    __slots__ = ("spec", "ids", "thetas", "roots", "squares", "orbits")

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.ids = tuple(range(1, spec.order))
        self.thetas = tuple([(1, t) for t in self.ids])
        self.roots = _quadratic_roots(spec) if spec.characteristic == 2 else None
        self.squares = None
        self.orbits = {}   # _orbit's classification, per orbit u


def time_pencil_context(spec: FieldSpec) -> TimePencilContext:
    """The spec's one context, made on the first call."""
    if spec._context is None:
        spec._context = TimePencilContext(spec)
    return spec._context


def _orbit(ctx: TimePencilContext, linf: Values) -> tuple[int, tuple[int | None, ...]]:
    """The orbit u = b/c^2 of linf = (1 : b : c), 1/c^2 read from the field's
    table of inverses, and its classification, made once per orbit and kept
    on ctx: for each proper member x1*x2 + t*x3^2, a root y of
    y^2 + y = u*t, or None (Future)."""
    mul = ctx.spec._mul_i
    _, b, c = linf
    u = mul(b, ctx.spec._inv[mul(c, c)])
    ys = ctx.orbits.get(u)
    if ys is None:
        ys = ctx.orbits[u] = tuple([ctx.roots[mul(u, t)] for t in ctx.ids])
    return u, ys
