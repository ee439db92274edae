"""The closed forms both arrows over GF(2^n) start from: per ideal line,
the Past members of the time pencil and the points they hold.

This module imports only field.  A line is its value triple, and the arrow
command runs on this module and those it loads only for the runs that
call them, so it loads no plane, census, conic or arc module, and makes
no field context (context.time_pencil_context):

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
driver._arrow_reports.  The plane, its points B1 = (0:1:0), B2 = (1:0:0)
and N = (0:0:1) and the lines as plane items are the plane module's
(plane.build_plane), which the modules that make plane items call.  The
plane module imports the kernel's Values, never the reverse; it checks an
ideal line given as a plane item by lines._check_line
(validate_ideal_line; arc._check_configuration checks a family's lines).

The canonical ("time") pencil, pencil.time_pencil, is spanned by x1*x2 and
x3^2.  Its members are indexed by theta = (t1, t2), normalized so the
first nonzero entry is 1, in the order (1, t), t over the field, then
(0, 1).  The member (1, t) has discriminant -t, so the proper members are
(1, t), t != 0, at position t of the census, which is their id, and at
position t - 1 of an arrow's members; pencil.members, the census by
classify, is the oracle.

Each point (1 : x2 : x3), x2*x3 != 0, lies on exactly one proper member,
x1*x2 + t*x3^2 with t = x2/x3^2, and no proper member holds a point with
x1 = 0 or x2*x3 = 0 but B1 and B2, which no valid ideal line holds.  So a
member's class on an ideal line is the number of the line's points it
holds.  The points of (1 : 1 : 1) off B1 and B2 are (1 : 1 + w : w),
w != 0, 1, on the member (1 + w)/w^2 = y^2 + y, y = 1/w; y and y + 1 give
the same member, and no other y does.  So the Past members of (1 : 1 : 1)
are y^2 + y, one per pair {y, y + 1} of roots, y = 2, 4, ..., q - 2, each
holding the two points with w = 1/y and 1/(y + 1): the q/2 - 1 nonzero
elements of trace 0 (Lidl and Niederreiter, Finite Fields).  The other
members are Future.

The τ-lemma.  τ_μ : (x1 : x2 : x3) -> (x1 : μx2 : x3) maps member t to
member μt, and σ_λ : (x1 : x2 : x3) -> (x1 : λ^2 x2 : λx3) scales each
member by λ^2, so fixes it; both fix N, B1 and B2.  Their product with
λ = 1/c and μ = c^2/b, the point map (x1 : x2/b : x3/c), takes (1 : 1 : 1)
to (1 : b : c) and member t to member t*c^2/b.  So the Past members of
(1 : b : c) are (y^2 + y)*c^2/b, each holding the two points
(1 : (1 + w)/b : w/c), w = 1/y and 1/(y + 1): _past_members, the one
place this is written.  The lines with one k = c^2/b, q - 1 lines for
each of the q - 1 values of k, have the same Past members; a sweep is the
reports on (1 : 1 : 1) relabelled (checked at q <= 16), and
arrow.classify_member, the incidence scan, is the oracle.
"""

from __future__ import annotations

from functools import partial
from typing import Iterator

from .field import FieldSpec

Values = tuple[int, int, int]

# The temporal classes' names, indexed by the number of points a member
# shares with the ideal line, as conic.classify_line; arrow.TemporalClass
# is the enum of them.
_CLASS_BY_HITS = ("Future", "Present", "Past")


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


def _past_members(spec: FieldSpec, linf: Values) -> tuple[int, Iterator[tuple[int, int]]]:
    """The scale k = c^2/b of linf = (1 : b : c), bc != 0, which the lines
    with the same Past members share, and those members, lazily: per pair
    {y, y + 1} of roots, y = 2, 4, ..., q - 2, the member t = (y^2 + y)*k
    with y, which holds linf's points (1 : (1 + w)/b : w/c), w = 1/y and
    1/(y + 1) (the τ-lemma, see the module docstring).  Every other proper
    member is Future."""
    mul = spec._mul_i
    _, b, c = linf
    k = mul(mul(c, c), spec._inv[b])
    return k, ((mul(mul(y, y) ^ y, k), y) for y in range(2, spec.order, 2))
