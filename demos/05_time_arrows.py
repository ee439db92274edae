"""
Two arrows of time
==================

Fix an ideal line missing the base points and the nucleus, then classify
each family member by its intersection with that line: secant = Past,
tangent = Present, external = Future.

For the pencil's proper conics this always yields an arrow WITHOUT a
present: every line through the nucleus is tangent to every member, so a
line avoiding the nucleus can never be tangent to any.  The arc family
repairs this - exactly one member (the one whose source conic passes
through A = ideal line ∧ L*) comes out Present.
"""

from galois_arrow import (
    ProjLine,
    ProjPoint,
    arc_arrow,
    build_plane,
    build_time_family,
    conic_arrow,
    incident,
    make_field,
)

f8 = make_field(2, 3)
linf = ProjLine(f8, (1, 1, 1))

conic_report = conic_arrow(f8, linf)
print(f"conic arrow over GF(8), ideal line {linf}: {conic_report.tallies}")
for c in conic_report.classifications:
    print(f"  member {c.theta}: {c.temporal}  witnesses {[str(w) for w in c.witnesses]}")

family = build_time_family(f8, linf, ProjLine(f8, (1, 2, 0)))
arc_report = arc_arrow(family)
print(f"\narc arrow, same ideal line: {arc_report.tallies}")
print(f"the unique Present member is id {arc_report.present_member_ids[0]}, "
      f"theta {family.qstar_theta} - the member through A")

# Present = 0 for the conic arrow no matter which valid ideal line we pick.
# A valid ideal line misses the base points B1 = (0:1:0) and B2 = (1:0:0)
# and the nucleus N = (0:0:1), so none of its three coefficients is zero:
# scaled to lead with 1, it is (1 : b : c) with b and c both nonzero, one
# line for each of the (q-1)^2 such pairs.
avoided = [ProjPoint(f8, values) for values in ((0, 1, 0), (1, 0, 0), (0, 0, 1))]
valid_lines = [line for line in build_plane(f8).lines
               if not any(incident(point, line) for point in avoided)]
presents = {conic_arrow(f8, line).tallies["present"] for line in valid_lines}
print(f"\nconic-arrow Present tallies across all "
      f"{len(valid_lines)} valid ideal lines: {presents}")

# and the closed forms, visible already at small q
for n in (2, 3, 4):
    spec = make_field(2, n)
    q = spec.order
    line = ProjLine(spec, (1, 1, 1))
    fam = build_time_family(spec, line, ProjLine(spec, (1, 2, 0)))
    print(f"q={q:2d}: conic {conic_arrow(spec, line).tallies}   "
          f"arc {arc_arrow(fam).tallies}   "
          f"(expected past=(q-2)/2 resp. (q-4)/2, future=q/2)")
