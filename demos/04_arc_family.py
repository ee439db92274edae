"""
Arcs that are not conics
========================

A proper conic plus its nucleus is a (q+2)-arc; deleting a conic point
leaves a (q+1)-arc that cannot be a conic once q >= 8 (a conic through
five of its points would share q >= 8 > 5 points with the original conic
and hence coincide with it).  The same trick applied across the whole
pencil - delete each member's touch point on a chosen line L* through the
nucleus, add the nucleus - yields a one-parameter family of such arcs.
"""

from galois_arrow import (
    ProjLine,
    ProjPoint,
    augment_with_nucleus,
    build_time_family,
    canonical_conic,
    family_to_dict,
    is_arc,
    is_conic_arc,
    make_field,
    puncture,
)

f8 = make_field(2, 3)
conic = canonical_conic(f8)

hyperoval = augment_with_nucleus(conic)
print(f"conic + nucleus: {hyperoval.size}-point arc (a hyperoval), "
      f"arc check: {is_arc(hyperoval.points)}")

some_conic_point = next(p for p in hyperoval.points
                        if p != ProjPoint(f8, (0, 0, 1)))
punctured = puncture(hyperoval, some_conic_point)
print(f"punctured hyperoval: {punctured.size} points, "
      f"is it a conic? {is_conic_arc(punctured)}")
print(f"(for contrast, the conic's own point set: "
      f"{is_conic_arc(puncture(hyperoval, ProjPoint(f8, (0, 0, 1))))})")

# the pencil-wide version: one arc per proper member
family = build_time_family(f8,
                           ProjLine(f8, (1, 1, 1)),     # ideal line
                           ProjLine(f8, (1, 2, 0)))     # L* through N
print(f"\nfamily of {len(family.members)} arcs, sizes "
      f"{sorted({a.size for a in family.members})}, "
      f"every one contains N: "
      f"{all(ProjPoint(f8, (0, 0, 1)) in a for a in family.members)}")
print(f"touch points on L*: {[str(p) for p in family.touch_points]}")
print(f"contact point A = {family.contact_point}, "
      f"member through it: theta={family.qstar_theta}")

d = family_to_dict(family)
print("member is_conic flags:", [m["is_conic"] for m in d["members"]])

# at q = 4 the same construction only ever produces conics
f4 = make_field(2, 2)
family4 = build_time_family(f4, ProjLine(f4, (1, 1, 1)), ProjLine(f4, (1, 2, 0)))
print("q=4 member is_conic flags:",
      [m["is_conic"] for m in family_to_dict(family4)["members"]])
