"""
The canonical pencil of conics
==============================

The pencil t1*(x1*x2) + t2*(x3^2) has q+1 members: a real line pair at
(1,0), a double line at (0,1), and q-1 proper conics in between.  All the
proper members share the base points B1, B2 and - over GF(2^n) - one
common nucleus N.  Every other point of the plane lies on exactly one
member.
"""

from galois_arrow import (
    ProjPoint,
    base_points,
    build_plane,
    common_nucleus,
    evaluate,
    make_field,
    member_through,
    members,
    time_pencil,
)

f8 = make_field(2, 3)
plane = build_plane(f8)
pencil = time_pencil(f8)

print("member census over GF(8):")
for m in members(pencil):
    print(f"  theta={m.theta}  conic={m.conic}  {m.degeneracy}")

print("base points:", [str(p) for p in base_points(pencil)])
print("common nucleus of the proper members:", common_nucleus(pencil))

# the members partition the rest of the plane
base = set(base_points(pencil))
counts = {}
for pt in plane.points:
    if pt in base:
        continue
    theta = member_through(pencil, pt).theta
    counts[theta] = counts.get(theta, 0) + 1
print("points per member (base points excluded):", dict(sorted(counts.items())))

# a spot check: the member through a point really vanishes there
pt = ProjPoint(f8, (1, 3, 5))
m = member_through(pencil, pt)
print(f"member through {pt}: theta={m.theta}, value there = {evaluate(m.conic, pt)}")
