"""
PG(2, q), conics, and the nucleus
=================================

Enumerate a small projective plane, carve the canonical conic
x1*x2 = x3^2 out of it, and see the even-order surprise: all q+1
tangents of a proper conic pass through one point, the nucleus.  Over
odd-order fields the tangents refuse to concur.
"""

from galois_arrow import (
    build_plane,
    canonical_conic,
    classify,
    classify_line,
    make_field,
    nucleus,
    parametrize_canonical,
    point_set,
    tangent_lines,
)

f8 = make_field(2, 3)
plane = build_plane(f8)
print(f"{plane}: {len(plane.points)} points, {len(plane.lines)} lines "
      f"(q^2 + q + 1 = {8 ** 2 + 8 + 1})")

conic = canonical_conic(f8)
pts = point_set(conic)
print(f"canonical conic {conic}: {len(pts)} points, class {classify(conic)}")
print("parametrized as (1:0:0) then (s^2:1:s):",
      [str(p) for p in parametrize_canonical(f8)[:4]], "...")

# secant / tangent / external census over all 73 lines
census = {}
for line in plane.lines:
    census[str(classify_line(pts, line))] = census.get(str(classify_line(pts, line)), 0) + 1
print(f"line census vs the conic: {census} "
      f"(expect tangents q+1, secants q(q+1)/2, externals q(q-1)/2)")

tangents = tangent_lines(conic)
nuc = nucleus(conic)
print(f"all {len(tangents)} tangents pass through the nucleus {nuc}")

# the odd-order contrast: in PG(2,9) the ten tangents have no common point
f9 = make_field(3, 2, (1, 0, 1))
plane9 = build_plane(f9)
tangents9 = tangent_lines(canonical_conic(f9))
common = set(plane9.points_on(tangents9[0]))
for t in tangents9[1:]:
    common &= set(plane9.points_on(t))
print(f"PG(2,9): {len(tangents9)} tangents, common points: {sorted(map(str, common))}")
