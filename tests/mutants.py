"""Mutation check of the closed forms and fast paths: every closed form the
arrows run on (kernel.py, witnesses.py, lines.py, linetext.py and the
sweep's lines in driver.py), the field's one time-pencil context and its
root table (context.py), the plane's enumeration and incidence indices and its
equality by field (plane.py), the one text of a point or line and the
field's table of coordinate strings (kernel.py, linetext.py), the text
layout of the arrow command's JSON and CSV (arrow_json.py, report_text.py,
arrow_csv.py) and its point texts made once per run (report_text.py),
what the plane, conic, pencil and family commands print (payloads.py),
the family's member and touch points, configuration checks and is_conic
rule (arc.py), the closed-form zero set, tangents and nucleus
of every conic and the canonical conic's parametrization (conic.py), the
conic arrow's refusal of an ideal line of another field (arrow.py), the
expansion of a hex modulus (modulus.py), the canonical generator's value
(field.py), and the table walk, the product, the inverse table and the
Zech arithmetic of tables.py and zech.py, is pinned by some test.

    python tests/mutants.py

Each mutation below names a file of the package and a text in it.  It is
applied to a fresh copy of src/, and the tests named for it run on that
copy in a subprocess (pytest, under a timeout).  A mutant is killed when
they fail or time out, and survives when they pass.  The script exits 1
if a mutant survives, if a mutation's source text no longer occurs
exactly once in its file, or if the named tests fail on the unmutated
copy.  It runs up to four mutants at once, one per core.  It uses only
the standard library and pytest, with pytest's plugin autoload off in
each run; the tier-1 run does not collect it (it is not a test_*.py
file).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("galois_arrow")
TIMEOUT_S = 120
JOBS = min(4, os.cpu_count() or 1)

ARC = ["tests/test_arrow.py::test_arc_pass_matches_the_incidence_oracle[q8]"]
SIGMA = ["tests/test_arrow.py::test_arc_pass_is_its_orbit_representatives_image[q8]"]
CONIC = ["tests/test_arrow.py::test_conic_arrow_matches_incidence_oracle[q8]"]
# the τ-lemma over every report of the conic and arc JSON sweeps at q = 8
TAU = [f"tests/test_arrow.py::test_every_report_is_the_image_of_a_report_on_1_1_1[{case}]"
       for case in ("q8-conic", "q8-arc")]
SWEEPS = ["tests/test_golden_stdout.py::test_sweep_stdout_matches_benchmark_digest"]
# the sweep's lines against the valid lines by incidence and by coefficients
SWEEP_LINES = ["tests/test_cli.py::test_sweep_lines_are_the_valid_lines_by_incidence",
               "tests/test_pencil.py::test_valid_ideal_lines_match_the_coefficient_filter"]
GOLDEN = ["tests/test_golden_stdout.py::test_stdout_matches_golden_digest"]
ENUMERATION = ["tests/test_plane.py::test_triple_values_inverts_triple_index",
               "tests/test_plane.py::test_triple_index_is_the_enumeration_position",
               "tests/test_plane.py::test_plane_equals_the_normalizing_construction"]
INCIDENCE = ["tests/test_plane.py::test_plane_caches_agree_with_incidence_oracle"]
LINE_CHECKS = ["tests/test_pencil.py::test_line_validity_from_coefficients_matches_incidence"]
MUL = ["tests/test_field.py::test_mul_table_matches_polynomial_reduction"]
PRIME = ["tests/test_field.py::"
         "test_prime_field_tables_are_the_powers_of_the_least_primitive_root"]
ODD = ["tests/test_field.py::test_odd_field_tables_are_the_powers_of_the_least_generator"]
INVERSE = ["tests/test_field.py::test_inverse_table_matches_fermat"]
ZECH_TESTS = ["tests/test_field.py::test_zech_addition_matches_coefficient_arithmetic"]
HEX = ["tests/test_field.py::test_hex_modulus_expands_to_the_mask_bits"]
# the conic and pencil commands' digests at q = 16, over GF(25) (odd, with
# -2 != 1) and over GF(27), and those of the family's CSV at q = 4 and 8
PAYLOADS = [f"tests/test_golden_stdout.py::test_stdout_matches_large_golden_digest[{command}]"
            for command in ("conic --n 4", "conic --p 5 --n 2 --modulus 2,0,1",
                            "pencil --n 4 --output json", "pencil --p 3 --n 3 --modulus 1,2,0,1")
            ] + [f"tests/test_golden_stdout.py::test_stdout_matches_golden_digest[{command}]"
                 for command in ("family --n 2 --output csv", "family --n 3 --output csv")]
# the family's JSON digests at q = 4 and 8, and on lines other than the default
FAMILY_JSON = [f"tests/test_golden_stdout.py::test_stdout_matches_golden_digest[{command}]"
               for command in ("family --n 2 --output json", "family --n 3 --output json",
                               "family --n 3 --modulus 0xD --linf 1,5,3 --lstar 1,6,0")]
# the built family's members against their arcs, touch points and plane order
FAMILY_ARCS = ["tests/test_arc.py::test_family_members_are_arcs_for_every_lstar[q8]"]
# every form's closed-form zero set against the plane scan, over GF(4) and GF(3)
ZEROS_EVEN = ["tests/test_conic.py::test_zero_values_are_the_scan_on_every_form[q4]"]
ZEROS_ODD = ["tests/test_conic.py::test_zero_values_are_the_scan_on_every_form[q3]"]
PARAMETRIZATION = ["tests/test_conic.py::test_parametrization_is_in_element_order[q8]"]
# every proper form's tangents and nucleus against the tally and the meet
# of its tangents, over GF(4) and GF(3)
TANGENTS_EVEN, TANGENTS_ODD = (
    [f"tests/test_conic.py::test_tangents_and_nucleus_are_the_oracles_on_every_form[{q}]"]
    for q in ("q4", "q3"))
# every point and line's text from the table against spec.format and str()
TEXTS = ["tests/test_plane.py::test_point_and_line_texts_match_the_formatted_coordinates[q9]"]
# the plane command's digests over GF(4) and GF(3), and the family's JSON
# and CSV against the refusals of its build
PLANE = [f"tests/test_golden_stdout.py::test_stdout_matches_golden_digest[plane {field}]"
         for field in ("--n 2", "--p 3")]
FAMILY_REFUSALS = ["tests/test_cli.py::test_family_csv_refuses_what_the_family_build_refuses"]
# the field's one time-pencil context, and planes built apart over one field
CONTEXT = ["tests/test_pencil.py::test_context_is_made_once_and_lives_on_its_spec"]
PLANES = ["tests/test_plane.py::test_planes_built_apart_over_one_field_are_equal"]
# the conic arrow's refusal of an ideal line of another field
ARROW_FIELD = ["tests/test_arrow.py::test_conic_arrow_refuses_an_ideal_line_of_another_field"]
# the family's closed-form touch points against member_through over L*
TOUCHES = ["tests/test_arc.py::test_contact_member_matches_the_incidence_oracle[q8]"]
# the checks build_time_family shares with the family's CSV, against the
# incidence oracle and a family's digest on lines other than the default
FAMILY_CHECKS = ["tests/test_arc.py::test_contact_member_matches_the_incidence_oracle[q8]",
                 "tests/test_golden_stdout.py::test_stdout_matches_golden_digest["
                 "family --n 3 --modulus 0xD --linf 1,5,3 --lstar 1,6,0]"]

# the writer of stdout: its blocks at q = 32, and a single arrow run's
# chunks at q = 1024
BLOCKS = ["tests/test_cli.py::test_stdout_is_written_in_blocks"]
SINGLE_CHUNKS = ["tests/test_cli.py::test_single_arrow_json_goes_out_in_chunks_of_256_members"]
HELD_WRITE = "        sys.stdout.write(held)\n        sys.stdout.flush()"

# Per file of the package: (what the mutation breaks, its text there, its
# replacement, the tests that must fail)
MUTANTS = {"kernel.py": [
    ("the member map t -> t*c^2/b -> t*c/b", "k = mul(mul(c, c), spec._inv[b])",
     "k = mul(c, spec._inv[b])", TAU),
    ("the roots y from 0, not 2", "for y in range(2, spec.order, 2))",
     "for y in range(0, spec.order, 2))", CONIC),
    ("the member (y^2 + y)*k -> y^2*k", "((mul(mul(y, y) ^ y, k), y)", "((mul(mul(y, y), k), y)",
     CONIC),
    ("a point's text with a comma for its first colon", 'f"({coords[x1]}:{coords[x2]}:',
     'f"({coords[x1]},{coords[x2]}:', PLANE + GOLDEN),
    ("a point's text without its closing parenthesis", ':{coords[x3]})"', ':{coords[x3]}"',
     PLANE + PAYLOADS),
    ("the coordinate strings read one value off", "[*map(spec.format, range(spec.order))]",
     "[*map(spec.format, range(1, spec.order + 1))]", PLANE + PAYLOADS + GOLDEN),
], "context.py": [
    ("the roots of y^2 + y -> of y^2", "roots[spec._mul_i(y, y) ^ y] = y",
     "roots[spec._mul_i(y, y)] = y", ZEROS_EVEN),
    ("a new context on each call", "if spec._context is None:", "if True:", CONTEXT),
], "witnesses.py": [
    ("c^2 -> c in _contacts' t", "cc = mul(c, c)", "cc = c", ARC),
    ("the pairing w = 1/(y + 1) -> 1/y", "w0, w1 = inv[y], inv[y ^ 1]", "w0, w1 = inv[y], inv[y]",
     CONIC),
    ("a witness's x2 term (1 + w)/b -> w/b", "i0 = mul(1 ^ w0, ib) * q + mul(w0, ic)",
     "i0 = mul(w0, ib) * q + mul(w0, ic)", CONIC),
    ("a witness's x3 = w/c -> w/b", "i1 = mul(1 ^ w1, ib) * q + mul(w1, ic)",
     "i1 = mul(1 ^ w1, ib) * q + mul(w1, ib)", CONIC),
    ("a Past member at position t, not t - 1", "out[t - 1] = ", "out[t % (q - 1)] = ", CONIC),
    ("witnesses left unsorted", "out[t - 1] = (i0, i1) if i0 < i1 else (i1, i0)",
     "out[t - 1] = (i0, i1)", CONIC),
    ("Q*'s other witness hits[1] -> hits[0]", "hits[1] if hits[0] == index else hits[0]",
     "hits[0] if hits[0] == index else hits[0]", ARC),
    ("Q*'s position t - 1 -> t", "out.append((t - 1, ", "out.append((t, ", ARC),
    ("a + b as a | b", "a_plus_b = a ^ b", "a_plus_b = a | b", ARC),
    ("the contact point's x2 = 1/a -> a", "(inv[a] * q + mul(", "(a * q + mul(", SIGMA),
    ("Q* not checked for the contact point", "if len(hits) != 2 or index not in hits:",
     "if len(hits) != 2:",
     ["tests/test_cli.py::test_qstar_not_past_with_the_contact_point_exits_3"]),
    ("i // q -> i % q in _triple_values", "return (1, i // q, i % q)",
     "return (1, i % q, i % q)", ENUMERATION),
    ("the points (0 : 1 : x) one further in _triple_values", "if i < q * q + q:",
     "if i <= q * q + q:", ENUMERATION),
], "linetext.py": [
    ("a text made one at a time reads its coordinates one off",
     "{v: spec.format(v) for v in values}", "{v: spec.format(v ^ 1) for v in values}", TEXTS),
    ("the refused contact point (1 : 1/a : 0) -> (1 : a : 0)", "(1, spec._inv[a], 0)",
     "(1, a, 0)", ["tests/test_arc.py::test_contact_member_matches_the_incidence_oracle[q8]"]),
], "driver.py": [
    *[(f"the sweep's {name} {what}", "product((1,), range(1, q), range(1, q)), range(1, q)",
       text, SWEEP_LINES + SWEEPS) for name, what, text in [
        ("b", "from 0", "product((1,), range(0, q), range(1, q)), range(1, q)"),
        ("c", "from 0", "product((1,), range(1, q), range(0, q)), range(1, q)"),
        ("a", "from 0", "product((1,), range(1, q), range(1, q)), range(0, q)"),
        ("b", "stopping at q - 1", "product((1,), range(1, q - 1), range(1, q)), range(1, q)"),
        ("c", "stopping at q - 1", "product((1,), range(1, q), range(1, q - 1)), range(1, q)"),
        ("a", "stopping at q - 1", "product((1,), range(1, q), range(1, q)), range(1, q - 1)"),
    ]],
    ("the held text not written before a diagnostic", HELD_WRITE,
     HELD_WRITE.replace("write(held)", 'write("" if error else held)'),
     ["tests/test_cli.py::test_invariant_violation_mid_sweep_exits_3",
      "tests/test_cli.py::test_report_text_reaches_stdout_before_the_diagnostic"]),
    ("the final write of the held text dropped", HELD_WRITE, "        sys.stdout.flush()",
     BLOCKS),
    ("blocks of 64 KiB", "_BLOCK = 1 << 15", "_BLOCK = 1 << 16", BLOCKS),
], "lines.py": [
    ("and -> or in the ideal line check",
     "elif not (l1 and l2):\n        error, message = HitsBasePoint",
     "elif not (l1 or l2):\n        error, message = HitsBasePoint", LINE_CHECKS),
    ("and -> or in the L* check", "        elif not (l1 and l2):", "        elif not (l1 or l2):",
     LINE_CHECKS),
    ("an ideal line's nucleus check reads l2", "elif not l3:", "elif not l2:", LINE_CHECKS),
    ("a line scaled by its lead, not its inverse", "scale = spec._inv[lead]", "scale = lead",
     ["tests/test_cli.py::test_single_arrow_runs_load_no_plane_module"]),
], "plane.py": [
    ("a plane equal only to itself",
     "return isinstance(other, Plane) and self.field == other.field", "return self is other",
     PLANES),
    ("_triple_index off by one", "return q * q + x3", "return q * q + x3 + 1", ENUMERATION),
    # equivalent in characteristic 2, where -a = a: killed by GF(3), GF(5), GF(9)
    ("a line's points (1 : a : b) without the minus", "s = neg(field._inv_i(l3))",
     "s = field._inv_i(l3)", INCIDENCE),
    ("a line's point (0 : 1 : c) with c = -l1/l3", "[q * q + mul(s, l2)]",
     "[q * q + mul(s, l1)]", INCIDENCE),
    ("a line's points (1 : a : b), l3 = 0, with a = l1/l2",
     "a = mul(neg(l1), field._inv_i(l2))", "a = mul(l1, field._inv_i(l2))", INCIDENCE),
    ("a line's points (1 : a : b), l3 = 0, one short", "[*range(a * q, a * q + q), q * q + q]",
     "[*range(a * q, a * q + q - 1), q * q + q]", INCIDENCE),
    ("the line x1 = 0 without (0:0:1)", "list(range(q * q, q * q + q + 1))",
     "list(range(q * q, q * q + q))", INCIDENCE),
], "arrow_json.py": [
    ("a sweep's reports separated without their indent", r'separator = ",\n    "',
     r'separator = ",\n  "', GOLDEN),
    ("a single run's chunks of 255 members, each dropping the 256th",
     "witnesses[i:i + 256]", "witnesses[i:i + 255]", SINGLE_CHUNKS),
    ("a single run's chunks joined without a comma", '                head = ","',
     '                head = ""', SINGLE_CHUNKS),
    ("a single run's Q* left Past", "witnesses[delta[0]] = delta[1:]",
     "witnesses[delta[0]] = witnesses[delta[0]]", GOLDEN),
    ("the rejections' closing bracket indented one column more", '"\\n  ]" if entries',
     '"\\n   ]" if entries', GOLDEN),
], "report_text.py": [
    ("a member's id indented one column less", r'\n        {{\n          "id": ',
     r'\n        {{\n         "id": ', GOLDEN),
    ("a member's class name in lower case", '"class": "{_CLASS_BY_HITS[hits]}"',
     '"class": "{_CLASS_BY_HITS[hits].lower()}"', GOLDEN),
    # the same bytes, remade on each read
    ("a point's text not kept once made", "text = self[key] = self._make(key)",
     "text = self._make(key)",
     ["tests/test_cli.py::test_json_sweep_makes_each_point_text_in_python_once"]),
], "arrow_csv.py": [
    ("a row's theta joined by a comma", "{coords[1]}:{coords[i + 1]},",
     "{coords[1]},{coords[i + 1]},", GOLDEN),
    ("a row's class name in upper case", 'f"{_CLASS_BY_HITS[hits]}\\n")',
     'f"{_CLASS_BY_HITS[hits].upper()}\\n")', GOLDEN),
    ("a sweep's L* column (1:a:0) -> (1:0:a)", "triple((1, a, 0))", "triple((1, 0, a))",
     GOLDEN),
], "payloads.py": [
    ("the conic's points in reverse plane order", "_zero_values(spec, conic))]",
     "_zero_values(spec, conic)[::-1])]", PAYLOADS),
    ("RealLinePair and DoubleLine swapped", '("DoubleLine", "RealLinePair")[t1]',
     '("RealLinePair", "DoubleLine")[t1]', PAYLOADS),
    ("the member (1, 0) proper", '"Proper" if t1 * t2 else', '"Proper" if t1 else', PAYLOADS),
    ("the common nucleus (0:0:1) -> B1 (0:1:0)", '"common_nucleus"] = text((0, 0, 1))',
     '"common_nucleus"] = text((0, 1, 0))', PAYLOADS),
    ("the conic's nucleus (0:0:1) -> (0:1:0)", '"nucleus": text((0, 0, 1))',
     '"nucleus": text((0, 1, 0))', PAYLOADS),
    ("the base points swapped", "[text((1, 0, 0)), text((0, 1, 0))]",
     "[text((0, 1, 0)), text((1, 0, 0))]", PAYLOADS),
    ("the plane without its first row (1 : 0 : *)", "for x2 in coords]",
     "for x2 in coords[1:]]", PLANE),
    ("the plane's row (0 : 1 : *) as (1 : 1 : *)", """"({zero}:{one}:']""",
     """"({one}:{one}:']""", PLANE),
    ("the plane's last point (0 : 0 : 1) -> (0 : 0 : 0)", "{zero}:{zero}:{one}",
     "{zero}:{zero}:{zero}", PLANE),
    ("the plane's point count one short", '"num_points": {count},',
     '"num_points": {count - 1},', PLANE),
    ("the plane's line count one more", '"num_lines": {count},', '"num_lines": {count + 1},',
     PLANE),
    ("the plane's rows in reverse order of x3", "for c in coords]", "for c in coords[::-1]]",
     PLANE),
    ("a second comma before each list's last point (0 : 0 : 1)",
     r"""yield f'\n    "({zero}""", r"""yield f',\n    "({zero}""", PLANE),
    ("a family CSV row's size q, not q + 1", "{q + 1}", "{q}", PAYLOADS),
    ("the family's is_conic read at 2q", "str(_is_conic(q))", "str(_is_conic(2 * q))",
     PAYLOADS),
    ("the family's members separated without a comma", '        separator = ","',
     '        separator = ""', FAMILY_JSON),
    ("the family CSV's member ids from 1", "enumerate(thetas)", "enumerate(thetas, 1)",
     PAYLOADS),
    ("a family CSV row's theta (1, t) -> (1, t - 1)", "{coords[t1]}:{coords[t2]}{tail}",
     "{coords[t1]}:{coords[t2 - 1]}{tail}", PAYLOADS),
    ("the family's configuration unchecked", "index, t = _check_configuration(spec, linf, lstar)",
     "index, t = 0, 1", FAMILY_REFUSALS),
    ("the family's L* checked unnormalized", "_normalized(spec, config.lstar)", "config.lstar",
     FAMILY_REFUSALS),
    ("the family's contact point A read at index 0", "_triple_values(q, index)",
     "_triple_values(q, 0)", FAMILY_JSON),
], "conic.py": [
    ("the canonical conic's points (1 : c^2 : c) in the order of c, not of s = 1/c",
     "for c in spec._inv[1:]", "for c in range(1, spec.order)", PARAMETRIZATION),
    # equivalent in characteristic 2, where -1/c = 1/c
    ("the form scaled by 1/c, not -1/c", "k = spec._neg_i(inv[c])", "k = inv[c]", ZEROS_ODD),
    ("a row's b*s^2 read as b*s", "mul(k2, mul(s, s))", "mul(k2, s)", ZEROS_ODD),
    # equivalent over GF(3), where 1/beta = beta
    ("the c = 0 root -gamma/beta read as -gamma*beta", "inv[beta]),)", "beta),)", ZEROS_EVEN),
    ("the c = 0, beta = gamma = 0 row without y = 0", "() if gamma else range(q)",
     "() if gamma else range(1, q)", ZEROS_ODD),
    ("the beta = 0 root sqrt(gamma) read as gamma", "else squares[gamma])", "else (gamma,))",
     ZEROS_EVEN),
    ("the second root beta*(z + 1) read as beta*z", "mul(beta, z ^ 1)", "mul(beta, z)",
     ZEROS_EVEN),
    ("a row's two roots in the order found, not ascending",
     "sorted((mul(beta, z), mul(beta, z ^ 1)))", "(mul(beta, z), mul(beta, z ^ 1))", ZEROS_EVEN),
    ("the odd rows centred at beta, not beta/2", "m = mul(beta, inv[2])", "m = beta", ZEROS_ODD),
    ("(0:0:1) never a zero", "return zeros if c else [*zeros, (0, 0, 1)]", "return zeros",
     ZEROS_ODD),
    # the canonical conic's polar (x2 : x1 : -2x3) -> (x2 : x1 : x3)
    ("the polar's x3 coefficient 2c -> 1", "(g, f, add(c, c)))", "(g, f, 1))",
     PAYLOADS + TANGENTS_ODD),
    ("a tangent left unnormalized", "[_normalized(spec, [reduce", "[tuple([reduce",
     PAYLOADS + TANGENTS_EVEN),
    ("the tangents in reverse plane order", "key=partial(_triple_index, spec.order))",
     "key=partial(_triple_index, spec.order), reverse=True)", PAYLOADS + TANGENTS_EVEN),
    ("the tangents in point order, unsorted",
     "return sorted(polars, key=partial(_triple_index, spec.order))", "return polars",
     TANGENTS_EVEN),
    ("the polar's diagonal 2a, 2b, 2c -> a, b, c",
     "rows = ((add(a, a), h, g), (h, add(b, b), f), (g, f, add(c, c)))",
     "rows = ((a, h, g), (h, b, f), (g, f, c))", TANGENTS_ODD),
    ("the polar's h (x1x2) and g (x1x3) swapped",
     "rows = ((add(a, a), h, g), (h, add(b, b), f), (g, f, add(c, c)))",
     "rows = ((add(a, a), g, h), (g, add(b, b), f), (h, f, add(c, c)))", TANGENTS_ODD),
    ("the nucleus (c23 : c13 : c12) -> (c12 : c13 : c23)", "(c23, c13, c12))",
     "(c12, c13, c23))", TANGENTS_EVEN),
], "arc.py": [
    ("a family's members on a conic at q = 8, not 4", "return q == 4", "return q == 8", PAYLOADS),
    ("a member's points those of x1*x2 + x3^2, not x1*x2 + t*x3^2",
     "_zero_values(spec, (0, 1, 0, 0, 0, t))", "_zero_values(spec, (0, 1, 0, 0, 0, 1))",
     FAMILY_ARCS + FAMILY_JSON),
    ("the touch point at position a, not 1/a", "del points[spec._inv[a]]", "del points[a]",
     FAMILY_ARCS + FAMILY_JSON),
    ("N first in each arc, not last", "points.append((0, 0, 1))", "points.insert(0, (0, 0, 1))",
     FAMILY_ARCS + FAMILY_JSON),
    ("the built family's members read at L* = (1 : 1 : 0)",
     "item, a = build_plane(self.spec).points._item, self.provenance.lstar.values[1]",
     "item, a = build_plane(self.spec).points._item, 1", FAMILY_ARCS),
    ("the built family's members read one member back", "_member_values(self.spec, a, t))))",
     "_member_values(self.spec, a, t - 1))))", FAMILY_ARCS),
    ("a touch point placed on the member a*c^2, not 1/(a*c^2)",
     "touches[inv[mul(a, mul(c, c))] - 1]", "touches[mul(a, mul(c, c)) - 1]", TOUCHES),
    ("a touch point (1 : a : c), not (1 : 1/a : c)", "item((1, inv[a], c))", "item((1, a, c))",
     TOUCHES),
    ("a configuration's L* checked as an ideal line", "_check_line(spec, lstar, True)",
     "_check_line(spec, lstar, False)", FAMILY_CHECKS),
    ("a configuration's contact point read from L*'s x1", "(lstar[1],))", "(lstar[0],))",
     FAMILY_CHECKS),
], "arrow.py": [
    ("the conic arrow takes an ideal line of another field", "if linf.field != spec:",
     "if False:", ARROW_FIELD),
], "modulus.py": [
    ("a hex modulus's bits highest first", "bin(mask)[:1:-1]", "bin(mask)[2:]", HEX),
    ("a hex modulus's top bit dropped", "bin(mask)[:1:-1]", "bin(mask)[:2:-1]", HEX),
], "field.py": [
    # field-info --n 2 and --p 3 print both branches
    ("the canonical generator x at n > 2, not n >= 2", "p if n >= 2 else 1", "p if n > 2 else 1",
     GOLDEN),
], "tables.py": [
    # equivalent while the generator is x, as under every shipped modulus
    ("_char2_product's xor -> or", "out ^= a", "out |= a",
     ["tests/test_field.py::test_char2_tables_walk_a_generator_other_than_x"]),
    ("_char2_product's shift by two", "a <<= 1", "a <<= 2", MUL),
    ("_char2_product reduced with or", "a ^= bits", "a |= bits", MUL),
    ("_char2_product reduced at degree n + 1", "if a >> n:", "if a >> n + 1:", MUL),
    ("the walk stops at any unit of order above 1", "if k == m - 1:", "if k:", PRIME),
    ("the walk fills one period of exp", "exp[k] = exp[k + m] = acc", "exp[k] = acc", MUL),
    ("the log[0] sentinel 2m -> 2m - 1", "log = [2 * m] * q", "log = [2 * m - 1] * q", MUL),
    ("a product's log sum -> difference", "_e[_l[a] + _l[b]]", "_e[_l[a] - _l[b]]", MUL),
    ("the inverse g^(-k) -> g^k", "exp[-log[a] % m]", "exp[log[a] % m]", INVERSE),
], "zech.py": [
    ("Zech's 1 + g^k carries past the lowest digit", "log[e - e % p + (e + 1) % p]",
     "log[e + 1]", ZECH_TESTS),
    ("a + b looks up Z(log a - log b)", "zech[(log[b] - log[a]) % m]",
     "zech[(log[a] - log[b]) % m]", ZECH_TESTS),
    ("a + 0 -> 0 + a -> a", "if a and b else a | b", "if a and b else a", ZECH_TESTS),
    ("a - b adds b", "zech[(log[b] + h - log[a]) % m]", "zech[(log[b] - log[a]) % m]",
     ZECH_TESTS),
    ("-a = a", "return exp[log[a] + h]", "return exp[log[a]]", ZECH_TESTS),
    ("-1 = g^(m/2) -> g^(m/2 - 1)", "h = m // 2", "h = m // 2 - 1", ZECH_TESTS),
    ("the generator's order tested at m, not m/r", "m // r, modulus, p)", "m, modulus, p)",
     ODD),
    ("the order test passes any unit", "!= (1,) for r in primes", "!= () for r in primes",
     ODD),
    ("only the even divisors of m tried as primes", "        r += 1", "        r += 2", ODD),
    ("the largest prime factor of m dropped", "    if rest > 1:\n        primes.append(rest)",
     "    if rest > m:\n        primes.append(rest)", ODD),
    ("the walk's slots wide enough for one term, not n", "w = (n * (p - 1) ** 2).bit_length()",
     "w = ((p - 1) ** 2).bit_length()", ODD),
    ("the walk's columns x^i * g -> g * x^(i-1)", "column = _poly_mod((0, *column), modulus, p)",
     "column = _poly_mod((*column, 0), modulus, p)", ODD),
    ("the walk's slots left unreduced mod p", "(slots >> shift & mask) % p",
     "(slots >> shift & mask)", ODD),
]}


def _run_tests(src: Path, tests: list[str]) -> tuple[bool, float]:
    """Whether the tests pass with the package imported from src, and how
    long they took; a run past the timeout counts as failed."""
    start = time.perf_counter()
    # the suite uses no third-party plugin, so none is imported
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
               PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                               "no:cacheprovider", *tests],
                              cwd=ROOT, env=env, capture_output=True, timeout=TIMEOUT_S)
        passed = proc.returncode == 0
    except subprocess.TimeoutExpired:
        passed = False
    return passed, time.perf_counter() - start


def _copy_with(file: str, text: str, tests: list[str]) -> tuple[bool, float]:
    """_run_tests on a copy of src/ whose package file reads text."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        (src / PACKAGE / file).write_text(text)
        return _run_tests(src, tests)


def main() -> int:
    sources = {file: (ROOT / "src" / PACKAGE / file).read_text() for file in MUTANTS}
    mutants = [(file, *mutant) for file, listed in MUTANTS.items() for mutant in listed]
    stale = [f"{file}: {name}" for file, name, old, _, _ in mutants
             if sources[file].count(old) != 1]
    if stale:
        print(f"mutations whose text does not occur exactly once: {stale}")
        return 1
    every_test = sorted({test for *_, tests in mutants for test in tests})
    passed, took = _copy_with("kernel.py", sources["kernel.py"], every_test)
    print(f"unmutated: the {len(every_test)} named test groups "
          f"{'pass' if passed else 'FAIL'} ({took:.1f} s)")
    if not passed:
        return 1
    with ThreadPoolExecutor(JOBS) as pool:
        runs = [pool.submit(_copy_with, file, sources[file].replace(old, new), tests)
                for file, _, old, new, tests in mutants]
        survivors = 0
        for (file, name, *_), run in zip(mutants, runs):
            passed, took = run.result()
            survivors += passed
            print(f"{'SURVIVED' if passed else 'killed  '}  {file}: {name} ({took:.1f} s)")
    print(f"{len(mutants) - survivors} of {len(mutants)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
