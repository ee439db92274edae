"""Exact finite-geometry engine: Galois fields, the projective plane
PG(2, q), conics and their pencils, (q+1)-arcs, and past/present/future
classification of pencil members against a chosen ideal line.

Everything is computed with exact field arithmetic and verified by
exhaustive enumeration at desk scale (q <= 2^16 for fields, q <= 32 for
the geometry suites).

The public names below are resolved on first access (PEP 562), each
from the module that defines it, so importing the package, or one of its
modules, loads only the modules that are used.
"""

# No module is imported here.  Importing field first, so that it compiled
# before cli.py, lowered a sweep's peak RSS while field.py was the largest
# module; with no module of an arrow run above 1,200 AST nodes it raises
# the conic CSV sweep's peak at q = 32 by 0.08 MiB and leaves the arc
# sweep's at q = 16 unchanged (VmHWM medians of 30 and 40 runs without
# cached bytecode, Python 3.11).

_EXPORTS = {
    "errors": ("GeometryError", "InvariantViolation", "ValidationError"),
    "field": ("FieldSpec", "make_field"),
    "polynomial": ("is_irreducible",),
    "modulus": ("parse_modulus",),
    "element": ("FieldElement", "elements", "inv", "sqrt_char2"),
    "plane": ("Plane", "ProjLine", "ProjPoint", "build_plane", "collinear", "incident",
              "line_through", "meet", "points_on", "validate_ideal_line"),
    "conic": ("Conic", "DegeneracyClass", "LineClass", "canonical_conic", "classify",
              "classify_line", "evaluate", "fit_conic", "nucleus", "parametrize_canonical",
              "point_set", "solve_homogeneous", "tangent_lines"),
    "pencil": ("Pencil", "PencilMember", "base_points", "common_nucleus", "member_through",
               "members", "time_pencil"),
    "kernel": ("time_pencil_context",),
    "arc": ("Arc", "ArcFamily", "augment_with_nucleus", "build_time_family", "family_to_dict",
            "is_arc", "is_conic_arc", "puncture", "touch_point"),
    "arrow": ("ArrowReport", "TemporalClass", "arc_arrow", "classify_member", "conic_arrow"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
