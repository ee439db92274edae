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

# Every module imports field.  Loaded here, it is compiled before the
# module a run starts from (python -m galois_arrow.cli compiles cli.py
# right after this file): without cached bytecode, compiling field.py is
# the largest transient allocation of start-up.  With field.py at about
# 2,500 AST nodes and cli.py at 1,900, compiling it before cli.py's code
# is resident lowers the arc sweep's peak at q = 16 by 0.02-0.08 MiB, and
# leaves the conic CSV sweep's at q = 32 within 0.03 MiB (VmHWM medians of
# 15 and of 30 runs, Python 3.11).
from . import field  # noqa: F401

_EXPORTS = {
    "errors": ("GeometryError", "InvariantViolation", "ValidationError"),
    "field": ("FieldSpec", "is_irreducible", "make_field", "parse_modulus"),
    "element": ("FieldElement", "elements", "inv", "sqrt_char2"),
    "plane": ("Plane", "ProjLine", "ProjPoint", "build_plane", "collinear", "incident",
              "line_through", "meet", "points_on"),
    "conic": ("Conic", "DegeneracyClass", "LineClass", "canonical_conic", "classify",
              "classify_line", "evaluate", "fit_conic", "nucleus", "parametrize_canonical",
              "point_set", "solve_homogeneous", "tangent_lines"),
    "pencil": ("Pencil", "PencilMember", "base_points", "common_nucleus", "member_through",
               "members", "time_pencil"),
    "kernel": ("TemporalClass", "time_pencil_context", "validate_ideal_line"),
    "arc": ("Arc", "ArcFamily", "augment_with_nucleus", "build_time_family", "family_to_dict",
            "is_arc", "is_conic_arc", "puncture", "touch_point"),
    "arrow": ("ArrowReport", "arc_arrow", "classify_member", "conic_arrow"),
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
