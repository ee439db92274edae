"""The package's public names, resolved on first access: each is the
object its defining module binds, __all__ lists exactly them, and the
submodules stay importable from the package."""

import sys
from types import ModuleType

import pytest

import galois_arrow

# every name the package exported when its __init__ imported all modules
PUBLIC_NAMES = [
    "GeometryError", "InvariantViolation", "ValidationError",
    "FieldElement", "FieldSpec", "elements", "inv", "is_irreducible", "make_field",
    "parse_modulus", "solve_homogeneous", "sqrt_char2",
    "Plane", "ProjLine", "ProjPoint", "build_plane", "collinear", "incident",
    "line_through", "meet", "points_on",
    "Conic", "DegeneracyClass", "LineClass", "canonical_conic", "classify",
    "classify_line", "evaluate", "fit_conic", "nucleus", "parametrize_canonical",
    "point_set", "tangent_lines",
    "Pencil", "PencilMember", "base_points", "common_nucleus", "member_through",
    "members", "time_pencil", "time_pencil_context",
    "Arc", "ArcFamily", "augment_with_nucleus", "build_time_family", "family_to_dict",
    "is_arc", "is_conic_arc", "puncture", "touch_point",
    "ArrowReport", "TemporalClass", "arc_arrow", "classify_member", "conic_arrow",
    "validate_ideal_line",
]


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_public_name_is_its_defining_modules_object(name):
    value = getattr(galois_arrow, name)
    module = value.__module__
    assert module.startswith("galois_arrow.")
    assert getattr(sys.modules[module], name) is value


def test_all_lists_the_public_names_and_star_import_binds_them():
    assert sorted(galois_arrow.__all__) == sorted(PUBLIC_NAMES)
    assert len(set(galois_arrow.__all__)) == len(galois_arrow.__all__)
    namespace: dict = {}
    exec("from galois_arrow import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC_NAMES)
    assert set(PUBLIC_NAMES) <= set(dir(galois_arrow))


def test_submodules_import_from_the_package():
    from galois_arrow import conic, plane
    for module, name in ((plane, "plane"), (conic, "conic")):
        assert isinstance(module, ModuleType)
        assert module is sys.modules[f"galois_arrow.{name}"]
    assert galois_arrow.__version__ == "0.1.0"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        galois_arrow.no_such_name
    assert not hasattr(galois_arrow, "no_such_name")
    with pytest.raises(ImportError):
        from galois_arrow import no_such_name  # noqa: F401
