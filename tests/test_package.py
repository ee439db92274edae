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


@pytest.mark.parametrize("name", ["FieldElement", "add", "sub", "neg", "mul", "inv",
                                  "sqrt_char2", "elements"])
def test_element_names_resolve_from_the_field_module(name):
    """The element API lives in the element module; the field module and
    the package resolve each of its names to the one object."""
    from galois_arrow import element, field
    value = getattr(field, name)
    assert value is getattr(element, name)
    assert value.__module__ == "galois_arrow.element"
    if name in galois_arrow.__all__:
        assert getattr(galois_arrow, name) is value


def test_field_spec_element_api_is_bound_from_the_element_module():
    from galois_arrow import element, field
    from galois_arrow.field import _SPEC_ELEMENT_API, FieldSpec, make_field
    spec = make_field(2, 3)
    for name in _SPEC_ELEMENT_API:
        assert vars(FieldSpec)[name] is vars(element._SpecElementAPI)[name]
        assert getattr(spec, name) is not None
    assert spec.one == spec.element(1) and spec.generator.value == 2
    with pytest.raises(AttributeError, match="no_such_name"):
        spec.no_such_name
    with pytest.raises(AttributeError, match="no_such_name"):
        field.no_such_name
    with pytest.raises(ImportError):
        from galois_arrow.field import no_such_name  # noqa: F401


@pytest.mark.parametrize("module, name, home", [
    ("field", "is_irreducible", "polynomial"), ("field", "parse_modulus", "modulus"),
    ("kernel", "TemporalClass", "arrow"), ("kernel", "validate_ideal_line", "plane"),
    ("kernel", "validate_lines", "plane")])
def test_moved_names_resolve_from_the_modules_that_held_them(module, name, home):
    """A public name defined in a module an arrow run does not load still
    resolves from the module that used to define it, to the one object."""
    from importlib import import_module
    value = getattr(import_module(f"galois_arrow.{module}"), name)
    assert value is getattr(import_module(f"galois_arrow.{home}"), name)
    assert value.__module__ == f"galois_arrow.{home}"
    if name in galois_arrow.__all__:
        assert getattr(galois_arrow, name) is value
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(import_module(f"galois_arrow.{module}"), "no_such_name")


def test_context_plane_members_are_bound_from_the_plane_module():
    from galois_arrow import plane
    from galois_arrow.field import make_field
    from galois_arrow.kernel import _PLANE_MEMBERS, TimePencilContext, time_pencil_context
    ctx = time_pencil_context(make_field(2, 3))
    assert ctx.plane is plane.build_plane(ctx.spec)
    for name in _PLANE_MEMBERS:
        assert vars(TimePencilContext)[name] is vars(plane._ContextPlane)[name]
    assert (ctx.B1.values, ctx.B2.values, ctx.N.values) == ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    assert len(ctx.valid_ideal_lines()) == 49 and len(ctx.valid_tangent_lines()) == 7
    with pytest.raises(AttributeError, match="no_such_name"):
        ctx.no_such_name
