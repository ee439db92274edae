"""The package's public names, resolved on first access: each is the
object its defining module binds, __all__ lists exactly them, and the
submodules stay importable from the package."""

import inspect
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


def test_no_public_function_takes_a_plane_and_no_record_holds_one():
    """A plane is a function of its field, so no public function takes one
    as a parameter and no public record, nor a record one of them holds,
    has a plane field."""
    from galois_arrow.arc import FamilyProvenance
    from galois_arrow.arrow import MemberClassification
    values = [getattr(galois_arrow, name) for name in galois_arrow.__all__]
    functions = [f for f in values if inspect.isfunction(f)]
    assert len(functions) > 30
    assert [f.__name__ for f in functions if "plane" in inspect.signature(f).parameters] == []
    records = [v for v in values if isinstance(v, type) and issubclass(v, tuple)]
    records += [FamilyProvenance, MemberClassification]
    assert sorted(r.__name__ for r in records) == [
        "ArcFamily", "ArrowReport", "FamilyProvenance", "MemberClassification", "Pencil",
        "PencilMember"]
    assert [r.__name__ for r in records if "plane" in r._fields] == []


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


def test_field_spec_element_api_is_bound_from_the_element_module():
    """Loading the element module binds every member of _SpecElementAPI
    that is not a dunder onto FieldSpec; a name a spec lacks still raises
    the AttributeError of a missing attribute."""
    from galois_arrow import element
    from galois_arrow.field import FieldSpec, make_field
    spec = make_field(2, 3)
    members = [name for name in vars(element._SpecElementAPI) if not name.startswith("__")]
    assert {"element", "zero", "one", "generator", "elements", "_pow_i", "_sqrt_i",
            "coeffs_of", "value_of", "_mul_slow", "_inv_i"} == set(members)
    for name in members:
        assert vars(FieldSpec)[name] is vars(element._SpecElementAPI)[name]
        assert getattr(spec, name) is not None
    assert (FieldSpec.__module__, FieldSpec.__qualname__) == ("galois_arrow.field", "FieldSpec")
    assert spec.one == spec.element(1) and spec.generator.value == 2
    for name in ("no_such_name", "__no_such_name__"):
        with pytest.raises(AttributeError) as caught:
            getattr(spec, name)
        assert str(caught.value) == f"'FieldSpec' object has no attribute {name!r}"
    with pytest.raises(ImportError):
        from galois_arrow.field import no_such_name  # noqa: F401


@pytest.mark.parametrize("module, name, home", [("field", "is_irreducible", "polynomial")])
def test_moved_names_resolve_from_the_modules_that_held_them(module, name, home):
    """A public name that a module imports from its home, as the field
    module imports is_irreducible to validate every modulus, is the one
    object; a name neither defines nor imports raises AttributeError."""
    from importlib import import_module
    value = getattr(import_module(f"galois_arrow.{module}"), name)
    assert value is getattr(import_module(f"galois_arrow.{home}"), name)
    assert value.__module__ == f"galois_arrow.{home}"
    if name in galois_arrow.__all__:
        assert getattr(galois_arrow, name) is value
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(import_module(f"galois_arrow.{module}"), "no_such_name")


@pytest.mark.parametrize("module, name, home", [
    *[("field", name, "element") for name in ("FieldElement", "add", "sub", "neg", "mul",
                                              "inv", "sqrt_char2", "elements")],
    ("field", "parse_modulus", "modulus"), ("kernel", "TemporalClass", "arrow"),
    ("kernel", "validate_ideal_line", "plane")])
def test_each_name_resolves_only_from_its_home(module, name, home):
    """A name that a module neither defines nor imports does not resolve
    from it, even after its home is loaded: the field module does not
    hand out the element API or parse_modulus, nor the kernel module the
    arrow and plane names; each comes from its home, as the one object
    the package exports."""
    from importlib import import_module
    value = getattr(import_module(f"galois_arrow.{home}"), name)
    assert value.__module__ == f"galois_arrow.{home}"
    if name in galois_arrow.__all__:
        assert getattr(galois_arrow, name) is value
    held = import_module(f"galois_arrow.{module}")
    assert name not in vars(held)
    with pytest.raises(AttributeError, match=name):
        getattr(held, name)
    with pytest.raises(ImportError):
        exec(f"from galois_arrow.{module} import {name}", {})

