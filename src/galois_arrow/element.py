"""Field elements: FieldElement, a field's element API and the module-level
element operations, and FieldSpec's reference methods.

A FieldElement pairs a FieldSpec with a packed value and computes through
the spec's tables.  The field module constructs fields on packed values
and does not import this one: an arrow run never makes an element, so it
does not compile this module.  FieldElement, elements, inv and
sqrt_char2 also resolve from the package on first access (PEP 562).  The
members of _SpecElementAPI are FieldSpec's element API (element, zero,
one, generator, elements, _pow_i, _sqrt_i) and its reference methods
(coeffs_of, value_of, the polynomial product _mul_slow and the checked
inverse _inv_i).  Loading this module binds each onto FieldSpec, and the
first read of a name a spec lacks loads it (FieldSpec.__getattr__).
"""

from __future__ import annotations

from typing import Iterable

from .errors import DivisionByZero, MixedFields, OddCharacteristic
from .field import FieldSpec, _generator_value
from .polynomial import _poly_mod, _poly_mul, _trim


class _SpecElementAPI:
    """FieldSpec's methods that make elements, serve them or read their
    coefficients, and its reference product and inverse, bound onto
    FieldSpec when this module is loaded."""

    def coeffs_of(self, value: int) -> tuple[int, ...]:
        """Canonical length-n coefficient vector (low-to-high) of a value."""
        p, n = self.characteristic, self.degree
        out = []
        for _ in range(n):
            out.append(value % p)
            value //= p
        return tuple(out)

    def value_of(self, coeffs: Iterable[int]) -> int:
        p, n = self.characteristic, self.degree
        cs = list(coeffs)
        if len(cs) > n:
            raise ValueError(f"coefficient vector longer than degree {n}")
        v = 0
        for c in reversed(cs):
            v = v * p + (c % p)
        return v

    def _mul_slow(self, a: int, b: int) -> int:
        """Reference multiplication: polynomial product reduced by the modulus."""
        p = self.characteristic
        prod = _poly_mul(_trim(self.coeffs_of(a)), _trim(self.coeffs_of(b)), p)
        return self.value_of(_poly_mod(prod, self.modulus, p))

    def _inv_i(self, a: int) -> int:
        """Inverse by table lookup; the oracle is Fermat's a^(q-2)."""
        if a == 0:
            raise DivisionByZero("0 has no multiplicative inverse")
        return self._inv[a]

    def _pow_i(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self._inv_i(a), -e
        result, base = 1, a
        while e:
            if e & 1:
                result = self._mul_i(result, base)
            base = self._mul_i(base, base)
            e >>= 1
        return result

    def _sqrt_i(self, a: int) -> int:
        if self.characteristic != 2:
            raise OddCharacteristic("square roots via Frobenius need characteristic 2")
        return self._pow_i(a, 1 << (self.degree - 1))

    def element(self, value) -> FieldElement:
        """Make an element from a packed value in [0, q) or a coefficient vector."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise MixedFields("element belongs to a different field")
            return value
        if isinstance(value, int):
            if not 0 <= value < self.order:
                raise ValueError(f"value {value} outside [0, {self.order})")
            return FieldElement(self, value)
        return FieldElement(self, self.value_of(value))

    @property
    def zero(self) -> FieldElement:
        return FieldElement(self, 0)

    @property
    def one(self) -> FieldElement:
        return FieldElement(self, 1)

    @property
    def generator(self) -> FieldElement:
        """The canonical generator (field._generator_value)."""
        return FieldElement(self, _generator_value(self.characteristic, self.degree))

    def elements(self) -> list[FieldElement]:
        return [FieldElement(self, v) for v in range(self.order)]


for _name, _member in vars(_SpecElementAPI).items():
    if not _name.startswith("__"):
        setattr(FieldSpec, _name, _member)


class FieldElement:
    """An immutable field element; arithmetic via the usual operators."""

    __slots__ = ("field", "value")

    def __init__(self, field: FieldSpec, value: int):
        self.field = field
        self.value = value

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.field.coeffs_of(self.value)

    def _coerce(self, other):
        if not isinstance(other, FieldElement):
            return None
        if other.field != self.field:
            raise MixedFields(f"{self!r} and {other!r} live in different fields")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.field, self.field._add_i(self.value, other.value))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.field, self.field._sub_i(self.value, other.value))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.field, self.field._mul_i(self.value, other.value))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.field,
                            self.field._mul_i(self.value, self.field._inv_i(other.value)))

    def __neg__(self):
        return FieldElement(self.field, self.field._neg_i(self.value))

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field._pow_i(self.value, e))

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.value == other.value

    def __hash__(self):
        return hash((self.field, self.value))

    def __bool__(self):
        return self.value != 0

    def __str__(self):
        return self.field.format(self.value)

    def __repr__(self):
        return f"GF{self.field.order}({self})"


# ---------------------------------------------------------------------------
# module-level operation surface

def add(a: FieldElement, b: FieldElement) -> FieldElement:
    return a + b


def sub(a: FieldElement, b: FieldElement) -> FieldElement:
    return a - b


def neg(a: FieldElement) -> FieldElement:
    return -a


def mul(a: FieldElement, b: FieldElement) -> FieldElement:
    return a * b


def inv(a: FieldElement) -> FieldElement:
    return FieldElement(a.field, a.field._inv_i(a.value))


def sqrt_char2(a: FieldElement) -> FieldElement:
    """The unique b with b*b = a; squaring is a bijection in GF(2^n)."""
    return FieldElement(a.field, a.field._sqrt_i(a.value))


def elements(spec: FieldSpec) -> list[FieldElement]:
    """All q elements in canonical order: 0 first, 1 second, then by value."""
    return spec.elements()
