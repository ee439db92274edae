"""Exact arithmetic in GF(p^n).

An element is a canonical coefficient vector over GF(p), packed as the
integer sum(c_i * p**i) in [0, q).  With this encoding 0 and 1 are always
the additive and multiplicative identities, equality and hashing are
structural, and the enumeration order 0, 1, ..., q-1 is the element order
every downstream "first/canonical" choice inherits.

Every field multiplies through one pair of log/antilog tables and inverts
through a table of q entries, all built once at construction by the
tables module.  Characteristic 2 adds by XOR; every odd-characteristic
field adds, subtracts and negates through Zech logarithms (the zech
module, imported only when an odd-characteristic field is built).

This module holds what constructing a field runs: validation (the
irreducibility test and the polynomials over GF(p) are the polynomial
module's), the tables (the tables module's), format and make_field.  What
no construction runs lives in its own module and is imported from there:
parse_modulus from the modulus module, and FieldElement and the
module-level element operations from the element module.  The element
module also defines FieldSpec's element API and reference methods; the
first read of a name FieldSpec lacks loads it (FieldSpec.__getattr__),
which binds them onto the class.  So a run on packed values, as the arrow
and field-info commands are, does not compile the element module, nor one
on a shipped modulus the modulus module; the canonical generator's value
is _generator_value's, here.
"""

from __future__ import annotations

import threading
import weakref
from typing import Sequence

from .errors import (
    CompositeCharacteristic,
    InvalidDegree,
    ModulusDegreeMismatch,
    NoDefaultModulus,
    OrderTooLarge,
    ReducibleModulus,
    ZeroPolynomial,
)
from .polynomial import _deg, _is_prime, _monic, _trim, is_irreducible
from .tables import _build_tables

MAX_ORDER = 1 << 16

# Shipped moduli, as low-to-high coefficient tuples.  Every entry is
# re-validated by is_irreducible at construction time.
DEFAULT_MODULI = {
    (2, 1): (0, 1),                            # x
    (2, 2): (1, 1, 1),                         # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),                      # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),                   # x^4 + x + 1
    (2, 5): (1, 0, 1, 0, 0, 1),                # x^5 + x^2 + 1
    (2, 6): (1, 1, 0, 0, 0, 0, 1),             # x^6 + x + 1
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),          # x^7 + x + 1
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),       # x^8 + x^4 + x^3 + x^2 + 1
    (3, 1): (0, 1),
    (5, 1): (0, 1),
    (7, 1): (0, 1),
}


def field_order(p: int, n: int) -> int:
    """The order p**n of GF(p^n), for p >= 2 and n >= 1; OrderTooLarge past
    MAX_ORDER, refused before the power is computed: n > 16 already exceeds
    2^16, so a huge degree costs nothing."""
    if n > 16 or p ** n > MAX_ORDER:
        raise OrderTooLarge(f"order {p}^{n} exceeds the supported bound 2^16")
    return p ** n


def _generator_value(p: int, n: int) -> int:
    """The packed value of GF(p^n)'s canonical generator: the class of x,
    which is p, for n >= 2, else 1."""
    return p if n >= 2 else 1


# (p, n, monic modulus) -> the live FieldSpec of that field; weak, so a spec
# nobody holds is still freed, with its tables and its time-pencil context
# (the two refer to each other, so the cycle collector frees them).  Stores
# take the lock, so two threads building the same field still end up with
# one spec.
_LIVE_SPECS = weakref.WeakValueDictionary()
_LIVE_SPECS_LOCK = threading.Lock()


class FieldSpec:
    """The field GF(p^n) for a fixed irreducible modulus.

    Its arithmetic tables are built once, at construction.  Its one
    time-pencil context (kernel.time_pencil_context), which holds the root
    tables, is made on first use and kept in _context, so it lives and dies
    with the spec.  Construction returns the one live spec of each field,
    so equality is identity.
    """

    __slots__ = (
        "characteristic", "degree", "modulus", "order",
        "_add_i", "_sub_i", "_neg_i", "_mul_i",
        "_exp", "_log", "_inv", "_context", "__weakref__",
    )

    def __new__(cls, p: int, n: int, modulus: Sequence[int] | None = None):
        if not isinstance(p, int) or p < 2:
            raise CompositeCharacteristic(f"characteristic must be prime, got {p!r}")
        if not isinstance(n, int) or n < 1:
            raise InvalidDegree(f"degree must be a positive integer, got {n!r}")
        # the bound first: trial division is O(sqrt(p)), so a huge p is refused
        # by its order before its primality is tested
        order = field_order(p, n)
        if not _is_prime(p):
            raise CompositeCharacteristic(f"characteristic must be prime, got {p!r}")
        if modulus is None:
            try:
                modulus = DEFAULT_MODULI[(p, n)]
            except KeyError:
                raise NoDefaultModulus(
                    f"no built-in modulus for GF({p}^{n}); pass one explicitly"
                ) from None
        mod = _trim(c % p for c in modulus)
        if not mod:
            raise ZeroPolynomial("the zero polynomial is not a modulus")
        if _deg(mod) != n:
            raise ModulusDegreeMismatch(f"modulus degree {_deg(mod)} != field degree {n}")
        mod = _monic(mod, p)
        spec = _LIVE_SPECS.get((p, n, mod))
        if spec is not None:
            return spec
        if not is_irreducible(mod, p):
            raise ReducibleModulus(f"modulus {list(mod)} is reducible over GF({p})")
        spec = super().__new__(cls)
        spec.characteristic = p
        spec.degree = n
        spec.modulus = mod
        spec.order = order
        spec._context = None
        _build_tables(spec)
        with _LIVE_SPECS_LOCK:
            return _LIVE_SPECS.setdefault((p, n, mod), spec)

    # -- representation plumbing -------------------------------------------

    def __reduce__(self):
        # copies and unpickled specs go through construction, so stay identical
        return (FieldSpec, (self.characteristic, self.degree, self.modulus))

    def __repr__(self):
        return f"FieldSpec(GF({self.characteristic}^{self.degree}), q={self.order})"

    def format(self, value: int) -> str:
        """Hex without prefix for p = 2, decimal otherwise."""
        return format(value, "x") if self.characteristic == 2 else str(value)

    # -- the element API and the reference methods, from the element module -

    def __getattr__(self, name: str):
        # called only for a name the spec and its class lack: loading the
        # element module binds its members onto this class, so this runs at
        # most once per name; a dunder, as copy.deepcopy probes for, is
        # refused without loading it
        if name.startswith("__"):
            raise AttributeError(f"'FieldSpec' object has no attribute {name!r}")
        from . import element  # noqa: F401
        return object.__getattribute__(self, name)


# ---------------------------------------------------------------------------
# module-level operation surface

def make_field(p: int, n: int = 1, modulus: Sequence[int] | None = None) -> FieldSpec:
    """Construct and validate GF(p^n), or return its one live spec; shipped
    defaults cover p = 2, n <= 8 and the prime fields GF(3), GF(5), GF(7)."""
    return FieldSpec(p, n, modulus)
