"""Exact arithmetic in GF(p^n).

An element is a canonical coefficient vector over GF(p), packed as the
integer sum(c_i * p**i) in [0, q).  With this encoding 0 and 1 are always
the additive and multiplicative identities, equality and hashing are
structural, and the enumeration order 0, 1, ..., q-1 is the element order
every downstream "first/canonical" choice inherits.

Every field multiplies through one pair of log/antilog tables (Lidl &
Niederreiter, *Finite Fields*): log[0] is a sentinel that sends any product
with a zero factor into a block of zeros at the end of the antilog table,
so a product is two lookups and an index sum, with no branch and no
modulo.  The tables walk the first generator's powers, by shift-and-xor in
GF(2^n) and % in GF(p).  Plain polynomial reduction is the reference path
and the two must agree bit for bit (see the test suite).  Inverses
are a lookup into a table of q entries read off the log tables; Fermat's
a^(q-2) is their oracle in the test suite.

Characteristic 2 adds by XOR.  Every odd-characteristic field adds,
subtracts and negates through Zech logarithms, 1 + g^k = g^Z(k), one
table of q - 1 entries beside the log tables (the zech module, imported
only when an odd-characteristic field is built); coefficient-wise
addition and negation are its reference in the test suite.

This module holds what constructing a field runs: validation, with the
irreducibility test and its polynomial helpers, parse_modulus, the tables
and make_field.  The element API (FieldElement, the module-level add, sub,
neg, mul, inv, sqrt_char2 and elements, and FieldSpec's element, zero,
one, generator, elements, _pow_i and _sqrt_i) lives in the element module
and is loaded on its first use, from here (PEP 562, FieldSpec.__getattr__)
or from the package, so a run on packed values, as the arrow command is,
does not compile it.
"""

from __future__ import annotations

import threading
import weakref
from typing import Iterable, Sequence

from .errors import (
    CompositeCharacteristic,
    DivisionByZero,
    InvalidDegree,
    ModulusDegreeMismatch,
    NoDefaultModulus,
    OrderTooLarge,
    ReducibleModulus,
    ZeroPolynomial,
)

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


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    d = 3
    while d * d <= m:
        if m % d == 0:
            return False
        d += 2
    return True


def field_order(p: int, n: int) -> int:
    """The order p**n of GF(p^n), for p >= 2 and n >= 1; OrderTooLarge past
    MAX_ORDER, refused before the power is computed: n > 16 already exceeds
    2^16, so a huge degree costs nothing."""
    if n > 16 or p ** n > MAX_ORDER:
        raise OrderTooLarge(f"order {p}^{n} exceeds the supported bound 2^16")
    return p ** n


# ---------------------------------------------------------------------------
# polynomials over GF(p): trimmed low-to-high coefficient tuples, () is zero

def _trim(coeffs: Iterable[int]) -> tuple[int, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _deg(a: tuple[int, ...]) -> int:
    return len(a) - 1


def _poly_sub(a, b, p):
    n = max(len(a), len(b))
    return _trim(((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
                 for i in range(n))


def _poly_scale(a, k, p):
    k %= p
    if k == 0:
        return ()
    return _trim((c * k) % p for c in a)


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return _trim(out)


def _poly_mod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    inv_lead = pow(b[-1], p - 2, p)
    db = _deg(b)
    while len(rem) - 1 >= db and any(rem):
        if rem[-1] == 0:
            rem.pop()
            continue
        k = (rem[-1] * inv_lead) % p
        shift = len(rem) - 1 - db
        for i, cb in enumerate(b):
            rem[shift + i] = (rem[shift + i] - k * cb) % p
        rem.pop()
    return _trim(rem)


def _monic(a, p):
    if not a:
        return a
    return _poly_scale(a, pow(a[-1], p - 2, p), p)


def _poly_gcd(a, b, p):
    while b:
        a, b = b, _poly_mod(a, b, p)
    return _monic(a, p)


def _poly_powmod(base, e, mod, p):
    result = (1,)
    base = _poly_mod(base, mod, p)
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul(result, base, p), mod, p)
        base = _poly_mod(_poly_mul(base, base, p), mod, p)
        e >>= 1
    return result


def is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Whether poly (low-to-high coefficients) is irreducible over GF(p).

    Uses the gcd-with-Frobenius criterion: after making the polynomial
    monic, it is irreducible iff gcd(x^(p^i) - x, poly) = 1 for every
    1 <= i <= deg/2, since any nontrivial factorisation contains an
    irreducible factor of degree at most deg/2.
    """
    if not _is_prime(p):
        raise CompositeCharacteristic(f"{p} is not prime")
    f = _trim(c % p for c in poly)
    if not f:
        raise ZeroPolynomial("the zero polynomial has no factorisation")
    d = _deg(f)
    if d == 0:
        return False  # nonzero constants are units, not irreducible
    f = _monic(f, p)
    x = (0, 1)
    frob = x
    for _ in range(d // 2):
        frob = _poly_powmod(frob, p, f, p)
        g = _poly_gcd(_poly_sub(frob, x, p), f, p)
        if _deg(g) != 0:
            return False
    return True


def parse_modulus(text: str, p: int) -> tuple[int, ...]:
    """Parse a modulus written as 'c0,c1,...' (low-to-high) or, for p = 2,
    as a hex bitmask such as 0xB for x^3 + x + 1."""
    text = text.strip()
    if text.lower().startswith("0x"):
        if p != 2:
            raise ValueError("hex bitmask moduli are only defined for p = 2")
        mask = int(text, 16)
        if mask <= 0:
            raise ValueError("modulus bitmask must be positive")
        return tuple((mask >> i) & 1 for i in range(mask.bit_length()))
    try:
        coeffs = tuple(int(tok, 0) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"malformed modulus {text!r}") from exc
    if not coeffs:
        raise ValueError("empty modulus")
    return coeffs


def _char2_product(spec: "FieldSpec"):
    """The product of GF(2^n) on packed values, for the table walk: a is
    shifted and xored in once per bit of b, and reduced by the modulus bits
    whenever it reaches degree n."""
    n = spec.degree
    bits = sum(c << i for i, c in enumerate(spec.modulus))

    def times(a: int, b: int) -> int:
        out = 0
        while b:
            if b & 1:
                out ^= a
            b >>= 1
            a <<= 1
            if a >> n:
                a ^= bits
        return out
    return times


# The element API, defined in the element module and loaded on first use:
# FieldSpec's methods that make or serve elements, and the module's names.
_SPEC_ELEMENT_API = ("_pow_i", "_sqrt_i", "element", "zero", "one", "generator", "elements")
_ELEMENT_NAMES = ("FieldElement", "add", "sub", "neg", "mul", "inv", "sqrt_char2", "elements")


def __getattr__(name: str):
    if name not in _ELEMENT_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import element
    return getattr(element, name)


# (p, n, monic modulus) -> the live FieldSpec of that field; weak, so a spec
# nobody holds (and its tables) is still freed.  Stores take the lock, so two
# threads building the same field still end up with one spec.
_LIVE_SPECS = weakref.WeakValueDictionary()
_LIVE_SPECS_LOCK = threading.Lock()


class FieldSpec:
    """The field GF(p^n) for a fixed irreducible modulus.

    Immutable after construction; all arithmetic tables are built once.
    Construction returns the one live spec of each field, so equality is identity.
    """

    __slots__ = (
        "characteristic", "degree", "modulus", "order",
        "_add_i", "_sub_i", "_neg_i", "_mul_i",
        "_exp", "_log", "_inv", "__weakref__",
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
        spec._build_tables()
        with _LIVE_SPECS_LOCK:
            return _LIVE_SPECS.setdefault((p, n, mod), spec)

    # -- representation plumbing -------------------------------------------

    def __reduce__(self):
        # copies and unpickled specs go through construction, so stay identical
        return (FieldSpec, (self.characteristic, self.degree, self.modulus))

    def __repr__(self):
        return f"FieldSpec(GF({self.characteristic}^{self.degree}), q={self.order})"

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

    # -- arithmetic on packed values ----------------------------------------

    def _build_tables(self):
        p, q = self.characteristic, self.order
        self._build_log_tables()
        exp, log, m = self._exp, self._log, q - 1
        self._mul_i = lambda a, b, _e=exp, _l=log: _e[_l[a] + _l[b]]
        # a = g^k has inverse g^(-k); O(q), so 2^16 stays cheap
        self._inv = [0] + [exp[-log[a] % m] for a in range(1, q)]
        if p == 2:
            self._add_i = int.__xor__
            self._sub_i = int.__xor__
            self._neg_i = lambda a: a
            return
        from .zech import _zech_arithmetic
        self._add_i, self._sub_i, self._neg_i = _zech_arithmetic(exp, log, p)

    def _build_log_tables(self):
        """exp[k] = g^k for k in [0, 2m) with m = q - 1, then 2m + 1 zeros;
        log[g^k] = k and log[0] = 2m.  Two logs of nonzero values sum below
        2m, and any sum with log[0] in it lands in [2m, 4m], the zeros."""
        q = self.order
        m = q - 1
        exp = [0] * (4 * m + 1)
        log = [2 * m] * q
        # each candidate fills the tables as it walks its powers, and is dropped
        # if they return to 1 before m steps: the generator's full walk then
        # overwrites what it wrote.  From 1, not 2: GF(2) has the one unit 1
        times = (_char2_product(self) if self.characteristic == 2 else self._mul_slow
                 if self.degree > 1 else lambda a, b, p=self.characteristic: a * b % p)
        for g in range(1, q):
            acc = 1
            for k in range(m):
                exp[k] = exp[k + m] = acc
                log[acc] = k
                acc = times(acc, g)
                if acc == 1:
                    break
            if k == m - 1:
                break
        else:  # pragma: no cover - a cyclic group always has a generator
            raise ArithmeticError("no generator found")
        self._exp = exp
        self._log = log

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

    def format(self, value: int) -> str:
        """Hex without prefix for p = 2, decimal otherwise."""
        return format(value, "x") if self.characteristic == 2 else str(value)

    # -- the element API, from the element module ---------------------------

    def __getattr__(self, name: str):
        # called only for a name the spec and its class lack: loading the
        # element module binds the element API onto this class, so this runs
        # at most once per name
        if name not in _SPEC_ELEMENT_API:
            raise AttributeError(f"'FieldSpec' object has no attribute {name!r}")
        from . import element  # noqa: F401
        return getattr(self, name)


# ---------------------------------------------------------------------------
# module-level operation surface

def make_field(p: int, n: int = 1, modulus: Sequence[int] | None = None) -> FieldSpec:
    """Construct and validate GF(p^n), or return its one live spec; shipped
    defaults cover p = 2, n <= 8 and the prime fields GF(3), GF(5), GF(7)."""
    return FieldSpec(p, n, modulus)
