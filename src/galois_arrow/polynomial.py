"""Polynomials over GF(p) and the irreducibility test.

A polynomial is a trimmed low-to-high coefficient tuple; () is zero.
Constructing a field validates its modulus by is_irreducible, so every
field construction loads this module; the field module imports it, and
the reference product of packed values (FieldSpec._mul_slow, in the
element module) and the odd-characteristic table walk (the zech module)
use its arithmetic.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import CompositeCharacteristic, ZeroPolynomial


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
    """a times the inverse of its leading coefficient, which becomes 1; every
    caller passes coefficients reduced mod p, the last nonzero."""
    if not a:
        return a
    inv_lead = pow(a[-1], p - 2, p)
    return tuple(c * inv_lead % p for c in a)


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
