"""Odd characteristic: the table walk of GF(p^n), n > 1, and addition by
Zech logarithms.

The table build (the tables module) imports this module only for an odd
characteristic, so a run over GF(2^n), which walks by shift-and-xor and
adds by XOR, does not compile it.
"""

from __future__ import annotations

from operator import mul
from typing import Callable

from .polynomial import _poly_mod, _poly_powmod, _trim


def _generator_walk(modulus: tuple[int, ...], p: int) -> tuple[int, Callable[[int, int], int]]:
    """The generator of GF(p^n)'s table walk, p odd and n > 1, and the
    product times(a, g) of a packed value a by it (tables._log_tables).

    The generator is the first value from 1 upwards whose order is
    m = p^n - 1, so the one the walk of each candidate in turn finds: g has
    order m iff g^(m/r) != 1 for every prime r dividing m (Lidl and
    Niederreiter), which a few dozen polynomial products decide.

    times multiplies by g through the columns x^i * g mod the modulus,
    i < n, each a coefficient vector packed w bits per coefficient: the
    product's vector is one integer sum of a's coefficients times the
    columns, whose slots hold sums of n terms below p^2, each then reduced
    mod p.  _mul_slow, in the test suite, is its reference."""
    n = len(modulus) - 1
    m = p ** n - 1

    def coeffs(value: int) -> tuple[int, ...]:
        return _trim(value // p ** i % p for i in range(n))

    primes, rest, r = [], m, 2
    while r * r <= rest:
        if rest % r == 0:
            primes.append(r)
            while rest % r == 0:
                rest //= r
        r += 1
    if rest > 1:
        primes.append(rest)
    g = next(v for v in range(1, m + 1)
             if all(_poly_powmod(coeffs(v), m // r, modulus, p) != (1,) for r in primes))
    w = (n * (p - 1) ** 2).bit_length()
    mask = (1 << w) - 1
    shifts = range(w * (n - 1), -1, -w)
    columns, column = [], coeffs(g)
    for _ in range(n):
        columns.append(sum(c << w * j for j, c in enumerate(column)))
        column = _poly_mod((0, *column), modulus, p)

    def times(a: int, _g: int) -> int:
        digits = []
        for _ in range(n):
            a, digit = divmod(a, p)
            digits.append(digit)
        slots = sum(map(mul, digits, columns))
        out = 0
        for shift in shifts:
            out = out * p + (slots >> shift & mask) % p
        return out
    return g, times


def _zech_arithmetic(exp: list[int], log: list[int], p: int
                     ) -> tuple[Callable, Callable, Callable]:
    """Addition, subtraction and negation of GF(p^n), p odd, on packed
    values, from the field's log tables (tables._log_tables).

    Zech logarithms: 1 + g^k = g^zech[k].  Adding 1 changes only the
    lowest base-p digit of a packed value, and zech[m/2] is the log[0]
    sentinel, since g^(m/2) = -1.  So a + b = a * (1 + b/a) is a Zech
    lookup and a log sum, which lands in the zero block when b = -a, and
    negating adds m/2 to the log, 0 staying in the zero block.  A zero
    operand makes the other the result, hence `a | b`; for a - b the zero
    block of exp[log[0] + h] also covers b = 0.  Coefficient-wise addition
    and negation, in the test suite, are the reference these must match."""
    m = len(log) - 1
    zech = [log[e - e % p + (e + 1) % p] for e in exp[:m]]
    h = m // 2

    def add(a: int, b: int) -> int:
        return exp[log[a] + zech[(log[b] - log[a]) % m]] if a and b else a | b

    def sub(a: int, b: int) -> int:
        return exp[log[a] + zech[(log[b] + h - log[a]) % m]] if a and b else a | exp[log[b] + h]

    def neg(a: int) -> int:
        return exp[log[a] + h]

    return add, sub, neg
