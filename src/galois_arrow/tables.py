"""The arithmetic tables of a field on packed values, built once when the
field is constructed (FieldSpec.__new__).

Every field multiplies through one pair of log/antilog tables (Lidl &
Niederreiter, *Finite Fields*): log[0] is a sentinel that sends any product
with a zero factor into a block of zeros at the end of the antilog table,
so a product is two lookups and an index sum, with no branch and no
modulo.  The tables walk the first generator's powers, by shift-and-xor in
GF(2^n), % in GF(p) and, in the other odd fields, by a product of packed
coefficient vectors (the zech module).  Plain polynomial reduction
(FieldSpec._mul_slow) is the reference path and the tables must agree with
it bit for bit (see the test suite).  Inverses are a lookup into a table of
q entries read off the log tables; Fermat's a^(q-2) is their oracle in the
test suite.  Characteristic 2 adds by XOR, every odd characteristic by
Zech logarithms (the zech module, imported only for an odd
characteristic).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .field import FieldSpec


def _char2_product(spec: FieldSpec):
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


def _build_tables(spec: FieldSpec) -> None:
    """Set the spec's log tables and product, its inverse table and its
    addition, subtraction and negation."""
    p, q = spec.characteristic, spec.order
    exp, log = _log_tables(spec)
    spec._exp, spec._log = exp, log
    m = q - 1
    spec._mul_i = lambda a, b, _e=exp, _l=log: _e[_l[a] + _l[b]]
    # a = g^k has inverse g^(-k); O(q), so 2^16 stays cheap
    spec._inv = [0] + [exp[-log[a] % m] for a in range(1, q)]
    if p == 2:
        spec._add_i = int.__xor__
        spec._sub_i = int.__xor__
        spec._neg_i = lambda a: a
        return
    from .zech import _zech_arithmetic
    spec._add_i, spec._sub_i, spec._neg_i = _zech_arithmetic(exp, log, p)


def _log_tables(spec: FieldSpec) -> tuple[list[int], list[int]]:
    """exp[k] = g^k for k in [0, 2m) with m = q - 1, then 2m + 1 zeros;
    log[g^k] = k and log[0] = 2m.  Two logs of nonzero values sum below
    2m, and any sum with log[0] in it lands in [2m, 4m], the zeros."""
    q = spec.order
    m = q - 1
    exp = [0] * (4 * m + 1)
    log = [2 * m] * q
    # each candidate fills the tables as it walks its powers, and is dropped
    # if they return to 1 before m steps: the generator's full walk then
    # overwrites what it wrote.  From 1, not 2: GF(2) has the one unit 1.
    # In the other odd fields a step costs O(n), so the zech module finds
    # that same first generator by its order, and only it is walked
    p = spec.characteristic
    candidates = range(1, q)
    if p != 2 and spec.degree > 1:
        from .zech import _generator_walk
        g, times = _generator_walk(spec.modulus, p)
        candidates = (g,)
    else:
        times = _char2_product(spec) if p == 2 else lambda a, b: a * b % p
    for g in candidates:
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
    return exp, log
