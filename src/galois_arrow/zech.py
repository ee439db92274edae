"""Addition in odd characteristic by Zech logarithms.

FieldSpec's table build imports this module only for an odd
characteristic, so a run over GF(2^n), which adds by XOR, does not compile
it.
"""

from __future__ import annotations

from typing import Callable


def _zech_arithmetic(exp: list[int], log: list[int], p: int
                     ) -> tuple[Callable, Callable, Callable]:
    """Addition, subtraction and negation of GF(p^n), p odd, on packed
    values, from the field's log tables (FieldSpec._build_log_tables).

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
