"""A fixed amount of pure-Python work that measures how fast the machine is
right now.

    python3 bench/yardstick.py

The harness runs it in a fresh interpreter right before and right after
each timed CLI invocation and divides the invocation's wall time by the
mean of the two.  The quotient, ``wall_rel``, keeps what the program costs
and drops most of the speed drift of a shared host, which moves both alike.

The work imitates the program's hot paths without importing it, so a
change to the program never changes the yardstick: incidence tests of
PG(2, 16) through small functions and a multiplication table, dict
counting, and JSON encoding of a list of small dicts.  It prints a
checksum, ``CHECKSUM`` below, so that the harness can tell that the full
work was done.
"""

from __future__ import annotations

import hashlib
import json

N, MODULUS = 4, 0b10011                 # GF(16) = GF(2)[x] / (x^4 + x + 1)
Q = 1 << N
PASSES = 4      # ~0.5 s: a 0.35 s yardstick left wall_rel as noisy as raw wall time
CHECKSUM = "a662e24b821a74d7"           # of the output of ``work()``


class Field:
    def __init__(self):
        self.mul_table = [[self._mul(a, b) for b in range(Q)] for a in range(Q)]

    @staticmethod
    def _mul(a: int, b: int) -> int:
        product = 0
        while b:
            if b & 1:
                product ^= a
            b >>= 1
            a <<= 1
            if a & Q:
                a ^= MODULUS
        return product

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]


def normalized(field: Field, x: tuple[int, int, int]) -> tuple[int, int, int]:
    """The representative of a projective triple whose last nonzero entry is 1."""
    for lead in reversed(x):
        if lead:
            inverse = next(b for b in range(1, Q) if field.mul(lead, b) == 1)
            return tuple(field.mul(v, inverse) for v in x)
    raise ValueError("the zero triple is not projective")


def incident(field: Field, point, line) -> bool:
    x1, x2, x3 = point
    l1, l2, l3 = line
    return field.mul(l1, x1) ^ field.mul(l2, x2) ^ field.mul(l3, x3) == 0


def work() -> str:
    field = Field()
    triples = {normalized(field, (a, b, c))
               for a in range(Q) for b in range(Q) for c in range(Q) if a or b or c}
    points = sorted(triples)
    digest = hashlib.sha256()
    for _ in range(PASSES):
        rows = []
        for line in points:
            on = [p for p in points if incident(field, p, line)]
            classes: dict[str, int] = {}
            for p in points:
                key = "past" if p in on else ("future" if p[0] else "present")
                classes[key] = classes.get(key, 0) + 1
            rows.append({"line": list(line), "points": [list(p) for p in on],
                         "tallies": classes})
        digest.update(json.dumps({"rows": rows}, indent=2).encode())
    return digest.hexdigest()[:16]


if __name__ == "__main__":
    print(work())
