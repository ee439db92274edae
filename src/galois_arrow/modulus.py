"""A field's modulus read from text, as the command line's --modulus gives
it.

cli.parse_args imports this module only when --modulus is given, so a run
on a shipped modulus does not compile it.  parse_modulus also resolves from
the package on first access (PEP 562).
"""

from __future__ import annotations


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
        # the binary digits after "0b", lowest first: one pass over the
        # text, where a shift per bit is quadratic in the mask's length
        return tuple(map(int, bin(mask)[:1:-1]))
    try:
        coeffs = tuple(int(tok, 0) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"malformed modulus {text!r}") from exc
    return coeffs
