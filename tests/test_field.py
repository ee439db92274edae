"""Field arithmetic: construction, axioms, Frobenius, square roots,
irreducibility, and the exact linear solver."""

import copy
import gc
import pickle
import random
import sys
import threading
import time
import weakref
from itertools import product

import pytest

from galois_arrow.errors import (
    CompositeCharacteristic,
    DivisionByZero,
    EmptyMatrix,
    MixedFields,
    ModulusDegreeMismatch,
    NoDefaultModulus,
    OddCharacteristic,
    OrderTooLarge,
    ReducibleModulus,
    ZeroPolynomial,
)
from galois_arrow.element import add, elements, inv, mul, neg, sqrt_char2, sub
from galois_arrow.field import DEFAULT_MODULI, FieldSpec, make_field
from galois_arrow.modulus import parse_modulus
from galois_arrow.polynomial import is_irreducible
from galois_arrow.conic import solve_homogeneous
from galois_arrow.plane import ProjLine, ProjPoint, incident

GF2 = make_field(2, 1)
GF3 = make_field(3, 1)
GF4 = make_field(2, 2)
GF8 = make_field(2, 3)


# --- construction -------------------------------------------------------------

def test_make_field_defaults():
    assert make_field(2, 1).order == 2
    assert make_field(2, 3).order == 8
    assert make_field(3).order == 3


def test_make_field_explicit_modulus():
    f = make_field(2, 3, (1, 1, 0, 1))
    assert f.order == 8
    assert f.modulus == (1, 1, 0, 1)


def test_make_field_rejects_reducible_modulus():
    with pytest.raises(ReducibleModulus):
        make_field(2, 2, (1, 0, 1))  # x^2 + 1 = (x + 1)^2 in char 2


def test_make_field_rejects_composite_characteristic():
    with pytest.raises(CompositeCharacteristic):
        make_field(4, 1)
    with pytest.raises(CompositeCharacteristic):
        make_field(1, 1)


def test_oversized_order_is_refused_before_it_is_computed():
    # 2^61 - 1 is prime, so refusing it by primality would trial-divide up to
    # 2^30.5; 3^30000000 is a 47-million-bit power
    with pytest.raises(OrderTooLarge):
        make_field(2**61 - 1, 1)
    with pytest.raises(OrderTooLarge):
        make_field(3, 30_000_000)


def test_make_field_without_default_modulus():
    with pytest.raises(NoDefaultModulus):
        make_field(2, 9)
    with pytest.raises(NoDefaultModulus):
        make_field(11, 1)


def test_make_field_wrong_degree_modulus():
    with pytest.raises(ValueError):
        make_field(2, 3, (1, 1, 1))


def test_default_moduli_all_validate():
    for (p, n), modulus in DEFAULT_MODULI.items():
        f = make_field(p, n)
        assert f.modulus == modulus
        assert is_irreducible(modulus, p)


def test_equal_parameters_mean_equal_fields():
    assert make_field(2, 3) == make_field(2, 3, (1, 1, 0, 1))
    assert make_field(2, 3) is make_field(2, 3, (1, 1, 0, 1))
    assert make_field(2, 3) != make_field(2, 3, (1, 0, 1, 1))
    # the modulus is made monic before the lookup
    assert make_field(3, 2, (2, 0, 2)) is make_field(3, 2, (1, 0, 1))


def test_spec_defines_no_structural_equality():
    assert "__eq__" not in vars(FieldSpec)
    assert "__hash__" not in vars(FieldSpec)
    assert "_hash" not in FieldSpec.__slots__


def test_refused_moduli_are_refused_on_every_call():
    for _ in range(2):
        with pytest.raises(ReducibleModulus):
            make_field(2, 2, (1, 0, 1))
        with pytest.raises(ModulusDegreeMismatch):
            make_field(2, 3, (1, 1, 1))
        with pytest.raises(ZeroPolynomial):
            make_field(2, 3, (0, 0, 0))


def test_distinct_moduli_are_distinct_specs():
    a = make_field(2, 3, (1, 1, 0, 1))  # x^3 + x + 1
    b = make_field(2, 3, (1, 0, 1, 1))  # x^3 + x^2 + 1
    assert a is not b and a != b
    assert a.element(3) != b.element(3)
    with pytest.raises(MixedFields):
        a.element(3) * b.element(3)
    with pytest.raises(MixedFields):
        a.element(b.element(3))
    with pytest.raises(MixedFields):
        incident(ProjPoint(a, (1, 0, 0)), ProjLine(b, (0, 1, 0)))
    assert ProjPoint(a, (1, 2, 3)) != ProjPoint(b, (1, 2, 3))


def test_dropped_spec_leaves_the_registry():
    """A spec nobody holds is freed, with its tables, also after the library
    has made its derived data: the time-pencil context and its root tables
    live on the spec, and no cache keeps a spec, nor an arc family's
    points once the family is dropped.  The spec and its context refer to
    each other, so the cycle collector frees them."""
    from galois_arrow.field import _LIVE_SPECS
    from galois_arrow.arc import build_time_family
    from galois_arrow.arrow import conic_arrow
    from galois_arrow.conic import canonical_conic, point_set
    from galois_arrow.context import time_pencil_context
    from galois_arrow.pencil import members, time_pencil

    assert isinstance(_LIVE_SPECS, weakref.WeakValueDictionary)

    def used(spec):
        q = spec.order
        assert time_pencil_context(spec).spec is spec
        assert len(point_set(canonical_conic(spec))) == q + 1
        assert len(members(time_pencil(spec))) == q + 1
        tallies = conic_arrow(spec, ProjLine(spec, (1, 1, 1))).tallies
        assert tallies == {"past": q // 2 - 1, "present": 0, "future": q // 2}
        family = build_time_family(spec, ProjLine(spec, (1, 1, 1)), ProjLine(spec, (1, 2, 0)))
        assert [arc.size for arc in family.members] == [q + 1] * (q - 1)
        return spec

    # x^6 + x^5 + 1 and x^6 + x^5 + x^4 + x + 1, each unused elsewhere
    for modulus, seen in (((1, 0, 0, 0, 0, 1, 1), lambda spec: spec),
                          ((1, 1, 0, 0, 1, 1, 1), used)):
        spec = seen(make_field(2, 6, modulus))
        key = (2, 6, spec.modulus)
        assert _LIVE_SPECS[key] is spec
        ref = weakref.ref(spec)
        del spec
        gc.collect()
        assert ref() is None
        assert key not in _LIVE_SPECS


def test_threads_building_one_field_get_one_spec():
    modulus = (1, 0, 0, 1, 0, 0, 0, 1)  # x^7 + x^3 + 1, unused elsewhere
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            specs = []
            barrier = threading.Barrier(4)

            def build():
                barrier.wait(timeout=10)
                specs.append(make_field(2, 7, modulus))

            threads = [threading.Thread(target=build) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert len(specs) == 4 and len({id(s) for s in specs}) == 1
    finally:
        sys.setswitchinterval(switch)


def test_copies_and_pickles_are_the_live_spec():
    assert copy.copy(GF8) is GF8
    assert copy.deepcopy(GF8) is GF8
    assert pickle.loads(pickle.dumps(GF8)) is GF8


# --- irreducibility ------------------------------------------------------------

def test_is_irreducible_examples():
    assert is_irreducible((1, 1, 1), 2)          # x^2 + x + 1
    assert not is_irreducible((1, 0, 1), 2)      # x^2 + 1 has root 1
    assert is_irreducible((1, 1, 0, 1), 2)       # x^3 + x + 1
    assert is_irreducible((1, 0, 1), 3)          # x^2 + 1 over GF(3)
    assert not is_irreducible((2, 0, 1), 3)      # x^2 + 2 has root 1


def test_is_irreducible_zero_polynomial():
    with pytest.raises(ZeroPolynomial):
        is_irreducible((0, 0), 2)


def test_is_irreducible_constants_are_units():
    assert not is_irreducible((1,), 2)
    assert not is_irreducible((2,), 3)


def _brute_force_irreducible(coeffs, p):
    """Oracle: trial division by every monic polynomial of degree <= deg/2."""
    from galois_arrow.polynomial import _deg, _monic, _poly_mod, _trim

    f = _monic(_trim(c % p for c in coeffs), p)
    d = _deg(f)
    if d < 1:
        return False
    for deg in range(1, d // 2 + 1):
        for tail in product(range(p), repeat=deg):
            divisor = _trim(tail + (1,))
            if not _poly_mod(f, divisor, p):
                return False
    return True


def test_is_irreducible_against_brute_force():
    for p, max_deg in ((2, 6), (3, 4)):
        for deg in range(1, max_deg + 1):
            for tail in product(range(p), repeat=deg):
                poly = tail + (1,)
                if not any(poly):
                    continue
                assert is_irreducible(poly, p) == _brute_force_irreducible(poly, p), poly


# --- element arithmetic ---------------------------------------------------------

def test_add_examples():
    assert GF2.element(1) + GF2.element(1) == GF2.zero
    assert GF8.element(3) + GF8.element(6) == GF8.element(5)  # (x+1)+(x^2+x)
    assert GF3.element(2) + GF3.element(2) == GF3.one


def test_mul_examples():
    assert GF8.element(2) * GF8.element(4) == GF8.element(3)  # x * x^2 = x + 1
    assert GF2.element(1) * GF2.element(0) == GF2.zero
    assert GF8.element(2) * GF8.element(5) == GF8.one         # x * (x^2+1) = 1


def test_inv_examples():
    assert inv(GF2.one) == GF2.one
    assert inv(GF8.element(2)) == GF8.element(5)
    assert inv(GF3.element(2)) == GF3.element(2)


def test_inv_of_zero():
    with pytest.raises(DivisionByZero):
        inv(GF8.zero)


def test_sub_is_add_in_char2():
    for a in elements(GF8):
        for b in elements(GF8):
            assert sub(a, b) == add(a, b)


def test_neg_odd_characteristic():
    assert neg(GF3.element(1)) == GF3.element(2)
    assert neg(GF3.zero) == GF3.zero


def test_mixed_fields_rejected():
    other = make_field(2, 3, (1, 0, 1, 1))  # x^3 + x^2 + 1
    with pytest.raises(MixedFields):
        GF8.element(1) + other.element(1)
    with pytest.raises(MixedFields):
        GF8.element(3) * GF4.element(3)


def test_element_value_range_checked():
    with pytest.raises(ValueError):
        GF4.element(4)
    with pytest.raises(ValueError):
        GF4.element(-1)


def test_element_from_coefficients():
    assert GF8.element((1, 1, 0)) == GF8.element(3)
    assert GF8.element((0, 0, 1)) == GF8.element(4)


def test_division_and_pow():
    a, b = GF8.element(7), GF8.element(3)
    assert (a / b) * b == a
    assert a ** 0 == GF8.one
    assert a ** 3 == a * a * a
    assert a ** -1 == inv(a)


def test_elements_enumeration():
    assert [e.value for e in elements(GF2)] == [0, 1]
    gf4 = [e.coeffs for e in elements(GF4)]
    assert gf4 == [(0, 0), (1, 0), (0, 1), (1, 1)]  # 0, 1, x, x+1
    gf8 = elements(GF8)
    assert len(gf8) == 8 and len(set(gf8)) == 8


# --- axioms -------------------------------------------------------------------

AXIOM_FIELDS = [make_field(2, 1), make_field(2, 2), make_field(2, 3),
                make_field(2, 4), make_field(3, 1)]


@pytest.mark.parametrize("spec", AXIOM_FIELDS, ids=lambda s: f"q{s.order}")
def test_field_axioms_exhaustive(spec):
    els = elements(spec)
    zero, one = spec.zero, spec.one
    for a in els:
        assert a + zero == a and a * one == a
        assert a + (-a) == zero
        if a:
            assert a * inv(a) == one
    for a, b in product(els, els):
        assert a + b == b + a
        assert a * b == b * a
    for a, b, c in product(els, els, els):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_field_axioms_random_gf32():
    spec = make_field(2, 5)
    rng = random.Random(1905)
    els = elements(spec)
    one = spec.one
    for _ in range(10_000):
        a, b, c = (rng.choice(els) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * inv(a) == one


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_frobenius_additivity(n):
    spec = make_field(2, n)
    els = elements(spec)
    pairs = product(els, els) if spec.order <= 16 else \
        ((a, b) for a in els for b in els)
    for a, b in pairs:
        assert (a + b) ** 2 == a ** 2 + b ** 2


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sqrt_char2_is_the_inverse_bijection_of_squaring(n):
    spec = make_field(2, n)
    els = elements(spec)
    images = {sqrt_char2(a) for a in els}
    assert images == set(els)
    for a in els:
        r = sqrt_char2(a)
        assert r * r == a


def test_sqrt_char2_examples():
    assert sqrt_char2(GF2.one) == GF2.one
    assert sqrt_char2(GF8.element(4)) == GF8.element(2)  # sqrt(x^2) = x
    assert sqrt_char2(GF8.element(2)) == GF8.element(6)  # x^4 = x^2 + x


def test_sqrt_char2_exhaustive_search_oracle():
    for a in elements(GF8):
        brute = [b for b in elements(GF8) if b * b == a]
        assert brute == [sqrt_char2(a)]


def test_sqrt_odd_characteristic_rejected():
    with pytest.raises(OddCharacteristic):
        sqrt_char2(GF3.one)


# --- fast path vs reference path -------------------------------------------------

@pytest.mark.parametrize("spec", [GF2, GF3, GF4, make_field(5), make_field(7), GF8,
                                  make_field(3, 2, (1, 0, 1)), make_field(2, 4),
                                  make_field(2, 5), make_field(2, 6),
                                  make_field(3, 4, (2, 1, 0, 0, 1)), make_field(2, 7)],
                         ids=lambda s: f"q{s.order}")
def test_mul_table_matches_polynomial_reduction(spec):
    """Every product, zero factors included, against the reference path;
    q = 2 has the trivial unit group and p = 3, 5, 7 cover odd p."""
    for a in range(spec.order):
        for b in range(spec.order):
            assert spec._mul_i(a, b) == spec._mul_slow(a, b)


@pytest.mark.parametrize("modulus", [(1, 1, 1, 1, 1), (1, 1, 0, 1, 1, 0, 0, 0, 1)],
                         ids=["x4+x3+x2+x+1", "x8+x4+x3+x+1"])
def test_char2_tables_walk_a_generator_other_than_x(modulus):
    """Under x^4 + x^3 + x^2 + x + 1 and x^8 + x^4 + x^3 + x + 1, x is not
    primitive (order 5 and 51), so the walk multiplies by x + 1, a product
    of two shift-and-xor steps, which a generator x never exercises: the
    tables are the powers of x + 1 by the reference path, and at q = 16
    every product matches it."""
    spec = make_field(2, len(modulus) - 1, modulus)
    m = spec.order - 1
    powers = [1]
    for _ in range(2 * m - 1):
        powers.append(spec._mul_slow(powers[-1], 3))
    assert spec._exp[:2 * m] == powers
    assert [spec._log[powers[k]] for k in range(m)] == list(range(m))
    if spec.order == 16:
        for a in range(16):
            for b in range(16):
                assert spec._mul_i(a, b) == spec._mul_slow(a, b)


def _is_primitive_root(h: int, p: int) -> bool:
    """Whether h generates the units of GF(p): h^(m/r) != 1 for every prime
    r dividing m = p - 1."""
    m = p - 1
    return all(pow(h, m // r, p) != 1 for r in range(2, m + 1)
               if m % r == 0 and all(r % d for d in range(2, r)))


@pytest.mark.parametrize("p", [p for p in range(2, 256) if all(p % d for d in range(2, p))]
                         + [65521])
def test_prime_field_tables_are_the_powers_of_the_least_primitive_root(p):
    """A prime field's tables, walked with %, against pow: exp[k] = g^k mod
    p over both periods, log inverts exp, and g is the least primitive root,
    as the walk searches from 1 upwards and field-info reports it."""
    spec = make_field(p, 1, (0, 1))
    m = p - 1
    g = spec._exp[1 % m]   # GF(2) has the one unit 1 = g^0
    assert spec._exp[:2 * m] == [pow(g, k, p) for k in range(2 * m)]
    assert [spec._log[spec._exp[k]] for k in range(m)] == list(range(m))
    assert _is_primitive_root(g, p)
    assert not any(_is_primitive_root(h, p) for h in range(1, g))


def _order(spec, h):
    """The multiplicative order of the nonzero value h, by _mul_slow."""
    k, power = 1, h
    while power != 1:
        k, power = k + 1, spec._mul_slow(power, h)
    return k


@pytest.mark.parametrize("p, n, modulus", [(3, 2, (1, 0, 1)), (3, 2, (2, 1, 1)), (5, 2, (2, 0, 1)),
                                           (7, 2, (1, 0, 1)), (3, 3, (1, 2, 0, 1)),
                                           (3, 4, (2, 1, 0, 0, 1)), (7, 3, (1, 1, 0, 1))],
                         ids=lambda v: str(v).replace(" ", ""))
def test_odd_field_tables_are_the_powers_of_the_least_generator(p, n, modulus):
    """An odd field's tables for n > 1, walked by the zech module's product
    of packed coefficient vectors, against _mul_slow: exp[k] = g^k over both
    periods, log inverts exp, and g is the least value from 1 upwards of
    order q - 1, the one the walk of each candidate in turn finds (x + 1,
    not x, under x^2 + 1 over GF(3)); q - 1 = 342 = 2 * 3^2 * 19 has two odd
    prime factors."""
    spec = make_field(p, n, modulus)
    m = spec.order - 1
    g = spec._exp[1]
    powers = [1]
    for _ in range(2 * m - 1):
        powers.append(spec._mul_slow(powers[-1], g))
    assert spec._exp[:2 * m] == powers
    assert [spec._log[spec._exp[k]] for k in range(m)] == list(range(m))
    assert _order(spec, g) == m
    assert all(_order(spec, h) < m for h in range(1, g))


@pytest.mark.parametrize("spec", [GF2, GF3, GF4, GF8, make_field(3, 2, (1, 0, 1)),
                                  make_field(2, 4), make_field(2, 6), make_field(2, 7)],
                         ids=lambda s: f"q{s.order}")
def test_inverse_table_matches_fermat(spec):
    for a in range(1, spec.order):
        assert spec._inv_i(a) == spec._pow_i(a, spec.order - 2)
    with pytest.raises(DivisionByZero):
        spec._inv_i(0)


def test_inverse_consistent_with_mul_everywhere():
    for spec in (GF3, GF4, GF8, make_field(2, 5), make_field(2, 7),
                 make_field(3, 2, (1, 0, 1))):
        for a in elements(spec):
            if a:
                assert a * inv(a) == spec.one


def _add_slow(spec: FieldSpec, a: int, b: int) -> int:
    """Reference addition: coefficient-wise, modulo the characteristic."""
    return spec.value_of((x + y) % spec.characteristic
                         for x, y in zip(spec.coeffs_of(a), spec.coeffs_of(b)))


def _neg_slow(spec: FieldSpec, a: int) -> int:
    """Reference negation: coefficient-wise, modulo the characteristic."""
    return spec.value_of((-c) % spec.characteristic for c in spec.coeffs_of(a))


@pytest.mark.parametrize("spec", [GF3, make_field(5), make_field(7),
                                  make_field(3, 2, (1, 0, 1)),
                                  make_field(3, 4, (2, 1, 0, 0, 1)),
                                  make_field(3, 5, (1, 2, 0, 0, 0, 1)),
                                  make_field(3, 6, (1, 0, 0, 0, 1, 1, 1))],
                         ids=lambda s: f"q{s.order}")
def test_zech_addition_matches_coefficient_arithmetic(spec):
    """Sums, differences and negations against the coefficient-wise
    reference, zero operands and b = -a included: every pair up to q = 243,
    2000 seeded pairs at q = 729.  Under x^2 + 1, x is not primitive in
    GF(9), so the Zech table must follow the generator the log tables found."""
    q = spec.order
    if q <= 243:
        pairs = product(range(q), repeat=2)
    else:
        rng = random.Random(q)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)]
    for a, b in pairs:
        assert spec._neg_i(a) == _neg_slow(spec, a)
        assert spec._add_i(a, b) == _add_slow(spec, a, b)
        assert spec._sub_i(a, b) == _add_slow(spec, a, _neg_slow(spec, b))


def test_gf729_addition_obeys_the_field_identities():
    """Distributivity over the logarithm-table product, a + (-a) = 0 and
    a - b = a + (-b) on 2000 seeded triples of GF(3^6)."""
    spec = make_field(3, 6, (1, 0, 0, 0, 1, 1, 1))
    add, neg, sub, mul = spec._add_i, spec._neg_i, spec._sub_i, spec._mul_i
    rng = random.Random(729)
    for _ in range(2000):
        a, b, c = (rng.randrange(spec.order) for _ in range(3))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert add(a, neg(a)) == 0
        assert sub(a, b) == add(a, neg(b))


# --- modulus parsing --------------------------------------------------------------

def test_parse_modulus_coefficient_list():
    assert parse_modulus("1,1,0,1", 2) == (1, 1, 0, 1)
    assert parse_modulus("1,0,1", 3) == (1, 0, 1)


def test_parse_modulus_hex_bitmask():
    assert parse_modulus("0xB", 2) == (1, 1, 0, 1)
    assert parse_modulus("0x13", 2) == (1, 1, 0, 0, 1)
    with pytest.raises(ValueError):
        parse_modulus("0xB", 3)
    with pytest.raises(ValueError):
        parse_modulus("x^3+x+1", 2)


@pytest.mark.parametrize("text", ["", " ", ",", ",,"])
def test_parse_modulus_refuses_an_empty_list_as_malformed(text):
    """A list with no coefficient fails as a list of integers before any
    other check: "" and " " split into one empty token, "," and ",," into
    more."""
    with pytest.raises(ValueError, match=f"^malformed modulus {text.strip()!r}$"):
        parse_modulus(text, 2)


@pytest.mark.parametrize("mask", [0x1, 0x3, 0xB, 0x13, 0x1100b, 0x9 << 700 | 0x5, 1 << 4000],
                         ids=lambda mask: f"bits{mask.bit_length()}")
def test_hex_modulus_expands_to_the_mask_bits(mask):
    """A hex modulus is the bits of its mask, lowest first: the same tuple
    as a shift per bit, the reference expansion."""
    assert parse_modulus(hex(mask), 2) == tuple((mask >> i) & 1 for i in range(mask.bit_length()))


def test_hex_modulus_expansion_takes_linear_time():
    """Ten times the hex digits take less than 40 times as long (a shift per
    bit, which is quadratic in the mask's length, takes about 100 times)."""
    def best(digits: int) -> float:
        text = "0x1" + "0" * (digits - 1)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            parse_modulus(text, 2)
            times.append(time.perf_counter() - start)
        return min(times)
    assert best(120_000) < 40 * best(12_000)


def test_hex_and_list_moduli_agree():
    assert make_field(2, 3, parse_modulus("0xB", 2)) == make_field(2, 3, parse_modulus("1,1,0,1", 2))
    assert make_field(2, 3, parse_modulus("0xB", 2)) is make_field(2, 3, parse_modulus("1,1,0,1", 2))


# --- homogeneous solver ------------------------------------------------------------

def _as_matrix(spec, rows):
    return [[spec.element(v) for v in row] for row in rows]


def test_solve_homogeneous_full_rank_identity():
    m = _as_matrix(GF2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert solve_homogeneous(m) == []


def test_solve_homogeneous_zero_row():
    basis = solve_homogeneous(_as_matrix(GF2, [[0, 0, 0]]))
    assert len(basis) == 3
    vectors = {tuple(e.value for e in v) for v in basis}
    assert vectors == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_solve_homogeneous_empty_matrix():
    with pytest.raises(EmptyMatrix):
        solve_homogeneous([])
    with pytest.raises(EmptyMatrix):
        solve_homogeneous([[]])


def test_solve_homogeneous_mixed_fields():
    with pytest.raises(MixedFields):
        solve_homogeneous([[GF2.one, GF4.one]])


def _brute_force_kernel(spec, rows):
    """Oracle: enumerate every vector of GF(q)^c and keep the solutions."""
    ncols = len(rows[0])
    kernel = set()
    for vec in product(range(spec.order), repeat=ncols):
        ok = True
        for row in rows:
            acc = spec.zero
            for r, v in zip(row, vec):
                acc = acc + spec.element(r) * spec.element(v)
            if acc:
                ok = False
                break
        if ok:
            kernel.add(vec)
    return kernel


def _span(spec, basis):
    vectors = set()
    dims = len(basis)
    for coeffs in product(range(spec.order), repeat=dims):
        acc = [spec.zero] * len(basis[0])
        for k, vec in zip(coeffs, basis):
            kc = spec.element(k)
            acc = [a + kc * v for a, v in zip(acc, vec)]
        vectors.add(tuple(e.value for e in acc))
    return vectors


@pytest.mark.parametrize("spec,rows", [
    (GF2, [[1, 0, 1, 1], [0, 1, 1, 0]]),
    (GF2, [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1]]),
    (GF4, [[1, 2, 3, 0], [0, 1, 0, 2]]),
    (GF3, [[1, 2, 0], [2, 1, 1]]),
], ids=["gf2-rank2", "gf2-repeated-row", "gf4", "gf3"])
def test_solve_homogeneous_against_enumerated_kernel(spec, rows):
    matrix = _as_matrix(spec, rows)
    basis = solve_homogeneous(matrix)
    for vec in basis:
        for row in matrix:
            acc = spec.zero
            for r, v in zip(row, vec):
                acc = acc + r * v
            assert not acc
    assert _span(spec, basis) == _brute_force_kernel(spec, rows) if basis else \
        _brute_force_kernel(spec, rows) == {(0,) * len(rows[0])}


def test_solve_homogeneous_basis_count_is_cols_minus_rank():
    rows = [[1, 0, 1, 1, 0], [0, 1, 1, 0, 1], [1, 1, 0, 1, 1]]
    basis = solve_homogeneous(_as_matrix(GF2, rows))
    # third row = first + second, so rank 2 over GF(2)
    assert len(basis) == 5 - 2
