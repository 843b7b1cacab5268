from __future__ import annotations

from fractions import Fraction

import pytest

from depthtwo.fields import GF, QQ, FieldError, FpElement, _is_prime, field_from_json


def test_rational_parse_render_round_trip():
    for literal in [0, 1, -7, "3/4", "-22/7", "5"]:
        x = QQ.parse(literal)
        assert QQ.parse(QQ.render(x)) == x


def test_rational_render_integer_stays_int():
    assert QQ.render(Fraction(4, 2)) == 2
    assert QQ.render(Fraction(1, 3)) == "1/3"


def test_prime_field_arithmetic():
    f5 = GF(5)
    a, b = f5.of(3), f5.of(4)
    assert a + b == f5.of(2)
    assert a * b == f5.of(2)
    assert a - b == f5.of(4)
    assert a / b == a * f5.of(4)  # 4^-1 = 4 mod 5
    assert -a == f5.of(2)
    assert bool(f5.zero) is False and bool(f5.one) is True


def test_prime_field_rejects_composite():
    with pytest.raises(FieldError):
        GF(6)
    with pytest.raises(FieldError):
        GF(1)


@pytest.mark.parametrize("n, prime", [
    (561, False),              # Carmichael number
    (3215031751, False),       # strong pseudoprime to bases 2, 3, 5 and 7
    (2 ** 61 - 1, True),
    (10 ** 18 + 3, True),
])
def test_primality_on_hard_cases(n, prime):
    assert _is_prime(n) is prime


def test_modulus_beyond_certified_bound_rejected():
    with pytest.raises(FieldError, match="too large"):
        GF(2 ** 89 - 1)


def test_fp_parse_rejects_denominator_divisible_by_p():
    with pytest.raises(FieldError):
        GF(2).parse("1/2")


def test_mixed_moduli_rejected():
    with pytest.raises(FieldError):
        GF(5).of(1) + GF(7).of(1)


def test_fp_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GF(5).of(1) / GF(5).of(0)


def test_fp_parse_fraction_string():
    # "1/2" in F_5 is 1 * 2^-1 = 3
    assert GF(5).parse("1/2") == FpElement(3, 5)


def test_field_json_tags():
    assert field_from_json("Q") == QQ
    assert field_from_json({"Fp": 7}) == GF(7)
    with pytest.raises(FieldError):
        field_from_json({"Fq": 7})


@pytest.mark.parametrize("modulus", [[5], 5.0, 7.0, True, "5", None, {"p": 5}],
                         ids=["list", "cached-float", "float", "bool", "string", "null", "object"])
def test_a_modulus_that_is_not_an_int_is_rejected(modulus):
    GF(5)  # cached: 5.0 == 5 must not reach the cache
    with pytest.raises(FieldError, match="not an integer"):
        GF(modulus)
    with pytest.raises(FieldError, match="not an integer"):
        field_from_json({"Fp": modulus})


# -- FpElement semantics, for tabled small primes and an untabled large one ----

BIG_P = 2 ** 61 - 1
OPERATORS = [lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b, lambda a, b: a / b]


@pytest.mark.parametrize("p, q", [(5, 7), (BIG_P, 5)])
def test_mixed_moduli_raise_in_every_operator_and_order(p, q):
    a, b = GF(p).of(3), GF(q).of(2)
    for op in OPERATORS:
        with pytest.raises(FieldError):
            op(a, b)
        with pytest.raises(FieldError):
            op(b, a)


@pytest.mark.parametrize("p", [5, BIG_P])
def test_ints_coerce_on_either_side(p):
    f = GF(p)
    a = f.of(3)
    assert a + 4 == 4 + a == f.of(7)
    assert a - 4 == f.of(-1) and 4 - a == f.of(1)
    assert a * 4 == 4 * a == f.of(12)
    assert a / 3 == f.one
    assert a == 3 and 3 == a and a == 3 + p and a != 4
    assert -a == f.of(p - 3) and -a + a == 0


@pytest.mark.parametrize("p", [5, BIG_P])
def test_fractions_and_floats_do_not_mix_with_fp(p):
    a = GF(p).of(3)
    for other in (Fraction(1, 2), Fraction(3), 0.5, 3.0):
        for op in OPERATORS:
            with pytest.raises(TypeError):
                op(a, other)
            with pytest.raises(TypeError):
                op(other, a)


@pytest.mark.parametrize("p", [5, BIG_P])
def test_equal_values_are_equal_and_hash_equal(p):
    f = GF(p)
    for v in (0, 1, 3, -1):
        built = FpElement(v, p)  # the constructor makes a fresh element
        for same in (f.of(v), f.parse(v), f.of(v + 1) - f.one, f.of(v) * f.one, -(-f.of(v))):
            assert same == built and built == same
            assert hash(same) == hash(built)
    assert len({FpElement(2, p), f.of(2), f.of(1) + f.of(1)}) == 1
    assert FpElement(2, 5) != FpElement(2, 7)


def test_fp_repr_is_unchanged():
    assert repr(FpElement(3, 5)) == "3(mod 5)"
    assert repr(GF(5).of(8)) == "3(mod 5)"
    assert repr(GF(BIG_P).of(-1)) == f"{BIG_P - 1}(mod {BIG_P})"


@pytest.mark.parametrize("p", [2, 5, BIG_P])
def test_fp_division_by_zero_raises_in_every_form(p):
    f = GF(p)
    for zero in (f.zero, FpElement(p, p), 0, p):
        with pytest.raises(ZeroDivisionError):
            f.one / zero
