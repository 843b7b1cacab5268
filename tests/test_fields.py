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
