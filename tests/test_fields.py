from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brownalg.errors import DivisionByZero, MixedFields, NonArithmeticField
from brownalg.fields import (
    FieldSpec,
    Fp,
    Q,
    Rplace,
    Scalar,
    arith,
    sample,
    scalar,
)


def test_parse_round_trip():
    for text in ("Q", "Fp:7", "R", "Qp:5", "Kbar"):
        assert str(FieldSpec.parse(text)) == text


def test_prime_field_rejects_2_3_and_composites():
    for p in (2, 3, 4, 6, 9, 1):
        with pytest.raises(ValueError):
            Fp(p)


def test_exact_rational_addition():
    x = scalar(Q(), Fraction(2, 3))
    y = scalar(Q(), Fraction(1, 6))
    assert arith(x, y, "+") == scalar(Q(), Fraction(5, 6))


def test_mod_p_product():
    x = scalar(Fp(7), 3)
    y = scalar(Fp(7), 5)
    assert arith(x, y, "*") == scalar(Fp(7), 1)


def test_division_by_zero():
    one = scalar(Q(), 1)
    zero = scalar(Q(), 0)
    with pytest.raises(DivisionByZero):
        arith(one, zero, "/")


def test_mixed_fields_rejected():
    with pytest.raises(MixedFields):
        scalar(Q(), 1) + scalar(Fp(7), 1)


def test_scalar_operands_are_field_values():
    """A Scalar combines with an int or, over Q, a Fraction; any other
    operand raises MixedFields."""
    assert scalar(Q(), 1) + Fraction(1, 2) == scalar(Q(), Fraction(3, 2))
    assert Fraction(1, 2) * scalar(Q(), 4) == scalar(Q(), 2)
    assert scalar(Fp(7), 3) * 5 == scalar(Fp(7), 1)
    for x, v in ((scalar(Q(), 1), 0.5), (scalar(Fp(7), 1), Fraction(1, 2)),
                 (scalar(Fp(7), 1), "1")):
        with pytest.raises(MixedFields):
            x + v
        with pytest.raises(MixedFields):
            v + x
    with pytest.raises(MixedFields):
        scalar(Q(), 0.5)


def test_sample_deterministic():
    a = sample(Fp(7), seed=0)
    b = sample(Fp(7), seed=0)
    assert a == b
    assert 0 <= a.value < 7


def test_sample_bound_over_q():
    s = sample(Q(), seed=1, bound=5)
    assert abs(s.value.numerator) <= 5 and s.value.denominator <= 5


def test_sample_rejects_places():
    with pytest.raises(NonArithmeticField):
        sample(Rplace(), seed=0)


def test_is_square():
    assert Fp(7).is_square(2)       # 3^2 = 2 mod 7
    assert not Fp(7).is_square(3)
    assert Q().is_square(Fraction(4, 9))
    assert not Q().is_square(Fraction(-4, 9))
    assert not Q().is_square(Fraction(2))


@settings(max_examples=60, deadline=None)
@given(
    st.fractions(max_denominator=50),
    st.fractions(max_denominator=50),
    st.fractions(max_denominator=50),
)
def test_field_axioms_q(a, b, c):
    f = Q()
    x, y, z = (Scalar(v, f) for v in (a, b, c))
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == Scalar(f.zero(), f)
    if b != 0:
        assert (x / y) * y == x


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10), st.integers(0, 10), st.integers(0, 10))
def test_field_axioms_fp(a, b, c):
    f = Fp(11)
    x, y, z = (scalar(f, v) for v in (a, b, c))
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    if y != 0:
        assert (x / y) * y == x


def test_scalar_string_round_trip():
    f = Q()
    assert f.parse_scalar(f.scalar_str(Fraction(-5, 6))) == Fraction(-5, 6)
    g = Fp(7)
    assert g.parse_scalar("13") == 6
    assert g.parse_scalar("1/2") == 4  # 2 * 4 = 1 mod 7


def test_parse_scalar_zero_denominator_raises():
    for field in (Q(), Fp(7)):
        with pytest.raises(DivisionByZero):
            field.parse_scalar("1/0")


def test_parse_scalar_denominator_divisible_by_p_raises():
    with pytest.raises(DivisionByZero):
        Fp(7).parse_scalar("1/7")
    with pytest.raises(DivisionByZero):
        Fp(7).parse_scalar("3/14")
    assert Fp(7).parse_scalar("14/7") == 2
    assert Fp(7).parse_scalar("1/3") == 5
