import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import ring_axiom_failures
from cimatrix.multipoly import MultiPoly
from cimatrix.scalars import (
    _STR_BITS,
    abs_value,
    exact_div,
    float_to_string,
    rational_from_string,
    rational_to_string,
)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("3/6", Fraction(1, 2)),
        ("-2/-4", Fraction(1, 2)),
        ("0.25", Fraction(1, 4)),
        ("7", Fraction(7)),
        ("-13", Fraction(-13)),
        ("2/-4", Fraction(-1, 2)),
        ("-0.5", Fraction(-1, 2)),
        ("0", Fraction(0)),
    ],
)
def test_rational_from_string(text, expected):
    assert rational_from_string(text) == expected


def test_rational_from_string_gives_int_when_integral():
    integral = {"7": 7, "-13": -13, "0": 0, "-0": 0, "4/2": 2, "-6/-3": 2, "0/5": 0,
                "2.0": 2, "-3.000": -3, "-0.0": 0}
    for text, expected in integral.items():
        value = rational_from_string(text)
        assert type(value) is int and value == expected
    for text in ("3/6", "-0.5", "2/-4", "0.25"):
        assert type(rational_from_string(text)) is Fraction


def test_decimal_exponents_scale_exactly():
    assert rational_from_string("2.5e-3") == Fraction(1, 400)
    value = rational_from_string("1E2")
    assert type(value) is int and value == 100
    assert rational_from_string("-1.25e+1") == Fraction(-25, 2)
    assert rational_from_string("1e3") == 1000
    assert rational_from_string("7e-0") == 7


@pytest.mark.parametrize("text", ["1/0", "-3/0", "abc", "", "1.5.2", "1/2/3", "2.", ".5",
                                  "1e", "1e+", "e3", "+1", "1_0", "1/2e3", "inf", "nan"])
def test_rational_parse_errors(text):
    with pytest.raises(ValueError):
        rational_from_string(text)


def test_rational_parse_names_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    assert limit > 0
    assert rational_from_string("7" * limit) == int("7" * limit)
    assert rational_from_string(f"1e{limit - 1}") == 10 ** (limit - 1)
    for text in ("7" * (limit + 1), "-1/" + "3" * (limit + 1), "0." + "5" * (limit + 1),
                 "1e5000", "1e-5000", f"1e{limit}", "1e999999", "1e" + "0" * (limit + 1)):
        with pytest.raises(ValueError) as caught:
            rational_from_string(text)
        message = str(caught.value)
        assert f"{limit} digits" in message and "\n" not in message
        assert "set_int_max_str_digits" not in message


def test_rational_to_string():
    assert rational_to_string(Fraction(1, 2)) == "1/2"
    assert rational_to_string(Fraction(-6, 4)) == "-3/2"
    assert rational_to_string(Fraction(5)) == "5"


def test_large_values_render_like_str():
    # Above _STR_BITS bits rational_to_string converts by divide and
    # conquer; its digits must be exactly those of str().
    rng = random.Random(5)
    edge = 1 << _STR_BITS
    values = [edge - 1, edge, edge + 1, 10**9865, 10**9866 - 1, 7**40000]
    values += [rng.getrandbits(bits) | 1 << (bits - 1) for bits in (_STR_BITS + 1, 50_000, 200_001)]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for x in values:
            assert rational_to_string(x) == str(x)
            assert rational_to_string(-x) == str(-x)
        q = Fraction(-(3**50_000) - 2, 2**70_001)
        assert rational_to_string(q) == f"{q.numerator}/{q.denominator}"
    finally:
        sys.set_int_max_str_digits(limit)


@given(st.fractions(max_denominator=10**6))
def test_rational_round_trip(q):
    assert rational_from_string(rational_to_string(q)) == q


@given(st.integers(-100, 100), st.integers(-100, 100).filter(lambda d: d != 0))
def test_rational_normalization(num, den):
    q = rational_from_string(f"{num}/{den}")
    assert q.denominator > 0
    assert math.gcd(abs(q.numerator), q.denominator) == 1
    # normalizing an already-normalized value is the identity
    assert Fraction(q.numerator, q.denominator) == q


@given(
    st.fractions(max_denominator=1000),
    st.fractions(max_denominator=1000).filter(lambda b: b != 0),
)
def test_exact_div_recovers_factor(a, b):
    assert exact_div(a * b, b) == a


def test_exact_div_integers():
    assert exact_div(12, 4) == 3
    assert isinstance(exact_div(12, 4), int)
    with pytest.raises(ArithmeticError):
        exact_div(7, 2)
    with pytest.raises(ZeroDivisionError):
        exact_div(3, 0)
    with pytest.raises(TypeError):
        exact_div(1.0, 2.0)


def test_float_boundary_guards():
    assert float(rational_from_string("1.5")) == 1.5
    for bad in ("nan", "inf", "-inf", "not-a-number"):
        with pytest.raises(ValueError):
            rational_from_string(bad)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            float_to_string(bad)


def test_float_to_string_integral_values_render_bare():
    assert float_to_string(1.0) == "1"
    assert float_to_string(-2.0) == "-2"
    assert float_to_string(0.5) == "0.5"


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_render_parse_round_trip(x):
    assert float(rational_from_string(float_to_string(x))) == x


def test_abs_value():
    assert abs_value(Fraction(-3, 2)) == Fraction(3, 2)
    assert abs_value(-4) == 4
    with pytest.raises(TypeError):
        abs_value(MultiPoly.one(2))


def test_ring_axioms_rational():
    failures = ring_axiom_failures([Fraction(0), Fraction(1), Fraction(-1, 2)])
    assert not failures, failures


def test_ring_axioms_float():
    failures = ring_axiom_failures([0.0, 1.0, 0.5])
    assert not failures, failures


def test_ring_axioms_multipoly():
    samples = [MultiPoly.zero(2), MultiPoly.one(2), MultiPoly.variable(2, 1)]
    failures = ring_axiom_failures(samples)
    assert not failures, failures


def test_ring_axioms_record_float_associativity_failures():
    # 0.1 + 0.2 is not exactly 0.3; the checker reports it rather than raising.
    failures = ring_axiom_failures([0.1, 0.2, 0.3])
    assert any("associative" in f or "distributivity" in f for f in failures)


def test_ring_axioms_needs_three_samples():
    with pytest.raises(ValueError):
        ring_axiom_failures([Fraction(0), Fraction(1)])
