from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cimatrix.multipoly import (
    EXPONENT_LIMIT,
    MultiPoly,
    parse_poly,
    vandermonde_product,
    variables,
)

U1, U2, U3 = variables(3)


def perm_expansion_vandermonde(n: int) -> MultiPoly:
    """Independent oracle: the pairwise-difference product via the signed
    permutation expansion of the classical power matrix [u_k^{h-1}]."""
    terms = {}
    for perm in permutations(range(n)):
        inversions = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        sign = -1 if inversions % 2 else 1
        exponents = [0] * n
        for power, column in enumerate(perm):
            exponents[column] = power
        terms[tuple(exponents)] = terms.get(tuple(exponents), 0) + sign
    return MultiPoly(n, {m: Fraction(c) for m, c in terms.items() if c})


def test_construction_drops_zero_coefficients():
    p = MultiPoly(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert p.terms == {(0, 1): Fraction(2)}


def test_construction_validates_exponents():
    with pytest.raises(ValueError):
        MultiPoly(2, {(1,): Fraction(1)})
    with pytest.raises(ValueError):
        MultiPoly(2, {(1, -1): Fraction(1)})


def test_construction_rejects_non_int_exponents():
    for exponents in [(1.5, 0), (True, 0), (0, False), (Fraction(1), 0), ("1", 0),
                      (EXPONENT_LIMIT, 0), (0, EXPONENT_LIMIT + 1)]:
        with pytest.raises(ValueError):
            MultiPoly(2, {exponents: 1})
    with pytest.raises(ValueError):
        parse_poly(f"u2^{EXPONENT_LIMIT}", 2)
    with pytest.raises(ValueError):
        parse_poly(f"u1^{EXPONENT_LIMIT - 1}*u1", 2)


def test_exponent_guard_at_the_limit():
    top = EXPONENT_LIMIT - 1
    u1, u2 = variables(2)
    assert (u1**top).terms == {(top, 0): Fraction(1)}
    assert (u2**top).render() == f"u2^{top}"
    assert (u1 ** (top - 1) * u2).identify_variables(1, 2) == u1**top
    assert (u1**top * u2**top - u1**top * u2**top).is_zero
    for exceeds in (
        lambda: u1**top * u1,
        lambda: u2 * u2**top,
        lambda: (u1 * u2) ** EXPONENT_LIMIT,
        lambda: (u2**2) ** (EXPONENT_LIMIT // 2),
        lambda: (u1**top * u2).identify_variables(1, 2),
        lambda: (u1 * u2**top).identify_variables(2, 1),
    ):
        with pytest.raises(ValueError):
            exceeds()


def test_add_cancellation():
    assert (U1 + (-U1)).is_zero
    assert U1 * U2 + U1 * U2 == 2 * (U1 * U2)
    assert (U2 - U1) + U1 == U2


def test_mul_examples():
    expanded = (U2 - U1) * (U3 - U1)
    assert expanded == U2 * U3 - U1 * U3 - U1 * U2 + U1 * U1
    assert (U1 * 0).is_zero
    assert (U1 + U2) ** 2 == U1**2 + 2 * U1 * U2 + U2**2


def test_arity_mismatch_is_an_error():
    with pytest.raises(ValueError):
        U1 + MultiPoly.variable(2, 1)
    with pytest.raises(ValueError):
        U1 * MultiPoly.one(4)


def test_int_and_fraction_coercion():
    assert U1 + 0 == U1
    assert 1 * U1 == U1
    assert (2 - (U1 - U1)) == MultiPoly.constant(3, 2)
    assert U1 * Fraction(1, 2) == MultiPoly(3, {(1, 0, 0): Fraction(1, 2)})
    assert MultiPoly.one(3) == 1
    assert not (MultiPoly.one(3) == 2)


def test_substitute():
    p = U1 * U2 + U2 * U3
    assert p.substitute(1, 0) == U2 * U3
    assert (U2**2).substitute(2, 1) == MultiPoly.one(3)
    with pytest.raises(ValueError):
        p.substitute(4, 0)


def test_substitute_vandermonde_at_zero_matches_direct_expansion():
    # u1 := 0 in (u2-u1)(u3-u1)(u3-u2) leaves u2*u3*(u3-u2).
    substituted = vandermonde_product(3).substitute(1, 0)
    direct = U2 * U3 * (U3 - U2)
    assert substituted == direct


def test_evaluate():
    assert (U2 - U1).evaluate((Fraction(1), Fraction(2), Fraction(0))) == 1
    assert MultiPoly.zero(3).evaluate((1, 2, 3)) == 0
    # (2-1)(3-1)(3-2) by hand
    point = (Fraction(1), Fraction(2), Fraction(3))
    by_hand = Fraction(1) * Fraction(2) * Fraction(1)
    assert vandermonde_product(3).evaluate(point) == by_hand == 2
    with pytest.raises(ValueError):
        U1.evaluate((1, 2))


def test_total_degrees():
    assert (U1 * U2 + U3**2).total_degrees() == {2}
    assert (U1 + U1 * U2).total_degrees() == {1, 2}
    assert MultiPoly.zero(3).total_degrees() == set()


def test_vandermonde_product_small():
    assert vandermonde_product(1) == MultiPoly.one(1)
    u1, u2 = variables(2)
    assert vandermonde_product(2) == u2 - u1
    expected_terms = {
        (0, 1, 2): Fraction(1),
        (0, 2, 1): Fraction(-1),
        (1, 0, 2): Fraction(-1),
        (1, 2, 0): Fraction(1),
        (2, 0, 1): Fraction(1),
        (2, 1, 0): Fraction(-1),
    }
    assert vandermonde_product(3).terms == expected_terms
    with pytest.raises(ValueError):
        vandermonde_product(0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_vandermonde_matches_permutation_expansion(n):
    assert vandermonde_product(n) == perm_expansion_vandermonde(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_vandermonde_shape(n):
    product = vandermonde_product(n)
    assert len(product.terms) == factorial(n)
    assert all(abs(c) == 1 for c in product.terms.values())
    assert product.total_degrees() == {n * (n - 1) // 2}


def swap_variables(p: MultiPoly, i: int, j: int) -> MultiPoly:
    """p with u<i> and u<j> (1-based) exchanged."""
    out = {}
    for monomial, coeff in p.terms.items():
        swapped = list(monomial)
        swapped[i - 1], swapped[j - 1] = swapped[j - 1], swapped[i - 1]
        out[tuple(swapped)] = coeff
    return MultiPoly(p.nvars, out)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_vandermonde_antisymmetry(n):
    product = vandermonde_product(n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            assert swap_variables(product, i, j) == -product


def test_identify_variables():
    assert (U2 - U1).identify_variables(1, 2).is_zero
    p = U1**2 * U2
    assert p.identify_variables(1, 2) == MultiPoly(3, {(3, 0, 0): Fraction(1)})
    assert p.identify_variables(2, 2) == p


def test_render_golden():
    assert (
        vandermonde_product(3).render()
        == "u2*u3^2 - u2^2*u3 - u1*u3^2 + u1*u2^2 + u1^2*u3 - u1^2*u2"
    )
    assert MultiPoly.zero(2).render() == "0"
    assert (3 * U1 * U2 - Fraction(1, 2)).render() == "3*u1*u2 - 1/2"
    assert (-U1).render() == "-u1"
    assert (U2 - U1).render() == "u2 - u1"


def test_leading_term():
    monomial, coeff = (U2 - U1).leading_term()
    assert monomial == (0, 1, 0) and coeff == 1
    with pytest.raises(ValueError):
        MultiPoly.zero(2).leading_term()


simple_polys = st.builds(
    lambda terms: MultiPoly(3, terms),
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
        st.fractions(max_denominator=20),
        max_size=6,
    ),
)


@given(simple_polys)
def test_self_subtraction_is_canonical_zero(p):
    assert (p - p).terms == {}


@given(simple_polys, st.integers(1, 3), st.fractions(max_denominator=10))
def test_substitution_commutes_with_evaluation(p, index, value):
    point = [Fraction(2), Fraction(-1), Fraction(3)]
    point[index - 1] = value
    assert p.substitute(index, value).evaluate(point) == p.evaluate(point)


@given(simple_polys, simple_polys, st.integers(1, 3), st.integers(1, 3),
       st.fractions(max_denominator=10))
def test_arithmetic_results_are_canonical(p, q, i, j, value):
    # Results are wrapped without the validating constructor, so check that
    # they are in the form it would produce.
    for r in (p + q, p - q, p * q, -p, p.substitute(i, value), p.identify_variables(i, j)):
        for monomial, coeff in r.terms.items():
            assert type(coeff) is Fraction and coeff != 0
            assert type(monomial) is tuple and len(monomial) == 3
            assert all(type(e) is int and e >= 0 for e in monomial)
        assert r.terms == MultiPoly(3, r.terms).terms


@given(simple_polys)
def test_render_parse_round_trip(p):
    assert parse_poly(p.render(), 3) == p


# Text near the grammar of ``render``, so most draws get past the first split.
POLY_TEXT = st.one_of(
    st.text(max_size=30),
    st.text(alphabet="u0123456789^*/.e+- ", max_size=30),
)


@given(POLY_TEXT, st.integers(1, 4))
@example("u1^" + "9" * 5000, 2)  # past the interpreter's int digit limit
@example("u1^32767*u1", 1)  # an exponent sum at the limit
@example("1e4000*u2 - 1e-4000", 2)
@example("- u1", 1)
def test_parse_poly_returns_or_raises_value_error(text, nvars):
    try:
        poly = parse_poly(text, nvars)
    except ValueError:
        return
    assert parse_poly(poly.render(), nvars) == poly


def test_parse_poly_errors():
    with pytest.raises(ValueError):
        parse_poly("u5", 3)
    with pytest.raises(ValueError):
        parse_poly("", 3)
    with pytest.raises(ValueError):
        parse_poly("u1 & u2", 3)


# Exponents from the whole range, with the values next to the field
# boundaries drawn often: half the limit, where two factors start to
# exceed it, and the largest valid exponent.
wide_exponents = st.one_of(
    st.integers(0, 3),
    st.integers(0, EXPONENT_LIMIT - 1),
    st.sampled_from([EXPONENT_LIMIT // 2 - 1, EXPONENT_LIMIT // 2, EXPONENT_LIMIT - 1]),
)


# Exponents of a second factor: small, or next to half the limit, so that
# a fair share of products fits and is compared term by term.
factor_exponents = st.one_of(
    st.integers(0, 3),
    st.sampled_from([EXPONENT_LIMIT // 2 - 1, EXPONENT_LIMIT // 2]),
)


def wide_terms(nvars: int, exponents=wide_exponents):
    return st.dictionaries(
        st.tuples(*[exponents] * nvars),
        st.fractions(max_denominator=20),
        min_size=1,
        max_size=4,
    )


wide_polys = st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), wide_terms(n)))
wide_pairs = st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.just(n), wide_terms(n), wide_terms(n, factor_exponents))
)


def naive_product(p: MultiPoly, q: MultiPoly) -> dict:
    """Exponent-tuple, Fraction-coefficient product: the reference for ``*``."""
    out = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            monomial = tuple(a + b for a, b in zip(m1, m2))
            out[monomial] = out.get(monomial, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c}


@given(wide_polys)
def test_wide_polynomials_round_trip(case):
    n, terms = case
    p = MultiPoly(n, terms)
    assert p.terms == {m: Fraction(c) for m, c in terms.items() if c}
    assert MultiPoly(n, p.terms).terms == p.terms
    assert parse_poly(p.render(), n) == p


@given(wide_pairs)
def test_wide_products_match_naive_product(case):
    n, terms_p, terms_q = case
    p, q = MultiPoly(n, terms_p), MultiPoly(n, terms_q)
    expected = naive_product(p, q)
    if any(e >= EXPONENT_LIMIT for monomial in expected for e in monomial):
        with pytest.raises(ValueError):
            p * q
    else:
        assert (p * q).terms == expected


@given(wide_polys, st.data())
def test_wide_identify_variables_matches_naive_fold(case, data):
    n, terms = case
    keep = data.draw(st.integers(1, n))
    replace = data.draw(st.integers(1, n))
    p = MultiPoly(n, terms)
    expected = {}
    for monomial, coeff in p.terms.items():
        merged = list(monomial)
        if keep != replace:
            merged[keep - 1] += merged[replace - 1]
            merged[replace - 1] = 0
        expected[tuple(merged)] = expected.get(tuple(merged), Fraction(0)) + coeff
    expected = {m: c for m, c in expected.items() if c}
    if any(e >= EXPONENT_LIMIT for monomial in expected for e in monomial):
        with pytest.raises(ValueError):
            p.identify_variables(keep, replace)
    else:
        assert p.identify_variables(keep, replace).terms == expected
