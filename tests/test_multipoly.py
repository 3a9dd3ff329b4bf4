from decimal import Decimal
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cimatrix.matrix import build_ci_matrix
from cimatrix.multipoly import (
    EXPONENT_LIMIT,
    FIELD_BITS,
    MultiPoly,
    leave_one_out_table_variables,
    vandermonde_product,
    variables,
)
from cimatrix.symfunc import elem_sym_leave_one_out

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


def test_exponent_guard_at_the_limit():
    top, half = EXPONENT_LIMIT - 1, EXPONENT_LIMIT // 2
    u1, u2 = variables(2)
    u1_top, u2_top = MultiPoly(2, {(top, 0): 1}), MultiPoly(2, {(0, top): 1})
    assert u1_top.terms == {(top, 0): Fraction(1)}
    assert u2_top.render() == f"u2^{top}"
    assert (MultiPoly(2, {(top - 1, 0): 1}) * u2).identify_variables(1, 2) == u1_top
    assert (u1_top * u2_top - u1_top * u2_top).is_zero
    both_half = MultiPoly(2, {(half, half): 1})
    for exceeds in (
        lambda: u1_top * u1,
        lambda: u2 * u2_top,
        lambda: both_half * both_half,  # both fields reach the limit at once
        # (u2^half + 1)(u2^half - 1): one term of three crosses the limit.
        lambda: MultiPoly(2, {(0, half): 1, (0, 0): 1}) * MultiPoly(2, {(0, half): 1, (0, 0): -1}),
        lambda: (u1_top * u2).identify_variables(1, 2),
        lambda: (u1 * u2_top).identify_variables(2, 1),
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
    assert (U1 + U2) * (U1 + U2) == U1 * U1 + 2 * U1 * U2 + U2 * U2


def test_arity_mismatch_is_an_error():
    with pytest.raises(ValueError):
        U1 + MultiPoly.variable(2, 1)
    with pytest.raises(ValueError):
        U1 * MultiPoly.one(4)


def test_int_and_fraction_coercion():
    assert U1 + 0 == U1
    assert 1 * U1 == U1
    assert 2 + -(U1 - U1) == MultiPoly.constant(3, 2)
    assert U1 * Fraction(1, 2) == MultiPoly(3, {(1, 0, 0): Fraction(1, 2)})
    assert MultiPoly.one(3) == 1
    assert not (MultiPoly.one(3) == 2)


def test_substitute():
    p = U1 * U2 + U2 * U3
    assert p.substitute(1, 0) == U2 * U3
    assert (U2 * U2).substitute(2, 1) == MultiPoly.one(3)
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


def test_evaluate_at_an_int_point_stays_int():
    # The verifier's point matrix then takes Bareiss's int path.
    for p in (vandermonde_product(3), MultiPoly.zero(3), U1 * U2 - 7):
        assert type(p.evaluate((1, 2, 3))) is int
    assert (U1 * Fraction(1, 2)).evaluate((1, 2, 3)) == Fraction(1, 2)


def test_evaluate_admits_int_and_fraction_points_only():
    p = U1 * U2 + 3
    assert p.evaluate(range(1, 4)) == 5 and p.evaluate([Fraction(1, 2), 2, 0]) == 4
    for point in ([True, 2, 1], [Decimal(2), 2, 1], [1, 2, 0.5], [1, 2, U3]):
        with pytest.raises(TypeError):
            p.evaluate(point)


def test_total_degrees():
    assert (U1 * U2 + U3 * U3).total_degrees() == {2}
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
    # The n-cycle multiplies it by its sign.
    assert product.cycle_variables() == (-1) ** (n - 1) * product


def test_swap_variables_validates_indices_and_keeps_a_self_swap():
    p = U1 * U2 * U2 + 3 * U3
    assert p.swap_variables(2, 2) is p
    for a, b in [(0, 1), (1, 4), (4, 4)]:
        with pytest.raises(ValueError, match="out of range"):
            p.swap_variables(a, b)


def test_identify_variables():
    assert (U2 - U1).identify_variables(1, 2).is_zero
    p = U1 * U1 * U2
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
    for r in (p + q, p - q, p * q, -p, p.substitute(i, value), p.identify_variables(i, j),
              p.swap_variables(i, j), p.cycle_variables()):
        for monomial, coeff in r.terms.items():
            assert type(coeff) is Fraction and coeff != 0
            assert type(monomial) is tuple and len(monomial) == 3
            assert all(type(e) is int and e >= 0 for e in monomial)
        assert r.terms == MultiPoly(3, r.terms).terms


def reference_render(p: MultiPoly) -> str:
    """``render`` rebuilt from ``p.terms``: total degree descending, then
    exponent vector ascending; a coefficient of magnitude 1 is left out of
    a non-constant term; the first term carries only a leading "-", the
    others are joined by " + " or " - "."""
    pieces = []
    for monomial, coeff in sorted(p.terms.items(), key=lambda t: (-sum(t[0]), t[0])):
        factors = [f"u{i}" if e == 1 else f"u{i}^{e}" for i, e in enumerate(monomial, 1) if e]
        if abs(coeff) != 1 or not factors:
            factors.insert(0, str(abs(coeff)))
        body = "*".join(factors)
        if pieces:
            pieces.append(f"- {body}" if coeff < 0 else f"+ {body}")
        else:
            pieces.append(f"-{body}" if coeff < 0 else body)
    return " ".join(pieces) or "0"


@given(simple_polys)
def test_render_parse_round_trip(p):
    assert p.render() == reference_render(p)


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


@given(wide_polys, st.data())
def test_substituting_zero_keeps_the_terms_free_of_the_variable(case, data):
    n, terms = case
    p = MultiPoly(n, terms)
    index = data.draw(st.integers(1, n))
    kept = {m: c for m, c in p.terms.items() if m[index - 1] == 0}
    for zero in (0, Fraction(0)):
        assert p.substitute(index, zero).terms == kept
        assert p.substitute(index, zero) == MultiPoly(n, kept)
    with pytest.raises(TypeError):
        p.substitute(index, False)


@given(wide_polys)
def test_wide_polynomials_round_trip(case):
    n, terms = case
    p = MultiPoly(n, terms)
    assert p.terms == {m: Fraction(c) for m, c in terms.items() if c}
    assert MultiPoly(n, p.terms).terms == p.terms
    assert p.render() == reference_render(p)


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


nonzero_values = st.one_of(st.integers(-5, -1), st.integers(1, 5),
                           st.fractions(-3, 3, max_denominator=9).filter(bool))


@given(wide_polys, nonzero_values, st.data())
def test_wide_substitute_matches_naive_fold(case, value, data):
    # substitute(i, c), c != 0, shares its fold with the identification.
    n, terms = case
    index = data.draw(st.integers(1, n))
    p = MultiPoly(n, terms)
    expected = {}
    for monomial, coeff in p.terms.items():
        cleared = monomial[: index - 1] + (0,) + monomial[index:]
        expected[cleared] = expected.get(cleared, Fraction(0)) + coeff * Fraction(value) ** monomial[index - 1]
    assert p.substitute(index, value).terms == {m: c for m, c in expected.items() if c}


swap_cases = st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n),
    wide_terms(n),
    st.integers(1, n),
    st.integers(1, n),
    st.lists(st.integers(-2, 2), min_size=n, max_size=n),
))


@given(swap_cases)
def test_swap_variables_matches_the_decoded_swap(case):
    n, terms, a, b, point = case
    p = MultiPoly(n, terms)
    swapped = p.swap_variables(a, b)
    assert swapped.terms == swap_variables(p, a, b).terms == reference_decode(swapped)
    assert swapped.swap_variables(a, b) == p
    exchanged = list(point)
    exchanged[a - 1], exchanged[b - 1] = point[b - 1], point[a - 1]
    assert swapped.evaluate(point) == p.evaluate(exchanged)


def cycle_variables(p: MultiPoly) -> MultiPoly:
    """p with u<i> replaced by u<i+1> and u<n> by u1: every exponent vector
    rotated right by one slot."""
    return MultiPoly(p.nvars, {m[-1:] + m[:-1]: c for m, c in p.terms.items()})


cycle_cases = st.integers(0, 5).flatmap(lambda n: st.tuples(
    st.just(n),
    st.dictionaries(
        st.tuples(*[wide_exponents] * n),
        st.one_of(st.integers(-9, 9), st.fractions(max_denominator=20)),
        max_size=4,
    ),
    st.lists(st.integers(-2, 2), min_size=n, max_size=n),
))


@given(cycle_cases)
def test_cycle_variables_matches_the_decoded_rotation(case):
    n, terms, point = case
    p = MultiPoly(n, terms)
    cycled = p.cycle_variables()
    assert cycled.terms == cycle_variables(p).terms == reference_decode(cycled)
    # The result's exponent table, filled on first use, holds the rotated rows.
    table = cycled._exponents()
    assert len(table) == n * len(p.terms)
    if n:
        rows = sorted(table[k : k + n] for k in range(0, len(table), n))
        assert rows == sorted(m[-1:] + m[:-1] for m in p.terms)
    assert cycled.evaluate(point) == p.evaluate(point[1:] + point[:1])
    again = p
    for _ in range(n):
        again = again.cycle_variables()
    assert again == p
    if n < 2:
        assert cycled is p


@pytest.mark.parametrize("n", range(2, 9))
def test_cycle_variables_moves_the_largest_exponent_intact(n):
    top = EXPONENT_LIMIT - 1
    p = MultiPoly(n, {(0,) * (n - 1) + (top,): 3, tuple(range(n - 1)) + (top,): Fraction(-1, 2)})
    assert p.cycle_variables().terms == {
        (top,) + (0,) * (n - 1): 3, (top,) + tuple(range(n - 1)): Fraction(-1, 2)}


def reference_decode(p: MultiPoly) -> dict:
    """The term map decoded key by key with shifts and masks, u1 in the most
    significant field: the reference for ``terms``."""
    mask = (1 << FIELD_BITS) - 1
    return {
        tuple((key >> ((p.nvars - 1 - slot) * FIELD_BITS)) & mask for slot in range(p.nvars)):
            Fraction(coeff)
        for key, coeff in p._terms.items()
    }


def answer(query, p: MultiPoly):
    """What one query returns on ``p``, or the type of what it raises; a
    polynomial answers by its terms, which must match the reference decode."""
    try:
        result = query(p)
    except ValueError as exc:
        return type(exc)
    if isinstance(result, MultiPoly):
        assert result.terms == reference_decode(result)
        return result.terms
    return result


def table_queries(nvars: int) -> list:
    queries = [
        lambda p: p.total_degrees(),
        lambda p: p.terms,
        lambda p: p.render(),
    ]
    for index in range(1, nvars + 1):
        queries += [
            lambda p, i=index: p.substitute(i, 0),
            lambda p, i=index: p.substitute(i, Fraction(3, 2)),
            lambda p, i=index: p.identify_variables(1, i),
            lambda p, i=index: p.identify_variables(i, 1),
            lambda p, i=index: p.swap_variables(1, i),
        ]
    return queries + [lambda p: p.cycle_variables()]


table_exponents = st.one_of(
    st.integers(0, 3), st.sampled_from([EXPONENT_LIMIT // 2, EXPONENT_LIMIT - 1])
)
table_cases = st.integers(0, 4).flatmap(lambda n: st.tuples(
    st.just(n),
    st.dictionaries(
        st.tuples(*[table_exponents] * n),
        st.one_of(st.integers(-3, 3), st.fractions(max_denominator=7)),
        max_size=5,
    ),
))


@given(table_cases, st.data())
def test_queries_on_one_polynomial_match_fresh_copies(case, data):
    # Every query of one object reads the exponent table it filled on first
    # use; each must answer as the same query on a polynomial never queried.
    nvars, terms = case
    p = MultiPoly(nvars, terms)
    for query in data.draw(st.permutations(table_queries(nvars))):
        assert answer(query, p) == answer(query, MultiPoly(nvars, terms))
    assert p.terms == reference_decode(p) == reference_decode(MultiPoly(nvars, terms))


def test_constant_in_zero_variables():
    p = MultiPoly(0, {(): 5})
    assert p.total_degrees() == {0}
    assert p.terms == {(): 5}
    assert p.render() == "5"
    assert MultiPoly(0).total_degrees() == set() and MultiPoly(0).terms == {}


# ---------------------------------------------------------------------------
# the subset kernel for distinct variables


@st.composite
def variable_lists(draw):
    """(ring size, distinct variables of that ring in any order)."""
    nvars = draw(st.integers(1, 9))
    slots = draw(st.lists(st.integers(1, nvars), min_size=1, max_size=nvars, unique=True))
    return nvars, [MultiPoly.variable(nvars, slot) for slot in slots]


def generic_table(nodes) -> list:
    """The deflation's table, each entry decoded term by term."""
    return [[p.terms for p in row] for row in elem_sym_leave_one_out(nodes)]


@given(variable_lists())
@example((9, list(variables(9))))
@example((9, list(variables(9)[1:])))  # the first-node check's tail u2..u9
@example((1, list(variables(1))))
def test_the_subset_kernel_matches_the_deflation(case):
    nvars, nodes = case
    table = leave_one_out_table_variables(nodes)
    assert [[p.terms for p in row] for row in table] == generic_table(nodes)
    assert all(p._terms == MultiPoly(nvars, p.terms)._terms for row in table for p in row)
    assert build_ci_matrix(nodes).entries == tuple(map(tuple, table[::-1]))


def spoil(nvars: int, nodes: list, position: int, how: str) -> list:
    """``nodes`` with one node the kernel refuses: the node at ``position``
    repeated, or a node of another ring added, at the end; else that node
    replaced."""
    u = nodes[position]
    if how in ("repeated", "another ring"):
        return nodes + [u if how == "repeated" else MultiPoly.variable(nvars + 1, 1)]
    v = MultiPoly.variable(nvars, 1 if u != MultiPoly.variable(nvars, 1) else nvars)
    replaced = {"doubled": 2 * u, "squared": u * u, "a sum": u + v,
                "a constant": MultiPoly.constant(nvars, 3), "zero": MultiPoly.zero(nvars)}[how]
    return nodes[:position] + [replaced] + nodes[position + 1:]


SPOILERS = ["repeated", "doubled", "squared", "a sum", "a constant", "zero", "another ring"]


def outcome(call):
    """What ``call`` returns, or the type and text of what it raises."""
    try:
        return call()
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


@given(variable_lists(), st.sampled_from(SPOILERS), st.data())
def test_other_polynomial_lists_fall_back_to_the_deflation(case, how, data):
    nvars, nodes = case
    nodes = spoil(nvars, nodes, data.draw(st.integers(0, len(nodes) - 1)), how)
    assert leave_one_out_table_variables(nodes) is None
    built = outcome(lambda: build_ci_matrix(nodes).entries)
    assert built == outcome(lambda: tuple(map(tuple, elem_sym_leave_one_out(nodes)[::-1])))
