from dataclasses import replace
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import cimatrix.cli
import cimatrix.matrix
import cimatrix.verifier
from cimatrix.matrix import SizeCapError, det_cofactor, symbolic_ci_matrix
from cimatrix.multipoly import MultiPoly, vandermonde_product, variables
from cimatrix.scalars import rational_to_string
from cimatrix.verifier import (
    verify_determinant_identity,
    verify_duality_probe,
    verify_equal_column_vanish,
    verify_first_node_zero_block,
    verify_homogeneity,
    verify_row_degrees,
    verify_suite,
)


@pytest.mark.parametrize("n,degree", [(2, 1), (3, 3), (4, 6)])
def test_homogeneity(n, degree):
    result = verify_homogeneity(n)
    assert result.passed
    assert str(degree) in result.witness


def test_homogeneity_cap():
    with pytest.raises(SizeCapError):
        verify_homogeneity(7)
    with pytest.raises(ValueError):
        verify_homogeneity(0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_row_degrees(n):
    assert verify_row_degrees(n).passed


@pytest.mark.parametrize("n,i,j", [(2, 1, 2), (3, 1, 3), (4, 2, 3)])
def test_equal_column_vanish(n, i, j):
    assert verify_equal_column_vanish(n, i, j).passed


def test_equal_column_vanish_validates_indices():
    with pytest.raises(ValueError):
        verify_equal_column_vanish(3, 2, 2)
    with pytest.raises(ValueError):
        verify_equal_column_vanish(3, 0, 2)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_determinant_identity(n):
    result, constant = verify_determinant_identity(n)
    assert result.passed
    assert constant == Fraction(1)


def test_determinant_identity_n5_term_count():
    det = det_cofactor(symbolic_ci_matrix(5))
    assert len(det.terms) == factorial(5)


def test_first_node_zero_block_size2():
    # after u1 := 0 the matrix is [[u2, 0], [1, 1]], determinant u2
    matrix = symbolic_ci_matrix(2)
    substituted = [[e.substitute(1, 0) for e in row] for row in matrix.entries]
    u2 = variables(2)[1]
    assert substituted[0] == [u2, MultiPoly.zero(2)]
    assert substituted[1] == [MultiPoly.one(2), MultiPoly.one(2)]
    assert det_cofactor(substituted) == u2
    assert verify_first_node_zero_block(2).passed


def test_first_node_zero_block_size3():
    matrix = symbolic_ci_matrix(3)
    substituted = [[e.substitute(1, 0) for e in row] for row in matrix.entries]
    _, u2, u3 = variables(3)
    assert substituted[0][0] == u2 * u3
    assert substituted[0][1].is_zero and substituted[0][2].is_zero
    assert det_cofactor(substituted) == u2 * u3 * (u3 - u2)
    assert verify_first_node_zero_block(3).passed


def test_first_node_zero_block_size4():
    assert verify_first_node_zero_block(4).passed


def with_entry(matrix, h, k, value):
    rows = [list(row) for row in matrix.entries]
    rows[h - 1][k - 1] = value
    return replace(matrix, entries=tuple(tuple(row) for row in rows))


@pytest.mark.parametrize("n", range(1, 8))
def test_suite_expands_each_size_once(n, monkeypatch):
    # Empty caches: the suite forms each matrix and expansion itself.
    cimatrix.verifier._symbolic_matrix.cache_clear()
    cimatrix.verifier._symbolic_det.cache_clear()
    expansions = []
    expand = cimatrix.verifier.det_cofactor
    monkeypatch.setattr(cimatrix.verifier, "det_cofactor",
                        lambda matrix, size_cap: expansions.append(size_cap) or expand(matrix, size_cap))
    assert verify_suite(n, cap=7).passed
    assert expansions == [n]


def test_a_cold_suite_identifies_only_columns(monkeypatch):
    # The alternation certificate settles every determinant half at n=7, so
    # the 5040-term expansion is never identified; each pair still
    # identifies both of its 7-entry columns.
    cimatrix.verifier._symbolic_matrix.cache_clear()
    cimatrix.verifier._symbolic_det.cache_clear()
    sizes = []
    identify = MultiPoly.identify_variables
    monkeypatch.setattr(MultiPoly, "identify_variables",
                        lambda p, keep, replace: sizes.append(len(p._terms))
                        or identify(p, keep, replace))
    assert verify_suite(7, cap=7).passed
    assert factorial(7) not in sizes
    assert len(sizes) == 21 * 2 * 7


def symbolic_inputs(monkeypatch, matrix, det):
    # Both cached inputs are replaced, so each test fixes what every check reads.
    monkeypatch.setattr(cimatrix.verifier, "_symbolic_matrix", lambda size: matrix)
    monkeypatch.setattr(cimatrix.verifier, "_symbolic_det", lambda size: det)


def first_node_zero_block_with(monkeypatch, n, matrix, det):
    symbolic_inputs(monkeypatch, matrix, det)
    return verify_first_node_zero_block(n)


def test_first_node_zero_block_fails_on_a_wrong_trailing_block(monkeypatch):
    n = 4
    matrix = symbolic_ci_matrix(n)
    u3 = variables(n)[2]
    bad = with_entry(matrix, 3, 2, matrix.entry(3, 2) + u3)
    result = first_node_zero_block_with(monkeypatch, n, bad, vandermonde_product(n))
    assert not result.passed
    assert result.witness == "trailing block is not the CI-matrix of the remaining nodes"


def test_first_node_zero_block_fails_on_a_wrong_corner(monkeypatch):
    n = 4
    matrix = symbolic_ci_matrix(n)
    u2 = variables(n)[1]
    bad = with_entry(matrix, 1, 1, matrix.entry(1, 1) + u2)
    result = first_node_zero_block_with(monkeypatch, n, bad, vandermonde_product(n))
    assert not result.passed
    assert result.witness == "(1,1) entry is not the product of the remaining nodes"


def test_first_node_zero_block_fails_on_a_wrong_determinant(monkeypatch):
    n = 4
    _, u2, u3, _ = variables(n)
    det = vandermonde_product(n) + u2 * u3
    result = first_node_zero_block_with(monkeypatch, n, symbolic_ci_matrix(n), det)
    assert not result.passed
    assert result.witness == "determinant does not factor through the trailing block"


def test_first_node_zero_block_fails_on_a_nonzero_trailing_entry(monkeypatch):
    n = 4
    matrix = symbolic_ci_matrix(n)
    _, u2, u3, _ = variables(n)
    bad = with_entry(matrix, 1, 2, matrix.entry(1, 2) + u2 * u3)
    result = first_node_zero_block_with(monkeypatch, n, bad, vandermonde_product(n))
    assert result.passed is False
    assert result.witness == "first row has a nonzero trailing entry"


def test_row_degrees_names_an_inhomogeneous_entry(monkeypatch):
    n = 3
    matrix = symbolic_ci_matrix(n)
    u1, u2, _ = variables(n)
    symbolic_inputs(monkeypatch, with_entry(matrix, 2, 1, matrix.entry(2, 1) + u1 * u2),
                    vandermonde_product(n))
    result = verify_row_degrees(n)
    assert result.passed is False
    assert result.witness == "(2,1) degrees [1, 2]"


def test_equal_columns_fails_on_a_determinant_that_survives(monkeypatch):
    n = 3
    u1 = variables(n)[0]
    symbolic_inputs(monkeypatch, symbolic_ci_matrix(n), vandermonde_product(n) + u1)
    result = verify_equal_column_vanish(n, 1, 2)
    assert result.passed is False
    assert result.witness == "determinant nonzero after identification"


def test_equal_columns_identify_a_determinant_that_does_not_alternate(monkeypatch):
    n = 3
    assert verify_equal_column_vanish(n, 1, 3).passed  # certifies the real expansion
    u1, u2, u3 = variables(n)
    symbolic_inputs(monkeypatch, symbolic_ci_matrix(n), (u2 - u1) * u3)
    results = [verify_equal_column_vanish(n, i, j) for i, j in [(1, 2), (1, 3), (2, 3)]]
    assert [result.passed for result in results] == [True, False, False]
    assert results[0].witness == "u2:=u1 kills det, columns merge"
    assert {result.witness for result in results[1:]} == {
        "determinant nonzero after identification"}


def test_equal_columns_fails_on_columns_that_differ(monkeypatch):
    n = 3
    matrix = symbolic_ci_matrix(n)
    u3 = variables(n)[2]
    symbolic_inputs(monkeypatch, with_entry(matrix, 2, 1, matrix.entry(2, 1) + u3),
                    vandermonde_product(n))
    result = verify_equal_column_vanish(n, 1, 2)
    assert result.passed is False
    assert result.witness == "columns 1 and 2 differ after identification"


def test_determinant_identity_fails_on_a_zero_expansion(monkeypatch):
    n = 3
    symbolic_inputs(monkeypatch, symbolic_ci_matrix(n), MultiPoly.zero(n))
    result, constant = verify_determinant_identity(n)
    assert result.passed is False
    assert result.witness == "determinant expanded to 0"
    assert constant is None


def expand_and_compare(n, det):
    """Reference verdict: expand V, compare the term maps, and take the
    ratio of leading coefficients as the constant."""
    product = vandermonde_product(n)
    constant = det.leading_term()[1] / product.leading_term()[1]
    return det == product and constant == 1, constant


def assert_identity_matches_the_expansion(n, det):
    with pytest.MonkeyPatch.context() as patch:
        symbolic_inputs(patch, symbolic_ci_matrix(n), det)
        result, constant = verify_determinant_identity(n)
    passed, expected = expand_and_compare(n, det)
    assert (result.passed, constant) == (passed, expected)
    assert result.witness == (f"constant={rational_to_string(expected)} "
                              f"difference={'0' if passed else 'nonzero'}")
    return passed


def monomial(n, exponents, coefficient=1):
    return MultiPoly(n, {tuple(exponents): coefficient})


def fed_determinants(n):
    """V, its multiples and sign changes, V off by a monomial or a factor,
    V with one term's sign flipped, and determinants of another arity."""
    v = vandermonde_product(n)
    degree = n * (n - 1) // 2
    yield v
    for c in (2, -1, Fraction(-1, 3)):
        yield v * c
    if n >= 2:
        yield v.swap_variables(1, 2)  # -V
    for exponents in ([degree] + [0] * (n - 1), list(range(n)), list(range(n))[::-1], [0] * n):
        for sign in (1, -1):
            yield v + monomial(n, exponents, sign)
    yield v * sum(variables(n), MultiPoly.zero(n))  # V * e1
    for key, coefficient in v.terms.items():
        yield v - monomial(n, key, 2 * coefficient)
    yield vandermonde_product(n + 1)
    yield MultiPoly(n + 1, {key + (0,): c for key, c in v.terms.items()})
    if n >= 2:
        yield vandermonde_product(n - 1)


@pytest.mark.parametrize("n", range(1, 6))
def test_determinant_identity_matches_the_expansion_on_fed_determinants(n):
    # A zero expansion (V - 1 at n=1) returns early, before any comparison.
    verdicts = [assert_identity_matches_the_expansion(n, det)
                for det in fed_determinants(n) if not det.is_zero]
    assert verdicts.count(True) == 1  # V itself


def antisymmetrized(det):
    """The sum over S_n of sign(sigma) * det with its variables permuted."""
    n = det.nvars
    total = MultiPoly.zero(n)
    for perm in permutations(range(n)):
        sign = (-1) ** sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        total = total + MultiPoly(n, {tuple(key[i] for i in perm): sign * c
                                      for key, c in det.terms.items()})
    return total


@st.composite
def fed_term_maps(draw):
    """Random term maps in 1..5 variables with exponents below n, some made
    alternating, some shifted by a multiple of V."""
    n = draw(st.integers(1, 5))
    det = MultiPoly(n, draw(st.dictionaries(
        st.tuples(*[st.integers(0, n - 1)] * n),
        st.fractions(-3, 3, max_denominator=3),
        max_size=6,
    )))
    if draw(st.booleans()):
        det = antisymmetrized(det)
    det = det + vandermonde_product(n) * draw(st.sampled_from([0, 1, -1, 2]))
    assume(not det.is_zero)
    return n, det


@given(fed_term_maps())
@example((3, vandermonde_product(3)))
@example((4, MultiPoly(4, {(0, 1, 2, 3): 1})))  # V's leading term alone
def test_determinant_identity_matches_the_expansion_on_random_term_maps(case):
    assert_identity_matches_the_expansion(*case)


def test_a_cold_suite_never_expands_the_vandermonde_product(monkeypatch):
    calls = []
    monkeypatch.setattr(cimatrix.verifier, "vandermonde_product",
                        lambda n: calls.append(n) or vandermonde_product(n))
    for n in range(1, 9):
        cimatrix.verifier._symbolic_matrix.cache_clear()
        cimatrix.verifier._symbolic_det.cache_clear()
        assert verify_suite(n, cap=n).passed
    assert calls == []


def test_first_node_zero_block_needs_size_two():
    with pytest.raises(ValueError):
        verify_first_node_zero_block(1)


def test_duality_probe():
    for n in (1, 3, 6):
        assert verify_duality_probe(n).passed


def test_duality_probe_witness_stays_exact(monkeypatch, capsys):
    # Entry (1,1) of the size-3 numeric build, e_2(2, 3) = 6, becomes 7: every
    # residual of column 1 is off by 1, and the diagonal one by 1 of 2.
    build = cimatrix.matrix.build_ci_matrix

    def perturbed(nodes):
        matrix = build(nodes)
        if len(nodes) == 3 and all(isinstance(x, (int, Fraction)) for x in nodes):
            return with_entry(matrix, 1, 1, matrix.entry(1, 1) + 1)
        return matrix

    monkeypatch.setattr(cimatrix.matrix, "build_ci_matrix", perturbed)
    result = verify_duality_probe(3)
    assert not result.passed
    assert result.witness == "offdiag=1 diag_rel=1/2"
    assert cimatrix.cli.main(["verify", "--max-n", "3"]) == 3
    out, err = capsys.readouterr()
    assert "[FAIL] n=3 duality offdiag=1 diag_rel=1/2" in out.splitlines()
    assert err == ""


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_suite_all_pass(n):
    report = verify_suite(n)
    assert report.passed
    assert report.extracted_constant == 1
    expected_checks = 3 + n * (n - 1) // 2 + (1 if n >= 2 else 0) + 1
    assert len(report.checks) == expected_checks


def test_report_rendering():
    report = verify_suite(2)
    lines = report.lines()
    assert all(line.startswith("[PASS] n=2 ") for line in lines)
    payload = report.to_dict()
    assert payload["n"] == 2
    assert payload["passed"] is True
    assert payload["extracted_constant"] == "1"
    assert {c["name"] for c in payload["checks"]} >= {
        "determinant-identity",
        "homogeneity",
        "row-degrees",
        "duality",
    }
