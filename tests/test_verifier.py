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
    CheckResult,
    _alternates,
    _permutes_columns,
    verify_determinant_identity,
    verify_duality_probe,
    verify_equal_column_vanish,
    verify_first_node_zero_block,
    verify_homogeneity,
    verify_row_degrees,
    verify_suite,
)


def symbolic(n):
    """The size-n symbolic matrix, its expansion, that expansion's alternation
    certificate and the matrix's column certificate, as ``verify_suite``
    forms them."""
    matrix = symbolic_ci_matrix(n)
    det = det_cofactor(matrix)
    return matrix, det, _alternates(n, det), _permutes_columns(matrix)


@pytest.mark.parametrize("n,degree", [(2, 1), (3, 3), (4, 6)])
def test_homogeneity(n, degree):
    det = symbolic(n)[1]
    result = verify_homogeneity(n, det.total_degrees())
    assert result.passed
    assert str(degree) in result.witness


def test_suite_cap(monkeypatch):
    # The suite keeps no cap: the kernels refuse size 0 before any build, and
    # size 10 after its build but before any minor of the expansion.
    builds, minors = [], []
    build = cimatrix.matrix.build_ci_matrix
    monkeypatch.setattr(cimatrix.matrix, "build_ci_matrix",
                        lambda nodes: builds.append(len(nodes)) or build(nodes))
    monkeypatch.setattr(cimatrix.matrix, "_subset_minors", lambda *args: minors.append(args))
    with pytest.raises(ValueError) as refused:
        verify_suite(0)
    assert not isinstance(refused.value, SizeCapError) and builds == []
    with pytest.raises(SizeCapError, match="cofactor expansion capped at size 9, got 10"):
        verify_suite(10)
    assert builds == [10] and minors == []


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_row_degrees(n):
    assert verify_row_degrees(symbolic_ci_matrix(n)).passed


@pytest.mark.parametrize("n,i,j", [(2, 1, 2), (3, 1, 3), (4, 2, 3)])
def test_equal_column_vanish(n, i, j):
    assert verify_equal_column_vanish(*symbolic(n), i, j).passed


def test_equal_column_vanish_validates_indices():
    inputs = symbolic(3)
    with pytest.raises(ValueError):
        verify_equal_column_vanish(*inputs, 2, 2)
    with pytest.raises(ValueError):
        verify_equal_column_vanish(*inputs, 0, 2)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_determinant_identity(n):
    _, det, alternates, _ = symbolic(n)
    result, constant = verify_determinant_identity(n, det, alternates, det.total_degrees())
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
    assert verify_first_node_zero_block(*symbolic(2)[:2], False).passed


def test_first_node_zero_block_size3():
    matrix = symbolic_ci_matrix(3)
    substituted = [[e.substitute(1, 0) for e in row] for row in matrix.entries]
    _, u2, u3 = variables(3)
    assert substituted[0][0] == u2 * u3
    assert substituted[0][1].is_zero and substituted[0][2].is_zero
    assert det_cofactor(substituted) == u2 * u3 * (u3 - u2)
    assert verify_first_node_zero_block(*symbolic(3)[:2], False).passed


def test_first_node_zero_block_size4():
    assert verify_first_node_zero_block(*symbolic(4)[:2], False).passed


def with_entry(matrix, h, k, value):
    rows = [list(row) for row in matrix.entries]
    rows[h - 1][k - 1] = value
    return replace(matrix, entries=tuple(tuple(row) for row in rows))


@pytest.mark.parametrize("n", range(1, 8))
def test_suite_expands_each_size_once(n, monkeypatch):
    # One build, one expansion and one alternation certificate (the swap
    # u1 <-> u2 and the cycle on the n!-term expansion, none at n=1): nothing
    # a check reads is formed twice.  The column certificate moves each of
    # the n^2 entries once by the cycle, and each outside column 2 once by
    # the swap (none at n=1): the swap is an involution.
    builds, expansions, det_moves, entry_moves = [], [], [], []
    build, expand = cimatrix.verifier.symbolic_ci_matrix, cimatrix.verifier.det_cofactor
    swap, cycle = MultiPoly.swap_variables, MultiPoly.cycle_variables

    def moved(p, move):
        (det_moves if expansions and p is expansions[0] else entry_moves).append(move)

    monkeypatch.setattr(cimatrix.verifier, "symbolic_ci_matrix",
                        lambda size: builds.append(size) or build(size))
    monkeypatch.setattr(cimatrix.verifier, "det_cofactor",
                        lambda matrix: expansions.append(expand(matrix)) or expansions[-1])
    monkeypatch.setattr(MultiPoly, "swap_variables",
                        lambda p, a, b: moved(p, (a, b)) or swap(p, a, b))
    monkeypatch.setattr(MultiPoly, "cycle_variables",
                        lambda p: moved(p, "cycle") or cycle(p))
    assert verify_suite(n).passed
    assert builds == [n]
    assert [det.nvars for det in expansions] == [n]
    assert len(expansions[0].terms) == factorial(n)
    assert det_moves == ([(1, 2), "cycle"] if n >= 2 else [])
    assert sorted(entry_moves, key=str) == [(1, 2)] * n * (n - 1) + ["cycle"] * n * n


def test_a_ci_matrix_suite_at_n7_identifies_nothing(monkeypatch):
    # The alternation certificate settles every determinant half and the
    # column certificate every column half at n=7: nothing is identified.
    identified = []
    identify = MultiPoly.identify_variables
    monkeypatch.setattr(MultiPoly, "identify_variables",
                        lambda p, keep, replace: identified.append(len(p._terms))
                        or identify(p, keep, replace))
    assert verify_suite(7).passed
    assert identified == []


def test_first_node_zero_block_fails_on_a_wrong_trailing_block():
    n = 4
    matrix = symbolic_ci_matrix(n)
    u3 = variables(n)[2]
    bad = with_entry(matrix, 3, 2, matrix.entry(3, 2) + u3)
    result = verify_first_node_zero_block(bad, vandermonde_product(n), False)
    assert not result.passed
    assert result.witness == "trailing block is not the CI-matrix of the remaining nodes"


def test_first_node_zero_block_fails_on_a_wrong_corner():
    n = 4
    matrix = symbolic_ci_matrix(n)
    u2 = variables(n)[1]
    bad = with_entry(matrix, 1, 1, matrix.entry(1, 1) + u2)
    result = verify_first_node_zero_block(bad, vandermonde_product(n), False)
    assert not result.passed
    assert result.witness == "(1,1) entry is not the product of the remaining nodes"


def test_first_node_zero_block_fails_on_a_wrong_determinant():
    n = 4
    _, u2, u3, _ = variables(n)
    det = vandermonde_product(n) + u2 * u3
    result = verify_first_node_zero_block(symbolic_ci_matrix(n), det, identity=False)
    assert not result.passed
    assert result.witness == "determinant does not factor through the trailing block"


def test_first_node_zero_block_fails_on_a_nonzero_trailing_entry():
    n = 4
    matrix = symbolic_ci_matrix(n)
    _, u2, u3, _ = variables(n)
    bad = with_entry(matrix, 1, 2, matrix.entry(1, 2) + u2 * u3)
    result = verify_first_node_zero_block(bad, vandermonde_product(n), False)
    assert result.passed is False
    assert result.witness == "first row has a nonzero trailing entry"


def test_row_degrees_names_an_inhomogeneous_entry():
    n = 3
    matrix = symbolic_ci_matrix(n)
    u1, u2, _ = variables(n)
    result = verify_row_degrees(with_entry(matrix, 2, 1, matrix.entry(2, 1) + u1 * u2))
    assert result.passed is False
    assert result.witness == "(2,1) degrees [1, 2]"


def test_equal_columns_fails_on_a_determinant_that_survives():
    n = 3
    u1 = variables(n)[0]
    det = vandermonde_product(n) + u1
    matrix = symbolic_ci_matrix(n)
    result = verify_equal_column_vanish(matrix, det, _alternates(n, det), _permutes_columns(matrix),
                                        1, 2)
    assert result.passed is False
    assert result.witness == "determinant nonzero after identification"


def test_equal_columns_identify_a_determinant_that_does_not_alternate():
    n = 3
    matrix, real, certificate, permutes = symbolic(n)
    assert certificate and verify_equal_column_vanish(matrix, real, certificate, permutes,
                                                      1, 3).passed
    u1, u2, u3 = variables(n)
    det = (u2 - u1) * u3
    assert _alternates(n, det) is False
    results = [verify_equal_column_vanish(matrix, det, False, permutes, i, j)
               for i, j in [(1, 2), (1, 3), (2, 3)]]
    assert [result.passed for result in results] == [True, False, False]
    assert results[0].witness == "u2:=u1 kills det, columns merge"
    assert {result.witness for result in results[1:]} == {
        "determinant nonzero after identification"}


def test_equal_columns_fails_on_columns_that_differ():
    n = 3
    matrix = symbolic_ci_matrix(n)
    u3 = variables(n)[2]
    bad = with_entry(matrix, 2, 1, matrix.entry(2, 1) + u3)
    det = vandermonde_product(n)
    assert _permutes_columns(bad) is False
    result = verify_equal_column_vanish(bad, det, _alternates(n, det), False, 1, 2)
    assert result.passed is False
    assert result.witness == "columns 1 and 2 differ after identification"


@pytest.mark.parametrize("n", range(1, 11))
def test_the_column_certificate_holds_on_every_ci_matrix(n):
    assert _permutes_columns(symbolic_ci_matrix(n)) is True


def test_the_column_certificate_reads_only_entries_of_the_matrix_arity():
    # Constant entries in 2 variables pass both generators of S_2, but the
    # size-3 identification u3 := u1 does not exist for them: it raises.
    one = MultiPoly.one(2)
    matrix = cimatrix.matrix.CIMatrix(3, (), ((one,) * 3,) * 3)
    assert _permutes_columns(matrix) is False
    with pytest.raises(ValueError, match="out of range"):
        verify_equal_column_vanish(matrix, vandermonde_product(3), True, False, 1, 3)


def copies():
    """The size-4 CI-matrix intact, with one entry perturbed within its
    degree, with columns 2 and 3 swapped and with one entry of the wrong
    degree; and a matrix whose rows are all the cycle's orbit of
    f = u2^2*u3 + u3^2*u4 + u4^2*u2, which passes u1 <-> u2 on columns 1
    and 2 and the cycle, but whose columns 3 and 4 u1 <-> u2 moves."""
    n = 4
    matrix = symbolic_ci_matrix(n)
    _, u2, u3, u4 = variables(n)
    orbit = [u2 * u2 * u3 + u3 * u3 * u4 + u4 * u4 * u2]
    while len(orbit) < n:
        orbit.append(orbit[-1].cycle_variables())
    return {
        "intact": matrix,
        "perturbed": with_entry(matrix, 3, 2, matrix.entry(3, 2) + u3),
        "swapped": replace(matrix, entries=tuple(
            (row[0], row[2], row[1]) + row[3:] for row in matrix.entries)),
        "wrong-degree": with_entry(matrix, 2, 4, matrix.entry(2, 4) * u2),
        "orbit": replace(matrix, entries=(tuple(orbit),) * n),
    }


COPIES = ["intact", "perturbed", "swapped", "wrong-degree", "orbit"]


def identify_both(matrix, det, i, j):
    """Reference verdict of equal-columns: identify u_j := u_i in ``det`` and
    in both columns, reading no certificate."""
    failures = []
    if not det.identify_variables(i, j).is_zero:
        failures.append("determinant nonzero after identification")
    if ([entry.identify_variables(i, j) for entry in matrix.column(i)]
            != [entry.identify_variables(i, j) for entry in matrix.column(j)]):
        failures.append(f"columns {i} and {j} differ after identification")
    witness = "; ".join(failures) or f"u{j}:=u{i} kills det, columns merge"
    return CheckResult(f"equal-columns({i},{j})", not failures, witness)


@pytest.mark.parametrize("name", COPIES)
def test_equal_columns_give_the_identification_verdict_on_every_copy(name):
    # With V as the determinant only the columns decide; a suite on each
    # copy, below, pairs it with the copy's own expansion.
    n = 4
    matrix, det = copies()[name], vandermonde_product(n)
    permutes = _permutes_columns(matrix)
    assert permutes is (name == "intact")
    results = {(i, j): verify_equal_column_vanish(matrix, det, True, permutes, i, j)
               for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    assert results == {(i, j): identify_both(matrix, det, i, j) for i, j in results}
    assert all(result.passed for result in results.values()) is (name == "intact")


@pytest.mark.parametrize("name", COPIES)
def test_first_node_zero_block_reads_the_identity_verdict_on_every_copy(name):
    # Where D = V, (d) holds, so skipping it leaves every verdict as it was.
    n = 4
    matrix = copies()[name]
    det = vandermonde_product(n)
    assert (verify_first_node_zero_block(matrix, det, True)
            == verify_first_node_zero_block(matrix, det, False))


@pytest.mark.parametrize("name", COPIES)
def test_a_suite_on_a_copy_gives_the_verdicts_of_the_uncertified_checks(name, monkeypatch):
    # The suite reads the certificates of the matrix it built and of its
    # expansion; fed a copy, it gives the verdicts of the computations they
    # replace.
    n = 4
    matrix = copies()[name]
    monkeypatch.setattr(cimatrix.verifier, "symbolic_ci_matrix", lambda size: matrix)
    det = det_cofactor(matrix)
    checks = {check.name: check for check in verify_suite(n).checks}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            assert checks[f"equal-columns({i},{j})"] == identify_both(matrix, det, i, j)
    assert checks["first-node-zero-block"] == verify_first_node_zero_block(matrix, det, False)
    assert checks["homogeneity"] == verify_homogeneity(n, det.total_degrees())
    assert checks["determinant-identity"].passed is (name == "intact")
    assert checks["homogeneity"].passed is (name not in ("wrong-degree", "orbit"))  # orbit: D = 0


@pytest.mark.parametrize("n", range(2, 8))
def test_first_node_zero_block_reads_the_identity_verdict_of_the_suite(n):
    matrix, det, alternates, _ = symbolic(n)
    identity, _ = verify_determinant_identity(n, det, alternates, det.total_degrees())
    assert identity.passed
    skipped = verify_first_node_zero_block(matrix, det, identity.passed)
    assert skipped == verify_first_node_zero_block(matrix, det, False) and skipped.passed


def test_determinant_identity_fails_on_a_zero_expansion():
    n = 3
    zero = MultiPoly.zero(n)
    assert _alternates(n, zero) and adjacent_swaps_alternate(n, zero)
    result, constant = verify_determinant_identity(n, zero, _alternates(n, zero),
                                                   zero.total_degrees())
    assert result.passed is False
    assert result.witness == "determinant expanded to 0"
    assert constant is None


def expand_and_compare(n, det):
    """Reference verdict: expand V, compare the term maps, and take the
    ratio of leading coefficients as the constant."""
    product = vandermonde_product(n)
    constant = det.leading_term()[1] / product.leading_term()[1]
    return det == product and constant == 1, constant


def adjacent_swaps_alternate(n, det):
    """The certificate as every adjacent swap u_k <-> u_(k+1), k < n, negating
    ``det``: the reference for ``_alternates``."""
    return all(det.swap_variables(k, k + 1) == -det for k in range(1, n))


def assert_identity_matches_the_expansion(n, det):
    # The certificate is the fed determinant's own, read in its own arity, and
    # gives the adjacent swaps' verdict.
    certificate = _alternates(det.nvars, det)
    assert certificate == adjacent_swaps_alternate(det.nvars, det)
    result, constant = verify_determinant_identity(n, det, certificate, det.total_degrees())
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


def test_alternates_refuses_another_arity():
    for n, det in [(2, vandermonde_product(3)), (3, vandermonde_product(2)),
                   (0, MultiPoly.one(1)), (1, MultiPoly.zero(0))]:
        with pytest.raises(ValueError, match="variables"):
            _alternates(n, det)


def test_each_generator_alone_lets_a_counterexample_through():
    u1, u2, u3 = variables(3)
    swap_only = u2 - u1  # negated by u1 <-> u2, sent to u3 - u2 by the cycle
    cycle_only = u1 * u1 * u2 + u2 * u2 * u3 + u3 * u3 * u1  # kept by the cycle
    assert swap_only.swap_variables(1, 2) == -swap_only
    assert swap_only.cycle_variables() != swap_only
    assert cycle_only.cycle_variables() == cycle_only
    assert cycle_only.swap_variables(1, 2) != -cycle_only
    for det in (swap_only, cycle_only):
        assert _alternates(3, det) is adjacent_swaps_alternate(3, det) is False


@pytest.mark.parametrize("n", [2, 4, 6])
def test_the_cycle_negates_an_alternating_determinant_of_even_size(n):
    det = vandermonde_product(n) * Fraction(-2, 3)
    assert det.cycle_variables() == -det
    assert _alternates(n, det) and adjacent_swaps_alternate(n, det)


def test_a_cold_suite_never_expands_the_vandermonde_product(monkeypatch):
    calls = []
    monkeypatch.setattr(cimatrix.verifier, "vandermonde_product",
                        lambda n: calls.append(n) or vandermonde_product(n))
    for n in range(1, 9):
        assert verify_suite(n).passed
    assert calls == []


def test_first_node_zero_block_needs_size_two():
    matrix, det, _, _ = symbolic(1)
    with pytest.raises(ValueError):
        verify_first_node_zero_block(matrix, det, True)


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
    assert err == "verification failed at n=3: duality\n"


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
