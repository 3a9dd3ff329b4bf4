from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import cimatrix.cli
import cimatrix.matrix
import cimatrix.verifier
from conftest import identify_both, multiple_of_v, reference_checks, reference_first_node
from cimatrix.matrix import SizeCapError, det_cofactor, symbolic_ci_matrix
from cimatrix.multipoly import MultiPoly, vandermonde_product, variables
from cimatrix.symfunc import elem_sym_all
from cimatrix.verifier import (
    _permutes_columns,
    verify_determinant_identity,
    verify_duality_probe,
    verify_equal_column_vanish,
    verify_first_node_zero_block,
    verify_homogeneity,
    verify_row_degrees,
    verify_suite,
)


def suite_on(matrix):
    """``verify_suite`` at the size of ``matrix``, fed ``matrix`` in place of
    the symbolic CI-matrix it builds; its checks by name, and its report."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cimatrix.verifier, "symbolic_ci_matrix", lambda size: matrix)
        report = verify_suite(matrix.n)
    return {check.name: check for check in report.checks}, report


@pytest.mark.parametrize("n,degree", [(2, 1), (3, 3), (4, 6)])
def test_homogeneity(n, degree):
    result = verify_homogeneity(n, True, verify_suite(n).extracted_constant)
    assert result.passed
    assert str(degree) in result.witness
    assert det_cofactor(symbolic_ci_matrix(n)).total_degrees() == {degree}


def test_suite_cap(monkeypatch):
    # The suite keeps no cap: the symbolic build refuses size 0 and size 13
    # before it builds anything.
    builds = []
    build = cimatrix.matrix.build_ci_matrix
    monkeypatch.setattr(cimatrix.matrix, "build_ci_matrix",
                        lambda nodes: builds.append(len(nodes)) or build(nodes))
    with pytest.raises(ValueError) as refused:
        verify_suite(0)
    assert not isinstance(refused.value, SizeCapError) and builds == []
    with pytest.raises(SizeCapError, match="symbolic CI-matrix capped at size 12, got 13"):
        verify_suite(13)
    assert builds == []


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_row_degrees(n):
    assert verify_row_degrees(symbolic_ci_matrix(n)).passed


@pytest.mark.parametrize("n,i,j", [(2, 1, 2), (3, 1, 3), (4, 2, 3)])
def test_equal_column_vanish(n, i, j):
    assert verify_equal_column_vanish(n, _permutes_columns(symbolic_ci_matrix(n)), i, j).passed


def test_equal_column_vanish_validates_indices():
    with pytest.raises(ValueError):
        verify_equal_column_vanish(3, True, 2, 2)
    with pytest.raises(ValueError):
        verify_equal_column_vanish(3, True, 0, 2)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_determinant_identity(n):
    report = verify_suite(n)
    result = verify_determinant_identity(True, report.extracted_constant)
    assert result.passed and result == report.checks[0]
    assert report.extracted_constant == Fraction(1)


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
    assert verify_first_node_zero_block(matrix, True, Fraction(1)).passed


def test_first_node_zero_block_size3():
    matrix = symbolic_ci_matrix(3)
    substituted = [[e.substitute(1, 0) for e in row] for row in matrix.entries]
    _, u2, u3 = variables(3)
    assert substituted[0][0] == u2 * u3
    assert substituted[0][1].is_zero and substituted[0][2].is_zero
    assert det_cofactor(substituted) == u2 * u3 * (u3 - u2)
    assert verify_first_node_zero_block(matrix, True, Fraction(1)).passed


def test_first_node_zero_block_size4():
    assert verify_first_node_zero_block(symbolic_ci_matrix(4), True, Fraction(1)).passed


def with_entry(matrix, h, k, value):
    rows = [list(row) for row in matrix.entries]
    rows[h - 1][k - 1] = value
    return replace(matrix, entries=tuple(tuple(row) for row in rows))


def with_rows(matrix, rows):
    return replace(matrix, entries=tuple(tuple(row) for row in rows))


@pytest.mark.parametrize("n", range(1, 8))
def test_suite_expands_each_size_once(n, monkeypatch):
    # One build and one determinant per size, and that determinant is the
    # Bareiss one of the matrix evaluated at (1, ..., n): the n!-term
    # cofactor expansion never runs.  The column certificate moves each of
    # the n^2 entries once by the cycle, and each outside column 2 once by
    # the swap (none at n=1): the swap is an involution.
    builds, expansions, evaluations, moves = [], [], [], []
    build, bareiss = cimatrix.verifier.symbolic_ci_matrix, cimatrix.verifier.det_bareiss
    swap, cycle = MultiPoly.swap_variables, MultiPoly.cycle_variables
    monkeypatch.setattr(cimatrix.verifier, "symbolic_ci_matrix",
                        lambda size: builds.append(size) or build(size))
    monkeypatch.setattr(cimatrix.matrix, "det_cofactor", lambda matrix: expansions.append(matrix))
    monkeypatch.setattr(cimatrix.verifier, "det_bareiss",
                        lambda rows: evaluations.append(rows) or bareiss(rows))
    monkeypatch.setattr(MultiPoly, "swap_variables",
                        lambda p, a, b: moves.append((a, b)) or swap(p, a, b))
    monkeypatch.setattr(MultiPoly, "cycle_variables", lambda p: moves.append("cycle") or cycle(p))
    assert not hasattr(cimatrix.verifier, "det_cofactor")
    assert verify_suite(n).passed
    assert builds == [n] and expansions == []
    assert evaluations == [[[e.evaluate(range(1, n + 1)) for e in row]
                            for row in symbolic_ci_matrix(n).entries]]
    assert sorted(moves, key=str) == [(1, 2)] * n * (n - 1) + ["cycle"] * n * n


def test_a_ci_matrix_suite_at_n7_identifies_nothing(monkeypatch):
    # The column certificate settles every merge at n=7: nothing is
    # identified.
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
    result = verify_first_node_zero_block(bad, True, Fraction(1))
    assert not result.passed
    assert result.witness == "trailing block is not the CI-matrix of the remaining nodes"


def test_first_node_zero_block_fails_on_a_wrong_corner():
    n = 4
    matrix = symbolic_ci_matrix(n)
    u2 = variables(n)[1]
    bad = with_entry(matrix, 1, 1, matrix.entry(1, 1) + u2)
    result = verify_first_node_zero_block(bad, True, Fraction(1))
    assert not result.passed
    assert result.witness == "(1,1) entry is not the product of the remaining nodes"


def test_first_node_zero_block_fails_on_a_wrong_determinant():
    # Row 1 doubled keeps steps (a) and (b), so the proof reads D = 2V, and
    # 2V does not factor as (u2*...*un) * V(u2..un).
    matrix = copies()["doubled"]
    checks, report = suite_on(matrix)
    assert report.extracted_constant == 2
    result = verify_first_node_zero_block(matrix, True, report.extracted_constant)
    assert result == checks["first-node-zero-block"]
    assert not result.passed
    assert result.witness == ("(1,1) entry is not the product of the remaining nodes; "
                              "determinant does not factor through the trailing block")
    assert result == reference_first_node(matrix, det_cofactor(matrix))


def test_first_node_zero_block_fails_on_a_nonzero_trailing_entry():
    n = 4
    matrix = symbolic_ci_matrix(n)
    _, u2, u3, _ = variables(n)
    bad = with_entry(matrix, 1, 2, matrix.entry(1, 2) + u2 * u3)
    result = verify_first_node_zero_block(bad, True, Fraction(1))
    assert result.passed is False
    assert result.witness == "first row has a nonzero trailing entry"


def test_first_node_zero_block_names_the_step_it_could_not_read():
    matrix = symbolic_ci_matrix(3)
    for permutes, step in [(False, "column certificate fails"), (True, "row degrees fail")]:
        result = verify_first_node_zero_block(matrix, permutes, None)
        assert result.passed is False
        assert result.witness == f"factorization unproven: {step}"


def test_row_degrees_names_an_inhomogeneous_entry():
    n = 3
    matrix = symbolic_ci_matrix(n)
    u1, u2, _ = variables(n)
    result = verify_row_degrees(with_entry(matrix, 2, 1, matrix.entry(2, 1) + u1 * u2))
    assert result.passed is False
    assert result.witness == "(2,1) degrees [1, 2]"


def test_equal_columns_fails_on_a_determinant_that_survives():
    # The bottom row (2, 1, 1) leaves a determinant that u2 := u1 keeps; the
    # column certificate fails, so equal-columns fails and names it.
    n = 3
    matrix = with_entry(symbolic_ci_matrix(n), 3, 1, MultiPoly.constant(n, 2))
    assert not det_cofactor(matrix).identify_variables(1, 2).is_zero
    assert _permutes_columns(matrix) is False
    result = verify_equal_column_vanish(n, False, 1, 2)
    assert result.passed is False
    assert result.witness == "unproven: column certificate fails"
    assert checks_of(matrix)["equal-columns(1,2)"] == result


def test_equal_columns_fail_on_a_determinant_that_does_not_alternate():
    # diag(u3, u2 - u1, 1) has determinant (u2 - u1) * u3: u2 := u1 kills it,
    # u3 := u1 and u3 := u2 do not.  The certificate fails, so every pair
    # fails and names it.
    n = 3
    u1, u2, u3 = variables(n)
    zero, one = MultiPoly.zero(n), MultiPoly.one(n)
    matrix = replace(symbolic_ci_matrix(n), entries=(
        (u3, zero, zero), (zero, u2 - u1, zero), (zero, zero, one)))
    det = det_cofactor(matrix)
    assert det == (u2 - u1) * u3
    pairs = [(1, 2), (1, 3), (2, 3)]
    assert [identify_both(matrix, det, i, j).passed for i, j in pairs] == [False] * 3
    assert [det.identify_variables(i, j).is_zero for i, j in pairs] == [True, False, False]
    checks = checks_of(matrix)
    assert {checks[f"equal-columns({i},{j})"].witness for i, j in pairs} == {
        "unproven: column certificate fails"}


def test_equal_columns_fails_on_columns_that_differ():
    n = 3
    matrix = symbolic_ci_matrix(n)
    u3 = variables(n)[2]
    bad = with_entry(matrix, 2, 1, matrix.entry(2, 1) + u3)
    assert _permutes_columns(bad) is False
    assert identify_both(bad, vandermonde_product(n), 1, 2).witness == (
        "columns 1 and 2 differ after identification")
    result = verify_equal_column_vanish(n, _permutes_columns(bad), 1, 2)
    assert result.passed is False
    assert result.witness == "unproven: column certificate fails"


@pytest.mark.parametrize("n", range(1, 11))
def test_the_column_certificate_holds_on_every_ci_matrix(n):
    assert _permutes_columns(symbolic_ci_matrix(n)) is True


def test_the_column_certificate_reads_only_entries_of_the_matrix_arity():
    # Constant entries in 2 variables pass both generators of S_2, but the
    # size-3 identification u3 := u1 does not exist for them: it raises, and
    # the certificate fails.
    one = MultiPoly.one(2)
    matrix = cimatrix.matrix.CIMatrix(3, (), ((one,) * 3,) * 3)
    assert _permutes_columns(matrix) is False
    with pytest.raises(ValueError, match="out of range"):
        identify_both(matrix, vandermonde_product(3), 1, 3)
    assert verify_equal_column_vanish(3, False, 1, 3).witness == "unproven: column certificate fails"


def copies():
    """The size-4 CI-matrix intact, with one entry perturbed within its
    degree, with columns 2 and 3 swapped and with one entry of the wrong
    degree; a matrix whose rows are all the cycle's orbit of
    f = u2^2*u3 + u3^2*u4 + u4^2*u2, which passes u1 <-> u2 on columns 1
    and 2 and the cycle, but whose columns 3 and 4 u1 <-> u2 moves; and
    three copies that keep the column certificate: row 1 doubled (D = 2V),
    row 3 set to e1 times row 4 (D = 0), and row 1 times e1, which leaves
    row 1 of degree 4 (D = e1*V)."""
    n = 4
    matrix = symbolic_ci_matrix(n)
    _, u2, u3, u4 = variables(n)
    e1 = elem_sym_all(variables(n))[1]
    orbit = [u2 * u2 * u3 + u3 * u3 * u4 + u4 * u4 * u2]
    while len(orbit) < n:
        orbit.append(orbit[-1].cycle_variables())
    rows = matrix.entries
    return {
        "intact": matrix,
        "perturbed": with_entry(matrix, 3, 2, matrix.entry(3, 2) + u3),
        "swapped": replace(matrix, entries=tuple(
            (row[0], row[2], row[1]) + row[3:] for row in matrix.entries)),
        "wrong-degree": with_entry(matrix, 2, 4, matrix.entry(2, 4) * u2),
        "orbit": replace(matrix, entries=(tuple(orbit),) * n),
        "doubled": with_rows(matrix, [[x * 2 for x in rows[0]]] + list(rows[1:])),
        "singular": with_rows(matrix, list(rows[:2]) + [[e1 * x for x in rows[3]], rows[3]]),
        "times-e1": with_rows(matrix, [[e1 * x for x in rows[0]]] + list(rows[1:])),
    }


COPIES = ["intact", "perturbed", "swapped", "wrong-degree", "orbit", "doubled", "singular",
          "times-e1"]

# The step each copy's proof fails at, as determinant-identity names it: the
# column certificate (a), the row degrees (b), or the constant (d).
PREDICTED = {
    "intact": "constant=1 difference=0",
    "perturbed": "unproven: column certificate fails",
    "swapped": "unproven: column certificate fails",
    "wrong-degree": "unproven: column certificate fails",
    "orbit": "unproven: column certificate fails",
    "doubled": "constant=2 difference=nonzero",
    "singular": "constant=0 difference=nonzero",
    "times-e1": "unproven: row degrees fail",
}


def checks_of(matrix):
    return suite_on(matrix)[0]


@pytest.mark.parametrize("name", COPIES)
def test_each_copy_fails_at_the_predicted_step(name):
    matrix = copies()[name]
    checks, report = suite_on(matrix)
    assert checks["determinant-identity"].witness == PREDICTED[name]
    assert report.passed is (name == "intact")
    proven = PREDICTED[name].startswith("constant=")
    assert (report.extracted_constant is not None) is proven
    assert checks["row-degrees"].passed is (name not in ("wrong-degree", "orbit", "times-e1"))
    if proven:
        # Where the proof holds, its constant is the expansion's: D = c*V.
        assert det_cofactor(matrix) == vandermonde_product(4) * report.extracted_constant


@pytest.mark.parametrize("name", COPIES)
def test_equal_columns_give_the_identification_verdict_on_every_copy(name):
    # Where the column certificate holds, equal-columns gives the verdict and
    # witness of identifying the copy's own expansion and columns; where it
    # fails, every pair fails and names it, whatever identification gives.
    n = 4
    matrix = copies()[name]
    det = det_cofactor(matrix)
    permutes = _permutes_columns(matrix)
    assert permutes is (name in ("intact", "doubled", "singular", "times-e1"))
    results = {(i, j): verify_equal_column_vanish(n, permutes, i, j)
               for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    references = {(i, j): identify_both(matrix, det, i, j) for i, j in results}
    if permutes:
        assert results == references
    else:
        assert {result.witness for result in results.values()} == {
            "unproven: column certificate fails"}
    assert all(result.passed for result in results.values()) is permutes


@pytest.mark.parametrize("name", COPIES)
def test_first_node_zero_block_reads_the_identity_verdict_on_every_copy(name):
    # Checks (a)-(c) read the matrix; (d) reads the constant.  Where the
    # proof gives one, the check is the one that computes (d) from the
    # expansion; where it does not, (d) fails and names the failed step.
    matrix = copies()[name]
    checks, report = suite_on(matrix)
    result = checks["first-node-zero-block"]
    reference = reference_first_node(matrix, det_cofactor(matrix))
    if report.extracted_constant is not None:
        assert result == reference
    else:
        assert not result.passed
        assert result.witness.endswith("factorization " + PREDICTED[name])
    assert result.passed is (name == "intact")


@pytest.mark.parametrize("name", COPIES)
def test_a_suite_on_a_copy_gives_the_verdicts_of_the_uncertified_checks(name):
    # The reference checks expand the copy's determinant and identify, reading
    # no certificate.  Where the proof holds, the suite gives their verdicts
    # and witnesses; everywhere, a check that passes passes in the reference.
    matrix = copies()[name]
    checks, report = suite_on(matrix)
    references = reference_checks(matrix)
    for check_name, reference in references.items():
        if checks[check_name].passed:
            assert reference.passed, check_name
        if report.extracted_constant is not None:
            assert checks[check_name] == reference, check_name


def test_a_failing_copy_exits_3_with_one_line(capsys, monkeypatch):
    # The symbolic build at one size is replaced by a copy that fails; the run
    # ends in exit 3, every report on stdout and one stderr line.  Size 10 is
    # above the cofactor expansion's cap: no failure falls back to it.
    build = cimatrix.verifier.symbolic_ci_matrix
    for size, bad in ((4, copies()["perturbed"]), (10, None)):
        if bad is None:
            matrix = build(size)
            bad = with_entry(matrix, 2, 3, matrix.entry(2, 3) + variables(size)[0])
        monkeypatch.setattr(cimatrix.verifier, "symbolic_ci_matrix",
                            lambda n, size=size, bad=bad: bad if n == size else build(n))
        assert cimatrix.cli.main(["verify", "--max-n", str(size)]) == 3
        out, err = capsys.readouterr()
        assert f"[FAIL] n={size} determinant-identity unproven: column certificate fails" in out
        assert err.startswith(f"verification failed at n={size}: determinant-identity, homogeneity, ")
        assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("n", range(2, 8))
def test_first_node_zero_block_reads_the_identity_verdict_of_the_suite(n):
    matrix = symbolic_ci_matrix(n)
    report = verify_suite(n)
    checks = {check.name: check for check in report.checks}
    assert checks["determinant-identity"].passed
    result = verify_first_node_zero_block(matrix, True, report.extracted_constant)
    assert result == checks["first-node-zero-block"] and result.passed
    assert result == reference_first_node(matrix, det_cofactor(matrix))


def test_determinant_identity_fails_on_a_zero_expansion():
    matrix = copies()["singular"]
    assert det_cofactor(matrix).is_zero
    checks, report = suite_on(matrix)
    assert report.extracted_constant == 0
    result = verify_determinant_identity(True, report.extracted_constant)
    assert result == checks["determinant-identity"]
    assert result.passed is False
    assert result.witness == "constant=0 difference=nonzero"
    assert checks["homogeneity"].witness == "degree set [] expected [6]"


def elementary(n):
    return elem_sym_all(variables(n))


def fed_matrices(n):
    """The size-n CI-matrix and copies that keep steps (a) and (b): a row
    scaled by a constant, a row plus a symmetric multiple of a lower row of
    the right degree (which keeps D), and a row replaced by such a multiple
    (which makes D = 0)."""
    matrix = symbolic_ci_matrix(n)
    rows = [list(row) for row in matrix.entries]
    e = elementary(n)
    yield matrix
    for c in (2, -1, Fraction(-1, 3)):
        yield with_rows(matrix, [[x * c for x in rows[0]]] + rows[1:])
    for h, lower in combinations(range(n), 2):
        multiple = [e[lower - h] * x for x in rows[lower]]
        yield with_rows(matrix, rows[:h] + [[x + y for x, y in zip(rows[h], multiple)]]
                        + rows[h + 1:])
        yield with_rows(matrix, rows[:h] + [multiple] + rows[h + 1:])


@pytest.mark.parametrize("n", range(1, 6))
def test_determinant_identity_matches_the_expansion_on_fed_determinants(n):
    # On copies that keep the proof's first two steps, the verdict and the
    # constant are the expansion's: D = c*V with c = D/V, and D = V only where
    # c = 1.
    verdicts = []
    for matrix in fed_matrices(n):
        checks, report = suite_on(matrix)
        det = det_cofactor(matrix)
        assert report.extracted_constant == multiple_of_v(n, det) is not None
        identity = checks["determinant-identity"]
        assert identity == reference_checks(matrix)["determinant-identity"]
        verdicts.append(identity.passed)
    assert verdicts.count(True) == 1 + n * (n - 1) // 2  # intact, and each row plus a multiple


@pytest.mark.parametrize("n", range(1, 7))
def test_the_point_constant_is_the_expansion_over_v(n):
    matrix = symbolic_ci_matrix(n)
    det, v = det_cofactor(matrix), vandermonde_product(n)
    constant = verify_suite(n).extracted_constant
    assert det == v * constant and constant == 1


@st.composite
def fed_term_maps(draw):
    """A size-1..4 CI-matrix with rows scaled, symmetric multiples of lower
    rows added, and, in some draws, a random term map added to one entry."""
    n = draw(st.integers(1, 4))
    rows = [list(row) for row in symbolic_ci_matrix(n).entries]
    e = elementary(n)
    scalars = st.sampled_from([1, 1, 2, -1, Fraction(1, 3), 0])
    for h in range(n):
        c = draw(scalars)
        rows[h] = [x * c for x in rows[h]]
        for lower in range(h + 1, n):
            c = draw(scalars)
            rows[h] = [x + e[lower - h] * y * c for x, y in zip(rows[h], rows[lower])]
    if draw(st.booleans()):
        h, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[h][k] = rows[h][k] + MultiPoly(n, draw(st.dictionaries(
            st.tuples(*[st.integers(0, n - 1)] * n),
            st.fractions(-3, 3, max_denominator=3),
            max_size=3,
        )))
    return with_rows(symbolic_ci_matrix(n), rows)


@given(fed_term_maps())
@example(copies()["times-e1"])
@example(copies()["swapped"])
def test_determinant_identity_matches_the_expansion_on_random_term_maps(matrix):
    # Every pass is a pass of the reference checks, and where the proof gives a
    # constant, D = c*V and every check is the reference's.
    checks, report = suite_on(matrix)
    references = reference_checks(matrix)
    for name, reference in references.items():
        assert reference.passed or not checks[name].passed, name
    if report.extracted_constant is not None:
        assert det_cofactor(matrix) == vandermonde_product(matrix.n) * report.extracted_constant
        assert all(checks[name] == reference for name, reference in references.items())


def adjacent_swaps_alternate(n, det):
    """Every adjacent swap u_k <-> u_(k+1), k < n, negates ``det``."""
    return all(det.swap_variables(k, k + 1) == -det for k in range(1, n))


def adjacent_swaps_permute_columns(matrix):
    """Every adjacent swap (k k+1) maps column k onto column k+1 and fixes the
    other columns: the reference for the column certificate."""
    n = matrix.n
    return all(
        row[k - 1].swap_variables(k, k + 1) == row[k]
        and all(entry.swap_variables(k, k + 1) == entry
                for c, entry in enumerate(row, 1) if c not in (k, k + 1))
        for row in matrix.entries for k in range(1, n))


def test_each_generator_alone_lets_a_counterexample_through():
    # Columns 1 and 2 exchanged pass the swap but not the cycle; the columns
    # rotated by one pass the cycle but not the swap.  Only both generators
    # give the adjacent swaps' verdict.
    matrix = symbolic_ci_matrix(3)
    rows = matrix.entries
    swap_only = with_rows(matrix, [(row[1], row[0], row[2]) for row in rows])
    cycle_only = with_rows(matrix, [(row[1], row[2], row[0]) for row in rows])
    for copy in (swap_only, cycle_only):
        cycle_holds = all(row[k].cycle_variables() == row[(k + 1) % 3]
                          for row in copy.entries for k in range(3))
        swap_holds = all(row[0].swap_variables(1, 2) == row[1]
                         and row[2].swap_variables(1, 2) == row[2] for row in copy.entries)
        assert (swap_holds, cycle_holds) == ((True, False) if copy is swap_only else (False, True))
        assert _permutes_columns(copy) is adjacent_swaps_permute_columns(copy) is False
    assert _permutes_columns(matrix) is adjacent_swaps_permute_columns(matrix) is True


@pytest.mark.parametrize("n", [2, 4, 6])
def test_the_cycle_negates_an_alternating_determinant_of_even_size(n):
    det = vandermonde_product(n) * Fraction(-2, 3)
    assert det.cycle_variables() == -det
    assert adjacent_swaps_alternate(n, det)


def test_a_cold_suite_never_expands_the_vandermonde_product(monkeypatch):
    calls = []
    monkeypatch.setattr(cimatrix.verifier, "vandermonde_product",
                        lambda n: calls.append(n) or vandermonde_product(n))
    for n in range(1, 9):
        assert verify_suite(n).passed
    assert calls == []


def test_first_node_zero_block_needs_size_two():
    with pytest.raises(ValueError):
        verify_first_node_zero_block(symbolic_ci_matrix(1), True, Fraction(1))


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
