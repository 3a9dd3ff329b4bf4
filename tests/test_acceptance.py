"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines alongside the pytest verdicts.
"""

import random
import time
from fractions import Fraction
from math import factorial

from conftest import (
    GOLDEN_N4_ENTRIES,
    identify_both,
    pretty_layout,
    random_distinct_fractions,
    reference_first_node,
)
from cimatrix.cli import MatrixDocument, draw_bench_nodes, run_bench
from cimatrix.matrix import (
    build_ci_matrix,
    det_bareiss,
    det_closed_form,
    det_cofactor,
    det_lu,
    permutation_sign,
    symbolic_ci_matrix,
    vandermonde_duality_residual,
)
from cimatrix.multipoly import vandermonde_product
from cimatrix.verifier import _permutes_columns, verify_row_degrees, verify_suite


def _report(number: int, text: str) -> None:
    print(f"[PASS] criterion {number}: {text}")


def test_criterion_1_symbolic_determinant_identity():
    start = time.perf_counter()
    for n in range(1, 7):
        det = det_cofactor(symbolic_ci_matrix(n))
        product = vandermonde_product(n)
        assert det == product, f"n={n}: determinant != pairwise-difference product"
        assert det.terms == product.terms
        assert len(det.terms) == factorial(n)
        assert all(abs(c) == 1 for c in det.terms.values())
        # The suite proves the identity without the expansion; the expansion
        # above is the independent cross-check.
        report = verify_suite(n)
        assert report.checks[0].passed and report.extracted_constant == Fraction(1)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"symbolic identity check took {elapsed:.1f}s"
    _report(1, f"det == product with constant 1 for n=1..6 in {elapsed:.2f}s")


def test_criterion_2_exact_oracle_equivalence():
    rng = random.Random(20260810)
    start = time.perf_counter()
    trials_per_n = 500
    for n in range(1, 11):
        for _ in range(trials_per_n):
            nodes = random_distinct_fractions(rng, n)
            closed = det_closed_form(nodes)
            oracle = det_bareiss(build_ci_matrix(nodes))
            assert closed == oracle  # exact equality, zero tolerance
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"oracle equivalence took {elapsed:.1f}s"
    _report(2, f"closed form == Bareiss on 500x10 random rational inputs in {elapsed:.1f}s")


def test_criterion_3_proof_step_suite():
    for n in range(1, 7):
        matrix = symbolic_ci_matrix(n)
        assert verify_suite(n).passed
        assert _permutes_columns(matrix)
        assert verify_row_degrees(matrix).passed
        # The suite's proof reads the column certificate and the point value;
        # here the expansion is checked for homogeneity, identified for every
        # column pair, and factored after u1 := 0, reading neither.
        det = det_cofactor(matrix)
        assert det.total_degrees() == {n * (n - 1) // 2}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                assert identify_both(matrix, det, i, j).passed
        if n >= 2:
            assert reference_first_node(matrix, det).passed
    _report(3, "homogeneity, row degrees, equal-node vanishing, first-node block for n=1..6")


def test_criterion_4_golden_pretty_n4():
    doc = MatrixDocument.from_matrix(symbolic_ci_matrix(4), "symbolic")
    assert doc.entries == GOLDEN_N4_ENTRIES
    assert doc.to_pretty() == pretty_layout(GOLDEN_N4_ENTRIES)
    _report(4, "symbolic n=4 pretty output matches the hand-written display entry-for-entry")


def test_criterion_5_permutation_antisymmetry():
    rng = random.Random(55)
    for _ in range(100):
        n = rng.randint(1, 8)
        nodes = random_distinct_fractions(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = [nodes[p] for p in perm]
        base = build_ci_matrix(nodes)
        shuffled = build_ci_matrix(permuted)
        for k in range(1, n + 1):
            assert shuffled.column(k) == base.column(perm[k - 1] + 1)
        assert det_closed_form(permuted) == permutation_sign(perm) * det_closed_form(nodes)
    _report(5, "column permutation structure and exact det sign over 100 random pairs, n<=8")


def test_criterion_6_duality_residual():
    rng = random.Random(66)
    for _ in range(100):
        n = rng.randint(1, 10)
        nodes = random_distinct_fractions(rng, n)
        residual = vandermonde_duality_residual(nodes)
        assert residual.max_offdiag == 0
        assert residual.max_diag_rel == 0
    for seed in range(100):
        n = seed % 8 + 1
        nodes = draw_bench_nodes(n, seed)
        residual = vandermonde_duality_residual(nodes)
        assert residual.max_offdiag / residual.scale < 1e-8
        assert residual.max_diag_rel < 1e-8
    _report(6, "exact duality zeros (rational, n<=10) and <1e-8 float residuals (n<=8)")


def test_criterion_7_float_agreement():
    for seed in range(200):
        n = seed % 8 + 1
        nodes = draw_bench_nodes(n, seed)  # min gap 0.1, magnitudes <= 2.7
        closed = det_closed_form(nodes)
        oracle = det_lu(build_ci_matrix(nodes))
        scale = max(abs(closed), abs(oracle))
        assert abs(closed - oracle) <= 1e-8 * scale
    _report(7, "closed form vs LU within relative 1e-8 over 200 seeded trials, n<=8")


def test_criterion_8_performance_gap():
    records, _ = run_bench([256], repeats=5, seed=7)
    closed = next(r for r in records if r.method == "closed_form")
    lu = next(r for r in records if r.method == "lu")
    ratio = lu.wall_time_s / closed.wall_time_s
    assert ratio >= 10.0, f"closed form only {ratio:.1f}x faster than LU at n=256"
    _report(
        8,
        f"n=256 closed form {closed.wall_time_s * 1e3:.3f} ms vs LU "
        f"{lu.wall_time_s * 1e3:.3f} ms ({ratio:.0f}x, median of 5)",
    )
