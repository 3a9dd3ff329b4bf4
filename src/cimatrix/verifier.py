"""Mechanical verification of the CI-determinant identity.

The suite proves that D, the determinant of the symbolic CI-matrix M over
u1..un, equals V = prod_{i<j} (u_j - u_i), from three facts about M and
without expanding D:

(a) The column certificate: u1 <-> u2 and u_i -> u_(i+1 mod n), which
    generate S_n, each map every column k onto column g(k).  Such g form a
    subgroup, so every g permutes M's columns and g(D) = sgn(g)*D: D
    alternates.  (i j) maps column i onto column j, and u_j := u_i, which
    (i j) leaves alone, merges them.
(b) Row h is homogeneous of degree n-h, so D is 0 or homogeneous of degree
    n(n-1)/2.
(c) Over Q an alternating polynomial is V times a symmetric one (Macdonald,
    *Symmetric Functions and Hall Polynomials*, ch. I §3); by (b) that one
    is a constant: D = c*V.
(d) c = D(1..n) / V(1..n), D(1..n) the Bareiss determinant of M evaluated
    at u_i := i.  c != 0 gives the degree set {n(n-1)/2}; c = 1 gives D = V,
    and with it V's factorization after u1 := 0.

Only ``verify_suite`` builds and proves: it takes the three facts once per
size (c only where (a) and (b) hold, since elsewhere the point value is not
c), and each check reads the ones it is given.  A check whose fact fails
fails, with a witness naming the failed step; it never falls back to another
computation, so every PASS is a proven fact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import matrix as matrix_module
from .matrix import (
    CIMatrix,
    build_ci_matrix,
    det_closed_form,
    symbolic_ci_matrix,
    vandermonde_duality_residual,
)
# Unused: kept as the call site that perfbench/spans.py rebinds and traces.
from .multipoly import MultiPoly, vandermonde_product
from .scalars import rational_to_string


@dataclass
class CheckResult:
    name: str
    passed: bool
    witness: str

    def line(self, n: int) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] n={n} {self.name} {self.witness}"


@dataclass
class VerificationReport:
    """All checks run at one size, plus the extracted determinant constant."""

    n: int
    checks: list[CheckResult] = field(default_factory=list)
    extracted_constant: Fraction | None = None

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def lines(self) -> list[str]:
        return [check.line(self.n) for check in self.checks]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "passed": self.passed,
            "extracted_constant": (
                None
                if self.extracted_constant is None
                else rational_to_string(self.extracted_constant)
            ),
            "checks": [
                {"name": c.name, "passed": c.passed, "witness": c.witness}
                for c in self.checks
            ],
        }


def _permutes_columns(matrix: CIMatrix) -> bool:
    """Step (a), the column certificate (module docstring), of the size-n
    ``matrix``, whose entries must be polynomials in n variables."""
    n, rows = matrix.n, matrix.entries
    return all(entry.nvars == n for row in rows for entry in row) and all(
        (n < 2 or (row[0].swap_variables(1, 2) == row[1]
                   and all(entry.swap_variables(1, 2) == entry for entry in row[2:])))
        and all(row[k].cycle_variables() == row[(k + 1) % n] for k in range(n))
        for row in rows)


def _unproven(permutes: bool) -> str:
    """Witness of a fact not reached: c is taken only where (a) and (b) hold."""
    return "unproven: " + ("row degrees fail" if permutes else "column certificate fails")


def verify_homogeneity(n: int, permutes: bool, constant: Fraction | None) -> CheckResult:
    """The size-n determinant D = c*V is homogeneous of total degree n(n-1)/2
    where its ``constant`` c is nonzero, and 0 where c is; c is None where
    step (a), ``permutes``, or step (b) failed."""
    expected = [n * (n - 1) // 2]
    witness = (_unproven(permutes) if constant is None
               else f"degree set {expected if constant else []} expected {expected}")
    return CheckResult("homogeneity", bool(constant), witness)


def verify_row_degrees(matrix: CIMatrix) -> CheckResult:
    """Step (b): every entry of row h of the size-n ``matrix`` is homogeneous
    of total degree n-h."""
    n = matrix.n
    bad: list[str] = []
    for h in range(1, n + 1):
        expected = {n - h}
        for k in range(1, n + 1):
            degrees = matrix.entry(h, k).total_degrees()
            if degrees != expected:
                bad.append(f"({h},{k}) degrees {sorted(degrees)}")
    witness = "all rows homogeneous" if not bad else "; ".join(bad)
    return CheckResult("row-degrees", not bad, witness)


def verify_equal_column_vanish(n: int, permutes: bool, i: int, j: int) -> CheckResult:
    """Identifying nodes i and j kills the size-n determinant and merges
    columns i and j: both follow from step (a), ``permutes``."""
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= n, got i={i} j={j} n={n}")
    witness = f"u{j}:=u{i} kills det, columns merge" if permutes else _unproven(False)
    return CheckResult(f"equal-columns({i},{j})", permutes, witness)


def verify_determinant_identity(permutes: bool, constant: Fraction | None) -> CheckResult:
    """The determinant equals the pairwise-difference product V: D = c*V,
    and c is ``constant`` (None where step (a), ``permutes``, or step (b)
    failed), so D = V exactly when c = 1."""
    passed = constant == 1
    witness = (_unproven(permutes) if constant is None else
               f"constant={rational_to_string(constant)} difference={'0' if passed else 'nonzero'}")
    return CheckResult("determinant-identity", passed, witness)


def verify_first_node_zero_block(
    matrix: CIMatrix, permutes: bool, constant: Fraction | None
) -> CheckResult:
    """Structure of the size-n CI-matrix ``matrix``, n >= 2, after
    substituting u1 := 0.

    Checks (a) the (1,1) entry is the product of the remaining nodes,
    (b) the rest of the first row vanishes, (c) the trailing block is the
    CI-matrix of the remaining nodes, and (d) the determinant factors as
    that product times the pairwise-difference product of the remaining
    nodes.  (d) reads the determinant's ``constant`` c, as
    ``verify_determinant_identity`` does: D = c*V, and V(u1 := 0) is that
    factored product, so (d) holds exactly when c = 1.
    """
    size = matrix.n
    if size < 2:
        raise ValueError(f"size must be at least 2, got {size}")
    first = [entry.substitute(1, 0) for entry in matrix.entries[0]]
    block = [[entry.substitute(1, 0) for entry in row[1:]] for row in matrix.entries[1:]]
    tail = matrix.nodes[1:]  # u2..u_size, still in the size-variable ring
    prefactor = MultiPoly.one(size)
    for u in tail:
        prefactor = prefactor * u

    failures: list[str] = []
    if first[0] != prefactor:
        failures.append("(1,1) entry is not the product of the remaining nodes")
    if any(not entry.is_zero for entry in first[1:]):
        failures.append("first row has a nonzero trailing entry")
    expected_block = build_ci_matrix(tail)
    if [list(row) for row in expected_block.entries] != block:
        failures.append("trailing block is not the CI-matrix of the remaining nodes")
    if constant is None:
        failures.append("factorization " + _unproven(permutes))
    elif constant != 1:
        failures.append("determinant does not factor through the trailing block")
    witness = (
        "u1:=0 gives (product, 0...) first row, CI block, factored determinant"
        if not failures
        else "; ".join(failures)
    )
    return CheckResult("first-node-zero-block", not failures, witness)


def verify_duality_probe(n: int) -> CheckResult:
    """Exact duality residual at the integer probe nodes (1, ..., n)."""
    residual = vandermonde_duality_residual(list(range(1, n + 1)))
    passed = residual.max_offdiag == 0 and residual.max_diag_rel == 0
    witness = (
        f"offdiag={rational_to_string(residual.max_offdiag)} "
        f"diag_rel={rational_to_string(residual.max_diag_rel)}"
    )
    return CheckResult("duality", passed, witness)


def verify_suite(n: int) -> VerificationReport:
    """Everything checkable at one size: the determinant identity and the
    first-node block factorization that reduces it to the previous size,
    plus homogeneity, row degrees, all equal-node identifications, and the
    duality probe.  ``symbolic_ci_matrix`` refuses a size below 1 or above
    ``SYMBOLIC_CAP`` before any build."""
    matrix = symbolic_ci_matrix(n)
    permutes, rows = _permutes_columns(matrix), verify_row_degrees(matrix)
    constant, point = None, list(range(1, n + 1))
    if permutes and rows.passed:  # step (d): c = D(1..n) / V(1..n)
        values = [[entry.evaluate(point) for entry in row] for row in matrix.entries]
        constant = Fraction(matrix_module.det_bareiss(values)) / det_closed_form(point)
    report = VerificationReport(n=n, extracted_constant=constant)
    report.checks += [verify_determinant_identity(permutes, constant),
                      verify_homogeneity(n, permutes, constant), rows]
    report.checks += [verify_equal_column_vanish(n, permutes, i, j)
                      for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if n >= 2:
        report.checks.append(verify_first_node_zero_block(matrix, permutes, constant))
    report.checks.append(verify_duality_probe(n))
    return report
