"""Mechanical verification of the CI-determinant identity.

Every check here is an exact polynomial computation over the symbolic
nodes u1..un: the determinant is expanded by the cofactor oracle and
compared, term map against term map, with the pairwise-difference
product and with the structural facts that force the two to coincide
(homogeneity, per-row degrees, vanishing under equal nodes, and the
block factorization after setting the first node to zero).  Sizes are
capped because the symbolic expansion has n! terms.

The vanishing under equal nodes reads one certificate per expansion D:
swapping u_k and u_(k+1) negates D for every k < n.  Adjacent swaps
generate S_n, so every transposition negates D, and u_j := u_i then
gives D = -D, which is 0 over Q.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .matrix import (
    CIMatrix,
    SizeCapError,
    build_ci_matrix,
    det_closed_form,
    det_cofactor,
    symbolic_ci_matrix,
    vandermonde_duality_residual,
)
from .multipoly import MultiPoly, vandermonde_product, variables
from .scalars import rational_to_string

DEFAULT_CAP = 6


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


def _check_cap(n: int, cap: int, minimum: int = 1) -> None:
    if n < minimum:
        raise ValueError(f"size must be at least {minimum}, got {n}")
    if n > cap:
        raise SizeCapError(f"size {n} exceeds verification cap {cap}")


@lru_cache(maxsize=32)
def _symbolic_matrix(n: int) -> CIMatrix:
    # Built once per size and shared by every check: the equal-column
    # checks alone would otherwise rebuild it n(n-1)/2 times.
    return symbolic_ci_matrix(n)


@lru_cache(maxsize=32)
def _symbolic_det(n: int) -> MultiPoly:
    # Shared across all checks at one size; the expansion is the expensive
    # part (n! terms), every check after it is linear in the term count.
    return det_cofactor(_symbolic_matrix(n), size_cap=n)


# Size -> (expansion, verdict); another expansion object is certified anew.
_alternation: dict[int, tuple[MultiPoly, bool]] = {}


def _alternates(n: int, det: MultiPoly) -> bool:
    """Whether every adjacent swap u_k <-> u_(k+1), k < n, negates ``det``."""
    if _alternation.get(n, (None,))[0] is not det:
        negated = -det
        _alternation[n] = det, all(det.swap_variables(k, k + 1) == negated for k in range(1, n))
    return _alternation[n][1]


def verify_homogeneity(n: int, cap: int = DEFAULT_CAP) -> CheckResult:
    """The symbolic determinant is homogeneous of total degree n(n-1)/2."""
    _check_cap(n, cap)
    degrees = _symbolic_det(n).total_degrees()
    expected = {n * (n - 1) // 2}
    return CheckResult(
        "homogeneity",
        degrees == expected,
        f"degree set {sorted(degrees)} expected {sorted(expected)}",
    )


def verify_row_degrees(n: int, cap: int = DEFAULT_CAP) -> CheckResult:
    """Every entry of row h is homogeneous of total degree n-h."""
    _check_cap(n, cap)
    matrix = _symbolic_matrix(n)
    bad: list[str] = []
    for h in range(1, n + 1):
        expected = {n - h}
        for k in range(1, n + 1):
            degrees = matrix.entry(h, k).total_degrees()
            if degrees != expected:
                bad.append(f"({h},{k}) degrees {sorted(degrees)}")
    witness = "all rows homogeneous" if not bad else "; ".join(bad)
    return CheckResult("row-degrees", not bad, witness)


def verify_equal_column_vanish(
    n: int, i: int, j: int, cap: int = DEFAULT_CAP
) -> CheckResult:
    """Identifying nodes i and j kills the determinant and merges the columns;
    the determinant half identifies only where ``_alternates`` fails."""
    _check_cap(n, cap)
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= n, got i={i} j={j} n={n}")
    det = _symbolic_det(n)
    det_ok = _alternates(n, det) or det.identify_variables(i, j).is_zero
    matrix = _symbolic_matrix(n)
    column_i = [entry.identify_variables(i, j) for entry in matrix.column(i)]
    column_j = [entry.identify_variables(i, j) for entry in matrix.column(j)]
    columns_ok = column_i == column_j
    parts = []
    if not det_ok:
        parts.append("determinant nonzero after identification")
    if not columns_ok:
        parts.append(f"columns {i} and {j} differ after identification")
    witness = f"u{j}:=u{i} kills det, columns merge" if not parts else "; ".join(parts)
    return CheckResult(f"equal-columns({i},{j})", det_ok and columns_ok, witness)


def verify_determinant_identity(
    n: int, cap: int = DEFAULT_CAP
) -> tuple[CheckResult, Fraction | None]:
    """The expanded determinant equals the pairwise-difference product.

    Redundant by design: the difference must be the zero polynomial AND the
    ratio of leading coefficients (the constant relating the two) must be 1.
    The difference is zero exactly when the two term maps are equal, which
    is what ``==`` compares, so it is never formed.
    """
    _check_cap(n, cap)
    det = _symbolic_det(n)
    product = vandermonde_product(n)
    if det.is_zero:
        return CheckResult("determinant-identity", False, "determinant expanded to 0"), None
    constant = det.leading_term()[1] / product.leading_term()[1]
    difference_zero = det == product
    passed = difference_zero and constant == 1
    witness = f"constant={rational_to_string(constant)} difference={'0' if difference_zero else 'nonzero'}"
    return CheckResult("determinant-identity", passed, witness), constant


def verify_first_node_zero_block(size: int, cap: int = DEFAULT_CAP) -> CheckResult:
    """Structure of the size-n CI-matrix after substituting u1 := 0.

    Checks (a) the (1,1) entry is the product of the remaining nodes,
    (b) the rest of the first row vanishes, (c) the trailing block is the
    CI-matrix of the remaining nodes, and (d) the determinant factors as
    that product times the pairwise-difference product of the remaining
    nodes.
    """
    _check_cap(size, cap, minimum=2)
    matrix = _symbolic_matrix(size)
    substituted = [
        [entry.substitute(1, 0) for entry in row] for row in matrix.entries
    ]
    tail = variables(size)[1:]  # u2..u_size, still in the size-variable ring
    prefactor = MultiPoly.one(size)
    for u in tail:
        prefactor = prefactor * u

    failures: list[str] = []
    if substituted[0][0] != prefactor:
        failures.append("(1,1) entry is not the product of the remaining nodes")
    if any(not substituted[0][k].is_zero for k in range(1, size)):
        failures.append("first row has a nonzero trailing entry")
    block = [row[1:] for row in substituted[1:]]
    expected_block = build_ci_matrix(tail)
    if [list(row) for row in expected_block.entries] != block:
        failures.append("trailing block is not the CI-matrix of the remaining nodes")
    # u1 := 0 is a ring homomorphism, so it commutes with the determinant:
    # substituting into the shared expansion is det of ``substituted``.
    det = _symbolic_det(size).substitute(1, 0)
    expected_det = prefactor * det_closed_form(tail)
    if det != expected_det:
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


def verify_suite(n: int, cap: int = DEFAULT_CAP) -> VerificationReport:
    """Everything checkable at one size: the determinant identity and the
    first-node block factorization that reduces it to the previous size,
    plus homogeneity, row degrees, all equal-node identifications, and the
    duality probe."""
    _check_cap(n, cap)
    report = VerificationReport(n=n)
    identity, constant = verify_determinant_identity(n, cap)
    report.checks.append(identity)
    report.extracted_constant = constant
    report.checks.append(verify_homogeneity(n, cap))
    report.checks.append(verify_row_degrees(n, cap))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            report.checks.append(verify_equal_column_vanish(n, i, j, cap))
    if n >= 2:
        report.checks.append(verify_first_node_zero_block(n, cap))
    report.checks.append(verify_duality_probe(n))
    return report
