"""Mechanical verification of the CI-determinant identity.

Every check here is an exact polynomial computation over the symbolic
nodes u1..un: the determinant D is checked for the structural facts that
force D to equal the pairwise-difference product V (homogeneity, per-row
degrees, vanishing under equal nodes, the block factorization after
setting u1 := 0).  Only ``verify_suite`` builds and expands: per size it
builds the symbolic matrix once, expands D once by the cofactor oracle
(whose own cap refuses large sizes: D has n! terms), takes D's degree set
and two certificates, and each check reads the values it is given.

Both certificates read the generators u1 <-> u2 and u_i -> u_(i+1 mod n)
of S_n.  The alternation certificate: they multiply D by their signs -1
and (-1)^(n-1).  The g with g(D) = sgn(g)*D form a subgroup, so D
alternates, and u_j := u_i gives D = -D, which is 0 over Q.  Over Q an
alternating D of degree n(n-1)/2 is c*V for a constant c, and V leads with
u2*u3^2*...*un^(n-1) and coefficient 1, so D = V exactly when D does too.
The column certificate: each generator g maps every column k onto column
g(k).  Such g form a subgroup too, so (i j) maps column i onto column j,
and u_j := u_i, which (i j) leaves alone, merges them.  A certificate only
skips work: where it fails, a check computes what it would have settled,
so every verdict is the one that computation gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .matrix import (
    CIMatrix,
    build_ci_matrix,
    det_closed_form,
    det_cofactor,
    symbolic_ci_matrix,
    vandermonde_duality_residual,
)
# Unused: kept as the call site that perfbench/spans.py rebinds and traces.
from .multipoly import MultiPoly, vandermonde_product, variables
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


def _alternates(n: int, det: MultiPoly) -> bool:
    """Whether ``det``, in n variables, alternates: u1 <-> u2 negates it and the
    cycle u_i -> u_(i+1 mod n) multiplies it by (-1)^(n-1).  The cycle's k-th
    power conjugates the swap to u_(k+1) <-> u_(k+2): this is their verdict."""
    if n != det.nvars:
        raise ValueError(f"alternation in {n} variables asked of a polynomial in {det.nvars}")
    negated = -det  # the swapped map is freed before the cycled one is built
    return n < 2 or (det.swap_variables(1, 2) == negated
                     and det.cycle_variables() == (det if n % 2 else negated))


def _permutes_columns(matrix: CIMatrix) -> bool:
    """The column certificate (module docstring) of the size-n ``matrix``, whose
    entries must be polynomials in n variables."""
    n, rows = matrix.n, matrix.entries
    return all(entry.nvars == n for row in rows for entry in row) and all(
        (n < 2 or (row[0].swap_variables(1, 2) == row[1]
                   and all(entry.swap_variables(1, 2) == entry for entry in row[2:])))
        and all(row[k].cycle_variables() == row[(k + 1) % n] for k in range(n))
        for row in rows)


def verify_homogeneity(n: int, degrees: set[int]) -> CheckResult:
    """The size-n determinant, whose degree set is ``degrees``, is homogeneous
    of total degree n(n-1)/2."""
    expected = {n * (n - 1) // 2}
    return CheckResult(
        "homogeneity",
        degrees == expected,
        f"degree set {sorted(degrees)} expected {sorted(expected)}",
    )


def verify_row_degrees(matrix: CIMatrix) -> CheckResult:
    """Every entry of row h of the size-n ``matrix`` is homogeneous of total
    degree n-h."""
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


def verify_equal_column_vanish(
    matrix: CIMatrix, det: MultiPoly, alternates: bool, permutes: bool, i: int, j: int
) -> CheckResult:
    """Identifying nodes i and j kills ``det`` and merges columns i and j of
    ``matrix``; ``det`` is identified only where ``alternates``, its
    certificate, is false, and the columns only where ``permutes``, the
    matrix's column certificate, is."""
    n = matrix.n
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= n, got i={i} j={j} n={n}")
    det_ok = alternates or det.identify_variables(i, j).is_zero
    columns_ok = permutes or (
        [entry.identify_variables(i, j) for entry in matrix.column(i)]
        == [entry.identify_variables(i, j) for entry in matrix.column(j)])
    parts = []
    if not det_ok:
        parts.append("determinant nonzero after identification")
    if not columns_ok:
        parts.append(f"columns {i} and {j} differ after identification")
    witness = f"u{j}:=u{i} kills det, columns merge" if not parts else "; ".join(parts)
    return CheckResult(f"equal-columns({i},{j})", det_ok and columns_ok, witness)


def verify_determinant_identity(
    n: int, det: MultiPoly, alternates: bool, degrees: set[int]
) -> tuple[CheckResult, Fraction | None]:
    """The size-n determinant ``det`` equals the pairwise-difference product V;
    ``alternates`` is its alternation certificate and ``degrees`` its degree set.

    An alternating D of degree n(n-1)/2 is c*V, and c is D's leading
    coefficient because V's is 1.  So D = V exactly when D also leads with
    V's term u2*u3^2*...*un^(n-1), and V itself is never expanded.
    """
    if det.is_zero:
        return CheckResult("determinant-identity", False, "determinant expanded to 0"), None
    monomial, constant = det.leading_term()
    # Comparing the monomial first also turns away another arity.
    difference_zero = (monomial, constant) == (tuple(range(n)), 1) and (
        degrees == {n * (n - 1) // 2} and alternates)
    witness = f"constant={rational_to_string(constant)} difference={'0' if difference_zero else 'nonzero'}"
    return CheckResult("determinant-identity", difference_zero, witness), constant


def verify_first_node_zero_block(matrix: CIMatrix, det: MultiPoly, identity: bool) -> CheckResult:
    """Structure of the size-n CI-matrix ``matrix``, n >= 2, with expansion
    ``det``, after substituting u1 := 0.

    Checks (a) the (1,1) entry is the product of the remaining nodes,
    (b) the rest of the first row vanishes, (c) the trailing block is the
    CI-matrix of the remaining nodes, and (d) the determinant factors as
    that product times the pairwise-difference product of the remaining
    nodes.  (d) is computed only where ``identity``, the verdict that
    ``det`` is V, is false: V(u1 := 0) is that factored product.
    """
    size = matrix.n
    if size < 2:
        raise ValueError(f"size must be at least 2, got {size}")
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
    # substituting into the expansion is det of ``substituted``.
    if not identity and det.substitute(1, 0) != prefactor * det_closed_form(tail):
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
    duality probe.  The kernels refuse a size outside their caps before
    they work: ``symbolic_ci_matrix`` below 1 or above ``SYMBOLIC_CAP``,
    ``det_cofactor`` above ``COFACTOR_CAP``."""
    matrix = symbolic_ci_matrix(n)
    det = det_cofactor(matrix)
    alternates, degrees = _alternates(n, det), det.total_degrees()
    permutes = _permutes_columns(matrix)
    report = VerificationReport(n=n)
    identity, report.extracted_constant = verify_determinant_identity(n, det, alternates, degrees)
    report.checks.append(identity)
    report.checks.append(verify_homogeneity(n, degrees))
    report.checks.append(verify_row_degrees(matrix))
    report.checks += [verify_equal_column_vanish(matrix, det, alternates, permutes, i, j)
                      for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if n >= 2:
        report.checks.append(verify_first_node_zero_block(matrix, det, identity.passed))
    report.checks.append(verify_duality_probe(n))
    return report
