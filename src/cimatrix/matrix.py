"""CI-matrix construction, closed-form determinant, and determinant oracles.

The CI-matrix (controllability intermixing matrix) of nodes (x1, ..., xn)
is the n x n matrix whose (h, k) entry is e_{n-h} of the nodes with node k
removed: row 1 carries the degree-(n-1) leave-one-out products, the bottom
row is all ones.  Its determinant equals the pairwise-difference product
prod_{i<j} (xj - xi), which ``det_closed_form`` evaluates in O(n^2)
without forming the matrix.

``build_ci_matrix`` has one path per scalar domain: exact nodes deflate
one shared ``elem_sym_all`` table into n columns, float nodes take the
vectorized ``leave_one_out_table_float`` and keep it as a read-only
float64 array, with no per-entry Python objects.  Float arithmetic that
overflows on finite nodes raises ``NumericalError``, never returns inf/nan.
Rational nodes x_i = p_i / q_i never do Fraction arithmetic: both sides of
the identity are int polynomial products over a product of denominators,
so the build deflates int coefficients and ``det_closed_form`` multiplies
int gaps, and each result is one Fraction (or an int, on all-int nodes).

Three independent determinant oracles witness that identity:

* ``det_bareiss`` -- fraction-free elimination, exact over int/Fraction:
  each row is cleared of denominators and the rows are eliminated smallest
  first, so the whole recurrence runs on ints;
* ``det_lu`` -- partial-pivot LU over floats: one LAPACK ``getrf`` in
  ``lu_logdet``, whose (sign, log|det|) form stays finite for sizes where
  the plain value would overflow;
* ``det_cofactor`` -- memoized Laplace expansion for polynomial entries,
  at most O(n * 2^n) ring multiplies (only the minors it reaches are
  formed), guarded by a size cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .multipoly import variables
from .scalars import (
    abs_value,
    exact_div,
    is_exact,
    one_like,
    sum_of_products,
    zero_like,
)
from .symfunc import elem_sym_all, elem_sym_leave_one_out, leave_one_out_table_float


class SizeCapError(ValueError):
    """Raised when an exponential-cost operation exceeds its size cap."""


class NumericalError(ArithmeticError):
    """Raised when float arithmetic on finite input leaves the finite range."""


@dataclass(frozen=True, eq=False)
class CIMatrix:
    """A CI-matrix together with the nodes it was built from.

    ``entries[h-1][k-1]`` is the (h, k) entry; rows are indexed 1..n top to
    bottom, columns 1..n, matching the node order.  Exact entries are a
    tuple of row tuples; float entries are an (n, n) float64 ``ndarray``,
    which the matrix marks read-only when it takes it.
    """

    n: int
    nodes: tuple
    entries: tuple | np.ndarray

    def __post_init__(self) -> None:
        if isinstance(self.entries, np.ndarray):
            self.entries.flags.writeable = False

    def __eq__(self, other) -> bool:
        if not isinstance(other, CIMatrix):
            return NotImplemented
        if isinstance(self.entries, np.ndarray) or isinstance(other.entries, np.ndarray):
            same_entries = bool(np.array_equal(self.entries, other.entries))
        else:
            same_entries = self.entries == other.entries
        return self.n == other.n and self.nodes == other.nodes and same_entries

    def entry(self, h: int, k: int):
        return self.entries[h - 1][k - 1]

    def column(self, k: int) -> tuple:
        return tuple(row[k - 1] for row in self.entries)


def _rational_parts(nodes: Sequence) -> tuple[list[int], list[int], bool] | None:
    """Numerators p_i and denominators q_i of int/Fraction nodes
    x_i = p_i / q_i, and whether any node is a Fraction; None for any other
    node list (floats, polynomials, or a bool among the nodes)."""
    has_fraction = False
    for x in nodes:
        if isinstance(x, Fraction):
            has_fraction = True
        elif not isinstance(x, int) or isinstance(x, bool):
            return None
    return [x.numerator for x in nodes], [x.denominator for x in nodes], has_fraction


def build_ci_matrix(nodes: Sequence) -> CIMatrix:
    """Construct the CI-matrix of the given nodes.

    Exact scalars deflate one shared full table (O(n^2) ring operations
    total); a node list with any float node (``scalars.is_exact``) is a
    float list, which recomputes every column stably, all columns at once.
    Rational nodes p_i / q_i deflate on ints: column k holds
    Q_k * e_m(x without k) with Q_k = prod_{i != k} q_i, and each entry
    becomes ``Fraction(b, Q_k)``.  All-int nodes give int entries; any
    Fraction node gives Fraction entries.
    """
    n = len(nodes)
    if n == 0:
        raise ValueError("node list must not be empty")
    parts = _rational_parts(nodes)
    if parts is None and not is_exact(nodes):
        table = leave_one_out_table_float(nodes)
        if not np.all(np.isfinite(table)):
            raise NumericalError("float CI-matrix build: an entry is not finite")
        # Row h holds e_{n-h}: the table's rows, bottom to top.
        return CIMatrix(n, tuple(float(x) for x in nodes), table[::-1])
    numerators, denominators, has_fraction = (nodes, None, False) if parts is None else parts
    full = elem_sym_all(numerators, denominators)
    columns = [
        elem_sym_leave_one_out(numerators, k, full_table=full, denominators=denominators)
        for k in range(1, n + 1)
    ]
    if has_fraction:
        # b_0 = Q_k: the bottom row comes out as 1.
        columns = [[Fraction(b, column[0]) for b in column] for column in columns]
    entries = tuple(
        tuple(columns[k][n - h] for k in range(n)) for h in range(1, n + 1)
    )
    return CIMatrix(n, tuple(nodes), entries)


def symbolic_ci_matrix(n: int) -> CIMatrix:
    """CI-matrix over the symbolic nodes u1..un."""
    if n < 1:
        raise ValueError("need at least one node")
    return build_ci_matrix(variables(n))


def det_closed_form(nodes: Sequence):
    """Pairwise-difference product prod_{i<j} (nodes[j] - nodes[i]).

    This is the CI-determinant, evaluated in O(n^2) scalar operations
    straight from the nodes; the matrix is never formed.  Rational nodes
    p_i / q_i multiply the int gaps p_j q_i - p_i q_j in a balanced product
    tree and divide once by prod_i q_i^(n-1): an int for all-int nodes, a
    Fraction if any node is one.  Other scalars multiply the differences in
    order.
    """
    n = len(nodes)
    if n == 0:
        raise ValueError("node list must not be empty")
    parts = _rational_parts(nodes)
    if parts is not None:
        p, q, has_fraction = parts
        gaps = [p[j] * q[i] - p[i] * q[j] for i in range(n) for j in range(i + 1, n)]
        det = 0 if 0 in gaps else _product(gaps)
        return Fraction(det, _product(q) ** (n - 1)) if has_fraction else det
    det = one_like(nodes[0])
    for i in range(n):
        for j in range(i + 1, n):
            det = det * (nodes[j] - nodes[i])
    return det


def _product(factors: list[int]) -> int:
    """Product of ints by pairs, level by level: the large multiplies get
    operands of like size, which a one-at-a-time fold never does."""
    while len(factors) > 1:
        paired = [a * b for a, b in zip(factors[::2], factors[1::2])]
        if len(factors) % 2:
            paired.append(factors[-1])
        factors = paired
    return factors[0] if factors else 1


def _rows(matrix) -> list[list]:
    rows = matrix.entries if isinstance(matrix, CIMatrix) else matrix
    rows = [list(row) for row in rows]
    if not rows:
        raise ValueError("empty matrix")
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    return rows


def det_bareiss(matrix):
    """Exact determinant by fraction-free (Bareiss) elimination over int.

    Entries must be int or Fraction; anything else raises TypeError.  Row h
    is first scaled by the lcm L_h of its denominators, so the elimination
    runs on ints and det(M) = det(M') / prod L_h.  The rows are then
    stably sorted by the bit length of their largest |entry|, smallest
    first, and the permutation's sign is folded back in: every interior
    entry of the elimination is a minor of the leading rows, so small rows
    first keep those entries small (on a CI-matrix the all-ones row leads).
    Every interior division is exact and checked.  All-int input gives an
    int; any Fraction entry gives a Fraction.
    """
    rows = _rows(matrix)
    n = len(rows)
    has_fraction = False
    scale = 1
    cleared = []
    for row in rows:
        for x in row:
            if isinstance(x, Fraction):
                has_fraction = True
            elif not isinstance(x, int) or isinstance(x, bool):
                raise TypeError(f"Bareiss needs int or Fraction entries, got {type(x).__name__}")
        lcm = math.lcm(*(x.denominator for x in row))
        scale *= lcm
        cleared.append([x.numerator * (lcm // x.denominator) for x in row])
    order = sorted(range(n), key=lambda h: max(abs(x) for x in cleared[h]).bit_length())
    sign = permutation_sign(order)
    m = [cleared[h] for h in order]
    prev = 1
    for k in range(n - 1):
        pivot_row = next((r for r in range(k, n) if m[r][k] != 0), None)
        if pivot_row is None:
            return Fraction(0) if has_fraction else 0
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        top = m[k]
        pivot = top[k]
        for i in range(k + 1, n):
            row = m[i]
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = exact_div(row[j] * pivot - lead * top[j], prev)
            row[k] = 0
        prev = pivot
    det = sign * m[n - 1][n - 1]
    return Fraction(det, scale) if has_fraction else det


def det_lu(matrix) -> float:
    """Float determinant by LU with partial pivoting: ``sign * exp(log|det|)``
    from :func:`lu_logdet`, so an exactly singular matrix gives 0.0.  Its
    relative error is about ``|log|det|| * eps``, 1e-13 near 1e+-300."""
    sign, logabs = lu_logdet(matrix)
    # An overflow gives inf here, which the caller reports once as an error.
    with np.errstate(over="ignore"):
        return sign * float(np.exp(logabs))


def lu_logdet(matrix) -> tuple[int, float]:
    """(sign, log|det|) by one LAPACK LU with partial pivoting (``getrf``,
    through ``np.linalg.slogdet``, which factors its own copy).  The log
    form stays finite where the plain value would overflow; an exactly
    singular matrix gives (0, -inf), and an elimination that leaves the
    finite range on finite input raises ``NumericalError``.
    """
    a = np.asarray(matrix.entries if isinstance(matrix, CIMatrix) else matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError("matrix is not square")
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite matrix entry")
    # A non-finite result is reported once, as the error below, not as warnings.
    with np.errstate(all="ignore"):
        sign, logabs = np.linalg.slogdet(a)
    if sign == 0.0:
        return 0, float("-inf")
    if not math.isfinite(logabs):
        raise NumericalError("LU factorization: log|det| is not finite")
    return int(sign), float(logabs)


# Rows of the pair triangle that ``closed_form_logdet`` forms at a time.
_PAIR_BLOCK = 32


def closed_form_logdet(nodes: Sequence[float]) -> tuple[int, float]:
    """(sign, log|det|) of the pairwise-difference product, vectorized.

    O(n^2) work on the nodes alone; the counterpart of :func:`lu_logdet`
    for benchmark-scale sizes.  The differences x_j - x_i, i < j, are laid
    out row by row (i outer, the order of ``np.triu_indices``) and summed
    in one ``np.sum``, so the result does not depend on the block size;
    rows are formed ``_PAIR_BLOCK`` at a time, so no temporary but the
    differences themselves grows past ``_PAIR_BLOCK`` x n.
    """
    x = np.asarray(nodes, dtype=float)
    if x.ndim != 1 or x.shape[0] == 0:
        raise ValueError("node list must not be empty")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite float node")
    n = x.shape[0]
    diffs = np.empty(n * (n - 1) // 2)
    columns = np.arange(n - 1)
    # right[r, c]: in a block that starts at row a, node a+1+c lies right of node a+r.
    right = columns[None, :] >= columns[:_PAIR_BLOCK, None]
    start = 0
    for a in range(0, n - 1, _PAIR_BLOCK):
        b = min(a + _PAIR_BLOCK, n - 1)
        rows = (x[a + 1 :] - x[a:b, None])[right[: b - a, : n - 1 - a]]
        diffs[start : start + rows.size] = rows
        start += rows.size
    sign = -1 if int(np.count_nonzero(diffs < 0.0)) % 2 else 1
    magnitudes = np.abs(diffs, out=diffs)
    if not magnitudes.all():
        return 0, float("-inf")
    return sign, float(np.sum(np.log(magnitudes, out=magnitudes)))


def det_cofactor(matrix, size_cap: int = 7):
    """Determinant by Laplace expansion with column-subset memoization.

    Works over any ring (no division), so this is the oracle of choice for
    polynomial entries.  The minor on the bottom ``size`` rows and a column
    subset expands along its top row: each nonzero entry, signed by its
    position in the subset, times the minor without its column.  That sum
    of products is one ``sum_of_products`` call, which a polynomial ring
    sums in one term map and int, Fraction and float fold in column order.
    Only the minors that expansion reaches are formed (``_reached_minors``),
    so a zero entry prunes every minor below it that only it would read.
    Cost is at most O(n * 2^n) ring multiplies, hence the cap.
    """
    m = _rows(matrix)
    n = len(m)
    if n > size_cap:
        raise SizeCapError(f"cofactor expansion capped at size {size_cap}, got {n}")
    zero = zero_like(m[0][0])
    # Entry c of each row with sign + and -, or None where it is zero.
    signed_rows = [[None if x == zero else (x, -x) for x in row] for row in m]
    minors = {0: one_like(m[0][0])}
    for signed, masks in zip(reversed(signed_rows), reversed(_reached_minors(signed_rows))):
        next_minors = {}
        for mask in masks:
            cols = [c for c in range(n) if mask >> c & 1]
            next_minors[mask] = sum_of_products(
                [
                    (signed[c][position & 1], minors[mask ^ (1 << c)])
                    for position, c in enumerate(cols)
                    if signed[c] is not None
                ],
                zero,
            )
        minors = next_minors
    return minors[(1 << n) - 1]


def _reached_minors(rows: list[list]) -> list[set[int]]:
    """Column masks of the minors the expansion of ``det_cofactor`` reads,
    given its rows with None for every zero entry: entry t holds the masks
    of size n - t, minors on rows t..n-1.  The full mask is read; a minor
    one row down is read if some read minor drops one of its columns at a
    nonzero entry of its top row."""
    n = len(rows)
    reached = [{(1 << n) - 1}]
    for row in rows[:-1]:
        nonzero = [1 << c for c in range(n) if row[c] is not None]
        reached.append({mask ^ bit for mask in reached[-1] for bit in nonzero if mask & bit})
    return reached


@dataclass
class DetReport:
    """Closed form vs oracle, with the observed discrepancy."""

    closed_form: object
    oracle: object
    oracle_kind: str  # "bareiss" | "lu"
    discrepancy: object
    exact: bool

    def agrees(self, rel_tol: float = 1e-8) -> bool:
        if self.exact:
            return self.discrepancy == 0
        scale = max(abs(self.closed_form), abs(self.oracle))
        return abs(self.discrepancy) <= rel_tol * scale if scale else True


def compare_determinants(nodes: Sequence, oracle_kind: str) -> DetReport:
    """Evaluate the closed form and the requested oracle on the same nodes."""
    if oracle_kind == "bareiss":
        closed = det_closed_form(nodes)
        oracle = det_bareiss(build_ci_matrix(nodes))
        return DetReport(closed, oracle, "bareiss", closed - oracle, exact=True)
    if oracle_kind == "lu":
        try:
            floats = [float(x) for x in nodes]
        except OverflowError:
            floats = None
        # A nonzero node that rounds to 0.0 does not fit either.
        if floats is None or any(f == 0.0 and x != 0 for f, x in zip(floats, nodes)):
            raise NumericalError("float nodes: a node does not fit in a float")
        closed = det_closed_form(floats)
        if not math.isfinite(closed):
            raise NumericalError("float closed form: the product is not finite")
        oracle = det_lu(build_ci_matrix(floats))
        if not math.isfinite(oracle):
            raise NumericalError("LU determinant: the value is not finite")
        return DetReport(closed, oracle, "lu", closed - oracle, exact=False)
    raise ValueError(f"unknown oracle {oracle_kind!r}")


@dataclass
class DualityResidual:
    """Worst-case residuals of the signed power-sum identity (below)."""

    max_offdiag: object
    max_diag_rel: object
    scale: object  # largest |term| seen; normalizes float off-diagonals


def vandermonde_duality_residual(nodes: Sequence, matrix: CIMatrix | None = None) -> DualityResidual:
    """Check that CI columns are alternating coefficient vectors.

    Column k of the CI-matrix holds, up to alternating signs, the
    coefficients of p_k(t) = prod_{i != k} (t - x_i).  Evaluating that sum
    at every node gives

        sum_{h=1}^{n} (-1)^{n-h} * x_j^{h-1} * M[h][k]
            = 0                          for j != k,
            = prod_{i != k} (x_k - x_i)  for j == k.

    Off-diagonal residuals are exactly zero over exact scalars; the
    diagonal is compared against the directly computed product.
    """
    n = len(nodes)
    if n == 0:
        raise ValueError("node list must not be empty")
    if matrix is None:
        matrix = build_ci_matrix(nodes)
    zero = zero_like(nodes[0])
    one = one_like(nodes[0])
    max_offdiag = abs_value(zero)
    max_diag_rel = abs_value(zero)
    scale = abs_value(one)
    for j in range(1, n + 1):
        powers = [one]
        for _ in range(n - 1):
            powers.append(powers[-1] * nodes[j - 1])
        for k in range(1, n + 1):
            total = zero
            for h in range(1, n + 1):
                term = powers[h - 1] * matrix.entry(h, k)
                total = total - term if (n - h) % 2 else total + term
                magnitude = abs_value(term)
                if magnitude > scale:
                    scale = magnitude
            if j == k:
                expected = one
                for i in range(1, n + 1):
                    if i != k:
                        expected = expected * (nodes[j - 1] - nodes[i - 1])
                diff = abs_value(total - expected)
                if expected == zero:
                    rel = diff
                elif diff == abs_value(zero):
                    rel = abs_value(zero)
                else:
                    rel = diff / abs_value(expected)
                if rel > max_diag_rel:
                    max_diag_rel = rel
            else:
                magnitude = abs_value(total)
                if magnitude > max_offdiag:
                    max_offdiag = magnitude
    return DualityResidual(max_offdiag, max_diag_rel, scale)


def permutation_sign(perm: Sequence[int]) -> int:
    """Sign of a permutation given as a 0-based index sequence."""
    inversions = 0
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                inversions += 1
    return -1 if inversions % 2 else 1
