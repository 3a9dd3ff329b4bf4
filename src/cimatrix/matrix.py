"""CI-matrix construction, closed-form determinant, and determinant oracles.

The CI-matrix (controllability intermixing matrix) of nodes (x1, ..., xn)
is the n x n matrix whose (h, k) entry is e_{n-h} of the nodes with node k
removed: row 1 carries the degree-(n-1) leave-one-out products, the bottom
row is all ones.  Its determinant equals the pairwise-difference product
prod_{i<j} (xj - xi), which ``det_closed_form`` evaluates in O(n^2)
without forming the matrix.

``_rational_parts`` is the one rule that picks a kernel: it reads int,
Fraction and finite float nodes as x_i = p_i / q_i (a float is a dyadic
rational) and names the result type.  ``build_ci_matrix`` reverses the
rows of one leave-one-out table: exact nodes deflate (on ints for p/q
nodes), and float nodes keep the numpy table as a read-only float64
array, with no per-entry Python objects.  ``det_closed_form`` multiplies
the int gaps of every number node list, and rounds once on float nodes;
polynomial nodes take ``scalars.difference_product``.  Float results
that overflow on finite nodes raise ``NumericalError`` where they happen
(the float build, the float ``det_closed_form``, ``lu_logdet`` and
``det_lu``), never return inf/nan; so does a float build in which a
product underflows, instead of returning a flushed entry.

Three independent determinant oracles witness that identity:

* ``det_bareiss`` -- fraction-free elimination, exact over int/Fraction:
  each row is cleared of denominators, the rows are eliminated smallest
  first by gcd-reduced cross-multiplication, and each new row is divided
  by the gcd of its entries, so the recurrence runs on primitive int rows
  and the scale is two tracked ints; on a CI-matrix the rows stay near the
  size of the input's entries, not of the full minors;
* ``det_lu`` -- partial-pivot LU over floats: one LAPACK ``getrf`` in
  ``lu_logdet``, whose (sign, log|det|) form stays finite for sizes where
  the plain value would overflow, and ``det_lu`` refuses such a value;
* ``det_cofactor`` -- generalized Laplace expansion for polynomial
  entries: the column-subset minors of the top (n-1)//2 rows and of the
  bottom rows, memoized, joined in one sum of products; a dense
  polynomial result has n! terms, so ``COFACTOR_CAP`` guards it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np

from .multipoly import variables
from .scalars import difference_product, exact_div, ring_identities, sum_of_products
from .symfunc import elem_sym_leave_one_out, leave_one_out_table_float

# Largest ``symbolic_ci_matrix`` size: row h has C(n-1, n-h) terms per entry,
# so the work grows about 5x per two added nodes; n=12 takes about 0.3 s.
SYMBOLIC_CAP = 12
# Largest ``det_cofactor`` size: a dense polynomial determinant has n! terms; the
# size-9 symbolic CI-matrix expands in about 1 s and 0.1 GB, and n=10 holds 10x.
COFACTOR_CAP = 9


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

    def entry(self, h: int, k: int):
        return self.entries[h - 1][k - 1]

    def column(self, k: int) -> tuple:
        return tuple(row[k - 1] for row in self.entries)


def _rational_parts(nodes: Sequence) -> tuple[tuple[int, ...], tuple[int, ...], type] | None:
    """Numerators p_i and denominators q_i of int, Fraction and float nodes
    x_i = p_i / q_i (``as_integer_ratio``: a finite float is a dyadic
    rational), and the type of the result: float if any node is a float,
    else Fraction if any node is one, else int.  This is the one rule that
    picks a kernel.  None for any other node list (polynomials, or a bool
    among the nodes); a non-finite float node raises ValueError."""
    kind = int
    for x in nodes:
        if isinstance(x, float):
            kind = float
        elif isinstance(x, Fraction):
            kind = kind if kind is float else Fraction
        elif not isinstance(x, int) or isinstance(x, bool):
            return None
    try:
        ratios = [x.as_integer_ratio() for x in nodes]
    except (OverflowError, ValueError):
        raise ValueError("non-finite float node") from None
    p, q = zip(*ratios)
    return p, q, kind


def build_ci_matrix(nodes: Sequence) -> CIMatrix:
    """Construct the CI-matrix of the given nodes.

    One kernel call gives the leave-one-out table T[m][k-1] = e_m(x without
    k), and row h of the matrix is row n-h of the table.  Exact scalars
    deflate one shared full table (O(n^2) ring operations); a node list
    with any float node (``_rational_parts``) is a float list, which
    recomputes every column stably.  Rational nodes p_i / q_i deflate on
    ints: column k holds Q_k * e_m(x without k) with Q_k = prod_{i != k}
    q_i, and each entry becomes ``Fraction(b, Q_k)``.  All-int nodes give
    int entries; any Fraction node gives Fraction entries.
    """
    n = len(nodes)
    if n == 0:
        raise ValueError("node list must not be empty")
    parts = _rational_parts(nodes)
    if parts is not None and parts[2] is float:
        try:
            table = leave_one_out_table_float(nodes)
        except FloatingPointError:
            raise NumericalError("float CI-matrix build: an entry underflowed") from None
        if not np.all(np.isfinite(table)):
            raise NumericalError("float CI-matrix build: an entry is not finite")
        nodes = [float(x) for x in nodes]
    else:
        numerators, denominators, kind = (nodes, None, None) if parts is None else parts
        table = elem_sym_leave_one_out(numerators, denominators)
        if kind is Fraction:
            # Row 0 holds Q_k: the bottom row comes out as 1.
            table = [[Fraction(b, q) for b, q in zip(row, table[0])] for row in table]
        table = tuple(map(tuple, table))
    # Row h holds e_{n-h}: the table's rows, bottom to top.
    return CIMatrix(n, tuple(nodes), table[::-1])


def symbolic_ci_matrix(n: int) -> CIMatrix:
    """CI-matrix over the symbolic nodes u1..un; a size below 1 (``ValueError``)
    or above ``SYMBOLIC_CAP`` (``SizeCapError``) is refused before any build."""
    if n < 1:
        raise ValueError(f"symbolic CI-matrix size must be at least 1, got {n}")
    if n > SYMBOLIC_CAP:
        raise SizeCapError(f"symbolic CI-matrix capped at size {SYMBOLIC_CAP}, got {n}")
    return build_ci_matrix(variables(n))


def det_closed_form(nodes: Sequence):
    """Pairwise-difference product prod_{i<j} (nodes[j] - nodes[i]).

    This is the CI-determinant, evaluated in O(n^2) scalar operations
    straight from the nodes; the matrix is never formed.  Number nodes
    p_i / q_i (``_rational_parts``) multiply the int gaps p_j q_i - p_i q_j
    in a balanced product tree and divide once by prod_i q_i^(n-1): an int
    for all-int nodes, a Fraction if any node is one, and for any float node
    the exact value rounded once to a float (``NumericalError`` if it
    overflows, refused from the gaps' log2 sum where that is sure).
    Polynomial nodes take ``scalars.difference_product``.
    """
    n = len(nodes)
    if n == 0:
        raise ValueError("node list must not be empty")
    parts = _rational_parts(nodes)
    if parts is None:
        return difference_product(nodes)
    p, q, kind = parts
    gaps = [p[j] * q[i] - p[i] * q[j] for i in range(n) for j in range(i + 1, n)]
    scale = _product(q) ** (n - 1)
    if kind is float and 0 not in gaps:
        # Where it fires, |det| > 2^1024 * scale: log2 |det| >= bound - margin, and the
        # margin dwarfs log2's rounding, a few units of 2^-52 * (1 + log2|g|) per gap.
        bound = math.fsum(map(math.log2, map(abs, gaps)))
        if bound - (bound + len(gaps)) * 2**-40 - scale.bit_length() >= 1024:
            raise NumericalError("float closed form: the product is not finite")
    det = 0 if 0 in gaps else _product(gaps)
    if kind is float:
        try:
            return det / scale  # int true division rounds correctly
        except OverflowError:
            raise NumericalError("float closed form: the product is not finite") from None
    return Fraction(det, scale) if kind is Fraction else det


def _product(factors: Sequence[int]) -> int:
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
    """Exact determinant by fraction-free elimination on primitive int rows.

    Entries must be int or Fraction; anything else raises TypeError.  Row h
    is first scaled by the lcm L_h of its denominators, so the elimination
    runs on ints and det(M) = det(M') / prod L_h.  The rows are then stably
    sorted by the bit length of their largest |entry|, smallest first (on a
    CI-matrix the all-ones row leads), and the permutation's sign is kept.
    Each step replaces row i by a*row_i - b*row_k, with a = pivot / gcd(pivot,
    lead) and b = lead / gcd(pivot, lead), and divides the new row by its
    content c, the gcd of its entries; a row whose lead is 0 stays as it is.
    Two ints track the scale, num = sign * prod(pivots) * prod(c) and den =
    prod(L_h) * prod(a), in lowest terms after each step; det = num * last /
    den.  Every division is by a gcd, exact and checked.  A held row is the
    Bareiss row over its content, never larger: on the nodes 1..48 none
    outgrows the input's 206-bit entries, where Bareiss's minors reach the
    4004 bits of the answer.  All-int input gives an int (ArithmeticError if
    the result is not integral); any Fraction entry gives a Fraction.
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
    # m holds the trailing block: from step k on, each row keeps columns k..
    m = [cleared[h] for h in order]
    num, den = permutation_sign(order), scale
    for k in range(n - 1):
        pivot_row = next((r for r in range(k, n) if m[r][0] != 0), None)
        if pivot_row is None:
            return Fraction(0) if has_fraction else 0
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            num = -num
        pivot, *top = m[k]
        num *= pivot
        for i in range(k + 1, n):
            lead, *row = m[i]
            if lead:
                g = math.gcd(pivot, lead)
                a, b = exact_div(pivot, g), exact_div(lead, g)
                row = [a * x - b * y for x, y in zip(row, top)]
                c = math.gcd(*row)
                if c == 0:
                    return Fraction(0) if has_fraction else 0
                if c != 1:
                    row = [exact_div(x, c) for x in row]
                num *= c
                den *= a
            m[i] = row
        t = math.gcd(num, den)  # else dense input piles up the contents and the a's
        num, den = exact_div(num, t), exact_div(den, t)
    num *= m[n - 1][0]
    return Fraction(num, den) if has_fraction else exact_div(num, den)


def det_lu(matrix) -> float:
    """Float determinant by LU with partial pivoting: ``sign * exp(log|det|)``
    from :func:`lu_logdet`, so an exactly singular matrix gives 0.0.  Its
    relative error is about ``|log|det|| * eps``, 1e-13 near 1e+-300.  A
    value beyond the float range raises ``NumericalError``, not inf."""
    sign, logabs = lu_logdet(matrix)
    # An overflow is reported once, as the error below, not as a warning.
    with np.errstate(over="ignore"):
        det = sign * float(np.exp(logabs))
    if not math.isfinite(det):
        raise NumericalError("LU determinant: the value is not finite")
    return det


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


def _subset_minors(rows: list[list], n: int, zero, one) -> dict:
    """Every minor of ``rows`` (k of them, n columns) on a k-subset of the
    columns, keyed by column bitmask.

    The minor on the bottom ``size`` rows and a column subset expands along
    its top row: each nonzero entry, signed by its position in the subset,
    times the minor without its column.  That sum of products is one
    ``sum_of_products`` call, which a polynomial ring sums in one term map
    and int, Fraction and float fold in column order.
    """
    k = len(rows)
    minors = {0: one}
    for size in range(1, k + 1):
        # Entry c with sign + and -, or None where it is zero.
        signed = [None if x == zero else (x, -x) for x in rows[k - size]]
        next_minors = {}
        for cols in combinations(range(n), size):
            mask = 0
            for c in cols:
                mask |= 1 << c
            next_minors[mask] = sum_of_products(
                [
                    (signed[c][position & 1], minors[mask ^ (1 << c)])
                    for position, c in enumerate(cols)
                    if signed[c] is not None
                ],
                zero,
            )
        minors = next_minors
    return minors


def det_cofactor(matrix):
    """Determinant by generalized Laplace expansion along a row split.

    Works over any ring (no division), so this is the oracle of choice for
    polynomial entries.  The top t = (n-1)//2 rows and the bottom n-t rows
    each get every minor on a column subset of their size, by the memoized
    column-subset expansion of ``_subset_minors``; then

        det = sum over |S| = t of sign(S) * T_S * B_(S^c),

    where T_S is the top minor on columns S, B the bottom minor on the
    other columns, and sign(S) = (-1)^#{(c, d): c in S, d not in S, d < c}.
    The join is one ``sum_of_products`` call over the subsets S in
    ``combinations`` order.  Cost is O(2^n) minors of O(n) ring multiplies
    each, C(n, t) more for the join, and n! terms in a dense polynomial
    result: ``COFACTOR_CAP`` refuses a larger size before any minor.
    """
    m = _rows(matrix)
    n = len(m)
    if n > COFACTOR_CAP:
        raise SizeCapError(f"cofactor expansion capped at size {COFACTOR_CAP}, got {n}")
    zero, one = ring_identities(m[0][0])
    t = (n - 1) // 2
    top, bottom = _subset_minors(m[:t], n, zero, one), _subset_minors(m[t:], n, zero, one)
    full = (1 << n) - 1
    pairs = []
    for cols in combinations(range(n), t):
        mask = sum(1 << c for c in cols)
        # Column c_i of S passes c_i - i columns outside S.
        minor = top[mask]
        if (sum(cols) - t * (t - 1) // 2) & 1:
            minor = -minor
        pairs.append((minor, bottom[full ^ mask]))
    return sum_of_products(pairs, zero)


@dataclass
class DualityResidual:
    """Worst-case residuals of the signed power-sum identity (below)."""

    max_offdiag: object
    max_diag_rel: object
    scale: object  # largest |term| seen; normalizes float off-diagonals


def vandermonde_duality_residual(nodes: Sequence) -> DualityResidual:
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
    matrix = build_ci_matrix(nodes)
    zero, one = ring_identities(nodes[0])
    max_offdiag = abs(zero)
    max_diag_rel = abs(zero)
    scale = abs(one)
    for j in range(1, n + 1):
        powers = [one]
        for _ in range(n - 1):
            powers.append(powers[-1] * nodes[j - 1])
        for k in range(1, n + 1):
            total = zero
            for h in range(1, n + 1):
                term = powers[h - 1] * matrix.entry(h, k)
                total = total - term if (n - h) % 2 else total + term
                magnitude = abs(term)
                if magnitude > scale:
                    scale = magnitude
            if j == k:
                expected = one
                for i in range(1, n + 1):
                    if i != k:
                        expected = expected * (nodes[j - 1] - nodes[i - 1])
                diff = abs(total - expected)
                if expected == zero:
                    rel = diff
                elif isinstance(diff, int):
                    rel = Fraction(diff, abs(expected))  # exact on int nodes
                else:
                    rel = diff / abs(expected)
                if rel > max_diag_rel:
                    max_diag_rel = rel
            else:
                magnitude = abs(total)
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
