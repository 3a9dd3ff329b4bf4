"""Elementary symmetric polynomial kernels.

Given nodes (x1, ..., xn), e_m denotes the m-th elementary symmetric
polynomial: the sum of all products of m distinct nodes, with e_0 = 1.
``elem_sym_all`` evaluates the full set via the one-pass insertion
recurrence (O(n^2) ring operations).  Each scalar domain then has one
leave-one-out kernel:

* exact scalars deflate: ``elem_sym_leave_one_out`` runs the synthetic
  division recurrence e_m(without k) = e_m(all) - x_k * e_{m-1}(without k),
  O(n) per node given the full table, with no rounding to fear.  Rational
  nodes x_i = p_i / q_i run the same two recurrences on ints: given the
  ``denominators`` q_i, the nodes are the numerators p_i, the full table
  holds the coefficients of prod_i (q_i + p_i t), and deflating node k
  divides out (q_k + p_k t) with exact, checked int divisions.  A node
  with q = 1 (every int, MultiPoly or ``denominators=None`` node) skips
  the multiply and the divide, which leaves the plain recurrences;
* floats recompute on the reduced node set, because deflation subtracts
  nearly equal quantities.  ``leave_one_out_table_float`` does this for
  every node at once with numpy and backs the float matrix builder.

Node indices are 1-based throughout the public interface.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .scalars import exact_div, ring_identities


def _check_nodes(nodes: Sequence) -> int:
    n = len(nodes)
    if n == 0:
        raise ValueError("node list must not be empty")
    return n


def elem_sym_all(nodes: Sequence, denominators: Sequence[int] | None = None) -> list:
    """All elementary symmetric polynomials of the nodes: [e_0, ..., e_n].

    With ``denominators`` q_i, ``nodes`` are the int numerators p_i of
    x_i = p_i / q_i and the result is the coefficient list of
    prod_i (q_i + p_i t), lowest degree first: (prod_i q_i) * e_m(x).
    """
    n = _check_nodes(nodes)
    zero, one = ring_identities(nodes[0])
    e = [one] + [zero] * n
    for inserted, x in enumerate(nodes, start=1):
        q = 1 if denominators is None else denominators[inserted - 1]
        for m in range(inserted, 0, -1):
            e[m] = (e[m] if q == 1 else q * e[m]) + x * e[m - 1]
        if q != 1:
            e[0] = q * e[0]
    return e


def elem_sym_leave_one_out(
    nodes: Sequence,
    k: int,
    full_table: Sequence | None = None,
    denominators: Sequence[int] | None = None,
) -> list:
    """[e_0, ..., e_{n-1}] of the nodes with node k (1-based) removed.

    ``full_table`` lets callers share one ``elem_sym_all`` result across all
    n deflated columns, which is what makes a whole-matrix build O(n^2).
    With ``denominators`` (as in ``elem_sym_all``), the result is the
    coefficient list of prod_{i != k} (q_i + p_i t):
    (prod_{i != k} q_i) * e_m(x without k).
    """
    n = _check_nodes(nodes)
    if not 1 <= k <= n:
        raise ValueError(f"node index {k} out of range 1..{n}")
    if full_table is None:
        full_table = elem_sym_all(nodes, denominators)
    x = nodes[k - 1]
    q = 1 if denominators is None else denominators[k - 1]
    out = [full_table[0] if q == 1 else exact_div(full_table[0], q)]
    for m in range(1, n):
        b = full_table[m] - x * out[m - 1]
        out.append(b if q == 1 else exact_div(b, q))
    return out


def leave_one_out_table_float(nodes: Sequence[float]) -> np.ndarray:
    """Leave-one-out table for float nodes.

    Returns an (n, n) array T with T[m, k-1] = e_m of the nodes without
    node k.  Every column runs the insertion recurrence over its own n-1
    nodes: inserting node i advances all columns in one slice update, then
    column i, which must not see node i, gets its old values back.  Entries
    that overflow come back as inf or nan, without a numpy warning; the
    caller decides what a non-finite entry means.
    """
    x = np.asarray(nodes, dtype=float)
    n = x.shape[0]
    if n == 0:
        raise ValueError("node list must not be empty")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite float node")
    table = np.zeros((n, n))
    table[0, :] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            top = min(i + 1, n - 1)
            skipped = table[: top + 1, i].copy()
            table[1 : top + 1] += x[i] * table[:top]
            table[: top + 1, i] = skipped
    return table
