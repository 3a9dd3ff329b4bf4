"""Elementary symmetric polynomial kernels.

Given nodes (x1, ..., xn), e_m denotes the m-th elementary symmetric
polynomial: the sum of all products of m distinct nodes, with e_0 = 1.
``elem_sym_all`` evaluates the full set via the one-pass insertion
recurrence (O(n^2) ring operations).  Each scalar domain then has one
leave-one-out kernel:

* exact scalars (int, Fraction, MultiPoly) deflate: ``elem_sym_leave_one_out``
  runs the synthetic division recurrence
  e_m(without k) = e_m(all) - x_k * e_{m-1}(without k), O(n) per node given
  the full table, with no rounding to fear;
* floats recompute on the reduced node set, because deflation subtracts
  nearly equal quantities.  ``leave_one_out_table_float`` does this for
  every node at once with numpy and backs the float matrix builder;
  ``elem_sym_leave_one_out`` on floats is the same recurrence one column at
  a time, bit for bit.

Node indices are 1-based throughout the public interface.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .scalars import is_exact, one_like, zero_like


def _check_nodes(nodes: Sequence) -> int:
    n = len(nodes)
    if n == 0:
        raise ValueError("node list must not be empty")
    return n


def elem_sym_all(nodes: Sequence) -> list:
    """All elementary symmetric polynomials of the nodes: [e_0, ..., e_n]."""
    n = _check_nodes(nodes)
    one = one_like(nodes[0])
    zero = zero_like(nodes[0])
    e = [one] + [zero] * n
    for inserted, x in enumerate(nodes, start=1):
        for m in range(inserted, 0, -1):
            e[m] = e[m] + x * e[m - 1]
    return e


def elem_sym_leave_one_out(
    nodes: Sequence,
    k: int,
    full_table: Sequence | None = None,
) -> list:
    """[e_0, ..., e_{n-1}] of the nodes with node k (1-based) removed.

    ``full_table`` lets callers share one ``elem_sym_all`` result across all
    n deflated columns, which is what makes a whole-matrix build O(n^2).
    Float nodes ignore it and recompute.
    """
    n = _check_nodes(nodes)
    if not 1 <= k <= n:
        raise ValueError(f"node index {k} out of range 1..{n}")
    if not is_exact(nodes[0]):
        remaining = list(nodes[: k - 1]) + list(nodes[k:])
        if not remaining:
            return [one_like(nodes[0])]
        return elem_sym_all(remaining)[:n]
    if full_table is None:
        full_table = elem_sym_all(nodes)
    x = nodes[k - 1]
    out = [one_like(nodes[0])]
    for m in range(1, n):
        out.append(full_table[m] - x * out[m - 1])
    return out


def leave_one_out_table_float(nodes: Sequence[float]) -> np.ndarray:
    """Leave-one-out table for float nodes.

    Returns an (n, n) array T with T[m, k-1] = e_m of the nodes without
    node k.  Every column runs the insertion recurrence over its own n-1
    nodes: inserting node i advances all columns in one slice update, then
    column i, which must not see node i, gets its old values back.  Column
    k-1 is bit for bit ``elem_sym_leave_one_out(nodes, k)``: both apply the
    same recurrence to the same values in the same order.
    """
    x = np.asarray(nodes, dtype=float)
    n = x.shape[0]
    if n == 0:
        raise ValueError("node list must not be empty")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite float node")
    table = np.zeros((n, n))
    table[0, :] = 1.0
    for i in range(n):
        top = min(i + 1, n - 1)
        skipped = table[: top + 1, i].copy()
        table[1 : top + 1] += x[i] * table[:top]
        table[: top + 1, i] = skipped
    return table
