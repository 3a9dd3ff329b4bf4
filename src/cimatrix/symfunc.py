"""Elementary symmetric polynomial kernels.

Given nodes (x1, ..., xn), e_m denotes the m-th elementary symmetric
polynomial: the sum of all products of m distinct nodes, with e_0 = 1.
``elem_sym_all`` evaluates the full set via the one-pass insertion
recurrence (O(n^2) ring operations).  Each scalar domain then has one
leave-one-out kernel, and each returns the whole table in one call, in one
layout: T[m][k-1] = e_m of the nodes without node k.

* exact scalars deflate: ``elem_sym_leave_one_out`` runs the synthetic
  division recurrence e_m(without k) = e_m(all) - x_k * e_{m-1}(without k)
  on one ``elem_sym_all`` table, a row for all k at a time, O(n^2) in all,
  with no rounding to fear.  Rational nodes x_i = p_i / q_i run the same
  two recurrences on ints: given the ``denominators`` q_i, the nodes are
  the numerators p_i, the full table holds the coefficients of
  prod_i (q_i + p_i t), and deflating node k divides out (q_k + p_k t)
  with exact, checked int divisions.  A node with q = 1 (every int,
  MultiPoly or ``denominators=None`` node) skips the multiply and the
  divide, which leaves the plain recurrences;
* floats recompute on the reduced node set, because deflation subtracts
  nearly equal quantities.  ``leave_one_out_table_float`` does this for
  every node at once with numpy and backs the float matrix builder.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .scalars import exact_div, ring_identities


def elem_sym_all(nodes: Sequence, denominators: Sequence[int] | None = None) -> list:
    """All elementary symmetric polynomials of the nodes: [e_0, ..., e_n].

    With ``denominators`` q_i, ``nodes`` are the int numerators p_i of
    x_i = p_i / q_i and the result is the coefficient list of
    prod_i (q_i + p_i t), lowest degree first: (prod_i q_i) * e_m(x).
    """
    n = len(nodes)
    if n == 0:
        raise ValueError("node list must not be empty")
    zero, one = ring_identities(nodes[0])
    e = [one] + [zero] * n
    for inserted, x in enumerate(nodes, start=1):
        q = 1 if denominators is None else denominators[inserted - 1]
        for m in range(inserted, 0, -1):
            e[m] = (e[m] if q == 1 else q * e[m]) + x * e[m - 1]
        if q != 1:
            e[0] = q * e[0]
    return e


def elem_sym_leave_one_out(nodes: Sequence, denominators: Sequence[int] | None = None) -> list:
    """Leave-one-out table for exact nodes, as ``leave_one_out_table_float``
    lays it out: n rows of n, T[m][k-1] = e_m of the nodes without node k.

    Row m deflates row m-1 against the one ``elem_sym_all`` table.  With
    ``denominators`` (as in ``elem_sym_all``), column k-1 holds the
    coefficients of prod_{i != k} (q_i + p_i t): (prod_{i != k} q_i) *
    e_m(x without k).
    """
    full = elem_sym_all(nodes, denominators)
    qs = [1] * len(nodes) if denominators is None else denominators
    table = [[full[0] if q == 1 else exact_div(full[0], q) for q in qs]]
    for e in full[1:-1]:
        deflated = [e - x * b for x, b in zip(nodes, table[-1])]
        table.append([b if q == 1 else exact_div(b, q) for b, q in zip(deflated, qs)])
    return table


def leave_one_out_table_float(nodes: Sequence[float]) -> np.ndarray:
    """Leave-one-out table for float nodes.

    Returns an (n, n) array T with T[m, k-1] = e_m of the nodes without
    node k.  Every column runs the insertion recurrence over its own n-1
    nodes: inserting node i advances all columns in one slice update, then
    column i, which must not see node i, gets its old values back.  Entries
    that overflow come back as inf or nan, without a numpy warning; the
    caller decides what a non-finite entry means.  A product that underflows
    (rounds to a subnormal or to 0) raises ``FloatingPointError``.
    """
    x = np.asarray(nodes, dtype=float)
    n = x.shape[0]
    if n == 0:
        raise ValueError("node list must not be empty")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite float node")
    table = np.zeros((n, n))
    table[0, :] = 1.0
    with np.errstate(over="ignore", invalid="ignore", under="raise"):
        for i in range(n):
            top = min(i + 1, n - 1)
            skipped = table[: top + 1, i].copy()
            table[1 : top + 1] += x[i] * table[:top]
            table[: top + 1, i] = skipped
    return table
