import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_distinct_fractions, recomputed_leave_one_out
from cimatrix.cli import draw_bench_nodes
from cimatrix.multipoly import variables
from cimatrix.symfunc import (
    elem_sym_all,
    elem_sym_leave_one_out,
    leave_one_out_table_float,
)


def test_elem_sym_all_123():
    # (t+1)(t+2)(t+3) = t^3 + 6t^2 + 11t + 6
    assert elem_sym_all([1, 2, 3]) == [1, 6, 11, 6]


def test_elem_sym_all_degenerate():
    assert elem_sym_all([0, 0]) == [1, 0, 0]
    c = Fraction(7, 3)
    assert elem_sym_all([c]) == [1, c]


def test_elem_sym_all_empty_rejected():
    with pytest.raises(ValueError):
        elem_sym_all([])


def column(table, k: int) -> list:
    """Column k (1-based) of a leave-one-out table: e_0..e_{n-1} without node k."""
    return [row[k - 1] for row in table]


def test_leave_one_out_123():
    # e_0, e_1, e_2 of {2, 3}
    assert column(elem_sym_leave_one_out([1, 2, 3]), 1) == [1, 5, 6]


def test_leave_one_out_symbolic_top_entry():
    u = variables(4)
    loo = column(elem_sym_leave_one_out(u), 1)
    assert loo[3] == u[1] * u[2] * u[3]


def test_leave_one_out_repeated_nodes():
    c = Fraction(5, 2)
    assert column(elem_sym_leave_one_out([c, c]), 2) == [1, c]


def test_generating_function_identity():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 8)
        nodes = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
        e = elem_sym_all(nodes)
        for t in (Fraction(1), Fraction(2), Fraction(-1)):
            lhs = Fraction(1)
            for x in nodes:
                lhs *= t + x
            rhs = sum(e[m] * t ** (n - m) for m in range(n + 1))
            assert lhs == rhs


def test_modes_agree_exactly_over_rationals():
    rng = random.Random(23)
    for n in range(1, 11):
        nodes = random_distinct_fractions(rng, n)
        table = elem_sym_leave_one_out(nodes)
        for k in range(1, n + 1):
            assert column(table, k) == recomputed_leave_one_out(nodes, k)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_modes_agree_exactly_over_polynomials(n):
    nodes = variables(n)
    table = elem_sym_leave_one_out(nodes)
    for k in range(1, n + 1):
        assert column(table, k) == recomputed_leave_one_out(nodes, k)


def test_permutation_symmetry():
    rng = random.Random(5)
    nodes = random_distinct_fractions(rng, 6)
    perm = list(range(6))
    rng.shuffle(perm)
    permuted = [nodes[p] for p in perm]
    assert elem_sym_all(permuted) == elem_sym_all(nodes)
    table, permuted_table = elem_sym_leave_one_out(nodes), elem_sym_leave_one_out(permuted)
    for k in range(1, 7):
        assert column(permuted_table, k) == column(table, perm[k - 1] + 1)


def test_float_tables_match_object_path():
    # Bit for bit: the vectorized table runs the reference recurrence of
    # each column, on the same values in the same order.
    rng = np.random.default_rng(3)
    cases = []
    for n in range(1, 9):
        nodes = [float(x) for x in np.sort(rng.uniform(0.0, 5.0, n)) + 0.1 * np.arange(n)]
        cases.append((nodes, range(1, n + 1)))
    # A bench size whose table overflows to inf; three columns keep it fast.
    cases.append((draw_bench_nodes(320, 7), (1, 160, 320)))
    for nodes, columns in cases:
        table = leave_one_out_table_float(nodes)
        for k in columns:
            assert table[:, k - 1].tolist() == recomputed_leave_one_out(nodes, k)


def test_any_float_node_selects_the_float_kernel():
    # The table takes a mixed list as floats, wherever the float stands.
    for mixed in ([Fraction(1, 3), 0.1, 2.5], [0.1, Fraction(1, 3), 2.5]):
        floats = [float(x) for x in mixed]
        table = leave_one_out_table_float(mixed)
        for k in range(1, 4):
            result = table[:, k - 1].tolist()
            assert result == recomputed_leave_one_out(floats, k)
            assert all(type(x) is float for x in result)
    assert leave_one_out_table_float([0.5]).tolist() == [[1.0]]


def test_float_table_rejects_non_finite():
    with pytest.raises(ValueError):
        leave_one_out_table_float([1.0, float("nan")])
