import math
import random
import warnings
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import cimatrix.matrix
from conftest import GOLDEN_N4_ENTRIES, random_distinct_fractions, recomputed_leave_one_out
from cimatrix.cli import draw_bench_nodes
from cimatrix.matrix import (
    COFACTOR_CAP,
    SYMBOLIC_CAP,
    NumericalError,
    SizeCapError,
    build_ci_matrix,
    closed_form_logdet,
    det_bareiss,
    det_closed_form,
    det_cofactor,
    det_lu,
    lu_logdet,
    permutation_sign,
    symbolic_ci_matrix,
    vandermonde_duality_residual,
)
from cimatrix.multipoly import (
    EXPONENT_LIMIT,
    MultiPoly,
    _sum_products,
    vandermonde_product,
    variables,
)
from cimatrix.scalars import ring_identities

NODES_123 = [Fraction(1), Fraction(2), Fraction(3)]


# ---------------------------------------------------------------------------
# construction


def test_build_n2_symbolic():
    u1, u2 = variables(2)
    one = MultiPoly.one(2)
    m = symbolic_ci_matrix(2)
    assert m.entries == ((u2, u1), (one, one))


def test_build_123():
    m = build_ci_matrix(NODES_123)
    assert [list(row) for row in m.entries] == [[6, 3, 2], [5, 4, 3], [1, 1, 1]]


def test_build_n4_symbolic_matches_golden_entries():
    m = symbolic_ci_matrix(4)
    rendered = [[entry.render() for entry in row] for row in m.entries]
    assert rendered == GOLDEN_N4_ENTRIES


def test_build_rejects_empty():
    with pytest.raises(ValueError):
        build_ci_matrix([])


def test_build_modes_agree_over_rationals():
    rng = random.Random(17)
    nodes = random_distinct_fractions(rng, 7)
    m = build_ci_matrix(nodes)
    for k in range(1, 8):
        assert list(m.column(k)) == recomputed_leave_one_out(nodes, k)[::-1]


@pytest.mark.parametrize("nodes", [
    pytest.param([3, -1, 4, 1, 5], id="int"),
    pytest.param([Fraction(1, 2), Fraction(-3, 7), 5, Fraction(22, 9)], id="rational"),
    pytest.param(variables(4), id="symbolic"),
])
def test_exact_build_calls_the_kernel_once(nodes, monkeypatch):
    # One call returns the whole leave-one-out table, not one column.
    calls = []
    kernel = cimatrix.matrix.elem_sym_leave_one_out
    monkeypatch.setattr(cimatrix.matrix, "elem_sym_leave_one_out",
                        lambda *args, **kwargs: calls.append(args) or kernel(*args, **kwargs))
    build_ci_matrix(nodes)
    assert len(calls) == 1


def test_build_float_path_matches_exact():
    nodes = [0.5, 1.25, 2.0, 4.5]
    m = build_ci_matrix(nodes)
    exact = build_ci_matrix([Fraction(x) for x in nodes])
    for h in range(1, 5):
        for k in range(1, 5):
            assert m.entry(h, k) == pytest.approx(float(exact.entry(h, k)), rel=1e-12)


def test_float_matrix_is_read_only_and_lu_leaves_it_unchanged():
    m = build_ci_matrix([0.5, 1.25, 2.0, 4.5])
    before = np.array(m.entries)
    lu_logdet(m)
    det_lu(m)
    assert np.array_equal(m.entries, before)
    with pytest.raises(ValueError):
        m.entries[0, 0] = 1.0


def test_any_float_node_selects_the_float_kernel():
    # The kernel follows every node, not the first one.
    floats = build_ci_matrix([1 / 3, 0.1, 2.5])
    for nodes in ([Fraction(1, 3), 0.1, 2.5], [0.1, Fraction(1, 3), 2.5], [2, 0.5, Fraction(7, 2)]):
        m = build_ci_matrix(nodes)
        assert isinstance(m.entries, np.ndarray) and not m.entries.flags.writeable
        assert m.nodes == tuple(float(x) for x in nodes)
    mixed = build_ci_matrix([Fraction(1, 3), 0.1, 2.5])
    assert mixed.nodes == floats.nodes and np.array_equal(mixed.entries, floats.entries)


def test_float_build_overflow_is_a_numerical_error():
    nodes = [float(i) for i in range(1, 200)]
    with pytest.raises(NumericalError):
        build_ci_matrix(nodes)
    with pytest.raises(NumericalError, match="closed form"):
        det_closed_form(nodes)


def test_float_build_refuses_an_entry_that_underflows():
    # Entry (1,1) is e_3(1e-200, 2e-200, 1e100) = 2e-300, representable, but
    # its partial product 1e-200 * 2e-200 flushes to 0.  On the second list
    # every entry is a normal float, yet (1,3) went through the subnormal
    # 2e-320 and kept about 5 digits.
    for nodes in ([0.0, 1e-200, 2e-200, 1e100], [1e-160, 2e-160, 1e150, 2e150]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="float CI-matrix build: an entry underflowed"):
                build_ci_matrix(nodes)
    # A product that is an exact subnormal loses nothing and is kept.
    assert build_ci_matrix([2.0 ** -537, 2.0 ** -537 * 3]).entries[0, 0] == 2.0 ** -537 * 3


def test_float_determinants_refuse_non_finite_nodes_and_values():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="non-finite float node"):
                det_closed_form([1.0, bad])
        with pytest.raises(NumericalError, match="closed form"):
            det_closed_form([1e200, -1e200, 3e200])
        with pytest.raises(NumericalError, match="LU determinant"):
            det_lu([[1e300, 0.0], [0.0, 1e300]])
    assert det_closed_form([1e100, -1e100, 3e100]) == pytest.approx(-1.6e301)


def test_float_closed_form_of_a_repeated_node_is_zero():
    # The gaps before the repeated node's zero gap overflow to -inf; the
    # determinant is still exactly 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert det_closed_form([1e200, -1e200, 3e200, 3e200]) == 0.0
        assert det_closed_form([2.0, 1.0, 2.0]) == 0.0
        with pytest.raises(NumericalError, match="closed form"):
            det_closed_form([1e200, -1e200, 3e200])


# Floats across the whole range: zeros, subnormals, 1e+-300 and wide
# exponents, so that partial products of the gaps underflow and overflow.
FLOAT_NODES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 1e-300, -1e-300, 1e300, -1e300, 1.0, -3.0]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(math.ldexp, st.floats(-2.0, 2.0), st.integers(-1074, 1020)),
)


@st.composite
def float_node_lists(draw):
    """Up to 9 finite floats; half the lists draw with replacement from a
    pool, so nodes repeat."""
    pool = draw(st.lists(FLOAT_NODES, min_size=1, max_size=9))
    if draw(st.booleans()):
        return pool
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=9))


@given(float_node_lists())
@example([0.0, 1e-200, 2e-200, 1e100])  # partial products underflow: 2e-300
@example([0.0, 1e-200, 2e-200, 1e200])  # one underflows, one overflows: ~2.0
def test_float_closed_form_is_the_exact_product_rounded_once(nodes):
    exact = math.prod(Fraction(b) - Fraction(a) for a, b in combinations(nodes, 2))
    try:
        expected = float(exact)
    except OverflowError:
        with pytest.raises(NumericalError, match="closed form"):
            det_closed_form(nodes)
    else:
        assert det_closed_form(nodes) == expected


@pytest.mark.parametrize("n", [64, 256])
def test_float_closed_form_refuses_a_sure_overflow_before_the_product_tree(n, monkeypatch):
    # On these bench nodes the log2 sum of the gaps alone puts |det| past
    # 2^1024, so the n(n-1)/2 gaps never reach the product tree.  At n=64,
    # where log2 |det| is 1960.7, a bound from the gaps' bit lengths reads
    # below 1024.
    nodes = draw_bench_nodes(n, 1)
    sizes = []
    product = cimatrix.matrix._product
    monkeypatch.setattr(cimatrix.matrix, "_product",
                        lambda factors: sizes.append(len(factors)) or product(factors))
    with pytest.raises(NumericalError, match="closed form"):
        det_closed_form(nodes)
    assert n * (n - 1) // 2 not in sizes


DECIMALS = [Decimal(1), Decimal(2)]


@pytest.mark.parametrize("call", [
    pytest.param(lambda: build_ci_matrix([True, 2]), id="bool build"),
    pytest.param(lambda: det_closed_form([True, 1]), id="bool closed form"),
    pytest.param(lambda: det_cofactor([[True]]), id="bool cofactor"),
    pytest.param(lambda: vandermonde_duality_residual([True]), id="bool duality"),
    pytest.param(lambda: build_ci_matrix(DECIMALS), id="Decimal build"),
    pytest.param(lambda: det_closed_form(DECIMALS), id="Decimal closed form"),
    pytest.param(lambda: det_cofactor([DECIMALS, DECIMALS]), id="Decimal cofactor"),
])
def test_the_ring_contract_refuses_bools_and_unsupported_scalars(call):
    with pytest.raises(TypeError):
        call()


def test_repeated_nodes_give_identical_columns():
    m = build_ci_matrix([Fraction(1), Fraction(1), Fraction(3)])
    assert m.column(1) == m.column(2)


def test_row_homogeneity_symbolic():
    m = symbolic_ci_matrix(4)
    for h in range(1, 5):
        for k in range(1, 5):
            assert m.entry(h, k).total_degrees() == {4 - h}


# Rational nodes run the build and the closed form on ints (numerators and
# denominators); the references below use plain Fraction arithmetic.
LARGE_PRIMES = (999983, 1000003, 998244353, 1000000007, 2147483647)
rational_nodes = st.one_of(
    st.integers(-9, 9),
    st.integers(-10**12, 10**12),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
    st.builds(Fraction, st.integers(-10**15, 10**15), st.sampled_from(LARGE_PRIMES)),
)
rational_node_lists = st.one_of(
    st.lists(rational_nodes, min_size=1, max_size=9),
    # a repeated node, at a drawn position
    st.lists(rational_nodes, min_size=1, max_size=8).flatmap(
        lambda xs: st.permutations(xs + [xs[0]])
    ),
)


def pairwise_fold(nodes):
    det = Fraction(1)
    for i, j in combinations(range(len(nodes)), 2):
        det *= Fraction(nodes[j]) - Fraction(nodes[i])
    return det


@given(rational_node_lists)
@example([Fraction(1, 999983), Fraction(-2, 1000003), 5, Fraction(7, 999983)])
@example([Fraction(3, 2), Fraction(3, 2), -4])
@example([7])
@example([Fraction(-5, 3)])
def test_rational_build_and_closed_form_match_fraction_references(nodes):
    n = len(nodes)
    m = build_ci_matrix(nodes)
    for k in range(1, n + 1):
        assert list(m.column(k)) == recomputed_leave_one_out(nodes, k)[::-1]
    det = det_closed_form(nodes)
    assert det == pairwise_fold(nodes)
    expected_type = Fraction if any(isinstance(x, Fraction) for x in nodes) else int
    assert all(type(x) is expected_type for row in m.entries for x in row)
    assert type(det) is expected_type


# ---------------------------------------------------------------------------
# closed form


def test_det_closed_form_examples():
    assert det_closed_form(NODES_123) == 2
    assert det_closed_form([Fraction(1), Fraction(1), Fraction(3)]) == 0
    assert det_closed_form([Fraction(2)]) == 1
    with pytest.raises(ValueError):
        det_closed_form([])


# ---------------------------------------------------------------------------
# Bareiss oracle


def test_bareiss_ci_123():
    # cofactor expansion by hand: 6(4-3) - 3(5-3) + 2(5-4) = 2
    assert det_bareiss([[6, 3, 2], [5, 4, 3], [1, 1, 1]]) == 2


def test_bareiss_identity_and_singular():
    assert det_bareiss([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
    assert det_bareiss([[2, 2, 5], [3, 3, 7], [1, 1, 9]]) == 0


def test_bareiss_pivot_swap_sign():
    assert det_bareiss([[0, 1], [1, 0]]) == -1


def test_bareiss_int_exactness():
    value = det_bareiss([[2, 3], [4, 7]])
    assert value == 2 and isinstance(value, int)


def test_bareiss_shape_errors():
    with pytest.raises(ValueError):
        det_bareiss([[1, 2], [3, 4], [5, 6]])
    with pytest.raises(ValueError):
        det_bareiss([])


@st.composite
def square_matrices(draw, elements):
    # Rows and columns times drawn common factors: the trailing blocks of
    # the elimination then share a content that Bareiss divides out.
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(elements, min_size=n, max_size=n), min_size=n, max_size=n))
    row_factors = draw(st.lists(common_factors, min_size=n, max_size=n))
    column_factors = draw(st.lists(common_factors, min_size=n, max_size=n))
    return [[x * r * c for x, c in zip(row, column_factors)] for row, r in zip(rows, row_factors)]


# Small entries make zero pivots and singular matrices common.
small_ints = st.integers(-3, 3)
small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=5)
common_factors = st.sampled_from((1, 1, 2, 3, 6, -4))


# Two proportional rows under [1, 1, 1, 1]: the second becomes all zero at step 2.
ZERO_ROW_MID_ELIMINATION = [[1, 1, 1, 1], [1, 2, 3, 4], [2, 4, 6, 8], [1, 3, 2, 5]]
# The row [0, 1, 2] already has a 0 lead below the pivot of step 1.
ZERO_LEAD_BELOW_PIVOT = [[1, 1, 1], [0, 1, 2], [1, 3, 2]]


@given(square_matrices(small_ints))
@example([[0, 1, 1], [2, 3, 4], [5, 6, 0]])  # the reorder keeps row 1 first: a zero pivot
@example([[1, 1, 2], [1, 1, 3], [1, 1, 1]])  # singular: no pivot left in column 2
@example(ZERO_ROW_MID_ELIMINATION)
@example(ZERO_LEAD_BELOW_PIVOT)
@example([[5]])
@example([[0]])
def test_bareiss_matches_cofactor_on_int_matrices(rows):
    value = det_bareiss(rows)
    assert type(value) is int
    assert value == det_cofactor(rows)


@given(square_matrices(st.one_of(small_ints, small_fractions)))
@example([[Fraction(0), 1], [Fraction(1, 2), 7]])  # a zero pivot after the reorder
@example([[Fraction(1, 2), Fraction(1, 2), 1], [1, 1, 2], [1, 1, 3]])  # singular: returns Fraction(0)
@example([[Fraction(x, 3) for x in row] for row in ZERO_ROW_MID_ELIMINATION])
@example([[Fraction(x, 2) for x in row] for row in ZERO_LEAD_BELOW_PIVOT])
@example([[Fraction(3, 2)]])
@example([[Fraction(0)]])
def test_bareiss_matches_cofactor_on_fraction_matrices(rows):
    value = det_bareiss(rows)
    has_fraction = any(isinstance(x, Fraction) for row in rows for x in row)
    assert type(value) is (Fraction if has_fraction else int)
    assert value == det_cofactor(rows)


ci_node_lists = st.one_of(
    st.lists(st.integers(-999, 999), min_size=1, max_size=20),
    st.lists(st.builds(Fraction, st.integers(-999, 999), st.integers(1, 9)), min_size=1, max_size=20),
)


@given(ci_node_lists)
@example(list(range(1, 21)))
@example([Fraction(1, 2), Fraction(1, 2), Fraction(3)])  # a repeated node: det 0
def test_bareiss_matches_closed_form_on_ci_matrices(nodes):
    value = det_bareiss(build_ci_matrix(nodes))
    expected = det_closed_form(nodes)
    assert type(value) is type(expected)
    assert value == expected


@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n), min_size=n, max_size=n)))
@example([[2, 1], [3, 2]])  # the scale gains a = 2 at step 1 and still divides out
def test_bareiss_never_returns_a_fraction_on_int_input(rows):
    value = det_bareiss(rows)
    assert type(value) is int
    assert value == det_cofactor(rows)


def test_bareiss_holds_numbers_far_below_the_full_minors(monkeypatch):
    # On the CI-matrix of 1..48 the full Bareiss minors grow to the 4004
    # bits of the answer.  Each update zips the row it replaces with the
    # pivot row, so recording zip's arguments sees every row the kernel
    # holds: none of them reaches an eighth of the answer's bits.
    nodes = list(range(1, 49))
    matrix, expected = build_ci_matrix(nodes), det_closed_form(nodes)
    largest = updates = 0

    def recording_zip(*rows):
        nonlocal largest, updates
        largest = max(largest, *(abs(x).bit_length() for row in rows for x in row))
        updates += 1
        return zip(*rows)

    monkeypatch.setattr("cimatrix.matrix.zip", recording_zip, raising=False)
    value = det_bareiss(matrix)
    assert value == expected
    assert updates == 47 * 48 // 2  # no lead is 0 on these nodes
    assert 0 < largest < value.bit_length() / 8


@given(st.integers(2, 8).flatmap(lambda n: st.lists(
    st.lists(st.integers(-999, 999), min_size=n, max_size=n), min_size=n, max_size=n)))
@example([[0, 0, 0], [1, 0, 0], [1, 0, 1]])  # a zero row sorts first and is never a pivot
def test_bareiss_rows_stay_within_hadamards_bound(rows):
    # A held row is the Bareiss row (minors of the leading rows) over its
    # content, so no entry exceeds the product of the nonzero rows' norms.
    bound_squared = math.prod(max(1, sum(x * x for x in row)) for row in rows)
    largest_squared = 0

    def recording_zip(*held):
        nonlocal largest_squared
        largest_squared = max(largest_squared, *(x * x for row in held for x in row))
        return zip(*held)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("cimatrix.matrix.zip", recording_zip, raising=False)
        det_bareiss(rows)
    assert largest_squared <= bound_squared


def test_bareiss_rejects_entries_without_exact_division():
    u1, u2 = variables(2)
    for rows in ([[1.0, 2], [3, 4]], [[1, 2], [3, 4.0]], [[True, 0], [0, 1]], [[u1, u2], [u2, u1]]):
        with pytest.raises(TypeError):
            det_bareiss(rows)


# ---------------------------------------------------------------------------
# LU oracle


def test_lu_ci_123():
    assert det_lu([[6.0, 3.0, 2.0], [5.0, 4.0, 3.0], [1.0, 1.0, 1.0]]) == pytest.approx(
        2.0, rel=1e-12
    )


def test_lu_diagonal_and_singular():
    assert det_lu([[2.0, 0.0], [0.0, 3.0]]) == 6.0
    assert det_lu([[1.0, 1.0], [1.0, 1.0]]) == 0.0


def test_lu_rejects_bad_input():
    with pytest.raises(ValueError):
        det_lu([[1.0, 2.0]])
    with pytest.raises(ValueError):
        det_lu([[1.0, float("inf")], [0.0, 1.0]])


def test_lu_logdet_matches_det():
    m = [[6.0, 3.0, 2.0], [5.0, 4.0, 3.0], [1.0, 1.0, 1.0]]
    sign, logabs = lu_logdet(m)
    assert sign == 1 and logabs == pytest.approx(math.log(2.0), rel=1e-12)
    assert lu_logdet([[1.0, 1.0], [1.0, 1.0]]) == (0, float("-inf"))


def test_lu_logdet_negative_determinants():
    # sign must fold in negative U-diagonal entries, not just row swaps
    assert lu_logdet([[0.0, 1.0], [1.0, 0.0]]) == (-1, pytest.approx(0.0, abs=1e-15))
    sign, logabs = lu_logdet(build_ci_matrix([3.0, 1.0]).entries)  # det = 1 - 3
    assert sign == -1 and logabs == pytest.approx(math.log(2.0), rel=1e-12)
    rng = np.random.default_rng(11)
    for n in (3, 5, 8):
        nodes = [float(x) for x in rng.permutation(np.arange(1.0, n + 1.0))]
        sign, _ = lu_logdet(build_ci_matrix(nodes).entries)
        direct = det_closed_form(nodes)
        assert sign == math.copysign(1, direct)


def test_lu_logdet_on_bench_nodes_matches_the_exact_product():
    for n in range(2, 13):
        nodes = draw_bench_nodes(n, seed=0)
        exact = det_closed_form([Fraction(x) for x in nodes])
        sign, logabs = lu_logdet(build_ci_matrix(nodes))
        assert sign == (1 if exact > 0 else -1)
        expected = math.log(exact.numerator) - math.log(exact.denominator)
        assert abs(logabs - expected) <= 1e-8


def test_lu_subnormal_pivot_is_not_singular():
    m = [[1e-310, 0.0], [0.0, 1.0]]
    assert det_lu(m) == 1e-310
    sign, logabs = lu_logdet(m)
    assert sign == 1 and -713.81 < logabs < -713.80


def test_lu_overflow_raises_and_singular_stays_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lu in (lu_logdet, det_lu):
            with pytest.raises(NumericalError, match="LU"):
                lu([[1e308, 1e308], [-1e308, 1e308]])
        assert lu_logdet([[1.0, 2.0], [2.0, 4.0]]) == (0, float("-inf"))
        assert det_lu([[1.0, 2.0], [2.0, 4.0]]) == 0.0


def test_closed_form_logdet():
    assert closed_form_logdet([5.0]) == (1, 0.0)
    assert closed_form_logdet([2.0, 2.0, 3.0]) == (0, float("-inf"))
    sign, logabs = closed_form_logdet([3.0, 1.0])
    assert sign == -1 and logabs == pytest.approx(math.log(2.0))
    rng = np.random.default_rng(2)
    for n in range(2, 9):
        nodes = [float(x) for x in rng.uniform(-3.0, 3.0, n)]
        sign, logabs = closed_form_logdet(nodes)
        direct = det_closed_form(nodes)
        assert sign == (0 if direct == 0 else math.copysign(1, direct))
        if direct:
            assert logabs == pytest.approx(math.log(abs(direct)), rel=1e-12)


def triangle_logdet(nodes):
    """(sign, log|det|) from the pair differences gathered through
    ``np.triu_indices`` in one step: the reference the blocked
    ``closed_form_logdet`` must match bit for bit."""
    x = np.asarray(nodes, dtype=float)
    i, j = np.triu_indices(x.shape[0], k=1)
    diffs = x[j] - x[i]
    if np.any(diffs == 0.0):
        return 0, float("-inf")
    sign = -1 if int(np.count_nonzero(diffs < 0.0)) % 2 else 1
    return sign, float(np.sum(np.log(np.abs(diffs))))


def test_closed_form_logdet_is_bit_identical_to_the_whole_triangle():
    rng = np.random.default_rng(11)
    sizes = list(range(1, 41)) + [63, 64, 65, 128, 256, 320]
    for n in sizes:
        mixed = rng.uniform(-3.0, 3.0, n)
        for nodes in (draw_bench_nodes(n, 1), list(mixed), list(mixed[::-1] * 1e-3)):
            assert closed_form_logdet(nodes) == triangle_logdet(nodes), n
    repeated = list(rng.uniform(-3.0, 3.0, 100))
    repeated[90] = repeated[3]  # the zero gap lies in a later block
    assert closed_form_logdet(repeated) == (0, float("-inf"))


# ---------------------------------------------------------------------------
# cofactor oracle


def test_cofactor_symbolic_small():
    u1, u2 = variables(2)
    assert det_cofactor(symbolic_ci_matrix(2)) == u2 - u1
    assert det_cofactor(symbolic_ci_matrix(3)) == vandermonde_product(3)


def test_cofactor_zero_row():
    zero = MultiPoly.zero(2)
    one = MultiPoly.one(2)
    assert det_cofactor([[zero, zero], [one, one]]).is_zero


def test_cofactor_cap(monkeypatch):
    # Size COFACTOR_CAP = 9 still expands; size 10 is refused before any minor.
    rng = random.Random(9)
    rows = [[rng.randint(-5, 5) for _ in range(COFACTOR_CAP)] for _ in range(COFACTOR_CAP)]
    assert det_cofactor(rows) == det_bareiss(rows) != 0
    minors = []
    monkeypatch.setattr(cimatrix.matrix, "_subset_minors", lambda *args: minors.append(args))
    with pytest.raises(SizeCapError, match="capped at size 9, got 10"):
        det_cofactor([[1] * 10 for _ in range(10)])
    assert minors == []


def test_symbolic_cap(monkeypatch):
    # Sizes 1..SYMBOLIC_CAP build; 0 and 13 are refused before any build.
    assert symbolic_ci_matrix(1).entries == ((MultiPoly.one(1),),)
    assert symbolic_ci_matrix(SYMBOLIC_CAP).n == SYMBOLIC_CAP
    builds = []
    monkeypatch.setattr(cimatrix.matrix, "build_ci_matrix", builds.append)
    monkeypatch.setattr(cimatrix.matrix, "variables", builds.append)
    with pytest.raises(ValueError, match="at least 1, got 0") as refused:
        symbolic_ci_matrix(0)
    assert not isinstance(refused.value, SizeCapError)
    with pytest.raises(SizeCapError, match=f"capped at size {SYMBOLIC_CAP}, got 13"):
        symbolic_ci_matrix(SYMBOLIC_CAP + 1)
    assert builds == []


def leibniz_det(rows):
    """Sum over permutations of signed entry products, built from ``*`` and
    ``+`` alone: the reference for the fused cofactor expansion."""
    n = len(rows)
    total, one = ring_identities(rows[0][0])
    for perm in permutations(range(n)):
        term = one
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + permutation_sign(perm) * term
    return total


def folded_cofactor(rows):
    """The row-split expansion folded one signed product at a time from
    zero: the order in which int, Fraction and float must still be summed.
    The top (n-1)//2 rows and the bottom rows each get their column-subset
    minors, and the join runs over the top subsets in ``combinations`` order."""
    n = len(rows)
    t = (n - 1) // 2
    zero, one = ring_identities(rows[0][0])

    def subset_minors(block):
        minors = {0: one}
        for size in range(1, len(block) + 1):
            row = block[len(block) - size]
            next_minors = {}
            for cols in combinations(range(n), size):
                mask = sum(1 << c for c in cols)
                det = zero
                for position, c in enumerate(cols):
                    if not (row[c] == zero):
                        term = row[c] * minors[mask ^ (1 << c)]
                        det = det - term if position % 2 else det + term
                next_minors[mask] = det
            minors = next_minors
        return minors

    top, bottom = subset_minors(rows[:t]), subset_minors(rows[t:])
    det = zero
    for cols in combinations(range(n), t):
        mask = sum(1 << c for c in cols)
        # sign(S): the pairs (c, d) with c in S, d outside S and d < c
        passed = sum(1 for c in cols for d in range(c) if d not in cols)
        term = top[mask] * bottom[(1 << n) - 1 - mask]
        det = det - term if passed % 2 else det + term
    return det


def permanent(rows):
    """perm(rows) over exact Fractions, by the unsigned column-subset recursion."""
    n = len(rows)
    sums = {0: Fraction(1)}
    for size in range(1, n + 1):
        row = rows[n - size]
        sums = {
            mask: sum(row[c] * sums[mask ^ (1 << c)] for c in range(n) if mask >> c & 1)
            for mask in (sum(1 << c for c in cols) for cols in combinations(range(n), size))
        }
    return sums[(1 << n) - 1]


def float_cofactor_error_bound(rows) -> Fraction:
    """A forward-error bound for ``det_cofactor`` on float rows.

    Each of the n! signed entry products reaches the result through at most
    K roundings.  A fold of m products from zero rounds at most m-1 times,
    so level s of either block rounds at most s times (one multiply, a fold
    of at most s products), and the join C(n, t) times.  So K = t(t+1)/2 + (n-t)(n-t+1)/2 + C(n, t), and (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., Lemma 3.1)

        |fl(det) - det| <= gamma_K * perm(|A|),  gamma_K = K*u / (1 - K*u).

    A product may also underflow, losing up to 2^-1075 absolutely; there are
    at most n^2 * 2^n of them, and later operations carry each loss by at
    most n! * a^n, a = max(1, max |entry|), which the
    n^2 * 2^n * n! * a^n * 2^-1073 term covers.
    """
    n = len(rows)
    t = (n - 1) // 2
    k = t * (t + 1) // 2 + (n - t) * (n - t + 1) // 2 + math.comb(n, t)
    u = Fraction(1, 2**53)
    gamma = k * u / (1 - k * u)
    magnitudes = [[abs(Fraction(x)) for x in row] for row in rows]
    largest = max(1, *(x for row in magnitudes for x in row))
    underflow = Fraction(n * n * 2**n * math.factorial(n), 2**1073) * largest**n
    return gamma * permanent(magnitudes) + underflow


@st.composite
def polynomial_matrices(draw):
    """n <= 4 over 2-3 variables, entries drawn from a small pool that holds
    the zero polynomial and an int: repeated entries make rows and columns
    repeat, so products cancel across the expansion."""
    nvars = draw(st.integers(2, 3))
    n = draw(st.integers(1, 4))
    term_maps = st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * nvars),
        st.fractions(min_value=-2, max_value=2, max_denominator=3),
        max_size=3,
    )
    pool = [MultiPoly.zero(nvars), 1] + [
        MultiPoly(nvars, terms) for terms in draw(st.lists(term_maps, min_size=1, max_size=3))
    ]
    first = draw(st.sampled_from(pool[:1] + pool[2:]))
    rows = [[draw(st.sampled_from(pool)) for _ in range(n)] for _ in range(n)]
    rows[0][0] = first  # a polynomial leads, so the sum runs in one term map
    return rows


@given(polynomial_matrices())
def test_cofactor_matches_leibniz_on_polynomial_matrices(rows):
    assert det_cofactor(rows) == leibniz_det(rows)


def test_cofactor_guard_on_products_that_cancel():
    # Each product is u1^EXPONENT_LIMIT, which sets the guard bit, yet the
    # two cancel: the expansion must still refuse, as each product alone would.
    half = MultiPoly(1, {(EXPONENT_LIMIT // 2,): 1})
    with pytest.raises(ValueError):
        det_cofactor([[half, half], [half, half]])


@given(st.one_of(
    square_matrices(small_ints),
    square_matrices(st.one_of(small_ints, small_fractions)),
    square_matrices(st.floats(-4, 4)),
))
# The row split sums this matrix to -1196.931; the bottom-up expansion,
# folded one row at a time, gave -1196.9309999999998.
@example([[3.8, -4.0, 2.2, 3.7, -2.7], [-2.7, -1.5, -2.4, 3.0, 1.0], [-2.5, 3.7, -2.4, 3.7, -0.9],
          [-3.8, -0.7, 3.5, -1.9, -1.3], [2.5, 0.7, 0.8, 1.7, -3.5]])
def test_cofactor_on_scalars_keeps_values_and_types(rows):
    value = det_cofactor(rows)
    expected = folded_cofactor(rows)
    assert type(value) is type(expected)
    assert value == expected
    if isinstance(value, float):  # bit for bit: the sign of a zero too
        assert math.copysign(1.0, value) == math.copysign(1.0, expected)
        exact = det_bareiss([[Fraction(x) for x in row] for row in rows])
        assert abs(Fraction(value) - exact) <= float_cofactor_error_bound(rows)


def test_cofactor_agrees_with_bareiss_on_rationals():
    # n = 1..8 covers both parities of the row split, t = (n-1)//2 top rows.
    rng = random.Random(29)
    for _ in range(10):
        n = rng.randint(1, 8)
        rows = [
            [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
            for _ in range(n)
        ]
        assert det_cofactor(rows) == det_bareiss(rows)
    for n in range(1, 9):
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert det_cofactor(rows) == det_bareiss(rows)


def test_cofactor_symbolic_n8_is_the_vandermonde_product():
    assert det_cofactor(symbolic_ci_matrix(8)) == vandermonde_product(8)


def test_cofactor_splits_the_rows_to_cut_term_products(monkeypatch):
    # Every term product of the expansion goes through the one product
    # kernel, so wrapping it counts them: the one-sided expansion along the
    # rows from the bottom does 93,289 at n=7, the row split 32,284.
    matrix, expected = symbolic_ci_matrix(7), vandermonde_product(7)
    products = 0

    def counting(pairs):
        nonlocal products
        pairs = list(pairs)
        products += sum(len(a) * len(b) for a, b in pairs)
        return _sum_products(pairs)

    monkeypatch.setattr("cimatrix.multipoly._sum_products", counting)
    value = det_cofactor(matrix)
    monkeypatch.undo()
    assert value == expected
    assert 0 < products <= 40_000


# Mostly zero: most products are skipped, and rows without a nonzero entry
# make the determinant zero.
sparse_ints = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3])
sparse_fractions = st.sampled_from([0, 0, 0, 0, Fraction(1, 2), Fraction(-2, 3), 1, -2])


@given(st.one_of(square_matrices(sparse_ints), square_matrices(sparse_fractions)))
@example([[0, 0, 5], [1, 2, 0], [0, 3, 4]])
@example([[0, 0], [Fraction(1, 2), 1]])  # a zero top row sums no product
def test_cofactor_agrees_with_bareiss_on_sparse_matrices(rows):
    assert det_cofactor(rows) == det_bareiss(rows)


# ---------------------------------------------------------------------------
# oracle equivalence and covariance properties


def test_closed_form_equals_bareiss_on_random_rationals():
    rng = random.Random(31)
    for n in range(1, 11):
        for _ in range(5):
            nodes = random_distinct_fractions(rng, n)
            assert det_closed_form(nodes) == det_bareiss(build_ci_matrix(nodes))


def test_permutation_antisymmetry():
    rng = random.Random(37)
    for _ in range(25):
        n = rng.randint(2, 8)
        nodes = random_distinct_fractions(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = [nodes[p] for p in perm]
        base = build_ci_matrix(nodes)
        shuffled = build_ci_matrix(permuted)
        for k in range(1, n + 1):
            assert shuffled.column(k) == base.column(perm[k - 1] + 1)
        assert det_closed_form(permuted) == permutation_sign(perm) * det_closed_form(nodes)


def test_repeated_node_kills_all_paths():
    nodes = [Fraction(2), Fraction(5), Fraction(2)]
    assert det_closed_form(nodes) == 0
    assert det_bareiss(build_ci_matrix(nodes)) == 0
    assert det_cofactor(build_ci_matrix(nodes)) == 0


def test_scaling_covariance():
    rng = random.Random(41)
    nodes = random_distinct_fractions(rng, 5)
    base = det_closed_form(nodes)
    for t in (Fraction(2), Fraction(-1), Fraction(1, 3)):
        scaled = [t * x for x in nodes]
        assert det_closed_form(scaled) == t ** (5 * 4 // 2) * base


def test_permutation_sign():
    assert permutation_sign([0, 1, 2]) == 1
    assert permutation_sign([1, 0, 2]) == -1
    assert permutation_sign([2, 0, 1]) == 1


# ---------------------------------------------------------------------------
# duality


def test_duality_hand_values_123():
    # column 1 of the CI-matrix of (1,2,3) is [6, 5, 1]; the alternating sum
    # at node 1 is 6 - 5*1 + 1*1 = 2 = (1-2)(1-3), and at node 2 it is
    # 6 - 5*2 + 1*4 = 0.
    m = build_ci_matrix(NODES_123)
    assert m.column(1) == (6, 5, 1)
    n = 3
    def alternating_sum(j, k):
        return sum(
            (-1) ** (n - h) * NODES_123[j - 1] ** (h - 1) * m.entry(h, k)
            for h in range(1, n + 1)
        )
    assert alternating_sum(1, 1) == 2 == (1 - 2) * (1 - 3)
    assert alternating_sum(2, 1) == 0
    residual = vandermonde_duality_residual(NODES_123)
    assert residual.max_offdiag == 0
    assert residual.max_diag_rel == 0


def test_duality_singleton():
    residual = vandermonde_duality_residual([Fraction(4)])
    assert residual.max_offdiag == 0 and residual.max_diag_rel == 0


def test_duality_random_rationals():
    rng = random.Random(43)
    for n in range(1, 11):
        nodes = random_distinct_fractions(rng, n)
        residual = vandermonde_duality_residual(nodes)
        assert residual.max_offdiag == 0
        assert residual.max_diag_rel == 0


def test_duality_floats_well_separated():
    rng = np.random.default_rng(47)
    for n in range(1, 9):
        nodes = [float(x) for x in np.sort(rng.uniform(0.0, 2.0, n)) + 0.1 * np.arange(n)]
        residual = vandermonde_duality_residual(nodes)
        assert residual.max_offdiag / residual.scale < 1e-8
        assert residual.max_diag_rel < 1e-8
