"""Exact references the benchmark checks the program's answers against.

Nothing here imports the package under test: every reference is computed
from the nodes alone, in exact integer arithmetic, outside the timed
regions.  Float nodes are dyadic rationals, so scaling them by a power of
two makes them integers; rational nodes are scaled by the lcm of their
denominators.
"""

from __future__ import annotations

import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction

# Score of an answer that equals its exact reference: the 17 significant
# digits a double can carry.  Inexact answers score -log10(relative error),
# clamped to [0, DIGITS_EXACT].
DIGITS_EXACT = 17.0

# The closed form never cancels, so its log|det| must keep this many digits;
# fewer means a wrong answer.  LU digits are recorded, never judged.
CLOSED_FORM_MIN_DIGITS = 10.0

# A float CI-matrix entry is a sum of positive products when the nodes are
# positive, so the stable build must match the exact entry this closely.
ENTRY_REL_TOL = 1e-9

_LOG_PRECISION = 60  # decimal digits carried by the log|det| reference
_TOP_BITS = 128  # leading bits of the exact product fed to the logarithm


def scaled_integers(values) -> tuple[list[int], int]:
    """Integers a_i and a common denominator d with values[i] == a_i / d."""
    fractions = [Fraction(v) for v in values]
    d = math.lcm(*(f.denominator for f in fractions))
    return [f.numerator * (d // f.denominator) for f in fractions], d


def tree_product(factors: list[int]) -> int:
    """Product of integers by a balanced product tree.

    Multiplying operands of similar size keeps big-int multiplication on its
    fast path; a left fold over 50k factors is quadratic in the result size.
    """
    if not factors:
        return 1
    level = list(factors)
    while len(level) > 1:
        paired = [level[i] * level[i + 1] for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    return level[0]


def difference_product(values) -> tuple[int, int, int]:
    """(sign, |P|, d^pairs) with prod_{i<j} (x_j - x_i) == sign * |P| / d^pairs.

    The sign is 0 when two nodes coincide.
    """
    ints, d = scaled_integers(values)
    n = len(ints)
    diffs = [ints[j] - ints[i] for i in range(n) for j in range(i + 1, n)]
    if any(diff == 0 for diff in diffs):
        return 0, 0, 1
    sign = -1 if sum(diff < 0 for diff in diffs) % 2 else 1
    return sign, tree_product([abs(diff) for diff in diffs]), d ** len(diffs)


def det_reference(values) -> Fraction:
    """Exact pairwise-difference product of rational nodes."""
    sign, magnitude, denominator = difference_product(values)
    return Fraction(sign * magnitude, denominator)


def tree_agrees_with_fold(values) -> bool:
    """Cross-check of the product tree: the same product as a plain Fraction
    fold, which is quadratic in the result size, so only for small n."""
    fold = Fraction(1)
    for i, xi in enumerate(values):
        for xj in values[i + 1 :]:
            fold *= Fraction(xj) - Fraction(xi)
    return det_reference(values) == fold


def logdet_reference(values) -> tuple[int, Decimal | None]:
    """(sign, log|det|) of the CI-matrix, exact to ~50 significant digits.

    |det| = P / 2^k with P an exact integer; log|det| is taken from P's
    leading bits plus its binary exponent, so no cancellation occurs.
    """
    sign, magnitude, denominator = difference_product(values)
    if sign == 0:
        return 0, None
    shift = max(magnitude.bit_length() - _TOP_BITS, 0)
    top = magnitude >> shift
    exponent = shift - (denominator.bit_length() - 1)
    if denominator != 1 << (denominator.bit_length() - 1):
        raise ValueError("log|det| reference needs dyadic nodes")
    with localcontext() as ctx:
        ctx.prec = _LOG_PRECISION
        return sign, Decimal(top).ln() + exponent * Decimal(2).ln()


def digits_correct(computed: float, reference: Decimal) -> float:
    """Correct significant digits of ``computed``: -log10(relative error)."""
    with localcontext() as ctx:
        ctx.prec = _LOG_PRECISION
        error = abs(Decimal(computed) - reference)
        if error == 0:
            return DIGITS_EXACT
        scale = abs(reference) if reference != 0 else Decimal(1)
        digits = -float((error / scale).log10())
    return min(max(digits, 0.0), DIGITS_EXACT)


def leave_one_out_columns(ints: list[int]):
    """Yield, for each k, [E_0, ..., E_{n-1}] of the integers without ints[k].

    E_m of all nodes comes from the insertion recurrence; each column then
    follows from E_m(without k) = E_m(all) - a_k * E_{m-1}(without k), which
    is exact over the integers.  One column is held at a time.
    """
    n = len(ints)
    full = [1] + [0] * n
    for inserted, a in enumerate(ints, start=1):
        for m in range(inserted, 0, -1):
            full[m] += a * full[m - 1]
    for a in ints:
        column = [1]
        for m in range(1, n):
            column.append(full[m] - a * column[m - 1])
        yield column


def _ratio_to_float(numerator: int, denominator_bits: int) -> float:
    """numerator / 2^denominator_bits as a float; inf where it overflows."""
    shift = max(abs(numerator).bit_length() - 64, 0)
    try:
        return math.ldexp(float(numerator >> shift), shift - denominator_bits)
    except OverflowError:
        return math.inf if numerator > 0 else -math.inf


def check_float_matrix(nodes: list[float], entries) -> str | None:
    """None if every entry of the built float matrix matches the exact one.

    ``entries`` is the n x n array the program returned.  An exact entry
    beyond the double range must come back infinite: that is overflow, and
    the request that hits it is counted as failed where it raises.
    """
    n = len(nodes)
    ints, d = scaled_integers(nodes)
    bits = d.bit_length() - 1
    for k, column in enumerate(leave_one_out_columns(ints)):
        for h in range(1, n + 1):
            m = n - h
            expected = _ratio_to_float(column[m], bits * m)
            got = float(entries[h - 1][k])
            if math.isinf(expected):
                if got != expected:
                    return f"entry ({h},{k + 1}) beyond the double range came back {got!r}"
            elif not abs(got - expected) <= ENTRY_REL_TOL * abs(expected):
                return f"entry ({h},{k + 1}) is {got!r}, exact value {expected!r}"
    return None


def _key_values(text: str) -> dict[str, str]:
    pairs = {}
    for token in text.split():
        key, sep, value = token.partition("=")
        if sep:
            pairs[key] = value
    return pairs


def check_det_output(nodes: list[str], stdout: str) -> str | None:
    """``det --oracle bareiss`` must print the exact product for both sides."""
    expected = str(det_reference(Fraction(s) for s in nodes))
    fields = _key_values(stdout)
    for key in ("closed_form", "oracle"):
        if fields.get(key) != expected:
            return f"{key}={fields.get(key)!r}, exact determinant {expected!r}"
    if fields.get("agree") != "yes" or fields.get("discrepancy") != "0":
        return "oracle comparison does not report exact agreement"
    return None


def check_gen_output(nodes: list[str], stdout: str) -> str | None:
    """``gen --out json`` must hold the exact CI-matrix in canonical strings."""
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"gen output is not JSON: {exc}"
    n = len(nodes)
    if (doc.get("schema"), doc.get("n"), doc.get("scalar_kind"), doc.get("mu")) != (
        "ci-matrix/1", n, "rational", nodes,
    ):
        return "document header does not match the request"
    entries = doc.get("entries")
    if not isinstance(entries, list) or len(entries) != n:
        return "entries is not an n x n array"
    ints, d = scaled_integers(Fraction(s) for s in nodes)
    for k, column in enumerate(leave_one_out_columns(ints)):
        for h in range(1, n + 1):
            m = n - h
            expected = str(Fraction(column[m], d**m))
            got = entries[h - 1][k] if len(entries[h - 1]) == n else None
            if got != expected:
                return f"entry ({h},{k + 1}) is {got!r}, exact value {expected!r}"
    return None


def check_verify_output(max_n: int, stdout: str) -> str | None:
    """``verify --json`` must report every size 1..max_n, every check must
    pass and the extracted constant must be exactly 1."""
    try:
        reports = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"verify output is not JSON: {exc}"
    sizes = [report.get("n") for report in reports]
    if sizes != list(range(1, max_n + 1)):
        return f"sizes reported {sizes}, expected 1..{max_n}"
    for report in reports:
        n = report["n"]
        checks = report.get("checks") or []
        if not checks or not all(check.get("passed") is True for check in checks):
            return f"n={n}: a check did not pass"
        if report.get("passed") is not True:
            return f"n={n}: report not passed"
        if report.get("extracted_constant") != "1":
            return f"n={n}: extracted constant {report.get('extracted_constant')!r}"
    return None
