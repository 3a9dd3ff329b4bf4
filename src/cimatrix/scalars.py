"""Scalar support shared by every other module.

Every algorithm in this package is generic over any value type that
supports ``+``, ``-``, ``*`` and ``==`` (a commutative ring).  Three
concrete scalar families are supported out of the box:

* exact rationals -- ``int`` wherever the value is integral, else
  ``fractions.Fraction`` (arbitrary precision, normalized by
  construction: positive denominator, gcd 1).  ``rational_from_string``
  follows that rule, so an all-integer node list runs on ints end to end,
* machine floats -- built-in ``float``, with non-finite values rejected
  at module boundaries,
* sparse multivariate polynomials -- :class:`cimatrix.multipoly.MultiPoly`,
  which plugs into the helpers below through its ``ring_identities`` and
  ``ring_sum_of_products`` hooks.

``scalar_kind`` is the one rule of what is a scalar.  It and the helpers
``ring_identities``, ``sum_of_products`` and ``difference_product`` are the
whole ring contract: the generic kernels never inspect concrete types beyond
them.  ``exact_div`` is the checked int division of the exact kernels.
"""

from __future__ import annotations

import decimal
import math
import re
import sys
from fractions import Fraction

_INT_RE = re.compile(r"-?[0-9]+\Z")
_DECIMAL_RE = re.compile(r"(-?)([0-9]+)(?:\.([0-9]+))?(?:[eE]([+-]?[0-9]+))?\Z")


def rational_from_string(text: str) -> int | Fraction:
    """Parse the one scalar grammar: ``-?digits[.digits][(e|E)[+-]digits]``
    or a ``p/q`` fraction of signed ints.

    Both fraction parts may carry their own sign ("-2/-4" == 1/2), and an
    exponent scales exactly ("2.5e-3" == 1/400).  The result is an int
    whenever the value is integral ("5", "4/2", "2.0", "1E2", "-0"), else
    a normalized Fraction.  Raises ValueError on malformed input, a zero
    denominator, or a number that takes more digits to write out in plain
    digits (mantissa digits plus |exponent|) than the interpreter parses
    (``sys.get_int_max_str_digits``); that check comes before any power of
    ten is built.
    """
    text = text.strip()
    num_text, slash, den_text = text.partition("/")
    if slash:
        parts = num_text.strip(), den_text.strip()
        if not all(_INT_RE.match(part) for part in parts):
            raise ValueError(f"malformed rational {text!r}")
        for part in parts:
            _check_digits(len(part.lstrip("-")))
        num, den = map(int, parts)
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        value = Fraction(num, den)
    else:
        match = _DECIMAL_RE.match(text)
        if match is None:
            raise ValueError(f"malformed scalar {text!r}")
        sign, whole, decimals, exponent = match.groups("")
        _check_digits(len(exponent.lstrip("+-")))
        power = int(exponent or 0)
        _check_digits(len(whole) + len(decimals) + abs(power))
        mantissa = int(sign + whole + decimals)
        shift = power - len(decimals)
        value = mantissa * 10**shift if shift >= 0 else Fraction(mantissa, 10**-shift)
    return value.numerator if value.denominator == 1 else value


def _check_digits(count: int) -> None:
    """The interpreter's digit limit on parsed numbers, as a one-line error."""
    limit = sys.get_int_max_str_digits()
    if limit and count > limit:
        raise ValueError(f"a number has more than {limit} digits, the parsing limit")


def rational_to_string(value: int | Fraction) -> str:
    """Render an int or Fraction in the grammar ``rational_from_string``
    accepts; both carry a normalized numerator and denominator.  Any value
    renders, whatever the interpreter's int -> str digit limit, and the
    limit is never changed."""
    if value.denominator == 1:
        return _int_to_string(value.numerator)
    return f"{_int_to_string(value.numerator)}/{_int_to_string(value.denominator)}"


# Above this many bits (about 9900 digits) str(), which is quadratic in the
# digit count, is slower than the conversion below.
_STR_BITS = 1 << 15
_LEAF_BITS = 1024


def _int_to_string(x: int) -> str:
    """Decimal digits of an int: str() up to ``_STR_BITS`` bits if the bit
    length alone keeps the digit count within ``sys.get_int_max_str_digits``
    (an int of b bits has at most floor(b * log10 2) + 1 digits), else a
    divide-and-conquer conversion that never reads that limit.  The int is
    split in halves by bits, down to leaves of ``_LEAF_BITS``, and the
    halves are recombined as ``lo + hi * 2**w`` in ``decimal`` at full
    precision, whose large multiplies are subquadratic (the method of
    CPython 3.12's ``_pylong``).
    """
    bits = x.bit_length()
    limit = sys.get_int_max_str_digits()
    # 0.30103 > log10 2, so bits * 30103 // 100000 + 1 bounds the digits.
    if bits <= _STR_BITS and (not limit or bits * 30103 // 100000 < limit):
        return str(x)
    if x < 0:
        return "-" + _int_to_string(-x)
    powers: dict = {}

    def power(w: int) -> decimal.Decimal:
        if w not in powers:
            half = w >> 1
            powers[w] = decimal.Decimal(2) ** w if w <= _LEAF_BITS else power(half) * power(w - half)
        return powers[w]

    def convert(n: int, w: int) -> decimal.Decimal:
        if w <= _LEAF_BITS:
            return decimal.Decimal(n)
        half = w >> 1
        hi = n >> half
        return convert(n - (hi << half), half) + convert(hi, w - half) * power(half)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        return str(convert(x, x.bit_length()))


def float_to_string(value: float) -> str:
    """Canonical float rendering: shortest round-trip form, integers bare.

    Integral values render without a fractional part ("1", not "1.0") so
    that documents of any scalar kind show the all-ones matrix row the same
    way.  ``float(rational_from_string(render(x))) == x`` holds for every
    finite float either way: a float read from text is the correctly rounded
    value of the exact rational the text names.
    """
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"non-finite float {value!r}")
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def scalar_kind(values) -> type | None:
    """Each value must be an int (not a bool), a Fraction, a float, or a
    polynomial (it has the ``ring_identities`` hook); anything else, wherever
    it stands, is a TypeError.  The result type of a number list: float if any
    value is a float, else Fraction if any is one, else int; None for a list
    that holds a polynomial.  The hook is looked up only on non-numbers."""
    kind, polynomial = int, False
    for x in values:
        if isinstance(x, float):
            kind = float
        elif isinstance(x, Fraction):
            kind = kind if kind is float else Fraction
        elif not isinstance(x, int) or isinstance(x, bool):
            if isinstance(x, bool) or not hasattr(x, "ring_identities"):
                raise TypeError(f"unsupported scalar type {type(x).__name__}")
            polynomial = True
    return None if polynomial else kind


def ring_identities(sample) -> tuple:
    """(zero, one) of ``sample``'s ring (``scalar_kind``), or its hook's."""
    kind = scalar_kind((sample,))
    return sample.ring_identities() if kind is None else (kind(0), kind(1))


def sum_of_products(pairs, zero):
    """The sum of a * b over ``pairs``, in the ring of ``zero``.

    A ring with a ``ring_sum_of_products`` hook (polynomials) sums every
    product at once; int, Fraction and float fold from ``zero``, pair by
    pair in the order given.
    """
    hook = getattr(zero, "ring_sum_of_products", None)
    if hook is not None:
        return hook(pairs)
    total = zero
    for a, b in pairs:
        total = total + a * b
    return total


def difference_product(nodes):
    """prod_{i<j} (nodes[j] - nodes[i]) over any ring, for one or more nodes.

    Row by row (j outer): the row product R_j = prod_{i<j} (x_j - x_i) is
    formed first, so a polynomial row has at most 2^j terms and the partial
    product, the difference product of the first j+1 nodes, takes one
    multiply per row instead of one per factor.
    """
    _, det = ring_identities(nodes[0])
    for j in range(1, len(nodes)):
        row = nodes[j] - nodes[0]
        for i in range(1, j):
            row = row * (nodes[j] - nodes[i])
        det = det * row
    return det


def exact_div(a: int, b: int) -> int:
    """Exact division of ints, which fraction-free elimination and the
    deflation of int tables rely on: the quotient must be an int, and a
    nonzero remainder is a bug in the caller, not a rounding concern."""
    quotient, remainder = divmod(a, b)
    if remainder:
        raise ArithmeticError("inexact integer division")
    return quotient
