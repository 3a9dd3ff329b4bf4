"""Sparse multivariate polynomial arithmetic over exact rationals.

A polynomial in n variables u1..un is a sum of terms c * u1^e1 * ... * un^en
with nonzero rational c.  The zero polynomial has no terms, and equality is
structural: two polynomials are equal iff their term maps are identical, so
``==`` never needs simplification.

Packed exponent vectors, after Monagan & Pearce, "Polynomial division using
dynamic arrays, heaps, and packed exponent vectors" (CASC 2007).  The term
map is keyed by one int per exponent vector: each variable owns a fixed
field of ``FIELD_BITS`` bits, u1 in the most significant one, so int order
on keys is lexicographic order on exponent vectors and a monomial product is
one int addition.  The top bit of every field is a guard: an exponent must
stay below ``EXPONENT_LIMIT`` = 2^(FIELD_BITS-1), so the sum of two fields
never carries into the next one, and an operation that forms a key with a
guard bit set raises ValueError instead of returning an exponent carried
into the next variable.  Coefficients are ints wherever they are integral
and Fractions only where they are not, so the +-1 coefficients of the
symbolic determinant multiply as machine ints.

That canonical form is enforced in two places.  Input from outside the
program -- ``MultiPoly(nvars, terms)``, ``constant`` and ``variable`` --
goes through the validating constructor, which checks arity and that every
exponent is an int in [0, EXPONENT_LIMIT), and converts every coefficient
through Fraction.  Arithmetic results are finished by
``_canonical_terms``, the one place where the guard bits are checked, zero
sums dropped and integral coefficients stored as int, and wrapped without
the outside-input checks by ``MultiPoly._canonical``.

Like terms are added in three loops.  ``_sum_products`` is the one product
kernel: it adds every product a_k * b_k of a list of pairs into one map of
raw sums, checked for guard bits over every key, cancelled ones included.
``*`` is its one-pair case, ``+`` feeds it products with 1, and
``ring_sum_of_products`` a whole cofactor minor, or the join of the row
split, from ``matrix.det_cofactor``, normalized once instead of once per
product and per partial sum.  ``substitute``, ``identify_variables``,
``swap_variables`` and ``cycle_variables`` each move every term in one pass
of their own; the identification guard-checks the terms that survive, since
a merged exponent past the limit may cancel, and the two bijections none.

Queries read exponents from one table: all keys' fields, flat, in term-map
order, decoded on first use by one ``struct`` unpack, so a cofactor minor or
a product never pays for it.  ``terms`` (exponent tuple -> nonzero Fraction)
and the degree queries read its rows, ``substitute`` and the identification
a column, the swap two.  Values are immutable by convention: no method
changes a term map and every operation returns a fresh polynomial, so a
table never goes stale.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import repeat
from operator import add, mul, neg, or_, sub
from typing import Iterable, Iterator, Mapping, Sequence

from .scalars import difference_product, rational_to_string

Monomial = tuple  # exponent vector, one slot per variable

FIELD_BITS = 16
EXPONENT_LIMIT = 1 << (FIELD_BITS - 1)  # exponents lie in [0, EXPONENT_LIMIT)


def _shift(nvars: int, slot: int) -> int:
    # u1 (slot 0) owns the most significant field.
    return (nvars - 1 - slot) * FIELD_BITS


@lru_cache(maxsize=32)
def _guard_mask(nvars: int) -> int:
    return sum((EXPONENT_LIMIT << _shift(nvars, slot)) for slot in range(nvars))


_UNIT = {0: 1}  # the term map of the constant 1


def _sum_products(pairs: Iterable[tuple[dict, dict]]) -> dict:
    """The product kernel: a_k * b_k summed over ``pairs`` of term maps.

    Every product goes into one map of raw sums, which ``_canonical_terms``
    then finishes once, however many products were added.
    """
    sums: dict = {}
    get = sums.get
    for a, b in pairs:
        b_items = b.items()
        for m1, c1 in a.items():
            for m2, c2 in b_items:
                m = m1 + m2
                sums[m] = get(m, 0) + c1 * c2
    return sums


def _canonical_terms(nvars: int, sums: dict) -> dict:
    """Finish a map of raw sums: check the guard bits over every key summed,
    cancelled ones included, then drop the zero sums and store integral
    coefficients as int."""
    if reduce(or_, sums, 0) & _guard_mask(nvars):
        raise ValueError(f"exponent reaches the limit {EXPONENT_LIMIT}")
    return {m: c.numerator if c.denominator == 1 else c for m, c in sums.items() if c}


class MultiPoly:
    """Sparse polynomial in a fixed number of variables over the rationals."""

    __slots__ = ("nvars", "_terms", "_table")

    def __init__(self, nvars: int, terms: Mapping[Monomial, Fraction] | None = None):
        if nvars < 0:
            raise ValueError("variable count must be non-negative")
        self.nvars = nvars
        packed = {
            self._pack(monomial): Fraction(coeff) for monomial, coeff in (terms or {}).items()
        }
        self._terms = _canonical_terms(nvars, packed)
        self._table = None

    def _pack(self, monomial) -> int:
        """Validate one outside exponent vector and pack it."""
        monomial = tuple(monomial)
        if len(monomial) != self.nvars:
            raise ValueError(
                f"exponent vector {monomial} does not match variable count {self.nvars}"
            )
        key = 0
        for e in monomial:
            if not isinstance(e, int) or isinstance(e, bool):
                raise ValueError(f"exponent {e!r} in {monomial} is not an int")
            if not 0 <= e < EXPONENT_LIMIT:
                raise ValueError(f"exponent {e} in {monomial} outside [0, {EXPONENT_LIMIT})")
            key = (key << FIELD_BITS) | e
        return key

    @classmethod
    def _canonical(cls, nvars: int, sums: dict) -> "MultiPoly":
        """The polynomial of a packed map of raw sums, without the checks on
        outside input."""
        return cls._wrap(nvars, _canonical_terms(nvars, sums))

    @classmethod
    def _wrap(cls, nvars: int, terms: dict) -> "MultiPoly":
        """The polynomial of a packed term map already in canonical form."""
        poly = cls.__new__(cls)
        poly.nvars = nvars
        poly._terms = terms
        poly._table = None
        return poly

    def _check_indices(self, *indices: int) -> None:
        for index in indices:
            if not 1 <= index <= self.nvars:
                raise ValueError(f"variable index {index} out of range 1..{self.nvars}")

    def _exponents(self) -> tuple[int, ...]:
        """The exponent table (module docstring), u1's field first."""
        if self._table is None:
            # One big-endian unsigned short per FIELD_BITS = 16 bit field.
            packed = b"".join(map(int.to_bytes, self._terms, repeat(2 * self.nvars), repeat("big")))
            self._table = struct.unpack(f">{len(packed) // 2}H", packed)
        return self._table

    def _rows(self) -> Iterator[Monomial]:
        """The exponent vector of each key, in term-map order."""
        if not self.nvars:
            return repeat((), len(self._terms))
        return zip(*[iter(self._exponents())] * self.nvars)

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """Decoded copy of the term map: exponent tuple -> nonzero Fraction."""
        return dict(zip(self._rows(), map(Fraction, self._terms.values())))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "MultiPoly":
        return MultiPoly(nvars)

    @staticmethod
    def one(nvars: int) -> "MultiPoly":
        return MultiPoly.constant(nvars, 1)

    @staticmethod
    def constant(nvars: int, value) -> "MultiPoly":
        return MultiPoly(nvars, {(0,) * nvars: Fraction(value)})

    @staticmethod
    def variable(nvars: int, index: int) -> "MultiPoly":
        """The polynomial u<index>; index is 1-based."""
        if not 1 <= index <= nvars:
            raise ValueError(f"variable index {index} out of range 1..{nvars}")
        exponents = [0] * nvars
        exponents[index - 1] = 1
        return MultiPoly(nvars, {tuple(exponents): Fraction(1)})

    # Ring-contract hooks used by the generic kernels.
    def ring_identities(self) -> tuple["MultiPoly", "MultiPoly"]:
        return MultiPoly.zero(self.nvars), MultiPoly.one(self.nvars)

    def ring_sum_of_products(self, pairs: Iterable[tuple]) -> "MultiPoly":
        """The sum of a * b over ``pairs``, summed in one term map; each
        operand is a polynomial in this ring, an int or a Fraction."""
        terms = []
        for a, b in pairs:
            a, b = self._coerce(a), self._coerce(b)
            if a is None or b is None:
                raise TypeError("sum of products needs polynomial, int or Fraction operands")
            terms.append((a._terms, b._terms))
        return MultiPoly._canonical(self.nvars, _sum_products(terms))

    # -- basic queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def total_degrees(self) -> set[int]:
        """The set of total degrees present; empty for the zero polynomial."""
        return set(map(sum, self._rows()))

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "MultiPoly | None":
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise ValueError(
                    f"variable count mismatch: {self.nvars} vs {other.nvars}"
                )
            return other
        if isinstance(other, bool):
            return None
        if isinstance(other, (int, Fraction)):
            return MultiPoly.constant(self.nvars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = _sum_products(((self._terms, _UNIT), (other._terms, _UNIT)))
        return MultiPoly._canonical(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._wrap(self.nvars, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = _sum_products(((self._terms, other._terms),))
        return MultiPoly._canonical(self.nvars, terms)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            coerced = self._coerce(other)
            if coerced is None:
                return NotImplemented
            other = coerced
        return self.nvars == other.nvars and self._terms == other._terms

    __hash__ = None  # mutable dict inside; polynomials are not dict keys

    # -- substitution and evaluation ----------------------------------------

    def substitute(self, index: int, value) -> "MultiPoly":
        """Replace u<index> (1-based) by a rational constant.

        The ambient variable count is unchanged; the substituted variable
        simply no longer occurs.
        """
        self._check_indices(index)
        value = Fraction(value)
        if value.denominator == 1:
            value = value.numerator
        column = self._exponents()[index - 1 :: self.nvars]
        powers = {e: value**e for e in set(column)}
        shift = _shift(self.nvars, index - 1)
        sums: dict = {}
        get = sums.get
        # A term whose factor is 0 adds nothing, and its key, with one field
        # cleared, has no guard bit to check.
        for key, coeff, e in zip(self._terms, self._terms.values(), column):
            if factor := powers[e]:
                key -= e << shift
                sums[key] = get(key, 0) + coeff * factor
        return MultiPoly._canonical(self.nvars, sums)

    def identify_variables(self, keep: int, replace: int) -> "MultiPoly":
        """Substitute u<replace> := u<keep> (both 1-based), keeping the arity.

        Exponents of the replaced variable are folded onto the kept one, so
        the result lives in the same ambient ring.
        """
        self._check_indices(keep, replace)
        if keep == replace:
            return self
        column = self._exponents()[replace - 1 :: self.nvars]
        # Adding e * move takes an exponent e from the replaced field to the kept one.
        move = (1 << _shift(self.nvars, keep - 1)) - (1 << _shift(self.nvars, replace - 1))
        deltas = {e: e * move for e in set(column)}
        sums: dict = {}
        get = sums.get
        keys = map(add, self._terms, map(deltas.__getitem__, column))
        for key, coeff in zip(keys, self._terms.values()):
            sums[key] = get(key, 0) + coeff
        # Only the surviving terms meet the guard check: a merged exponent
        # past the limit may cancel, and the result is then representable.
        return MultiPoly._canonical(self.nvars, {m: c for m, c in sums.items() if c})

    def swap_variables(self, a: int, b: int) -> "MultiPoly":
        """Exchange u<a> and u<b> (both 1-based): adding (e_b - e_a) * move
        to a key writes e_b into field a and e_a into field b."""
        self._check_indices(a, b)
        if a == b:
            return self
        n, table = self.nvars, self._exponents()
        move = (1 << _shift(n, a - 1)) - (1 << _shift(n, b - 1))
        deltas = map(mul, map(sub, table[b - 1 :: n], table[a - 1 :: n]), repeat(move))
        return MultiPoly._wrap(n, dict(zip(map(add, self._terms, deltas), self._terms.values())))

    def cycle_variables(self) -> "MultiPoly":
        """Map u<i> to u<i+1> and u<n> to u1: u<n>'s field, the lowest of each
        key, moves to the top, u1's, and the others shift down one field."""
        n, low, top = self.nvars, (1 << FIELD_BITS) - 1, _shift(self.nvars, 0)
        if n < 2:
            return self
        return MultiPoly._wrap(n, {k >> FIELD_BITS | (k & low) << top: c
                                   for k, c in self._terms.items()})

    def evaluate(self, point: Sequence):
        """Exact value at ``point`` (one scalar per variable)."""
        if len(point) != self.nvars:
            raise ValueError(
                f"point length {len(point)} does not match variable count {self.nvars}"
            )
        total = Fraction(0)
        for coeff, row in zip(self._terms.values(), self._rows()):
            term = coeff
            for value, e in zip(point, row):
                if e:
                    term = term * value**e
            total = total + term
        return total

    # -- rendering ------------------------------------------------------------

    def render(self) -> str:
        """Canonical textual form, e.g. ``u2*u3^2 - u2^2*u3 + 1/2``.

        Terms run by total degree descending, then exponent vector
        ascending.  A coefficient of magnitude 1 is left out of a
        non-constant term.  The first term carries only a leading ``-``;
        the others are joined by `` + `` or `` - ``.  Zero is ``0``."""
        if self.is_zero:
            return "0"
        pieces: list[str] = []
        # Keys are unique, so no two rows are compared.
        display = sorted(zip(map(neg, map(sum, self._rows())), self._terms, self._rows()))
        for position, (_, key, row) in enumerate(display):
            coeff = self._terms[key]
            factors = []
            for slot, e in enumerate(row):
                if e == 1:
                    factors.append(f"u{slot + 1}")
                elif e > 1:
                    factors.append(f"u{slot + 1}^{e}")
            magnitude = abs(coeff)
            if not factors:
                body = rational_to_string(magnitude)
            elif magnitude == 1:
                body = "*".join(factors)
            else:
                body = "*".join([rational_to_string(magnitude)] + factors)
            if position == 0:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"MultiPoly({self.nvars}, {self.render()!r})"


def variables(nvars: int) -> tuple[MultiPoly, ...]:
    """The symbolic nodes (u1, ..., un) as polynomials."""
    return tuple(MultiPoly.variable(nvars, i) for i in range(1, nvars + 1))


def vandermonde_product(n: int) -> MultiPoly:
    """Fully expanded pairwise-difference product over u1..un.

    ``scalars.difference_product`` of ``variables(n)``: homogeneous of
    total degree n(n-1)/2, with n! monomials of coefficient +-1.  n=1 gives
    the empty product 1.
    """
    if n < 1:
        raise ValueError("need at least one variable")
    return difference_product(variables(n))
