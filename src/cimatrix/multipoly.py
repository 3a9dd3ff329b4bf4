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
symbolic determinant multiply as machine ints.  ``MultiPoly.terms`` is a
decoded, read-only view of that map: exponent tuple -> nonzero Fraction.

That canonical form is enforced in two places.  Input from outside the
program -- ``MultiPoly(nvars, terms)``, ``constant``, ``variable`` and
``parse_poly`` -- goes through the validating constructor, which checks
arity and that every exponent is an int in [0, EXPONENT_LIMIT), and converts
every coefficient through Fraction.  Arithmetic results are finished by
``_canonical_terms``, the one place where the guard bits are checked, zero
sums dropped and integral coefficients stored as int, and wrapped without
the outside-input checks by ``MultiPoly._canonical``.

Like terms are added in two loops.  ``_sum_products`` is the one product
kernel: it adds every product a_k * b_k of a list of pairs into one map of
raw sums, checked for guard bits over every key, cancelled ones included.
``*`` is its one-pair case; ``+``, ``substitute`` and ``parse_poly`` feed
it products with constants; ``ring_sum_of_products`` feeds it a whole
cofactor minor from ``matrix.det_cofactor``, which is then normalized once
instead of once per product and per partial sum.  ``identify_variables``
moves each exponent in one pass of its own and guard-checks the terms that
survive, since a merged exponent past the limit may cancel.

Values are immutable by convention: no method mutates ``self``, every
operation returns a fresh polynomial.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache, reduce
from operator import or_
from typing import Iterable, Mapping, Sequence

from .scalars import rational_from_string, rational_to_string

Monomial = tuple  # exponent vector, one slot per variable

FIELD_BITS = 16
EXPONENT_LIMIT = 1 << (FIELD_BITS - 1)  # exponents lie in [0, EXPONENT_LIMIT)
_FIELD_MASK = (1 << FIELD_BITS) - 1

_FACTOR_RE = re.compile(r"u([0-9]+)(?:\^([0-9]+))?\Z")


def _shift(nvars: int, slot: int) -> int:
    # u1 (slot 0) owns the most significant field.
    return (nvars - 1 - slot) * FIELD_BITS


@lru_cache(maxsize=32)
def _guard_mask(nvars: int) -> int:
    return sum((EXPONENT_LIMIT << _shift(nvars, slot)) for slot in range(nvars))


def _unpack(key: int, nvars: int) -> Monomial:
    return tuple((key >> _shift(nvars, slot)) & _FIELD_MASK for slot in range(nvars))


def _degree(key: int) -> int:
    degree = 0
    while key:
        degree += key & _FIELD_MASK
        key >>= FIELD_BITS
    return degree


def _term_order_key(key: int):
    # Graded-lex display order: total degree descending, then exponent
    # vector ascending (u1's exponent most significant), which is the key.
    return (-_degree(key), key)


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

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[Monomial, Fraction] | None = None):
        if nvars < 0:
            raise ValueError("variable count must be non-negative")
        self.nvars = nvars
        packed = {
            self._pack(monomial): Fraction(coeff) for monomial, coeff in (terms or {}).items()
        }
        self._terms = _canonical_terms(nvars, packed)

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
        poly = cls.__new__(cls)
        poly.nvars = nvars
        poly._terms = _canonical_terms(nvars, sums)
        return poly

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """Decoded copy of the term map: exponent tuple -> nonzero Fraction."""
        return {
            _unpack(key, self.nvars): Fraction(coeff) for key, coeff in self._terms.items()
        }

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
    def ring_zero(self) -> "MultiPoly":
        return MultiPoly.zero(self.nvars)

    def ring_one(self) -> "MultiPoly":
        return MultiPoly.one(self.nvars)

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
        return set(map(_degree, self._terms))

    def leading_term(self) -> tuple[Monomial, Fraction]:
        """Leading (monomial, coefficient) in canonical order; zero poly is an error."""
        if self.is_zero:
            raise ValueError("zero polynomial has no leading term")
        key = min(self._terms, key=_term_order_key)
        return _unpack(key, self.nvars), Fraction(self._terms[key])

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
        return MultiPoly._canonical(self.nvars, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = _sum_products(((self._terms, other._terms),))
        return MultiPoly._canonical(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = MultiPoly.one(self.nvars)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

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
        if not 1 <= index <= self.nvars:
            raise ValueError(f"variable index {index} out of range 1..{self.nvars}")
        value = Fraction(value)
        if value.denominator == 1:
            value = value.numerator
        shift = _shift(self.nvars, index - 1)
        field = _FIELD_MASK << shift
        groups: dict = {}  # e -> the terms with u<index>^e, that field cleared
        for key, coeff in self._terms.items():
            groups.setdefault((key >> shift) & _FIELD_MASK, {})[key & ~field] = coeff
        terms = _sum_products((rest, {0: value**e}) for e, rest in groups.items())
        return MultiPoly._canonical(self.nvars, terms)

    def identify_variables(self, keep: int, replace: int) -> "MultiPoly":
        """Substitute u<replace> := u<keep> (both 1-based), keeping the arity.

        Exponents of the replaced variable are folded onto the kept one, so
        the result lives in the same ambient ring.
        """
        for index in (keep, replace):
            if not 1 <= index <= self.nvars:
                raise ValueError(f"variable index {index} out of range 1..{self.nvars}")
        if keep == replace:
            return self
        source = _shift(self.nvars, replace - 1)
        # Adding e * move takes an exponent e out of the replaced field and
        # into the kept one.
        move = (1 << _shift(self.nvars, keep - 1)) - (1 << source)
        sums: dict = {}
        get = sums.get
        for key, coeff in self._terms.items():
            key += ((key >> source) & _FIELD_MASK) * move
            sums[key] = get(key, 0) + coeff
        # Only the surviving terms meet the guard check: a merged exponent
        # past the limit may cancel, and the result is then representable.
        return MultiPoly._canonical(self.nvars, {m: c for m, c in sums.items() if c})

    def evaluate(self, point: Sequence):
        """Exact value at ``point`` (one scalar per variable)."""
        if len(point) != self.nvars:
            raise ValueError(
                f"point length {len(point)} does not match variable count {self.nvars}"
            )
        total = Fraction(0)
        for key, coeff in self._terms.items():
            term = coeff
            for value, e in zip(point, _unpack(key, self.nvars)):
                if e:
                    term = term * value**e
            total = total + term
        return total

    # -- rendering ------------------------------------------------------------

    def render(self) -> str:
        """Canonical textual form, e.g. ``u2*u3^2 - u2^2*u3 + 1/2``."""
        if self.is_zero:
            return "0"
        pieces: list[str] = []
        for position, key in enumerate(sorted(self._terms, key=_term_order_key)):
            coeff = self._terms[key]
            factors = []
            for slot, e in enumerate(_unpack(key, self.nvars)):
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

    The product of (uj - ui) over all 1 <= i < j <= n: homogeneous of total
    degree n(n-1)/2, with n! monomials of coefficient +-1.  n=1 gives the
    empty product 1.
    """
    if n < 1:
        raise ValueError("need at least one variable")
    u = variables(n)
    result = MultiPoly.one(n)
    # Row by row (j outer): the row product R_j = prod_{i<j} (uj - ui) has
    # at most 2^j terms and is formed first, so the partial product, the
    # pairwise-difference product of u1..u(j+1) with (j+1)! terms, takes
    # one multiply per row instead of one per factor.
    for j in range(1, n):
        row = u[j] - u[0]
        for i in range(1, j):
            row = row * (u[j] - u[i])
        result = result * row
    return result


def parse_poly(text: str, nvars: int) -> MultiPoly:
    """Parse the canonical rendering back into a polynomial.

    Accepts what ``render`` produces: terms separated by `` + `` / `` - ``,
    an optional leading sign, and ``*``-joined factors per term where each
    factor is a rational coefficient or ``u<k>[^e]``.  Exponents of one
    variable in one term add up, and their sum must stay below
    ``EXPONENT_LIMIT``.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")
    if text == "0":
        return MultiPoly.zero(nvars)
    normalized = text
    if normalized.startswith("- "):
        raise ValueError(f"malformed polynomial {text!r}")
    if normalized.startswith("-"):
        normalized = "-" + normalized[1:].lstrip()
    chunks = normalized.replace(" - ", " + -").split(" + ")
    pairs = []
    for chunk in chunks:
        chunk = chunk.strip()
        negative = chunk.startswith("-")
        if negative:
            chunk = chunk[1:]
        coeff = Fraction(1)
        exponents = [0] * nvars
        for factor in chunk.split("*"):
            factor = factor.strip()
            match = _FACTOR_RE.match(factor)
            if match:
                index = int(match.group(1))
                if not 1 <= index <= nvars:
                    raise ValueError(f"variable u{index} out of range in {text!r}")
                exponents[index - 1] += int(match.group(2) or 1)
            else:
                coeff *= rational_from_string(factor)
        pairs.append((tuple(exponents), -coeff if negative else coeff))
    terms = [MultiPoly(nvars, {monomial: coeff})._terms for monomial, coeff in pairs]
    return MultiPoly._canonical(nvars, _sum_products((t, _UNIT) for t in terms))
