"""Sparse multivariate polynomial arithmetic over exact rationals.

A polynomial in n variables u1..un is a map from exponent vectors (tuples
of n non-negative ints) to nonzero Fraction coefficients.  The zero
polynomial is the empty map, and equality is structural: two polynomials
are equal iff their term maps are identical, so ``==`` never needs
simplification.

That canonical form is enforced in two places.  Input from outside the
program -- ``MultiPoly(nvars, terms)``, ``constant``, ``variable`` and
``parse_poly`` -- goes through the validating constructor, which checks
arity and exponent signs and converts every coefficient to Fraction.
Arithmetic on canonical polynomials keeps arity, exponent signs and
coefficient type by itself; its results are combined by ``_sum_terms``,
the one place where like terms are added and zero sums dropped, and
wrapped unchecked by ``MultiPoly._canonical``.

Values are immutable by convention: no method mutates ``self``, every
operation returns a fresh polynomial.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from operator import add
from typing import Iterable, Mapping, Sequence

from .scalars import rational_from_string, rational_to_string

Monomial = tuple  # exponent vector, one slot per variable

_FACTOR_RE = re.compile(r"u([0-9]+)(?:\^([0-9]+))?\Z")


def _term_order_key(monomial: Monomial):
    # Graded-lex display order: total degree descending, then exponent
    # tuple ascending (u1's exponent most significant).
    return (-sum(monomial), monomial)


def _sum_terms(pairs: Iterable[tuple[Monomial, Fraction]]) -> dict[Monomial, Fraction]:
    """Add the coefficients of equal monomials, then drop the zero sums."""
    out: dict[Monomial, Fraction] = {}
    for monomial, coeff in pairs:
        if monomial in out:
            out[monomial] += coeff
        else:
            out[monomial] = coeff
    return {monomial: coeff for monomial, coeff in out.items() if coeff}


class MultiPoly:
    """Sparse polynomial in a fixed number of variables over Fraction."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Monomial, Fraction] | None = None):
        if nvars < 0:
            raise ValueError("variable count must be non-negative")
        canonical: dict[Monomial, Fraction] = {}
        for monomial, coeff in (terms or {}).items():
            monomial = tuple(monomial)
            if len(monomial) != nvars:
                raise ValueError(
                    f"exponent vector {monomial} does not match variable count {nvars}"
                )
            if any(e < 0 for e in monomial):
                raise ValueError(f"negative exponent in {monomial}")
            coeff = Fraction(coeff)
            if coeff:
                canonical[monomial] = coeff
        self.nvars = nvars
        self.terms = canonical

    @classmethod
    def _canonical(cls, nvars: int, terms: dict[Monomial, Fraction]) -> "MultiPoly":
        """Wrap a term map that is already canonical, without checks."""
        poly = cls.__new__(cls)
        poly.nvars = nvars
        poly.terms = terms
        return poly

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

    # -- basic queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degrees(self) -> set[int]:
        """The set of total degrees present; empty for the zero polynomial."""
        return {sum(m) for m in self.terms}

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in canonical display order (leading term first)."""
        return sorted(self.terms.items(), key=lambda item: _term_order_key(item[0]))

    def leading_term(self) -> tuple[Monomial, Fraction]:
        """Leading (monomial, coefficient) in canonical order; zero poly is an error."""
        if self.is_zero:
            raise ValueError("zero polynomial has no leading term")
        return self.sorted_terms()[0]

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
        terms = _sum_terms(chain(self.terms.items(), other.terms.items()))
        return MultiPoly._canonical(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._canonical(self.nvars, {m: -c for m, c in self.terms.items()})

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
        terms = _sum_terms(
            (tuple(map(add, m1, m2)), c1 * c2)
            for m1, c1 in self.terms.items()
            for m2, c2 in other.terms.items()
        )
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
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            coerced = self._coerce(other)
            if coerced is None:
                return NotImplemented
            other = coerced
        return self.nvars == other.nvars and self.terms == other.terms

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
        slot = index - 1
        terms = _sum_terms(
            (monomial[:slot] + (0,) + monomial[slot + 1 :], coeff * value ** monomial[slot])
            for monomial, coeff in self.terms.items()
        )
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
        pairs = []
        for monomial, coeff in self.terms.items():
            merged = list(monomial)
            merged[keep - 1] += merged[replace - 1]
            merged[replace - 1] = 0
            pairs.append((tuple(merged), coeff))
        return MultiPoly._canonical(self.nvars, _sum_terms(pairs))

    def evaluate(self, point: Sequence):
        """Exact value at ``point`` (one scalar per variable)."""
        if len(point) != self.nvars:
            raise ValueError(
                f"point length {len(point)} does not match variable count {self.nvars}"
            )
        total = Fraction(0)
        for monomial, coeff in self.terms.items():
            term = coeff
            for value, e in zip(point, monomial):
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
        for position, (monomial, coeff) in enumerate(self.sorted_terms()):
            factors = []
            for slot, e in enumerate(monomial):
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
    for i in range(n):
        for j in range(i + 1, n):
            result = result * (u[j] - u[i])
    return result


def parse_poly(text: str, nvars: int) -> MultiPoly:
    """Parse the canonical rendering back into a polynomial.

    Accepts what ``render`` produces: terms separated by `` + `` / `` - ``,
    an optional leading sign, and ``*``-joined factors per term where each
    factor is a rational coefficient or ``u<k>[^e]``.
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
    return MultiPoly(nvars, _sum_terms(pairs))
