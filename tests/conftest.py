"""Shared test data and helpers.

GOLDEN_N4_ENTRIES is the 4x4 symbolic CI-matrix written out by hand,
entry for entry, in the canonical term order (total degree descending,
then exponent tuple ascending): row h, column k holds e_{4-h} of the
symbolic nodes u1..u4 with uk removed.
"""

import json
import random
from fractions import Fraction
from itertools import product

from cimatrix.scalars import rational_from_string, ring_identities
from cimatrix.symfunc import elem_sym_all

GOLDEN_N4_ENTRIES = [
    ["u2*u3*u4", "u1*u3*u4", "u1*u2*u4", "u1*u2*u3"],
    [
        "u3*u4 + u2*u4 + u2*u3",
        "u3*u4 + u1*u4 + u1*u3",
        "u2*u4 + u1*u4 + u1*u2",
        "u2*u3 + u1*u3 + u1*u2",
    ],
    ["u4 + u3 + u2", "u4 + u3 + u1", "u4 + u2 + u1", "u3 + u2 + u1"],
    ["1", "1", "1", "1"],
]


def read_gen_json(text: str) -> dict:
    """The payload of a ``gen --out json`` document, with every rational
    node and cell parsed by ``rational_from_string`` and every float64 one
    read as ``float`` of that value; symbolic cells stay strings."""
    payload = json.loads(text)
    assert payload["schema"] == "ci-matrix/1"
    kind = payload["scalar_kind"]
    if kind != "symbolic":
        read = float if kind == "float64" else (lambda value: value)
        payload["mu"] = [read(rational_from_string(s)) for s in payload["mu"]]
        payload["entries"] = [
            [read(rational_from_string(s)) for s in row] for row in payload["entries"]
        ]
    return payload


def pretty_layout(entries) -> str:
    """The documented pretty format: per-column width, two-space gutters."""
    n = len(entries)
    widths = [max(len(entries[r][c]) for r in range(n)) for c in range(n)]
    lines = []
    for row in entries:
        body = "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        lines.append(f"[ {body} ]")
    return "\n".join(lines) + "\n"


def random_distinct_fractions(rng: random.Random, n: int) -> list[Fraction]:
    """n distinct small rationals: numerators in [-9, 9], denominators in [1, 9]."""
    values: set[Fraction] = set()
    while len(values) < n:
        values.add(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    out = list(values)
    rng.shuffle(out)
    return out


def recomputed_leave_one_out(nodes, k: int) -> list:
    """[e_0, ..., e_{n-1}] of the nodes without node k (1-based), recomputed
    from scratch on the reduced list: the reference for the deflation build."""
    remaining = list(nodes[: k - 1]) + list(nodes[k:])
    if not remaining:
        return [ring_identities(nodes[0])[1]]
    return elem_sym_all(remaining)[: len(nodes)]


def ring_axiom_failures(samples) -> list[str]:
    """Check commutativity, associativity, distributivity and the identities
    on every triple drawn from ``samples``; return the violations.

    Equality is the scalar's own ``==`` (so for floats this is only
    meaningful on samples whose sums and products are exactly representable).
    """
    samples = list(samples)
    if len(samples) < 3:
        raise ValueError("need at least 3 samples")
    failures = []
    zero, one = ring_identities(samples[0])
    for a in samples:
        if not (a + zero == a and a * one == a):
            failures.append(f"identity laws fail at {a!r}")
        if not (a + (-a) == zero):
            failures.append(f"additive inverse fails at {a!r}")
    for a, b in product(samples, repeat=2):
        if not (a + b == b + a):
            failures.append(f"addition not commutative at ({a!r}, {b!r})")
        if not (a * b == b * a):
            failures.append(f"multiplication not commutative at ({a!r}, {b!r})")
    for a, b, c in product(samples, repeat=3):
        if not ((a + b) + c == a + (b + c)):
            failures.append(f"addition not associative at ({a!r}, {b!r}, {c!r})")
        if not ((a * b) * c == a * (b * c)):
            failures.append(f"multiplication not associative at ({a!r}, {b!r}, {c!r})")
        if not (a * (b + c) == a * b + a * c):
            failures.append(f"distributivity fails at ({a!r}, {b!r}, {c!r})")
    return failures
