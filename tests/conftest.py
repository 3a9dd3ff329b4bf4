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

import cimatrix.matrix
from cimatrix.multipoly import MultiPoly, vandermonde_product, variables
from cimatrix.scalars import rational_from_string, rational_to_string, ring_identities
from cimatrix.symfunc import elem_sym_all
from cimatrix.verifier import CheckResult, verify_first_node_zero_block

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


# ---------------------------------------------------------------------------
# references for the symbolic checks: the n!-term expansion and identification


def identify_both(matrix, det, i, j):
    """Reference verdict of equal-columns: identify u_j := u_i in ``det`` and
    in both columns of ``matrix``, reading no certificate."""
    failures = []
    if not det.identify_variables(i, j).is_zero:
        failures.append("determinant nonzero after identification")
    if ([entry.identify_variables(i, j) for entry in matrix.column(i)]
            != [entry.identify_variables(i, j) for entry in matrix.column(j)]):
        failures.append(f"columns {i} and {j} differ after identification")
    witness = "; ".join(failures) or f"u{j}:=u{i} kills det, columns merge"
    return CheckResult(f"equal-columns({i},{j})", not failures, witness)


def multiple_of_v(n, det):
    """The constant c with ``det`` = c*V over u1..un, or None if there is none."""
    v = vandermonde_product(n)
    c = det.terms.get(tuple(range(n)), Fraction(0)) if det.nvars == n else None
    return c if c is not None and det == v * c else None


def reference_checks(matrix):
    """The verdicts of the checks that read the determinant, computed from the
    n!-term expansion of ``matrix`` (``det_cofactor``, looked up at each call)
    and from identification: the reference the verifier's proof is held to."""
    n = matrix.n
    det = cimatrix.matrix.det_cofactor(matrix)
    c, degrees, expected = multiple_of_v(n, det), det.total_degrees(), n * (n - 1) // 2
    checks = [
        CheckResult("determinant-identity", det == vandermonde_product(n),
                    "not a multiple of V" if c is None else
                    f"constant={rational_to_string(c)} difference={'0' if c == 1 else 'nonzero'}"),
        CheckResult("homogeneity", degrees == {expected},
                    f"degree set {sorted(degrees)} expected {[expected]}"),
    ]
    checks += [identify_both(matrix, det, i, j)
               for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if n >= 2:
        checks.append(reference_first_node(matrix, det))
    return {check.name: check for check in checks}


def reference_first_node(matrix, det):
    """first-node-zero-block with check (d) computed: ``det`` with u1 := 0
    against (u2*...*un) times the pairwise-difference product of u2..un
    (``det_closed_form``, looked up at each call).  Checks (a)-(c) read the
    matrix alone and are the verifier's own."""
    n = matrix.n
    matrix_only = verify_first_node_zero_block(matrix, True, Fraction(1))
    failures = [] if matrix_only.passed else matrix_only.witness.split("; ")
    tail = variables(n)[1:]
    prefactor = MultiPoly.one(n)
    for u in tail:
        prefactor = prefactor * u
    if det.substitute(1, 0) != prefactor * cimatrix.matrix.det_closed_form(tail):
        failures.append("determinant does not factor through the trailing block")
    return CheckResult("first-node-zero-block", not failures,
                       "; ".join(failures) or matrix_only.witness)
