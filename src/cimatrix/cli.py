"""Command-line surface: generate CI-matrices, evaluate determinants against
oracles, run the symbolic verification suite, and benchmark the O(n^2)
closed form against O(n^3) LU.

Exit codes: 0 success, 2 usage or parse error, 3 verification or oracle
failure, or numerical failure (float overflow on finite input).  All
diagnostics go to stderr; stdout carries only the requested document,
report, or CSV stream.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import re
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .matrix import (
    CIMatrix,
    NumericalError,
    SizeCapError,
    build_ci_matrix,
    closed_form_logdet,
    compare_determinants,
    det_closed_form,
    lu_logdet,
)
from .multipoly import MultiPoly, parse_poly, variables
from .scalars import float_to_string, rational_from_string, rational_to_string
from .verifier import DEFAULT_CAP, verify_suite

SCHEMA = "ci-matrix/1"
# Largest `gen --symbolic` size: row h has C(n-1, n-h) terms per entry, so
# the work grows about 5x per two added nodes; n=12 takes about 0.3 s.
SYMBOLIC_GEN_CAP = 12
SCALAR_KINDS = ("rational", "float64", "symbolic")
BENCH_CSV_HEADER = "n,method,wall_time_s,repeats,result_digest"


# ---------------------------------------------------------------------------
# matrix documents


def render_scalar(value, scalar_kind: str) -> str:
    if scalar_kind == "rational":
        return rational_to_string(value)
    if scalar_kind == "float64":
        return float_to_string(value)
    if scalar_kind == "symbolic":
        return value.render()
    raise ValueError(f"unknown scalar kind {scalar_kind!r}")


def parse_scalar(text: str, scalar_kind: str, nvars: int = 0):
    """Every kind reads one grammar (``rational_from_string``); a float64
    scalar is the correctly rounded value of the exact one, and text whose
    value overflows, or is nonzero and rounds to 0, is refused."""
    if scalar_kind == "rational":
        return rational_from_string(text)
    if scalar_kind == "float64":
        exact = rational_from_string(text)
        try:
            value = float(exact)
        except OverflowError:
            raise ValueError(f"{text!r} is beyond the float64 range") from None
        if value == 0.0 and exact:
            raise ValueError(f"{text!r} is nonzero but rounds to 0 in float64")
        return value
    if scalar_kind == "symbolic":
        return parse_poly(text, nvars)
    raise ValueError(f"unknown scalar kind {scalar_kind!r}")


@dataclass
class MatrixDocument:
    """Wire form of a CI-matrix: every scalar is a string in the grammar of
    its kind, so the JSON and CSV forms are stable across platforms."""

    n: int
    scalar_kind: str
    mu: list[str] | str  # node strings, or the literal "symbolic"
    entries: list[list[str]]

    @staticmethod
    def from_matrix(matrix: CIMatrix, scalar_kind: str) -> "MatrixDocument":
        if scalar_kind not in SCALAR_KINDS:
            raise ValueError(f"unknown scalar kind {scalar_kind!r}")
        mu: list[str] | str
        if scalar_kind == "symbolic":
            mu = "symbolic"
        else:
            mu = [render_scalar(x, scalar_kind) for x in matrix.nodes]
        entries = [
            [render_scalar(entry, scalar_kind) for entry in row]
            for row in matrix.entries
        ]
        return MatrixDocument(matrix.n, scalar_kind, mu, entries)

    def to_matrix(self) -> CIMatrix:
        """Parse the document back into a matrix of the same form
        ``build_ci_matrix`` gives: float64 entries as an array."""
        if self.scalar_kind == "symbolic":
            nodes = variables(self.n)
        else:
            nodes = tuple(parse_scalar(s, self.scalar_kind) for s in self.mu)
        rows = [
            [parse_scalar(s, self.scalar_kind, self.n) for s in row]
            for row in self.entries
        ]
        if self.scalar_kind == "float64":
            return CIMatrix(self.n, nodes, np.array(rows, dtype=float))
        return CIMatrix(self.n, nodes, tuple(tuple(row) for row in rows))

    def to_json(self) -> str:
        payload = {
            "schema": SCHEMA,
            "n": self.n,
            "scalar_kind": self.scalar_kind,
            "mu": self.mu,
            "entries": self.entries,
        }
        return json.dumps(payload, indent=2) + "\n"

    @staticmethod
    def from_json(text: str) -> "MatrixDocument":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON: {exc}") from None
        except RecursionError:
            raise ValueError("invalid JSON: nested too deeply") from None
        if not isinstance(payload, dict) or payload.get("schema") != SCHEMA:
            raise ValueError(f"expected schema {SCHEMA!r}")
        n = payload.get("n")
        kind = payload.get("scalar_kind")
        mu = payload.get("mu")
        entries = payload.get("entries")
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError("n must be a positive integer")
        if kind not in SCALAR_KINDS:
            raise ValueError(f"unknown scalar kind {kind!r}")
        if kind == "symbolic":
            if mu != "symbolic":
                raise ValueError('symbolic documents carry mu = "symbolic"')
        else:
            if not isinstance(mu, list) or len(mu) != n or any(
                not isinstance(s, str) for s in mu
            ):
                raise ValueError("mu must list one scalar string per node")
        if not isinstance(entries, list) or len(entries) != n or any(
            not isinstance(row, list) or len(row) != n
            or any(not isinstance(s, str) for s in row)
            for row in entries
        ):
            raise ValueError("entries must be an n x n array of strings")
        doc = MatrixDocument(n, kind, mu, entries)
        doc.validate()
        return doc

    def validate(self) -> None:
        """Every cell parses in its grammar and the bottom row is all ones."""
        if self.scalar_kind != "symbolic":
            for s in self.mu:
                parse_scalar(s, self.scalar_kind)
        *upper, bottom = self.entries
        for row in upper:
            for s in row:
                parse_scalar(s, self.scalar_kind, self.n)
        one = MultiPoly.one(self.n) if self.scalar_kind == "symbolic" else 1
        # Every cell parses before the first bottom-row comparison.
        for s, value in zip(bottom, [parse_scalar(s, self.scalar_kind, self.n) for s in bottom]):
            if not (value == one):
                raise ValueError(f"bottom row entry {s!r} is not 1")

    def to_csv(self) -> str:
        return "\n".join(",".join(row) for row in self.entries) + "\n"

    def to_pretty(self) -> str:
        widths = [
            max(len(self.entries[r][c]) for r in range(self.n))
            for c in range(self.n)
        ]
        lines = []
        for row in self.entries:
            body = "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            lines.append(f"[ {body} ]")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# benchmark


@dataclass
class BenchRecord:
    n: int
    method: str  # "closed_form" | "lu" | "bareiss"
    wall_time_s: float
    repeats: int
    result_digest: str

    def csv_row(self) -> str:
        return f"{self.n},{self.method},{self.wall_time_s:.9f},{self.repeats},{self.result_digest}"


def logdet_digest(sign: int, logabs: float, granularity: float = 1e-8) -> str:
    """Short stable digest of a determinant in (sign, log|det|) form.

    The log-magnitude is quantized to ``granularity`` before hashing so the
    digests of two methods match whenever they agree to that relative
    precision.
    """
    if sign == 0:
        payload = "0"
    else:
        payload = f"{sign}:{round(logabs / granularity)}"
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def draw_bench_nodes(n: int, seed: int) -> list[float]:
    """Reproducible well-separated float nodes (min pairwise gap 0.1)."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng([seed, n])
    draws = np.sort(rng.uniform(0.0, 2.0, n))
    return [float(x) for x in draws + 0.1 * np.arange(n)]


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_bench(
    n_list: Sequence[int], repeats: int, seed: int
) -> tuple[list[BenchRecord], list[str]]:
    """Time the closed form against LU on the same seeded inputs.

    The determinants are evaluated in (sign, log-magnitude) form: products
    over thousands of node gaps overflow a double long before n reaches
    benchmark sizes.  Matrix construction happens outside both timers.
    Returns the records plus any digest mismatches (a mismatch is a bug).
    """
    if repeats < 1:
        raise ValueError("repeats must be positive")
    records: list[BenchRecord] = []
    mismatches: list[str] = []
    for n in n_list:
        nodes = draw_bench_nodes(n, seed)
        matrix = build_ci_matrix(nodes)
        closed = closed_form_logdet(nodes)
        closed_time = _median_time(lambda: closed_form_logdet(nodes), repeats)
        lu = lu_logdet(matrix)
        lu_time = _median_time(lambda: lu_logdet(matrix), repeats)
        closed_digest = logdet_digest(*closed)
        lu_digest = logdet_digest(*lu)
        records.append(BenchRecord(n, "closed_form", closed_time, repeats, closed_digest))
        records.append(BenchRecord(n, "lu", lu_time, repeats, lu_digest))
        if closed_digest != lu_digest:
            mismatches.append(
                f"n={n}: closed_form {closed} vs lu {lu} disagree beyond digest tolerance"
            )
    return records, mismatches


# ---------------------------------------------------------------------------
# subcommands


def _parse_node_text(text: str, kind: str) -> list:
    values = [piece.strip() for piece in text.split(",")]
    if not values or any(not piece for piece in values):
        raise ValueError(f"malformed node list {text!r}")
    return [parse_scalar(piece, kind) for piece in values]


@contextmanager
def _unlimited_int_rendering():
    """Lift the interpreter's limit on int -> str digits while an exact
    result is rendered: a valid answer may have any number of digits.
    Parsing of outside input stays limited."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def cmd_gen(args) -> int:
    if args.symbolic:
        if args.n is None:
            raise ValueError("--symbolic requires --n")
        if args.n < 1:
            raise ValueError("n must be at least 1")
        if args.n > SYMBOLIC_GEN_CAP:
            raise SizeCapError(f"--n {args.n} exceeds the symbolic gen cap {SYMBOLIC_GEN_CAP}")
        matrix = build_ci_matrix(variables(args.n))
        kind = "symbolic"
    else:
        nodes = _parse_node_text(args.mu, args.kind)
        if args.n is not None and args.n != len(nodes):
            raise ValueError(f"--n {args.n} does not match {len(nodes)} nodes")
        matrix = build_ci_matrix(nodes)
        kind = args.kind
    with _unlimited_int_rendering():
        doc = MatrixDocument.from_matrix(matrix, kind)
    if args.out == "json":
        sys.stdout.write(doc.to_json())
    elif args.out == "csv":
        sys.stdout.write(doc.to_csv())
    else:
        sys.stdout.write(doc.to_pretty())
    return 0


def cmd_det(args) -> int:
    if not math.isfinite(args.tol) or args.tol < 0:
        raise ValueError(f"--tol must be finite and non-negative, got {args.tol!r}")
    nodes = _parse_node_text(args.mu, "rational")
    if args.oracle == "none":
        value = det_closed_form(nodes)
        with _unlimited_int_rendering():
            closed = rational_to_string(value)
        sys.stdout.write(f"closed_form={closed}\n")
        return 0
    report = compare_determinants(nodes, args.oracle)
    if report.exact:
        with _unlimited_int_rendering():
            closed = rational_to_string(report.closed_form)
            oracle = rational_to_string(report.oracle)
            discrepancy = rational_to_string(report.discrepancy)
    else:
        closed = float_to_string(report.closed_form)
        oracle = float_to_string(report.oracle)
        discrepancy = repr(float(report.discrepancy))
    agree = report.agrees(args.tol)
    sys.stdout.write(f"closed_form={closed}\n")
    sys.stdout.write(f"oracle={oracle} kind={report.oracle_kind}\n")
    sys.stdout.write(f"discrepancy={discrepancy} agree={'yes' if agree else 'no'}\n")
    if not agree:
        print(f"oracle {report.oracle_kind} disagrees beyond tolerance", file=sys.stderr)
        return 3
    return 0


def cmd_verify(args) -> int:
    if args.max_n < 1:
        raise ValueError("--max-n must be at least 1")
    if args.max_n > args.cap:
        raise SizeCapError(f"--max-n {args.max_n} exceeds cap {args.cap}")
    reports = [verify_suite(n, args.cap) for n in range(1, args.max_n + 1)]
    if args.json:
        sys.stdout.write(json.dumps([r.to_dict() for r in reports], indent=2) + "\n")
    else:
        for report in reports:
            for line in report.lines():
                sys.stdout.write(line + "\n")
    return 0 if all(r.passed for r in reports) else 3


def cmd_bench(args) -> int:
    try:
        n_list = [int(piece) for piece in args.n_list.split(",")]
    except ValueError:
        raise ValueError(f"malformed --n-list {args.n_list!r}") from None
    if any(n < 1 for n in n_list):
        raise ValueError("every n must be positive")
    records, mismatches = run_bench(n_list, args.repeats, args.seed)
    sys.stdout.write(BENCH_CSV_HEADER + "\n")
    for record in records:
        sys.stdout.write(record.csv_row() + "\n")
    for message in mismatches:
        print(message, file=sys.stderr)
    return 3 if mismatches else 0


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process and shared by every call of
    ``main``, which only reads it: each parse fills a fresh namespace.
    Callers must not change the parser."""
    parser = argparse.ArgumentParser(
        prog="cimatrix",
        description=(
            "Construct CI-matrices, evaluate their determinant in closed form, "
            "verify the determinant identity symbolically, and benchmark the "
            "closed form against LU."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a CI-matrix as json, csv or pretty text")
    source = gen.add_mutually_exclusive_group(required=True)
    source.add_argument("--mu", help="comma-separated node values (u1 first)")
    source.add_argument("--symbolic", action="store_true", help="symbolic nodes u1..un")
    gen.add_argument("--n", type=int, help="node count (required with --symbolic)")
    gen.add_argument("--kind", choices=("rational", "float64"), default="rational",
                     help="scalar kind for --mu nodes")
    gen.add_argument("--out", choices=("json", "csv", "pretty"), default="pretty")
    gen.set_defaults(handler=cmd_gen)

    det = sub.add_parser("det", help="closed-form determinant, optionally vs an oracle")
    det.add_argument("--mu", required=True, help="comma-separated rational nodes")
    det.add_argument("--oracle", choices=("none", "bareiss", "lu"), default="none")
    det.add_argument("--tol", type=float, default=1e-8,
                     help="relative tolerance for the lu oracle")
    det.set_defaults(handler=cmd_det)

    verify = sub.add_parser("verify", help="run the symbolic verification suite")
    verify.add_argument("--max-n", type=int, required=True, dest="max_n")
    verify.add_argument("--cap", type=int, default=DEFAULT_CAP,
                        help="largest size the symbolic expansion may attempt")
    verify.add_argument("--json", action="store_true", help="machine-readable reports")
    verify.set_defaults(handler=cmd_verify)

    bench = sub.add_parser("bench", help="time closed form vs LU on float nodes")
    bench.add_argument("--n-list", required=True, dest="n_list",
                       help="comma-separated matrix sizes")
    bench.add_argument("--repeats", type=int, default=3)
    bench.add_argument("--seed", type=int, default=0)
    bench.set_defaults(handler=cmd_bench)
    return parser


def _join_negative_mu(argv: Sequence[str]) -> list[str]:
    """``det``/``gen`` ``--mu -1,2`` (or ``--m``, argparse's abbreviation) as
    ``--mu=-1,2``: argparse takes any value that starts with "-" but is not
    one plain number for an option."""
    joined: list[str] = []
    for arg in argv:
        if (joined and joined[0] in ("det", "gen") and joined[-1] in ("--mu", "--m")
                and re.match(r"-[0-9./]", arg)):
            joined[-1] = f"--mu={arg}"
        else:
            joined.append(arg)
    return joined


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(_join_negative_mu(sys.argv[1:] if argv is None else argv))
    try:
        return args.handler(args)
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: numerical failure in {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
