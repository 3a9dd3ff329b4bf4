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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import matrix as matrix_module
from .matrix import (
    CIMatrix,
    NumericalError,
    SizeCapError,
    build_ci_matrix,
    closed_form_logdet,
    det_closed_form,
    lu_logdet,
)
from .multipoly import variables
from .scalars import float_to_string, rational_from_string, rational_to_string
from .verifier import DEFAULT_CAP, verify_suite

SCHEMA = "ci-matrix/1"
# Largest `gen --symbolic` size: row h has C(n-1, n-h) terms per entry, so
# the work grows about 5x per two added nodes; n=12 takes about 0.3 s.
SYMBOLIC_GEN_CAP = 12
# Largest `verify --max-n`, whatever --cap says: the size-n determinant has
# n! terms, and n=9 takes about 5 s and 0.2 GB; n=10 would hold 10x the terms.
VERIFY_N_CAP = 9
# Largest `bench` size: the float build holds n x n doubles and takes O(n^3)
# work, and bench nodes overflow it from n=320 on, so no larger size succeeds.
BENCH_N_CAP = 1024
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


def _float64_from_string(text: str) -> float:
    """The correctly rounded float64 of the exact value of ``text`` (one
    grammar, ``rational_from_string``); text whose value overflows, or is
    nonzero and rounds to 0, is refused."""
    exact = rational_from_string(text)
    try:
        value = float(exact)
    except OverflowError:
        raise ValueError(f"{text!r} is beyond the float64 range") from None
    if value == 0.0 and exact:
        raise ValueError(f"{text!r} is nonzero but rounds to 0 in float64")
    return value


@dataclass
class MatrixDocument:
    """Writer of the wire form of a CI-matrix: every scalar is a string in
    the grammar of its kind, so the JSON and CSV forms are stable across
    platforms.  The package writes documents and reads none."""

    n: int
    scalar_kind: str
    mu: list[str] | str  # node strings, or the literal "symbolic"
    entries: list[list[str]]

    @staticmethod
    def from_matrix(matrix: CIMatrix, scalar_kind: str) -> "MatrixDocument":
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

    def to_json(self) -> str:
        payload = {
            "schema": SCHEMA,
            "n": self.n,
            "scalar_kind": self.scalar_kind,
            "mu": self.mu,
            "entries": self.entries,
        }
        return json.dumps(payload, indent=2) + "\n"

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


def logdet_digest(sign: int, logabs: float) -> str:
    """Short stable digest of a determinant in (sign, log|det|) form.

    The log-magnitude is quantized to 1e-8 before hashing so the digests of
    two methods match whenever they agree to that precision.
    """
    if sign == 0:
        payload = "0"
    else:
        payload = f"{sign}:{round(logabs / 1e-8)}"
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def draw_bench_nodes(n: int, seed: int) -> list[float]:
    """Reproducible well-separated float nodes (min pairwise gap 0.1)."""
    if n < 1:
        raise ValueError("n must be positive")
    if seed < 0:
        raise ValueError("seed must be non-negative")
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


def _node_texts(text: str) -> list[str]:
    pieces = [piece.strip() for piece in text.split(",")]
    if any(not piece for piece in pieces):
        raise ValueError(f"malformed node list {text!r}")
    return pieces


def cmd_gen(args) -> int:
    if args.symbolic:
        if args.kind is not None:
            raise ValueError("--kind applies to --mu nodes, not to --symbolic")
        if args.n is None:
            raise ValueError("--symbolic requires --n")
        if args.n < 1:
            raise ValueError("n must be at least 1")
        if args.n > SYMBOLIC_GEN_CAP:
            raise SizeCapError(f"--n {args.n} exceeds the symbolic gen cap {SYMBOLIC_GEN_CAP}")
        matrix = build_ci_matrix(variables(args.n))
        kind = "symbolic"
    else:
        kind = args.kind or "rational"
        parse = _float64_from_string if kind == "float64" else rational_from_string
        nodes = [parse(piece) for piece in _node_texts(args.mu)]
        if args.n is not None and args.n != len(nodes):
            raise ValueError(f"--n {args.n} does not match {len(nodes)} nodes")
        matrix = build_ci_matrix(nodes)
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
    pieces = _node_texts(args.mu)
    nodes = [rational_from_string(piece) for piece in pieces]
    if args.oracle == "none":
        sys.stdout.write(f"closed_form={rational_to_string(det_closed_form(nodes))}\n")
        return 0
    # The oracles are looked up in their module at each call, where a
    # tracer or a test may have rebound them.
    if args.oracle == "bareiss":
        closed = det_closed_form(nodes)
        oracle = matrix_module.det_bareiss(build_ci_matrix(nodes))
        agree = closed == oracle
        render, discrepancy = rational_to_string, rational_to_string(closed - oracle)
    else:
        try:
            floats = [_float64_from_string(piece) for piece in pieces]
        except ValueError:
            raise NumericalError("float nodes: a node does not fit in a float") from None
        closed = det_closed_form(floats)
        oracle = matrix_module.det_lu(build_ci_matrix(floats))
        agree = abs(closed - oracle) <= args.tol * max(abs(closed), abs(oracle))
        render, discrepancy = float_to_string, repr(closed - oracle)
    sys.stdout.write(f"closed_form={render(closed)}\n")
    sys.stdout.write(f"oracle={render(oracle)} kind={args.oracle}\n")
    sys.stdout.write(f"discrepancy={discrepancy} agree={'yes' if agree else 'no'}\n")
    if not agree:
        print(f"oracle {args.oracle} disagrees beyond tolerance", file=sys.stderr)
        return 3
    return 0


def cmd_verify(args) -> int:
    if args.max_n < 1:
        raise ValueError("--max-n must be at least 1")
    if args.max_n > args.cap:
        raise SizeCapError(f"--max-n {args.max_n} exceeds cap {args.cap}")
    if args.max_n > VERIFY_N_CAP:
        raise SizeCapError(
            f"--max-n {args.max_n} exceeds the verify cap {VERIFY_N_CAP}: "
            f"the size-{args.max_n} determinant has {args.max_n}! terms"
        )
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
    if max(n_list) > BENCH_N_CAP:
        raise SizeCapError(f"--n-list size {max(n_list)} exceeds the bench cap {BENCH_N_CAP}")
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
    gen.add_argument("--kind", choices=("rational", "float64"),
                     help="scalar kind for --mu nodes (default rational)")
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
