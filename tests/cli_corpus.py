"""The golden CLI corpus: argument lists and their captured outputs.

``tests/test_cli_corpus.py`` replays every entry of ``cli_corpus.json``
through ``cimatrix.cli.main`` and requires the same exit code, stderr and
stdout, byte for byte.  Each entry holds the argv, the exit code, the
stderr and either the stdout or, above ``INLINE_STDOUT_BYTES``, its
sha256.  Runs whose last digits depend on the numpy build (``--kind
float64``, ``--oracle lu``) and ``bench``, whose output holds wall
times, are pinned by exit code and stderr only; an ``--oracle lu`` run
also pins its first stdout line, the ``closed_form=`` line, which is exact
int arithmetic rounded once and so does not depend on the numpy build.

To capture the corpus from a source tree, run from the repository root:

    PYTHONPATH=src python tests/cli_corpus.py > tests/cli_corpus.json

A capture is only ever taken from code whose outputs are known good; the
replay then shows any later change in what the CLI prints.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys

from cimatrix.cli import main

INLINE_STDOUT_BYTES = 2048


def _nodes(values) -> str:
    return ",".join(str(v) for v in values)


INT_LIST = "3,-7,12,0,5"
PQ_LIST = "1/2,-3/7,5,22/9,-1,0"
DECIMAL_LIST = "0.5,0.25,-1.125,3,2.75"
INTEGRAL_TEXT_LIST = "2.0,4/2,-0,5"
MIXED_LIST = "1,1/2,0.25,-3,7/3,2.5"
REPEATED_LIST = "1,2,1,3/2,0.5"
LARGE_INT_LIST = _nodes([((i * 37) % 101) - 50 for i in range(16)])
LARGE_PQ_LIST = _nodes(f"{((i * 53) % 97) - 48}/{2 + i % 8}" for i in range(12))
# 40 distinct non-integral p/q in lowest terms: k + 1/q with q cycling over 2..9
PQ_40_LIST = _nodes(f"{(2 + i % 8) * (((i * 53) % 97) - 48) + 1}/{2 + i % 8}" for i in range(40))
# 32 distinct non-integral p/q in lowest terms, |p/q| < 1000, q cycling over
# 2..9: the kind of node list the exact benchmark serves
PQ_32_LIST = _nodes(f"{(2 + i % 8) * (((i * 389) % 1999) - 999) + 1}/{2 + i % 8}" for i in range(32))

EXACT_LISTS = (
    INT_LIST, PQ_LIST, DECIMAL_LIST, INTEGRAL_TEXT_LIST, MIXED_LIST, REPEATED_LIST,
    "7", "-0", "3/6,-2/-4,2/-4", "1,2,3",
)

ARGVS: list[list[str]] = []
for _mu in EXACT_LISTS:
    for _out in ("json", "csv", "pretty"):
        ARGVS.append(["gen", f"--mu={_mu}", "--out", _out])
    for _oracle in ("none", "bareiss"):
        ARGVS.append(["det", f"--mu={_mu}", "--oracle", _oracle])
    ARGVS.append(["det", f"--mu={_mu}"])
for _mu in (LARGE_INT_LIST, LARGE_PQ_LIST):
    ARGVS += [["gen", f"--mu={_mu}", "--out", "json"], ["det", f"--mu={_mu}", "--oracle", "bareiss"]]
ARGVS += [["gen", "--symbolic", "--n", str(n), "--out", out]
          for n in range(1, 5) for out in ("json", "csv", "pretty")]
ARGVS += [
    ["gen", "--mu", "1,2,3", "--n", "3", "--out", "csv"],
    ["gen", "--mu", "1/2,2,3"],
    ["det", "--mu", _nodes(range(1, 41)), "--oracle", "bareiss"],
    # exact results around the interpreter's int -> str digit limit
    ["det", "--mu", _nodes(range(1, 101))],
    ["det", "--mu", _nodes(range(1, 131))],
    ["gen", "--mu=1e1500,2e1500,3e1500,1", "--out", "csv"],
    ["det", "--mu=2.5e-3,1e2,-3/7", "--oracle", "bareiss"],
    ["verify", "--max-n", "5", "--json"],
    ["verify", "--max-n", "3"],
    ["verify", "--max-n", "7", "--cap", "7", "--json"],
    ["verify", "--max-n", "7", "--json"],  # the default --cap prints the same
    ["verify", "--max-n", "8", "--cap", "8", "--json"],
    # float runs: pinned by exit code and stderr
    ["gen", "--mu", "0.5,1.75,3.0", "--kind", "float64", "--out", "json"],
    ["gen", "--mu", "0.1,1/3,2.5", "--kind", "float64", "--out", "csv"],
    ["gen", "--mu", "1e200,2e200,3e200", "--kind", "float64"],
    # every entry is a normal double, but node order forms the subnormal
    # 1e-160 * 2e-160: the build retries by decreasing |x|
    ["gen", "--mu=1e-160,2e-160,1e150,2e150", "--kind", "float64"],
    ["gen", "--mu", "1e400", "--kind", "float64"],
    ["gen", "--mu", "1e-400,0", "--kind", "float64", "--out", "json"],
    ["gen", "--mu", "1e-320,0", "--kind", "float64", "--out", "csv"],
    ["gen", "--mu", ".5,+1,1_0", "--kind", "float64"],
    ["det", "--mu", "1,2,3", "--oracle", "lu"],
    ["det", "--mu", "1/2,-3/7,5,22/9", "--oracle", "lu"],
    ["det", "--mu", _nodes(range(1, 28)), "--oracle", "lu"],
    ["det", "--mu", _nodes(range(1, 201)), "--oracle", "lu"],
    ["det", "--mu", "1e-400,0", "--oracle", "lu"],
    # the float closed form keeps the determinant 2e-300, which the LU, on
    # a float build whose entries underflow, misses: exit 3
    ["det", "--mu", "0,1e-200,2e-200,1e100", "--oracle", "lu"],
    ["bench", "--n-list", "2,4", "--repeats", "1", "--seed", "3"],
    # long exact Bareiss runs on int and p/q nodes
    ["det", "--mu", _nodes(range(1, 101)), "--oracle", "bareiss"],
    ["det", "--mu", PQ_40_LIST, "--oracle", "bareiss"],
    ["det", "--mu", PQ_32_LIST, "--oracle", "bareiss"],
    # usage and parse errors
    ["gen"],
    ["gen", "--mu", "1,2", "--symbolic"],
    ["gen", "--symbolic"],
    ["gen", "--symbolic", "--n", "0"],
    ["gen", "--symbolic", "--n", "13"],
    ["gen", "--mu", "1,abc"],
    ["gen", "--mu", "1,,2"],
    ["gen", "--mu", "1,2", "--n", "3"],
    ["gen", "--mu", "1/0"],
    ["gen", "--mu", "2.", "--out", "csv"],
    ["gen", "--mu", "1", "--out", "xml"],
    ["gen", "--mu", "1,2", "--kind", "float64", "--out", "csv", "--n", "x"],
    ["det"],
    ["det", "--mu", "1,,3"],
    ["det", "--mu", "1,x"],
    ["det", "--mu", "1," + "7" * 5000],
    ["det", "--mu", "1e999999"],
    ["det", "--mu", "1,2", "--oracle", "cofactor"],
    ["det", "--mu", "1,2,3", "--oracle", "lu", "--tol", "nan"],
    ["det", "--mu", "1,2,3", "--oracle", "lu", "--tol", "-1"],
    ["det", "--mu", "-1,2"],
    ["verify", "--max-n", "99"],
    ["verify", "--max-n", "10", "--cap", "10"],
    ["verify", "--max-n", "0"],
    ["verify"],
    ["bench", "--n-list", "0"],
    ["bench", "--n-list", "4,x"],
    ["bench", "--n-list", "4", "--repeats", "0"],
    ["bench", "--n-list", "2", "--seed", "-1"],
    ["bench", "--n-list", "100000"],
    ["frobnicate"],
    [],
]


def stdout_pinned(argv: list[str]) -> bool:
    """False for runs whose stdout depends on the numpy build or the clock."""
    return argv[:1] != ["bench"] and "float64" not in argv and "lu" not in argv


def first_line(out: str) -> str:
    """The first line of ``out`` with its newline, or "" for no output."""
    return "".join(out.splitlines(keepends=True)[:1])


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def entry(argv: list[str]) -> dict:
    code, out, err = run(argv)
    record = {"argv": argv, "exit": code, "stderr": err}
    if stdout_pinned(argv):
        if len(out.encode()) > INLINE_STDOUT_BYTES:
            record["stdout_sha256"] = hashlib.sha256(out.encode()).hexdigest()
        else:
            record["stdout"] = out
    elif "lu" in argv:
        record["stdout_first_line"] = first_line(out)
    return record


if __name__ == "__main__":
    json.dump([entry(argv) for argv in ARGVS], sys.stdout, indent=1)
    sys.stdout.write("\n")
