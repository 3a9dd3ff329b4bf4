import json
import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import cimatrix.cli
from cli_corpus import run
from conftest import GOLDEN_N4_ENTRIES, pretty_layout, read_gen_json
from cimatrix.cli import (
    BENCH_CSV_HEADER, build_parser, draw_bench_nodes, logdet_digest, main, run_bench,
)
from cimatrix.matrix import (
    SYMBOLIC_CAP, build_ci_matrix, closed_form_logdet, det_closed_form, det_lu, lu_logdet,
    symbolic_ci_matrix,
)
from cimatrix.scalars import float_to_string, rational_from_string


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# gen


def test_gen_csv_golden(capsys):
    code, out, _ = run_cli(capsys, "gen", "--mu", "1,2,3", "--out", "csv")
    assert code == 0
    assert out == "6,3,2\n5,4,3\n1,1,1\n"


# Captured from the CLI before the rational build moved to int arithmetic.
GOLDEN_RATIONAL_JSON = """\
{
  "schema": "ci-matrix/1",
  "n": 6,
  "scalar_kind": "rational",
  "mu": [
    "1/2",
    "-3/7",
    "5",
    "22/9",
    "-1",
    "0"
  ],
  "entries": [
    [
      "0",
      "0",
      "0",
      "0",
      "0",
      "55/21"
    ],
    [
      "110/21",
      "-55/9",
      "11/21",
      "15/14",
      "-55/21",
      "-239/126"
    ],
    [
      "-899/63",
      "-59/6",
      "-61/126",
      "-17/14",
      "-13/18",
      "-557/42"
    ],
    [
      "127/63",
      "8",
      "-23/9",
      "-69/14",
      "790/63",
      "211/42"
    ],
    [
      "379/63",
      "125/18",
      "191/126",
      "57/14",
      "947/126",
      "821/126"
    ],
    [
      "1",
      "1",
      "1",
      "1",
      "1",
      "1"
    ]
  ]
}
"""


def test_gen_json_golden_rational(capsys):
    argv = ("gen", "--mu", "1/2,-3/7,5,22/9,-1,0", "--out", "json")
    assert run_cli(capsys, *argv) == (0, GOLDEN_RATIONAL_JSON, "")


def test_det_golden_rational_bareiss(capsys):
    expected = (
        "closed_form=-8765925025/583443\n"
        "oracle=-8765925025/583443 kind=bareiss\n"
        "discrepancy=0 agree=yes\n"
    )
    assert run_cli(capsys, "det", "--mu", "1/2,-3/7,5,22/9,-1,0", "--oracle", "bareiss") == (0, expected, "")


def test_gen_csv_golden_decimal_repeated(capsys):
    expected = (
        "-81/32,-81/16,9/8,-27/64,-27/64\n"
        "-153/16,-9,15/2,-147/64,-147/64\n"
        "111/32,75/16,109/8,-59/32,-59/32\n"
        "41/8,43/8,27/4,21/8,21/8\n"
        "1,1,1,1,1\n"
    )
    assert run_cli(capsys, "gen", "--mu", "0.5,0.25,-1.125,3,3", "--out", "csv") == (0, expected, "")


def test_gen_single_node(capsys):
    code, out, _ = run_cli(capsys, "gen", "--mu", "5", "--out", "csv")
    assert code == 0
    assert out == "1\n"


def test_gen_pretty_symbolic_n4(capsys):
    code, out, _ = run_cli(capsys, "gen", "--n", "4", "--symbolic", "--out", "pretty")
    assert code == 0
    assert out == pretty_layout(GOLDEN_N4_ENTRIES)


def test_gen_symbolic_size_cap(capsys):
    code, out, err = run_cli(capsys, "gen", "--symbolic", "--n", "13", "--out", "csv")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "cap" in err
    assert run_cli(capsys, "gen", "--symbolic", "--n", "12", "--out", "csv")[0] == 0
    assert run_cli(capsys, "gen", "--symbolic", "--n", "4") == (0, pretty_layout(GOLDEN_N4_ENTRIES), "")


def test_gen_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "gen", "--mu", "1/2,2,3", "--out", "json")
    assert code == 0
    nodes = [Fraction(1, 2), 2, 3]
    doc = read_gen_json(out)
    assert doc["scalar_kind"] == "rational" and doc["n"] == 3
    assert json.loads(out)["mu"] == ["1/2", "2", "3"] and doc["mu"] == nodes
    assert doc["entries"] == [list(row) for row in build_ci_matrix(nodes).entries]
    code, out, _ = run_cli(capsys, "gen", "--symbolic", "--n", "3", "--out", "json")
    assert code == 0
    doc = read_gen_json(out)
    assert doc["scalar_kind"] == "symbolic" and doc["mu"] == "symbolic"
    assert doc["entries"] == [[entry.render() for entry in row]
                              for row in symbolic_ci_matrix(3).entries]


def test_gen_float_kind(capsys):
    code, out, _ = run_cli(
        capsys, "gen", "--mu", "0.5,1.75,3.0", "--kind", "float64", "--out", "json"
    )
    assert code == 0
    assert json.loads(out)["entries"][-1] == ["1", "1", "1"]
    doc = read_gen_json(out)
    assert doc["scalar_kind"] == "float64"
    assert doc["mu"] == [0.5, 1.75, 3.0]
    assert np.array_equal(np.array(doc["entries"]), build_ci_matrix(doc["mu"]).entries)


def test_gen_symbolic_refuses_kind(capsys):
    # --kind names the scalar kind of --mu nodes; symbolic nodes have none.
    for kind in ("float64", "rational"):
        code, out, err = run_cli(capsys, "gen", "--symbolic", "--n", "2", "--kind", kind,
                                 "--out", "csv")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "--kind" in err
    assert run_cli(capsys, "gen", "--symbolic", "--n", "2", "--out", "csv")[0] == 0


def test_gen_usage_errors(capsys):
    assert run_cli(capsys, "gen")[0] == 2  # neither --mu nor --symbolic
    assert run_cli(capsys, "gen", "--mu", "1,2", "--symbolic")[0] == 2
    assert run_cli(capsys, "gen", "--symbolic")[0] == 2  # missing --n
    assert run_cli(capsys, "gen", "--mu", "1,abc")[0] == 2
    assert run_cli(capsys, "gen", "--mu", "1,2", "--n", "3")[0] == 2
    assert run_cli(capsys, "gen", "--mu", "1/0")[0] == 2


# ---------------------------------------------------------------------------
# det


def test_det_with_bareiss_oracle(capsys):
    code, out, _ = run_cli(capsys, "det", "--mu", "1,2,3", "--oracle", "bareiss")
    assert code == 0
    assert "closed_form=2" in out
    assert "oracle=2 kind=bareiss" in out
    assert "discrepancy=0 agree=yes" in out


def test_det_repeated_nodes(capsys):
    code, out, _ = run_cli(capsys, "det", "--mu", "1,1,3")
    assert code == 0
    assert out == "closed_form=0\n"


def test_det_singleton(capsys):
    code, out, _ = run_cli(capsys, "det", "--mu", "2")
    assert code == 0
    assert out == "closed_form=1\n"


def test_det_lu_oracle(capsys):
    code, out, _ = run_cli(capsys, "det", "--mu", "1,2,3", "--oracle", "lu")
    assert code == 0
    assert "agree=yes" in out


@pytest.mark.parametrize("mu", ["1,2,3", "1/2,-3/7,5,22/9"])
def test_det_lu_output_renders_the_library_values(capsys, mu):
    # The digits depend on the numpy build, so the expected lines come from
    # the library calls on the same floats, not from a capture.
    floats = [float(rational_from_string(piece)) for piece in mu.split(",")]
    closed = det_closed_form(floats)
    oracle = det_lu(build_ci_matrix(floats))
    expected = (f"closed_form={float_to_string(closed)}\n"
                f"oracle={float_to_string(oracle)} kind=lu\n"
                f"discrepancy={closed - oracle!r} agree=yes\n")
    assert run_cli(capsys, "det", "--mu", mu, "--oracle", "lu") == (0, expected, "")


def test_det_oracle_mismatch_exits_3(capsys, monkeypatch):
    monkeypatch.setattr("cimatrix.matrix.det_lu", lambda m: 99.0)
    code, out, err = run_cli(capsys, "det", "--mu", "1,2,3", "--oracle", "lu")
    assert code == 3
    assert "agree=no" in out
    assert "disagrees" in err


def assert_numerical_failure(result, stage):
    code, out, err = result
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and stage in err


def test_float_overflow_on_finite_nodes_exits_3(capsys, monkeypatch):
    nodes = [str(i) for i in range(1, 201)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the failure is the one-line error, no warning
        assert_numerical_failure(run_cli(capsys, "det", "--mu", ",".join(nodes), "--oracle", "lu"),
                                 "closed form")
        assert_numerical_failure(run_cli(capsys, "gen", "--mu", ",".join(nodes[:199]),
                                         "--kind", "float64"), "CI-matrix build")
        assert_numerical_failure(run_cli(capsys, "det", "--mu", "1" + "0" * 400 + ".0,1",
                                         "--oracle", "lu"), "float nodes")
    # log|det| = 1000 is finite, its value is not.  The closed form's line
    # is written before the LU runs, and stays.
    monkeypatch.setattr("cimatrix.matrix.lu_logdet", lambda m: (1, 1000.0))
    code, out, err = run_cli(capsys, "det", "--mu", "1,2,3", "--oracle", "lu")
    assert (code, out) == (3, "closed_form=2\n")
    assert len(err.splitlines()) == 1 and err.startswith("error: numerical failure in LU")


def test_nonzero_float_node_that_rounds_to_zero_is_refused(capsys):
    code, out, err = run_cli(capsys, "gen", "--mu", "1e-400,0", "--kind", "float64", "--out", "json")
    assert (code, out, err) == (2, "", "error: '1e-400' is nonzero but rounds to 0 in float64\n")
    assert_numerical_failure(run_cli(capsys, "det", "--mu", "1e-400,0", "--oracle", "lu"), "float nodes")
    # A nonzero subnormal is still a float node.
    assert run_cli(capsys, "gen", "--mu", "1e-320,0", "--kind", "float64", "--out", "csv") == (
        0, "0,1e-320\n1,1\n", "")
    code, out, err = run_cli(capsys, "det", "--mu", "1e-320,0", "--oracle", "lu")
    assert code == 0 and err == "" and out.startswith("closed_form=-1e-320\n")


def test_float_build_underflow_exits_3(capsys):
    # Entry (2,4) is e_2(0, 1e-200, 2e-200) = 2e-400, below the double range
    # in any node order; the build used to print (1,1), 2e-300, as 0 and exit
    # 0.  The closed form, 2e-300 exactly, is printed before the LU's build is
    # refused.
    mu = "--mu=0,1e-200,2e-200,1e100"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_numerical_failure(run_cli(capsys, "gen", mu, "--kind", "float64"), "an entry underflowed")
        code, out, err = run_cli(capsys, "det", mu, "--oracle", "lu")
    assert (code, out) == (3, "closed_form=2e-300\n")
    assert err == "error: numerical failure in float CI-matrix build: an entry underflowed\n"


def test_det_lu_product_overflow_exits_3_without_warning(capsys):
    # At n=27 the LAPACK value is finite (about -3.19e300) but has lost every
    # digit, so the oracle disagrees: exit 3, no numerical failure.
    nodes = ",".join(str(i) for i in range(1, 28))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "det", "--mu", nodes, "--oracle", "lu")
    assert code == 3 and "agree=no" in out
    assert err == "oracle lu disagrees beyond tolerance\n"
    assert caught == []


def test_mu_list_may_start_with_a_negative_node(capsys):
    for mu in ("-1,2", "-1/2,3", "-0.5,1"):
        assert run_cli(capsys, "det", "--mu", mu) == run_cli(capsys, "det", f"--mu={mu}")
        assert run_cli(capsys, "gen", "--mu", mu, "--out", "csv") == run_cli(
            capsys, "gen", f"--mu={mu}", "--out", "csv")
    assert run_cli(capsys, "det", "--mu", "-1,2") == (0, "closed_form=3\n", "")
    assert run_cli(capsys, "gen", "--mu", "-1,2", "--out", "csv") == (0, "2,-1\n1,1\n", "")
    # argparse also takes the abbreviation --m for --mu, with "=" or without.
    for args in (("--m=-1,2",), ("--m", "-1,2")):
        assert run_cli(capsys, "det", *args) == (0, "closed_form=3\n", "")
        assert run_cli(capsys, "gen", *args, "--out", "csv") == (0, "2,-1\n1,1\n", "")
    # Only --mu of det and gen changes: any other value that looks like an
    # option is still one.
    code, out, err = run_cli(capsys, "verify", "--max-n", "1", "--mu", "-1,2")
    assert code == 2 and "unrecognized arguments: --mu -1,2" in err
    code, out, err = run_cli(capsys, "bench", "--n-list", "-1,2")
    assert code == 2 and "expected one argument" in err
    code, out, err = run_cli(capsys, "det", "--mu", "--oracle", "lu")
    assert code == 2 and "expected one argument" in err


def test_det_renders_results_beyond_the_int_digit_limit(capsys):
    nodes = list(range(1, 101))
    code, out, err = run_cli(capsys, "det", "--mu", ",".join(map(str, nodes)))
    assert code == 0 and err == ""
    digits = out.removeprefix("closed_form=").removesuffix("\n")
    assert len(digits) > sys.get_int_max_str_digits() > 0
    assert Decimal(digits) == det_closed_form(nodes)  # Decimal has no digit limit
    # Parsing of outside input stays limited, with the limit in the message.
    code, out, err = run_cli(capsys, "det", "--mu", "1," + "7" * 5000)
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert f"{sys.get_int_max_str_digits()} digits" in err and "set_int_max_str_digits" not in err


def test_det_malformed_nodes(capsys):
    assert run_cli(capsys, "det", "--mu", "1,,3")[0] == 2


def test_float_kind_reads_the_one_scalar_grammar(capsys):
    # A float64 node is the correctly rounded value of the exact node.
    code, out, err = run_cli(capsys, "gen", "--mu", "0.1,1/3,2.5e-3", "--kind", "float64",
                             "--out", "json")
    assert code == 0 and err == ""
    assert json.loads(out)["mu"] == ["0.1", repr(1 / 3), "0.0025"]
    assert read_gen_json(out)["mu"] == [0.1, 1 / 3, 0.0025]


def test_out_of_range_exponents_exit_2_with_one_line(capsys):
    for argv in (("gen", "--kind", "float64", "--mu", "1e400"), ("det", "--mu", "1e999999")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: ")


def test_det_tolerance_usage_errors(capsys):
    for tol in ("nan", "-1", "inf"):
        code, out, err = run_cli(capsys, "det", "--mu", "1,2,3", "--oracle", "lu", "--tol", tol)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "--tol" in err
    assert run_cli(capsys, "det", "--mu", "1,2,3", "--oracle", "bareiss", "--tol", "0")[0] == 0


# ---------------------------------------------------------------------------
# verify


def test_verify_max_n_2(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines and all(line.startswith("[PASS]") for line in lines)
    assert any("n=1 determinant-identity" in line for line in lines)
    assert any("n=2 first-node-zero-block" in line for line in lines)


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "2", "--json")
    assert code == 0
    reports = json.loads(out)
    assert [r["n"] for r in reports] == [1, 2]
    assert all(r["passed"] for r in reports)
    assert all(r["extracted_constant"] == "1" for r in reports)


def test_verify_cap_guard(capsys):
    assert run_cli(capsys, "verify", "--max-n", "99") == (2, "", "error: --max-n 99 exceeds cap 12\n")
    # --cap defaults to the symbolic build's cap and may only lower it.
    assert build_parser().parse_args(["verify", "--max-n", "1"]).cap == SYMBOLIC_CAP
    assert run_cli(capsys, "verify", "--max-n", "3", "--cap", "2") == (
        2, "", "error: --max-n 3 exceeds cap 2\n")


def test_verify_proves_every_size_up_to_the_cap(capsys):
    code, out, err = run_cli(capsys, "verify", "--max-n", str(SYMBOLIC_CAP), "--json")
    assert (code, err) == (0, "")
    reports = json.loads(out)
    assert [r["n"] for r in reports] == list(range(1, SYMBOLIC_CAP + 1))
    assert all(r["passed"] and r["extracted_constant"] == "1" for r in reports)


def test_verify_refuses_sizes_above_its_ceiling_before_expanding(capsys, monkeypatch):
    def expanding_suite(n):
        raise AssertionError(f"expanded size {n}")

    monkeypatch.setattr("cimatrix.cli.verify_suite", expanding_suite)
    for argv in (["--max-n", "13", "--cap", "13"], ["--max-n", "13"]):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, out) == (2, "")
        assert err == "error: --max-n 13 exceeds cap 12\n"


def test_verify_failure_exits_3(capsys, monkeypatch):
    from cimatrix.verifier import CheckResult, VerificationReport

    def broken_suite(n):
        return VerificationReport(n=n, checks=[
            CheckResult("homogeneity", n < 2, "boom"), CheckResult("row-degrees", True, "fine"),
            CheckResult("duality", n < 2, "boom")])

    monkeypatch.setattr("cimatrix.cli.verify_suite", broken_suite)
    code, out, err = run_cli(capsys, "verify", "--max-n", "1")
    assert (code, err) == (0, "")
    code, out, err = run_cli(capsys, "verify", "--max-n", "3")
    assert code == 3
    assert "[FAIL] n=2 homogeneity boom" in out.splitlines()
    # One line, naming the first failing size and each of its failing checks.
    assert err == "verification failed at n=2: homogeneity, duality\n"
    code, out, err = run_cli(capsys, "verify", "--max-n", "2", "--json")
    assert (code, err) == (3, "verification failed at n=2: homogeneity, duality\n")
    assert out == json.dumps([broken_suite(n).to_dict() for n in (1, 2)], indent=2) + "\n"


# ---------------------------------------------------------------------------
# bench


def test_bench_two_records_matching_digests(capsys):
    code, out, _ = run_cli(capsys, "bench", "--n-list", "4", "--repeats", "1", "--seed", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == BENCH_CSV_HEADER
    records = [line.split(",") for line in lines[1:]]
    assert [r[1] for r in records] == ["closed_form", "lu"]
    assert records[0][4] == records[1][4]
    assert all(r[0] == "4" and r[3] == "1" for r in records)


def test_bench_n1(capsys):
    code, out, _ = run_cli(capsys, "bench", "--n-list", "1", "--repeats", "1", "--seed", "0")
    assert code == 0
    records = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert records[0][4] == records[1][4]


def test_bench_usage_errors(capsys):
    assert run_cli(capsys, "bench", "--n-list", "0")[0] == 2
    assert run_cli(capsys, "bench", "--n-list", "4,x")[0] == 2
    assert run_cli(capsys, "bench", "--n-list", "4", "--repeats", "0")[0] == 2
    assert run_cli(capsys, "bench", "--n-list", "4", "--out", "csv")[0] == 2


def test_bench_decides_agreement_on_the_values_not_the_digests(capsys, monkeypatch):
    # The LU value is the closed form's, moved 1e-12 across the nearest
    # 1e-8 quantization step: the digests differ, the values agree.
    sign, logabs = closed_form_logdet(draw_bench_nodes(8, 0))
    step = round(logabs / 1e-8)
    side = 1 if logabs / 1e-8 >= step else -1
    moved = (step + side / 2) * 1e-8 + side * 1e-12
    assert logdet_digest(sign, moved) != logdet_digest(sign, logabs)
    monkeypatch.setattr(cimatrix.cli, "lu_logdet", lambda matrix: (sign, moved))
    code, out, err = run_cli(capsys, "bench", "--n-list", "8", "--repeats", "1", "--seed", "0")
    assert (code, err) == (0, "")
    closed_row, lu_row = [line.split(",") for line in out.splitlines()[1:]]
    assert closed_row[4] == logdet_digest(sign, logabs) and lu_row[4] == logdet_digest(sign, moved)


def test_bench_keeps_the_mismatches_before_a_failed_build(capsys):
    # n=24 writes its rows with digests that differ; n=320 then fails to
    # build.  The one error line names the failure and the n=24 mismatch.
    _, mismatches = run_bench([24], 1, 0)
    assert len(mismatches) == 1
    code, out, err = run_cli(capsys, "bench", "--n-list=24,320", "--repeats", "1")
    assert code == 3
    assert [line.split(",")[:2] for line in out.splitlines()] == [
        BENCH_CSV_HEADER.split(",")[:2], ["24", "closed_form"], ["24", "lu"]]
    assert err == ("error: numerical failure in float CI-matrix build: an entry is not finite; "
                   f"{mismatches[0]}\n")


def test_draw_bench_nodes_reproducible_and_separated():
    a = draw_bench_nodes(32, 7)
    b = draw_bench_nodes(32, 7)
    assert a == b
    gaps = [y - x for x, y in zip(a, a[1:])]
    assert min(gaps) >= 0.1
    assert draw_bench_nodes(32, 8) != a


def test_run_bench_digests_agree_at_moderate_sizes():
    # LU loses determinant digits exponentially with n (the matrix family is
    # exponentially ill-conditioned), so digest agreement is only guaranteed
    # at sizes where the oracle itself still has the digits; n <= 8 leaves
    # orders of magnitude of margin at the digest granularity.
    records, mismatches = run_bench([2, 5, 8], repeats=1, seed=3)
    assert mismatches == []
    by_n = {}
    for record in records:
        by_n.setdefault(record.n, set()).add(record.result_digest)
    assert all(len(digests) == 1 for digests in by_n.values())


# ---------------------------------------------------------------------------
# repeated calls in one process


def _without_wall_times(result):
    """bench prints wall times, which differ from run to run."""
    code, out, err = result
    rows = [line.split(",") for line in out.splitlines()]
    return code, [row[:2] + row[3:] for row in rows], err


INTERLEAVED_CALLS = (
    (("gen", "--mu=1/2,-3/7,5", "--out", "json"), 0),
    (("det", "--mu=1,2,3", "--oracle", "bareiss"), 0),
    (("verify", "--max-n", "2", "--json"), 0),
    (("bench", "--n-list", "3", "--repeats", "1"), 0),
    (("gen", "--mu=1,2", "--kind", "float64", "--out", "csv", "--n", "2"), 0),
    (("gen", "--mu=1,2"), 0),  # the defaults again: rational, pretty, no --n
    (("gen", "--symbolic", "--n", "2", "--out", "csv"), 0),
    (("det", "--mu=-1,0.5,2/3"), 0),
    (("gen",), 2),  # argparse usage error
    (("det", "--mu=1,abc", "--oracle", "bareiss"), 2),  # bad node
    (("gen", "--mu=1e200,2e200,3e200", "--kind", "float64"), 3),  # float overflow
)


def test_repeated_calls_carry_no_state_through_the_shared_parser(monkeypatch):
    first = {}
    with monkeypatch.context() as fresh:
        # Each call builds its own parser, as the first call of a process does.
        fresh.setattr(cimatrix.cli, "build_parser", build_parser.__wrapped__)
        for argv, code in INTERLEAVED_CALLS:
            first[argv] = _without_wall_times(run(argv))
            assert first[argv][0] == code
    calls = [argv for argv, _ in INTERLEAVED_CALLS]
    for argv in calls + calls[::-1] + calls[1::2] + calls[::2]:
        assert _without_wall_times(run(argv)) == first[argv], argv
    assert build_parser() is build_parser()


# ---------------------------------------------------------------------------
# every node list ends in an answer or a one-line error


def _decimal_text(mantissa: int, places: int) -> str:
    digits = str(abs(mantissa)).rjust(places + 1, "0")
    return f"{'-' if mantissa < 0 else ''}{digits[:-places]}.{digits[-places:]}"


# (text, value); a None value marks text that must be refused.
NODE_TEXTS = st.one_of(
    st.integers(-20, 20).map(lambda p: (str(p), Fraction(p))),
    st.tuples(st.integers(-20, 20), st.integers(-6, 6)).map(
        lambda pq: (f"{pq[0]}/{pq[1]}", Fraction(*pq) if pq[1] else None)
    ),
    st.tuples(st.integers(-300, 300), st.integers(1, 3)).map(
        lambda mp: (_decimal_text(*mp), Fraction(mp[0], 10 ** mp[1]))
    ),
)


@given(st.lists(NODE_TEXTS, min_size=1, max_size=8))
@example([("2.0", Fraction(2)), ("4/2", Fraction(2)), ("-0", Fraction(0)), ("5", Fraction(5))])
@example([("1/2", Fraction(1, 2)), ("3", Fraction(3)), ("0.5", Fraction(1, 2))])
@example([("7", Fraction(7)), ("1/0", None)])
def test_det_and_gen_end_in_an_answer_or_one_error_line(nodes):
    mu = "--mu=" + ",".join(text for text, _ in nodes)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        det = run(["det", mu, "--oracle", "bareiss"])
        gen = run(["gen", mu, "--out", "json"])
    assert caught == []
    values = [value for _, value in nodes]
    if None in values:
        for code, out, err in (det, gen):
            assert code == 2 and out == "" and err.startswith("error: ")
            assert len(err.splitlines()) == 1
        return
    expected = Fraction(1)
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            expected *= values[j] - values[i]
    code, out, err = det
    assert code == 0 and err == ""
    closed, oracle, verdict = out.splitlines()
    assert Fraction(closed.removeprefix("closed_form=")) == expected
    assert oracle == f"oracle={closed.removeprefix('closed_form=')} kind=bareiss"
    assert verdict == "discrepancy=0 agree=yes"
    code, out, err = gen
    assert code == 0 and err == ""
    parsed = [rational_from_string(text) for text, _ in nodes]
    assert read_gen_json(out)["entries"] == [list(row) for row in build_ci_matrix(parsed).entries]


# Float nodes for the float paths: reprs (inf and nan included), text past
# the float range either way, ints, and p/q with zero denominators.
FLOAT_NODE_TEXTS = st.one_of(
    st.floats().map(repr),
    st.tuples(st.integers(-9, 9), st.sampled_from(["e330", "e+330", "e-330"])).map(
        lambda de: f"{de[0]}{de[1]}"
    ),
    st.integers(-20, 20).map(str),
    st.tuples(st.integers(-20, 20), st.integers(-6, 6)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
)


@given(st.lists(FLOAT_NODE_TEXTS, min_size=1, max_size=8))
@example(["1e330", "2"])
@example(["1e200", "2e200", "3e200"])
@example(["0", "1e-330", "2e-330", "1e100"])
@example(["3/0", "1.5"])
def test_float_det_and_gen_end_in_an_answer_or_one_error_line(texts):
    mu = "--mu=" + ",".join(texts)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        runs = [run(["det", mu, "--oracle", "lu"]),
                run(["gen", mu, "--kind", "float64", "--out", "json"])]
    assert caught == []
    for code, _, err in runs:
        if code == 0:
            assert err == ""
        else:
            assert code in (2, 3) and err.endswith("\n") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# every size ends in reports or a one-line error

SIZES = st.integers(-2, 14)


@given(SIZES, st.none() | SIZES, SIZES)
@example(7, None, 8)  # the largest runs the property lets succeed
@example(13, None, 13)  # one above the cap
@example(9, 8, 0)
@example(-2, -2, -2)
def test_verify_and_gen_sizes_end_in_reports_or_one_error_line(max_n, cap, n):
    ceiling = SYMBOLIC_CAP if cap is None else min(cap, SYMBOLIC_CAP)
    # Runs that succeed stay at max_n <= 7 and n <= 8, so the property takes seconds.
    assume(max_n <= 7 or max_n > ceiling)
    assume(n <= 8 or n > SYMBOLIC_CAP)
    verify = ["verify", "--max-n", str(max_n), "--json"] + ([] if cap is None else ["--cap", str(cap)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        runs = [(run(verify), 1 <= max_n <= ceiling),
                (run(["gen", "--symbolic", "--n", str(n), "--out", "csv"]), 1 <= n <= SYMBOLIC_CAP)]
    assert caught == []
    for (code, out, err), succeeds in runs:
        if succeeds:
            assert (code, err) == (0, "")
        else:
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
    (code, out, _), _ = runs[0]
    if code == 0:
        reports = json.loads(out)
        assert [report["n"] for report in reports] == list(range(1, max_n + 1))
        assert all(report["passed"] for report in reports)
    (code, out, _), _ = runs[1]
    if code == 0:
        assert len(out.splitlines()) == n


# ---------------------------------------------------------------------------
# every bench size list ends in a CSV or a one-line error

BENCH_SIZE_TEXTS = st.one_of(
    st.integers(-1, 24).map(str),
    st.sampled_from(["320", "1025", "x", "", "2.5", " 3"]),
)


def _bench_refusal(sizes: list[str], repeats: int, seed: int) -> str | None:
    """The one-line error of a bench run refused before any build, or None."""
    try:
        n_list = [int(piece) for piece in sizes]
    except ValueError:
        return f"error: malformed --n-list {','.join(sizes)!r}"
    if min(n_list) < 1:
        return "error: every n must be positive"
    if max(n_list) > 1024:
        return f"error: --n-list size {max(n_list)} exceeds the bench cap 1024"
    if repeats < 1:
        return "error: repeats must be positive"
    if seed < 0:
        return "error: seed must be non-negative"
    return None


@given(st.lists(BENCH_SIZE_TEXTS, min_size=1, max_size=4), st.integers(0, 3),
       st.one_of(st.integers(-2, 9), st.integers(2**32, 2**70)))
@example(["24", "16"], 1, 0)  # the LU diverges at both sizes
@example(["4", "320"], 1, 0)  # the float build overflows at n=320
@example(["24", "320"], 1, 0)  # the LU diverges before the overflow
@example(["320", "1025"], 1, 0)
@example(["", "x"], 0, -1)
def test_bench_sizes_end_in_a_csv_or_one_error_line(sizes, repeats, seed):
    builds = []
    build = cimatrix.cli.build_ci_matrix
    argv = ["bench", f"--n-list={','.join(sizes)}", "--repeats", str(repeats), "--seed", str(seed)]
    with warnings.catch_warnings(record=True) as caught, pytest.MonkeyPatch.context() as patch:
        warnings.simplefilter("always")
        patch.setattr(cimatrix.cli, "build_ci_matrix",
                      lambda nodes: builds.append(len(nodes)) or build(nodes))
        code, out, err = run(argv)
    assert caught == []
    refusal = _bench_refusal(sizes, repeats, seed)
    if refusal is not None:
        assert (code, out, err, builds) == (2, "", refusal + "\n", [])
        return
    n_list = [int(piece) for piece in sizes]
    # Each size's rows are written as it ends: the sizes before an n=320,
    # whose float build overflows, keep theirs.
    done = n_list[:n_list.index(320)] if 320 in n_list else n_list
    assert builds == n_list[:len(done) + 1]
    lines = out.splitlines()
    assert lines[:1] == ([BENCH_CSV_HEADER] if done else [])
    rows = [line.split(",") for line in lines[1:]]
    assert [(int(r[0]), r[1], int(r[3])) for r in rows] == [
        (n, method, repeats) for n in done for method in ("closed_form", "lu")]
    def agree(n):  # the oracle decides on the values: same sign, log|det| within 1e-8
        nodes = draw_bench_nodes(n, seed)
        (sign, logabs), (lu_sign, lu_logabs) = closed_form_logdet(nodes), lu_logdet(build(nodes))
        return sign == lu_sign and (sign == 0 or abs(logabs - lu_logabs) <= 1e-8)

    diverged = [n for n in done if not agree(n)]
    if done != n_list:
        # One line: the failed build, then each mismatch found before it.
        assert code == 3 and err.endswith("\n") and err.count("\n") == 1
        failure, *found = err.removesuffix("\n").split("; ")
        assert failure == "error: numerical failure in float CI-matrix build: an entry is not finite"
        assert [int(part.split(":")[0].removeprefix("n=")) for part in found] == diverged
        return
    diverged = sorted(set(diverged))
    if not diverged:
        assert (code, err) == (0, "")
    else:
        assert code == 3 and err.endswith("\n") and err.count("\n") == 1
        assert sorted({int(part.split(":")[0].removeprefix("n="))
                       for part in err.split("; ")}) == diverged
