"""Benchmark of the cimatrix package, run from the root of a source checkout.

    python3 perfbench/run.py --workload float_logdet --seed 1 --trace 0
    python3 perfbench/run.py                  # every workload, seed 1, untraced

One closed-loop client: the next request goes out only after the previous
one returned, one at a time, with BLAS/OpenMP threads pinned to 1 and no
pool.  Requests go through the public API (float_logdet) or
``cimatrix.cli.main`` (the others) in a serving process started from
./src; symbolic_verify starts a fresh interpreter for every request, as a
CLI user's run does.  Every answer is checked against an exact reference
computed here, outside the timed regions.

The report goes to stdout, and its last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
traced run alternates untraced rounds with rounds in which every layer
entry point is wrapped in a span, and reports the gap in request time
between the two as the tracing overhead.  ``--seconds`` is the run length
of each workload; it defaults to ``run_seconds`` in BENCHMARK.json.
Exit status: 0 if every returned answer was right, 1 if one was wrong,
2 if the benchmark could not run.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter

import numpy as np

import reference
import spans
import workloads
from serve import OUT_DIR

HERE = os.path.dirname(os.path.abspath(__file__))
SERVE = os.path.join(HERE, "serve.py")
BENCHMARK_JSON = os.path.join(HERE, os.pardir, "BENCHMARK.json")
SETUP_PROBES = 8  # extra cold starts, on top of the serving process's own
CHILD_TIMEOUT_S = 150
FOLD_CHECK_MAX_N = 16  # node lists up to this size also check the reference itself

# (name, unit, better): --trace 0
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("request_s.repeat_p90", "s", "lower"),
    ("requests_per_s.repeat_p90", "1/s", "higher"),
    ("ok_ratio", "ratio", "higher"),
    ("digits_correct.min", "digits", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

# Inclusive time too, for the checks: their work happens in child spans.
CHECKS = ("verifier.determinant_identity", "verifier.homogeneity", "verifier.row_degrees",
          "verifier.equal_columns", "verifier.first_node_zero_block", "verifier.duality")
SELF_TIMED = (
    "symfunc.leave_one_out_table_float", "symfunc.elem_sym_all", "symfunc.elem_sym_leave_one_out",
    "matrix.build_ci_matrix", "matrix.lu_logdet", "matrix.closed_form_logdet",
    "matrix.det_closed_form", "matrix.det_bareiss", "matrix.det_cofactor",
    "multipoly.vandermonde_product", "multipoly.MultiPoly.mul",
    "multipoly.MultiPoly.identify_variables", "multipoly.MultiPoly.substitute",
    "scalars.rational_from_string", "scalars.rational_to_string",
    *CHECKS, "cli.main", "cli.MatrixDocument.from_matrix", "cli.MatrixDocument.to_json",
)
CALLED = ("matrix.build_ci_matrix", "matrix.det_cofactor", "matrix.symbolic_ci_matrix",
          "multipoly.MultiPoly.mul")
COUNTED = ("scalars.exact_div.calls", "matrix.det_bareiss.result_bits", "multipoly.det_terms.n7")

# (name, unit, better): --trace 1.  Self times are seconds per round (one
# pass over the workload's request pool), median over rounds; counts are
# per round and must repeat in every round.
PER_LAYER = (
    tuple((f"{name}.self_s", "s", "lower") for name in SELF_TIMED)
    + tuple((f"{name}.total_s", "s", "lower") for name in CHECKS)
    + tuple((f"{name}.calls", "count", "lower") for name in CALLED)
    + tuple((name, "count", "lower") for name in COUNTED)
    + (
        ("matrix.lu_logdet.digits.n16", "digits", "higher"),
        ("verifier.matrix_builds_per_size", "ratio", "lower"),
        ("tracing.overhead", "ratio", "lower"),
    )
)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


# ---------------------------------------------------------------------------
# serving processes


def _spawn(mode: str, workload: str, job: dict | None = None) -> tuple[float, dict]:
    """Run serve.py once; return (set-up seconds, its JSON result)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"), PYTHONHASHSEED="0")
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, SERVE, mode, workload],
            input=json.dumps(job) if job is not None else "",
            capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process for {workload} ran past {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} process for {workload} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout)
    return result["ready"] - start, result


def serve_in_process(workload: str, pool: list, seconds: float, trace: bool,
                     probes: int) -> tuple[list, dict]:
    """Set-up samples, and the served records, peak RSS, spans and counts."""
    setups = [_spawn("setup", workload)[0] for _ in range(probes)]
    setup, result = _spawn("serve", workload, {"pool": pool, "seconds": seconds, "trace": trace})
    setups.append(setup)
    return setups, {"records": result["records"], "rss_mb": result["rss_mb"],
                    "spans": [result["spans"]] if trace else [],
                    "counts": {int(k): v for k, v in result["counts"].items()}}


def serve_cold(workload: str, pool: list, seconds: float, trace: bool) -> tuple[list, dict]:
    """One fresh interpreter per request; its start-up is a set-up sample.
    A traced run alternates the modes as ``spans.traced_round`` says, one
    request per round, and ends on a whole pair."""
    (spec,) = pool
    setups, records, process_spans, counts, rss = [], [], [], {}, 0.0
    step = 2 if trace else 1
    start = time.monotonic()
    while not records or len(records) % step or time.monotonic() - start < seconds:
        request_id = len(records)
        traced = trace and spans.traced_round(request_id)
        setup, result = _spawn("cold", workload, {"request": spec, "trace": traced, "id": request_id})
        records.append(result["record"])
        if traced:
            process_spans.append(result["spans"])
            counts.update({int(k): v for k, v in result["counts"].items()})
        else:
            setups.append(setup)
            rss = max(rss, result["rss_mb"])
    return setups, {"records": records, "rss_mb": rss, "spans": process_spans, "counts": counts}


# ---------------------------------------------------------------------------
# checking against the exact references


def check(pool: list, records: list, first: dict) -> None:
    """Annotate each record with ``wrong`` (None or why) and ``digits``.

    The first answer to each request in the pool is checked against the
    references and kept in ``first``; every later answer to that request,
    traced or not, must be identical to it.
    """
    for record in records:
        if record["index"] not in first:
            first[record["index"]] = record
            _check_first(pool[record["index"]], record)
    for record in records:
        base = first[record["index"]]
        if record is not base:
            same = record["hash"] == base["hash"]
            record["wrong"] = None if same else "answer differs from the first answer to this request"
            record["digits"] = base["digits"] if same else 0.0
            record["lu_digits"] = base.get("lu_digits")
            record["sizes"] = base.get("sizes", 0)


def _check_first(spec: dict, record: dict) -> None:
    record["wrong"], record["digits"] = None, None
    if spec["kind"] == "float":
        sign, logabs = reference.logdet_reference(spec["nodes"])
        problems = []
        if record["closed"] is not None:
            got_sign, got = record["closed"]
            record["digits"] = reference.digits_correct(got, logabs) if got_sign == sign else 0.0
            if record["digits"] < reference.CLOSED_FORM_MIN_DIGITS:
                problems.append(f"closed_form_logdet {record['closed']} keeps "
                                f"{record['digits']:.1f} digits of log|det| {float(logabs)!r}")
        if record["lu"] is not None:
            lu_sign, lu = record["lu"]
            record["lu_digits"] = reference.digits_correct(lu, logabs) if lu_sign == sign else 0.0
        if "matrix_file" in record:
            n = spec["n"]
            path = record.pop("matrix_file")
            entries = np.fromfile(path, dtype=np.float64)
            os.remove(path)
            problem = reference.check_float_matrix(spec["nodes"], entries.reshape(n, n))
            if problem:
                problems.append(f"build_ci_matrix: {problem}")
        record["wrong"] = "; ".join(problems) or None
        return
    if spec["kind"] == "exact":
        checks = (reference.check_det_output, reference.check_gen_output)
        args = spec["nodes"]
    else:
        checks, args = (reference.check_verify_output,), spec["n"]
    # A call that printed nothing and exited non-zero returned no answer:
    # a failure, not a wrong answer.
    problems = [check(args, out) for check, out, code in zip(checks, record.pop("stdouts"), record["codes"])
                if out or code == 0]
    if not problems:
        return
    if spec["kind"] == "verify" and not any(problems):
        record["sizes"] = spec["n"]
    record["wrong"] = "; ".join(filter(None, problems)) or None
    record["digits"] = 0.0 if record["wrong"] else reference.DIGITS_EXACT


def failed(record: dict) -> bool:
    return bool(record["error"] or any(code != 0 for code in record.get("codes", ())) or record["wrong"])


# ---------------------------------------------------------------------------
# metrics


def median_request_s(records: list) -> float:
    """Median over rounds of each round's median request time (report only).

    A round of the exact workload holds four requests at each of 4 sizes,
    so the pooled median would sit between the n=16 and n=24 requests and
    follow the slowest sample of one group; per round it is the same middle,
    with outliers voted out.  With an odd number of requests per round, one
    per size, it equals the pooled median.
    """
    rounds: dict = {}
    for record in records:
        rounds.setdefault(record["round"], []).append(record["t"])
    return statistics.median(statistics.median(times) for times in rounds.values())


def repeat_p90(records: list) -> list[float]:
    """Each request of the pool's 90th-percentile time over its repeats, in
    pool order.

    Every round sends the same inputs again, so a request's time differs
    from round to round only by what the host did meanwhile.  On the shared
    host of the committed results that is a two-state mix: the loaded state
    holds most of the time, and for stretches of seconds the same code runs
    up to 1.7 times faster.  The share of fast stretches changes from run to
    run, and a median, a mean or a fastest time follows it; the 90th
    percentile reads the loaded state, which shows up in nearly every run.
    """
    times: dict = {}
    for record in records:
        times.setdefault(record["index"], []).append(record["t"])
    return [statistics.quantiles(times[index], n=10, method="inclusive")[-1]
            if len(times[index]) > 1 else times[index][0] for index in sorted(times)]


def end_to_end(setups: list, records: list, rss_mb: float) -> dict:
    p90 = repeat_p90(records)
    digits = [r["digits"] for r in records if r["digits"] is not None]
    return {
        "setup_s": statistics.median(setups),
        "request_s.repeat_p90": statistics.median(p90),
        "requests_per_s.repeat_p90": len(p90) / sum(p90),
        "ok_ratio": 1.0 - sum(map(failed, records)) / len(records),
        "digits_correct.min": min(digits) if digits else 0.0,
        "peak_rss_mb": rss_mb,
    }


def self_times(spans: list) -> dict:
    """Per request id: {span name: [self s, calls, total s]}, one process."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict = {}
    for index, (name, start, end, _, request) in enumerate(spans):
        entry = out.setdefault(request, {}).setdefault(name, [0.0, 0, 0.0])
        entry[0] += (end - start) - covered[index]
        entry[1] += 1
        entry[2] += end - start
    return out


def tracing_overhead(records: list) -> float:
    """Median over the pool of traced / untraced ``repeat_p90``, - 1.

    The rounds alternate U T T U ..., so both modes sample the same
    stretches of the host's speed.
    """
    traced = repeat_p90([r for r in records if r["traced"]])
    untraced = repeat_p90([r for r in records if not r["traced"]])
    return statistics.median(t / u for t, u in zip(traced, untraced)) - 1.0


def per_layer(records: list, served: dict) -> tuple[dict, bool]:
    """The per-layer metrics, and whether every count repeated in every
    traced round."""
    by_request: dict = {}
    for process_spans in served["spans"]:
        by_request.update(self_times(process_spans))
    rounds: dict = {}
    for record in (r for r in records if r["traced"]):
        totals = rounds.setdefault(record["round"], Counter())
        for name, (self_s, calls, total_s) in by_request.get(record["id"], {}).items():
            totals[f"{name}.self_s"] += self_s
            totals[f"{name}.calls"] += calls
            totals[f"{name}.total_s"] += total_s
        for name, value in served["counts"].get(record["id"], {}).items():
            totals[name] += value
        totals["sizes"] += record.get("sizes", 0)
    ordered = [rounds[k] for k in sorted(rounds)]
    count_names = [name for name, unit, _ in PER_LAYER if unit == "count"]
    repeats = all(all(r[name] == ordered[0][name] for name in count_names) for r in ordered)
    metrics = {}
    for name, unit, _ in PER_LAYER:
        if unit == "s":
            metrics[name] = statistics.median(r[name] for r in ordered)
        elif unit == "count":
            metrics[name] = ordered[0][name]
    first = ordered[0]
    builds = first["matrix.symbolic_ci_matrix.calls"]
    metrics["verifier.matrix_builds_per_size"] = builds / first["sizes"] if first["sizes"] else 0.0
    lu16 = [r["lu_digits"] for r in records if r.get("lu_digits") is not None and r["n"] == 16]
    metrics["matrix.lu_logdet.digits.n16"] = min(lu16) if lu16 else 0.0
    metrics["tracing.overhead"] = tracing_overhead(records)
    return {name: float(metrics[name]) for name, _, _ in PER_LAYER}, repeats


# ---------------------------------------------------------------------------
# one workload


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    pool = workloads.make_pool(workload, seed)
    for spec in pool:
        if "nodes" in spec and spec["n"] <= FOLD_CHECK_MAX_N and not reference.tree_agrees_with_fold(spec["nodes"]):
            raise BenchError(f"product-tree reference disagrees with a Fraction fold at n={spec['n']}")
    probe_ms = speed_probe_ms()
    if workload == "symbolic_verify":
        setups, served = serve_cold(workload, pool, seconds, trace)
    else:
        setups, served = serve_in_process(workload, pool, seconds, trace, 0 if trace else SETUP_PROBES)
    records = served["records"]
    for record in records:
        record["n"] = pool[record["index"]]["n"]
    check(pool, records, {})
    rounds = max(r["round"] for r in records) + 1
    lines = [f"== {workload}  seed={seed}  seconds={seconds:g}  trace={int(trace)}  "
             f"({len(pool)} requests per round, {rounds} rounds)  speed probe {probe_ms:.2f} ms"]
    lines += _failure_lines(records)
    if trace:
        metrics, repeats = per_layer(records, served)
        units = PER_LAYER
        lines.append(f"counts repeat in every traced round: {'yes' if repeats else 'NO'}")
        path = _write_spans(workload, seed, served["spans"])
        lines.append(f"spans written to {path}")
    else:
        metrics = end_to_end(setups, records, served["rss_mb"])
        units = END_TO_END
        lines.append(f"setup samples: {len(setups)} cold starts")
        lines += _request_time_lines(records)
        if workload == "exact":  # so a change that costs p/q lists what it gains on ints shows
            p90 = repeat_p90(records)
            for inputs in ("int", "frac"):
                share = sum(t for t, spec in zip(p90, pool) if spec["inputs"] == inputs)
                lines.append(f"one pass over the {inputs} lists, summed repeat_p90: {share:.6g} s")
    for name, unit, _ in units:
        lines.append(f"{name:<46} {metrics[name]:>14.6g} {unit}")
    for line in lines:
        print(line)
    wrong = [r["wrong"] for r in records if r["wrong"]]
    return {
        "correct": not wrong,
        "attempted": len(records),
        "failed": sum(map(failed, records)),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in units},
        "wrong": wrong[:3],
    }


def _failure_lines(records: list) -> list[str]:
    lines = [f"requests: {len(records)} attempted, {sum(map(failed, records))} failed, "
             f"fail_ratio={sum(map(failed, records)) / len(records):.4f}"]
    causes = Counter(
        (r["n"], r["error"] or (f"wrong: {r['wrong']}" if r["wrong"] else f"exit {r['codes']}"))
        for r in records if failed(r)
    )
    for (n, cause), count in sorted(causes.items()):
        lines.append(f"  failed x{count} at n={n}: {cause}")
    warned = Counter()
    for r in records:
        if r["warnings"]:
            warned[(r["n"], r["warnings"])] += 1
    for (n, per_request), count in sorted(warned.items()):
        lines.append(f"  warnings at n={n}: {per_request} per request, x{count} requests "
                     f"(captured, not shown)")
    lu = {}
    for r in records:
        if r.get("lu_digits") is not None:
            lu[r["n"]] = min(lu.get(r["n"], r["lu_digits"]), r["lu_digits"])
    if lu:
        lines.append("LU digits of log|det| by n (recorded, not judged): "
                     + "  ".join(f"{n}: {d:.2f}" for n, d in sorted(lu.items())))
    return lines


def _request_time_lines(records: list) -> list[str]:
    """Request time pooled over every request of the run: printed, not in
    the result line."""
    times = [r["t"] for r in records]
    lines = [f"request_s.p50 (median over rounds of each round's median): {median_request_s(records):.6g} s",
             f"requests_per_s (all requests over their summed time): {len(times) / sum(times):.6g} 1/s"]
    p90 = statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0]
    above = sum(t > p90 for t in times)
    if above < 10:
        lines.append(f"request_s.p90: not reported, {len(times)} requests leave {above} "
                     f"samples above the 90th percentile, fewer than 10")
    else:
        lines.append(f"request_s.p90: {p90:.6g} s over {len(times)} requests ({above} above it)")
    return lines


def _write_spans(workload: str, seed: int, processes: list) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")
    with open(path, "w") as out:
        for process, spans in enumerate(processes):
            for name, start, end, parent, request in spans:
                out.write(json.dumps({"process": process, "name": name, "start": start, "end": end,
                                      "parent": parent, "request": request}) + "\n")
    return path


def speed_probe_ms() -> float:
    """Median time of a fixed pure-Python loop, taken just before serving.

    On a shared host the same code runs up to twice as slow from one minute
    to the next; this figure lets a reader tell that drift from a change in
    the program.  It is reported, never used to scale a metric.
    """
    times = []
    for _ in range(7):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000.0


def machine_line() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (f"machine: cpu={cpu}  nproc={len(os.sched_getaffinity(0))}  "
            f"python={platform.python_version()}  numpy={np.__version__}  commit={_commit()}")


def _commit() -> str:
    try:
        with open(".git/HEAD") as head:
            ref = head.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(".git", ref[5:])) as target:
                return target.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def run_seconds() -> int:
    try:
        with open(BENCHMARK_JSON) as f:
            return json.load(f)["run_seconds"]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"no --seconds given and no run_seconds in {BENCHMARK_JSON}: {exc}") from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="run length of each workload "
                        "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "cimatrix", "__init__.py")):
        print("error: run from the root of a cimatrix checkout (no src/cimatrix here)", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        seconds = args.seconds or run_seconds()
        print(machine_line())
        results = {name: run_workload(name, args.seed, seconds, bool(args.trace)) for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, result in results.items():
        for problem in result.pop("wrong"):
            print(f"WRONG ANSWER in {name}: {problem}")
    correct = all(r["correct"] for r in results.values())
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": (results[names[0]]["metrics"] if len(names) == 1
                    else {name: r["metrics"] for name, r in results.items()}),
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
