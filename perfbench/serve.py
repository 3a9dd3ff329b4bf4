"""Serving process of the benchmark: imports the package under test from
./src, sends it requests one at a time and records what came back.

    python3 perfbench/serve.py setup <workload>   # import, warm up, exit
    python3 perfbench/serve.py serve <workload>   # job on stdin: pool, seconds, trace
    python3 perfbench/serve.py cold <workload>    # job on stdin: one request

Each mode prints one JSON object on stdout.  ``ready`` is the monotonic
clock once the process could take its first request, so the parent, which
noted the clock before starting this process, gets the set-up time.
Answers are checked by the parent against exact references; this process
never computes one.  Besides the program it holds only the requests, the
records and one row at a time of a returned float matrix, which goes to
the parent through a file under .perfbench-out/.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import warnings

import numpy as np

import spans

OUT_DIR = ".perfbench-out"
WARM_UP_ARGV = ["det", "--mu=1,2,3", "--oracle", "bareiss"]
WARM_UP_NODES = [1.0, 2.0, 3.0, 4.0]


def _import_package(workload: str):
    """Import the package under test; refuse any copy outside ./src."""
    if workload == "float_logdet":
        import cimatrix as package
    else:
        import cimatrix.cli as package
    src = os.path.join(os.getcwd(), "src", "")
    if not os.path.abspath(package.__file__).startswith(src):
        raise SystemExit(f"imported cimatrix from {package.__file__}, not from {src}")
    return package


def _cli_call(main, argv: list[str]) -> tuple[int | None, str, str | None]:
    stdout, stderr = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a raised request is a counted failure
            error = f"{type(exc).__name__}: {exc}"
    return code, stdout.getvalue(), error


def _float_request(package, spec: dict, keep: bool) -> dict:
    closed = lu = matrix = error = None
    start = time.perf_counter()
    try:
        closed = package.closed_form_logdet(spec["nodes"])
        matrix = package.build_ci_matrix(spec["nodes"])
        lu = package.lu_logdet(matrix)
    except Exception as exc:  # a raised request is a counted failure
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    record = {"t": elapsed, "error": error,
              "closed": None if closed is None else [int(closed[0]), float(closed[1])],
              "lu": None if lu is None else [int(lu[0]), float(lu[1])]}
    digest = hashlib.sha256(repr((record["closed"], record["lu"])).encode())
    if matrix is not None:
        path = os.path.join(OUT_DIR, f"matrix-n{spec['n']}.f64") if keep else None
        _take_matrix(matrix, digest, path)
        if path:
            record["matrix_file"] = path
    record["hash"] = digest.hexdigest()
    return record


def _take_matrix(matrix, digest, path: str | None) -> None:
    """Hash the returned matrix, and write it to ``path`` if given, one row
    at a time: this process never holds a second copy of the matrix, so
    its peak memory stays the program's."""
    with open(path, "wb") if path else contextlib.nullcontext() as out:
        for row in matrix.entries:
            values = np.asarray(row, dtype=np.float64)
            digest.update(values)
            if out:
                out.write(values)


def _cli_request(main, spec: dict, keep: bool) -> dict:
    codes, stdouts, error = [], [], None
    start = time.perf_counter()
    for argv in spec["argvs"]:
        code, stdout, error = _cli_call(main, argv)
        codes.append(code)
        stdouts.append(stdout)
        if error:
            break
    elapsed = time.perf_counter() - start
    record = {"t": elapsed, "codes": codes, "error": error,
              "hash": hashlib.sha256("\0".join(stdouts).encode()).hexdigest()}
    if keep:
        record["stdouts"] = stdouts
    return record


def _request(call, spec: dict, keep: bool) -> dict:
    """One request, with every warning it raises counted instead of shown."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        record = call(spec, keep)
    record["warnings"] = len(caught)
    return record


def _caller(workload: str, package):
    """The request function.  It looks the package's functions up on every
    call, so the traced rounds see the wrappers ``spans.install`` put there."""
    if workload == "float_logdet":
        return lambda spec, keep: _float_request(package, spec, keep)
    return lambda spec, keep: _cli_request(package.main, spec, keep)


def _warm_up(workload: str, package) -> None:
    if workload == "float_logdet":
        package.lu_logdet(package.build_ci_matrix(WARM_UP_NODES))
        package.closed_form_logdet(WARM_UP_NODES)
    else:
        code, _, error = _cli_call(package.main, WARM_UP_ARGV)
        if code != 0 or error:
            raise SystemExit(f"warm-up request failed: exit {code}, {error}")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def serve(workload: str, package, job: dict) -> dict:
    """Run whole rounds over the pool until the time is up.  A traced job
    alternates untraced and traced rounds (``spans.traced_round``) and
    ends on a whole pair."""
    pool, trace = job["pool"], job["trace"]
    os.makedirs(OUT_DIR, exist_ok=True)
    call = _caller(workload, package)
    tracer = spans.Tracer() if trace else None
    records = []
    request_id = 0
    round_number = 0
    step = 2 if trace else 1
    start = time.perf_counter()
    while round_number == 0 or round_number % step or time.perf_counter() - start < job["seconds"]:
        traced = spans.traced_round(round_number) if trace else False
        saved = spans.install(tracer) if traced else []
        try:
            for index, spec in enumerate(pool):
                if tracer:
                    tracer.request = request_id
                record = _request(call, spec, keep=round_number == 0)
                record.update(index=index, round=round_number, id=request_id, traced=traced)
                records.append(record)
                request_id += 1
        finally:
            spans.restore(saved)
        round_number += 1
    return {"records": records, "rss_mb": _maxrss_mb(),
            "spans": tracer.spans if tracer else [], "counts": tracer.counts if tracer else {}}


def cold(workload: str, package, job: dict) -> dict:
    tracer = spans.Tracer() if job["trace"] else None
    if tracer:
        tracer.request = job["id"]
        spans.install(tracer)
    record = _request(_caller(workload, package), job["request"], keep=True)
    record.update(index=0, round=job["id"], id=job["id"], traced=job["trace"])
    return {"record": record, "rss_mb": _maxrss_mb(),
            "spans": tracer.spans if tracer else [], "counts": tracer.counts if tracer else {}}


def main(argv: list[str]) -> int:
    mode, workload = argv
    package = _import_package(workload)
    if mode != "cold":
        _warm_up(workload, package)
    ready = time.monotonic()
    result: dict = {"ready": ready}
    if mode == "serve":
        result.update(serve(workload, package, json.load(sys.stdin)))
    elif mode == "cold":
        result.update(cold(workload, package, json.load(sys.stdin)))
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
