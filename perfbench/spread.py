"""Run the benchmark over several seeds and report, per metric, the median,
the quartiles and the spread (q3 - q1) / median next to the metric's bound.

    python3 perfbench/spread.py --workload symbolic_verify --seeds 1-5
    python3 perfbench/spread.py --workload all --seeds 1-10 --out perfbench/results/x.json
    python3 perfbench/spread.py --workload exact --seeds 3,3 --trace 1

Reads the command and bounds from BENCHMARK.json in the current directory
(the root of a checkout); run.py takes its run length from the same file.  A spread above a third of its bound is
flagged; setup_s is exempt, as only its median is compared.  With
``--trace 1`` it reports the per-layer metrics instead, and flags a count
metric that differs between runs of one seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import workloads


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    argv = bench["command"] + ["--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    result["machine"] = next((line for line in lines if line.startswith("machine:")), "")
    header = next(line for line in lines if line.startswith("== "))
    result["speed_probe_ms"] = float(header.rsplit("speed probe ", 1)[1].split()[0])
    return result


def summarize(workload: str, seeds: list[int], runs: list[dict], bench: dict, trace: int) -> dict:
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    summary = {}
    probes = [r["speed_probe_ms"] for r in runs]
    print(f"== {workload}: {len(runs)} runs, seeds {seeds}, "
          f"speed probe {min(probes):.2f}..{max(probes):.2f} ms")
    for metric in declared:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
        spread = (q3 - q1) / abs(median) if median else 0.0
        entry = {"values": values, "median": median, "q1": q1, "q3": q3, "spread": spread}
        flag = ""
        if "bound" in metric:
            entry["bound"] = metric["bound"]
            if name != "setup_s" and spread > metric["bound"] / 3:
                flag = "  SPREAD ABOVE A THIRD OF THE BOUND"
        if metric["unit"] == "count":
            by_seed: dict = {}
            for seed, value in zip(seeds, values):
                by_seed.setdefault(seed, set()).add(value)
            if any(len(v) > 1 for v in by_seed.values()):
                flag = "  COUNT DIFFERS BETWEEN RUNS OF ONE SEED"
        summary[name] = entry
        bound = f"bound {metric['bound']:.3f}" if "bound" in metric else ""
        print(f"{name:<46} median {median:<12.6g} spread {spread:7.4f} {bound}{flag}")
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary as JSON to this file")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seeds = parse_seeds(args.seeds)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"machine": None, "run_seconds": bench["run_seconds"], "trace": args.trace,
               "seeds": seeds, "workloads": {}}
    for workload in names:
        runs = [run_once(bench, workload, seed, args.trace) for seed in seeds]
        summary["machine"] = runs[-1]["machine"]
        summary["workloads"][workload] = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "speed_probe_ms": [r["speed_probe_ms"] for r in runs],
            "metrics": summarize(workload, seeds, runs, bench, args.trace),
        }
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
