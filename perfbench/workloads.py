"""Seeded request pools, one per workload.

A pool is the list of requests one round sends, in order; the benchmark
repeats whole rounds until its time is up.  A request is one or more calls
on one input, timed together: an exact request is ``det`` then ``gen`` on
one node list, so the median request carries Bareiss work.  The same seed
gives the same pool.  Each kind of input draws from its own stream of the
seed, so the integer and p/q node lists never coincide.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

FLOAT_SIZES = (16, 64, 128, 256, 320)
EXACT_SIZES = (8, 16, 24, 32)
EXACT_LISTS_PER_SIZE = 2  # of each kind; the cost of one p/q list varies by about 15%
VERIFY_MAX_N = 7

WORKLOADS = ("float_logdet", "exact", "symbolic_verify")

_STREAM = {"float": 0, "int": 1, "frac": 2}


def float_nodes(rng: np.random.Generator, n: int) -> list[float]:
    """The README's bench draw: n sorted uniform draws on [0, 2) plus 0.1*i.

    Reimplemented here rather than imported, so that a program change
    cannot silently change the workload.
    """
    draws = np.sort(rng.uniform(0.0, 2.0, n))
    return [float(x) for x in draws + 0.1 * np.arange(n)]


def int_nodes(rng: np.random.Generator, n: int) -> list[str]:
    """n distinct integers in [-999, 999]."""
    return [str(int(v)) for v in rng.choice(np.arange(-999, 1000), size=n, replace=False)]


def frac_nodes(rng: np.random.Generator, n: int) -> list[str]:
    """n distinct non-integral rationals p/q in lowest terms, |p/q| < 1000.

    q cycles over 2..9, so every list has the same mix of denominators and
    the seed draws only the numerators: a random mix made the cost of one
    Bareiss run vary by about 20% from list to list.
    """
    seen: set[Fraction] = set()
    nodes = []
    while len(nodes) < n:
        q = 2 + len(nodes) % 8
        p = int(rng.integers(-999 * q, 999 * q + 1))
        if math.gcd(p, q) == 1 and Fraction(p, q) not in seen:
            seen.add(Fraction(p, q))
            nodes.append(f"{p}/{q}")
    return nodes


def make_pool(workload: str, seed: int) -> list[dict]:
    """The requests of one round of ``workload`` for ``seed``."""
    if workload == "float_logdet":
        return [
            {"kind": "float", "n": n,
             "nodes": float_nodes(np.random.default_rng([seed, _STREAM["float"], n]), n)}
            for n in FLOAT_SIZES
        ]
    if workload == "exact":
        pool = []
        for index in range(EXACT_LISTS_PER_SIZE):
            for stream, draw in (("int", int_nodes), ("frac", frac_nodes)):
                for n in EXACT_SIZES:
                    nodes = draw(np.random.default_rng([seed, _STREAM[stream], n, index]), n)
                    mu = "--mu=" + ",".join(nodes)
                    pool.append({"kind": "exact", "inputs": stream, "n": n, "nodes": nodes,
                                 "argvs": [["det", mu, "--oracle", "bareiss"], ["gen", mu, "--out", "json"]]})
        return pool
    if workload == "symbolic_verify":
        argv = ["verify", "--max-n", str(VERIFY_MAX_N), "--cap", str(VERIFY_MAX_N), "--json"]
        return [{"kind": "verify", "n": VERIFY_MAX_N, "argvs": [argv]}]
    raise ValueError(f"unknown workload {workload!r}")
