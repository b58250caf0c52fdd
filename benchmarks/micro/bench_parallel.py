"""Scaling micro-benchmark for the process-pool sweep executor.

Times :func:`repro.parallel.run_sweep` over a small CPU-bound grid at
several job counts and merges job-count-tagged entries into
``bench_results/micro_kernels.json``.

On a single-core machine the numbers will hover around 1.0x (plus pool
start-up overhead) — the point of recording them anyway is that the same
command run on a multi-core box documents the real scaling.

Usage::

    PYTHONPATH=src python benchmarks/micro/bench_parallel.py \
        [--repeats N] [--jobs 1 2]
"""

from __future__ import annotations

import argparse
import os

import numpy as np

from bench_kernels import best_of, merge_results
from repro.parallel import run_sweep


def _sweep_task(config, context, arrays):
    """Deterministic CPU-bound stand-in for one grid point."""
    rng = np.random.default_rng(config["seed"])
    acc = np.zeros((64, 64), dtype=np.float64)
    for _ in range(context["rounds"]):
        m = rng.standard_normal((64, 64))
        acc += m @ m.T
    return float(acc.sum())


def bench_sweep(jobs: list[int], repeats: int) -> dict:
    configs = [{"seed": s} for s in range(4)]
    context = {"rounds": 40}
    entry = {}
    for j in jobs:
        def run(j=j):
            run_sweep(_sweep_task, configs, jobs=j, context=context)
        # Process-pool startup is part of what a user pays per sweep, so it
        # is deliberately inside the timed region.
        entry[f"jobs={j}"] = best_of(run, repeats)
    base = entry.get("jobs=1")
    if base:
        for j in jobs:
            entry[f"speedup_{j}"] = base / entry[f"jobs={j}"]
    return entry


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--jobs", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args()

    payload = {
        "cpu_count": os.cpu_count(),
        "sweep": bench_sweep(args.jobs, args.repeats),
    }
    merge_results("parallel_scaling", payload)

    print(f"cpu_count: {payload['cpu_count']}")
    times = "  ".join(f"{k}: {v * 1e3:8.2f}ms"
                      for k, v in payload["sweep"].items()
                      if k.startswith("jobs"))
    print(f"{'sweep (4 tasks)':18s} {times}")


if __name__ == "__main__":
    main()
