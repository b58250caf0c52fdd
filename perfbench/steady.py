"""Run sets of benchmark runs and report their spread and agreement.

Usage (from the repository root)::

    python3 perfbench/steady.py --seeds 10 --sets 2
    python3 perfbench/steady.py --seeds 1 --sets 2 --trace 1

Within a set, workloads are interleaved (seed 0 of every workload, then
seed 1, ...), so slow drift of the host spreads over all workloads instead
of landing on one block of repeats.  For each workload and metric it
prints the median of the set and the spread: the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound from ``BENCHMARK.json``.
With two or more sets it also prints how far each set's median moved from
the first set's, and whether fingerprints (and, traced, every ``count``
metric) are identical across sets.  Raw results go to
``.perfbench_runs/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("# fingerprints "):
            result["fingerprints"] = json.loads(line[len("# fingerprints "):])
    return result


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance / median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    kinds = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in kinds}
    seeds = range(args.seeds)

    sets: list[dict] = []
    for index in range(args.sets):
        results: dict[str, list] = {w: [] for w in workloads}
        for seed in seeds:
            for workload in workloads:
                started = time.monotonic()
                result = run_once(workload, seed, bench["run_seconds"],
                                  args.trace)
                results[workload].append(result)
                print(f"set {index} {workload} seed {seed}: "
                      f"{time.monotonic() - started:.1f} s, "
                      f"correct={result['correct']}", file=sys.stderr)
        sets.append(results)

    out = ROOT / ".perfbench_runs"
    out.mkdir(exist_ok=True)
    (out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json").write_text(
        json.dumps({"trace": args.trace, "seeds": list(seeds),
                    "sets": sets}))

    worst = 0.0
    for workload in workloads:
        print(f"\n{workload}")
        print(f"  {'metric':<28}{'median':>12}{'spread':>9}{'bound':>7}"
              + "".join(f"{'set ' + str(i) + ' moved':>13}"
                        for i in range(1, len(sets))))
        for name in bounds:
            medians, spreads = [], []
            for results in sets:
                values = [r["metrics"][name]["value"]
                          for r in results[workload]]
                median, share = spread(values)
                medians.append(median)
                spreads.append(share)
            bound = bounds[name]
            moved = "".join(
                f"{(m - medians[0]) / medians[0] if medians[0] else 0.0:>13.2%}"
                for m in medians[1:])
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, max(spreads) / bound)
                flag = "  over bound/3" if max(spreads) > bound / 3 else ""
            print(f"  {name:<28}{medians[0]:>12.5g}{max(spreads):>9.2%}"
                  f"{'' if bound is None else format(bound, '.2f'):>7}"
                  f"{moved}{flag}")
        if len(sets) > 1:
            same_fp = all(
                [r["fingerprints"] for r in s[workload]]
                == [r["fingerprints"] for r in sets[0][workload]]
                for s in sets[1:])
            print(f"  fingerprints identical across sets: {same_fp}")
            if args.trace:
                counts = [m["name"] for m in kinds if m["unit"] == "count"]
                same_counts = all(
                    [[r["metrics"][c]["value"] for c in counts]
                     for r in s[workload]]
                    == [[r["metrics"][c]["value"] for c in counts]
                        for r in sets[0][workload]]
                    for s in sets[1:])
                print(f"  count metrics identical across sets: {same_counts}")
    if not args.trace:
        print(f"\nlargest spread / bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
