"""The repository's benchmark: one workload, one seed, one JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload deco-core50 --seed 0 --seconds 10 --trace 0

Each pass runs in a fresh single-threaded process (``worker.py``) with
``OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1`` and every ``REPRO_*`` variable
removed.  ``--trace 0`` runs the workload's untraced passes (at least
``passes``, more while their measured time is below ``--seconds``) plus
set-up-only processes, and reports the end-to-end metrics.  ``--trace 1``
runs one untraced and one traced pass on the same seed and reports the
per-layer metrics; the traced pass must reproduce the untraced pass's
outputs.  Metric names and units are the ones ``BENCHMARK.json``
declares.  The last line of standard output is the result object; the
lines before it are a readable table, the run's tags and its
fingerprints.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, pass_seed

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_runs"

# A run must end within 180 s; stop starting processes past this point.
RUN_BUDGET_S = 165.0
SETUP_SAMPLES = 3


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, in ``BENCHMARK.json``'s order, of the metrics
    a run with ``--trace trace`` reports."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src") + os.pathsep + str(HERE))
    return env


class Runner:
    """Starts worker processes one at a time within the run's budget."""

    def __init__(self, args) -> None:
        self.args = args
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = child_env()
        self.errors: list[str] = []

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def spawn(self, mode: str, seed: int, trace_out: str | None = None):
        spec = {"mode": mode, "workload": self.args.workload, "seed": seed,
                "profile": self.args.profile, "trace_out": trace_out}
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            self.errors.append(f"{mode} seed {seed}: timed out")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.errors.append(f"{mode} seed {seed}: exit {proc.returncode}: "
                               f"{tail[0]}")
            return None
        return json.loads(lines[-1])


def run_untraced(runner: Runner, workload) -> tuple[list, list, int]:
    passes, measured, index, lost = [], 0.0, 0, 0
    while index < workload.passes or measured < runner.args.seconds:
        last = passes[-1]["run_s"] + passes[-1]["setup_s"] if passes else 0.0
        if passes and runner.remaining() < 2 * last:
            break
        report = runner.spawn("run", pass_seed(runner.args.seed, index))
        index += 1
        if report is None:
            lost += len(workload.methods)
            if index >= workload.passes:
                break
            continue
        passes.append(report)
        measured += report["run_s"]
    setups = list(passes)
    while len(setups) < SETUP_SAMPLES and runner.remaining() > 10:
        report = runner.spawn("setup", pass_seed(runner.args.seed, len(setups)))
        if report is None:
            break
        setups.append(report)
    return passes, setups, lost


def calls_of(passes, lost: int) -> tuple[int, int]:
    """(attempted, failed) ``run_method`` calls; the ``lost`` calls of
    processes that crashed or timed out count as failed."""
    problems = [p for report in passes for p in report["problems"]]
    return len(problems) + lost, sum(1 for p in problems if p) + lost


def end_to_end(passes: list, setups: list, ok_frac: float, names) -> dict:
    """``setups`` are the reports of every process, passes included."""
    found = {
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "run_s": statistics.median(p["run_s"] for p in passes),
        "buffer_update_s": statistics.median(
            p["buffer_update_s"] for p in passes),
        "final_acc": statistics.fmean(
            statistics.fmean(p["final_acc"]) for p in passes),
        "state_kib": max(p["state_bytes"] for p in passes) / 1024,
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
        "ok_frac": ok_frac,
    }
    return {name: found[name] for name in names}


def per_layer(traced: dict, names) -> dict:
    found = dict(traced["trace"], **traced["counters"])
    found["obs.tracked_high_water_mib"] = \
        traced["tracked_high_water_bytes"] / 2 ** 20
    return {name: found[name] for name in names}


def layer_table(traced: dict) -> list[str]:
    """Self time per layer of the traced pass, as a share of its run_s."""
    layers: dict[str, float] = {}
    for name, seconds in traced["trace"]["self_s"].items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + seconds
    lines = [f"{'layer':<14}{'self s':>10}{'of run_s':>10}"]
    for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:<14}{seconds:>10.3f}"
                     f"{seconds / traced['run_s']:>10.1%}")
    return lines


def record_fingerprints(workload_name: str, profile: str,
                        passes: list) -> list[str]:
    """Append this run's fingerprints; name any that changed since an
    earlier run of the same (workload, profile, pass seed) here."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "fingerprints.jsonl"
    known = {}
    if path.is_file():
        for line in path.read_text().splitlines():
            entry = json.loads(line)
            known[(entry["workload"], entry["profile"], entry["seed"])] = entry
    changed = []
    with path.open("a") as fh:
        for report in passes:
            entry = {"workload": workload_name, "profile": profile,
                     "seed": report["seed"], "final_acc": report["final_acc"],
                     "buffer_sha256": report["fingerprints"]}
            old = known.get((workload_name, profile, report["seed"]))
            if old is not None and (old["final_acc"], old["buffer_sha256"]) \
                    != (entry["final_acc"], entry["buffer_sha256"]):
                changed.append(f"seed {report['seed']}")
            fh.write(json.dumps(entry) + "\n")
    return changed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--profile", default="smoke",
                        help="experiment profile (micro: self-test size)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    tags = {"workload": args.workload, "seed": args.seed,
            "profile": args.profile, "trace": args.trace,
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "loadavg_start": os.getloadavg()[0]}
    runner = Runner(args)
    if args.trace:
        # Same seed for both, so the traced pass must reproduce the
        # untraced pass's outputs byte for byte.
        untraced = runner.spawn("run", pass_seed(args.seed, 0))
        OUT_DIR.mkdir(exist_ok=True)
        trace_out = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        traced = runner.spawn("trace", pass_seed(args.seed, 0), str(trace_out))
        passes = [r for r in (untraced, traced) if r is not None]
        complete, lost = len(passes) == 2, 0
    else:
        passes, setups, lost = run_untraced(runner, workload)
        complete = bool(passes)
    if not complete:
        print("\n".join(runner.errors) or "no pass completed", file=sys.stderr)
        return 1
    attempted, failed = calls_of(passes, lost)
    units = declared_units(args.trace)
    if args.trace:
        metrics = per_layer(traced, units)
        tags["trace_fingerprint_match"] = (
            (untraced["final_acc"], untraced["fingerprints"])
            == (traced["final_acc"], traced["fingerprints"]))
        print("\n".join(layer_table(traced)))
    else:
        metrics = end_to_end(passes, setups, (attempted - failed) / attempted,
                             units)

    for name, value in metrics.items():
        print(f"{name:<30}{value:>16.6g} {units[name]}")
    tags.update(numpy=passes[0]["numpy"], blas_threads=passes[0]["blas_threads"],
                passes=len(passes), errors=runner.errors,
                problems=[p for r in passes for p in r["problems"] if p],
                wrappers_removed=all(r["wrappers_removed"] for r in passes),
                fingerprint_changed=record_fingerprints(
                    args.workload, args.profile,
                    passes[:1] if args.trace else passes))
    print("# tags " + json.dumps(tags))
    print("# fingerprints " + json.dumps(
        [{"seed": r["seed"], "final_acc": r["final_acc"],
          "buffer_sha256": r["fingerprints"]} for r in passes]))
    correct = (failed == 0 and not runner.errors and tags["wrappers_removed"]
               and tags.get("trace_fingerprint_match", True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
