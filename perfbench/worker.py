"""One fresh benchmark process: set up, optionally run one pass, report.

``run.py`` starts this file with one JSON argument::

    {"mode": "setup" | "run" | "trace", "workload": ..., "seed": ...,
     "profile": "smoke", "trace_out": path or null}

and reads the JSON object printed as the last line of its output.
``setup`` stops after ``prepare_experiment``; ``run`` also runs the
workload's calls once with tracing off; ``trace`` does the same with the
layer wrappers of :mod:`tracing` installed, then removes them and proves
they are gone.  Set-up is timed alike in every mode: the hooks of
:class:`measure.Capture` go in after it, and the tracer's wrappers only
in ``trace`` processes, whose set-up time is not reported.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from workloads import IPC, WORKLOADS


def _blas_threads() -> str:
    try:
        from threadpoolctl import threadpool_info
    except ImportError:
        return os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    counts = {str(p.get("num_threads")) for p in threadpool_info()
              if p.get("user_api") == "blas"}
    return ",".join(sorted(counts)) or "none"


def _run_calls(experiments, workload, prepared, seed: int):
    configs = [dict(method=m, ipc=IPC, seed=seed)
               for m in workload.methods]
    if workload.grid:
        return experiments.run_method_grid(prepared, configs, jobs=1)
    return [experiments.run_method(prepared, **c) for c in configs]


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    spec = json.loads(argv[1])
    workload = WORKLOADS[spec["workload"]]
    seed = int(spec["seed"])
    mode = spec["mode"]

    import repro.cli  # noqa: F401  (the import users pay on every run)
    from repro import experiments, obs
    imported = time.perf_counter()

    tracer = originals = None
    if mode == "trace":
        import tracing
        originals = {(owner, attr): vars(owner)[attr]
                     for owner, attr, _ in tracing.resolve_targets()}
        tracer = tracing.Tracer()
        tracer.install()

    prepared = experiments.prepare_experiment(
        workload.dataset, spec["profile"], seed=seed, use_cache=False)
    ready = time.perf_counter()
    report = {"seed": seed, "setup_s": ready - start,
              "import_s": imported - start}
    if mode == "setup":
        print(json.dumps(report))
        return 0

    import measure
    capture = measure.Capture()
    capture.install()
    if tracer is not None:
        wrapped_before = (len(tracer.spans) + len(tracer.segment_s),
                          tracer.observed_calls)
    before = obs.collect_runtime_counters(emit=False)
    began = time.perf_counter()
    results = _run_calls(experiments, workload, prepared, seed)
    run_s = time.perf_counter() - began
    after = obs.collect_runtime_counters(emit=False)

    capture.uninstall()  # installed last, so restored first
    if tracer is not None:
        tracer.uninstall()
    if originals is not None:
        removed = all(vars(owner)[attr] is fn
                      for (owner, attr), fn in originals.items())
    else:
        import tracing
        removed = not tracing.installed_wrappers()

    import numpy
    delta = measure.counter_delta(before, after)
    num_classes = prepared.dataset.num_classes
    problems = measure.check_pass(results, capture.runs, delta, num_classes)
    report.update(
        run_s=run_s,
        buffer_update_s=sum(r.condense_seconds for r in results)
        + sum(capture.selection_seconds(run["learner"])
              for run in capture.runs),
        final_acc=[r.final_accuracy for r in results],
        methods=[r.method for r in results],
        state_bytes=max(r.extra["memory"]["total_bytes"] for r in results),
        tracked_high_water_bytes=max(
            (run["tracked_high_water"] for run in capture.runs), default=0),
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        problems=problems,
        fingerprints=[measure.fingerprint(run["learner"])
                      for run in capture.runs],
        counters=measure.counter_metrics(delta, after),
        wrappers_removed=removed,
        numpy=numpy.__version__,
        blas_threads=_blas_threads(),
    )
    if tracer is not None:
        report["trace"] = trace_report(tracer, report, wrapped_before)
        if spec.get("trace_out"):
            with open(spec["trace_out"], "w") as fh:
                json.dump(tracer.dump(), fh)
    print(json.dumps(report))
    return 0


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def trace_report(tracer, report: dict, wrapped_before: tuple[int, int]
                 ) -> dict:
    """Per-layer metrics of one traced pass.  ``wrapped_before`` is the
    tracer's (spanned, observe-only) call counts when ``run_s`` began."""
    def seconds(name, outermost=False):
        return tracer.inclusive(name, outermost)[0]

    def calls(name):
        return float(tracer.inclusive(name)[1])

    roots = ("experiments.run_method", "experiments.run_method_grid")
    encoded = tracer.disc_rows_encoded
    span_cost, observe_cost = tracer.wrapper_cost()
    overhead_s = (
        span_cost * (len(tracer.spans) + len(tracer.segment_s)
                     - wrapped_before[0])
        + observe_cost * (tracer.observed_calls - wrapped_before[1]))
    return {
        "setup.import_s": report["import_s"],
        "setup.dataset_s": seconds("data.load_dataset"),
        "setup.pretrain_s": seconds("train.pretrain"),
        "pseudo_label.s": seconds("pseudo_label"),
        "pseudo_label.calls": calls("pseudo_label"),
        "condense.s": seconds("condense"),
        "condense.calls": calls("condense"),
        "condense.offline_s": seconds("condense.offline"),
        "condense.param_grads_s": seconds("condense.param_grads"),
        "condense.fd_s": seconds("condense.fd"),
        "condense.grad_distance_s": seconds("condense.grad_distance"),
        "condense.discrimination_s": seconds("condense.discrimination"),
        "condense.fb_passes": float(tracer.fb_passes),
        "condense.disc_rows_encoded": float(encoded),
        "condense.disc_active_ratio":
            tracer.disc_rows_active / encoded if encoded else 0.0,
        "buffer.select_s": seconds("buffer.select"),
        "buffer.select_calls": calls("buffer.select"),
        "train.retrain_s": seconds("train.retrain"),
        "train.retrain_calls": calls("train.retrain"),
        "train.sgd_steps": float(tracer.sgd_steps),
        "train.eval_s": seconds("train.eval"),
        "learner.segment_ms_p50": 1e3 * _quantile(tracer.segment_s, 0.5),
        "learner.segment_ms_p90": 1e3 * _quantile(tracer.segment_s, 0.9),
        "obs.health_check_s": seconds("obs.health_check", outermost=True),
        "trace.coverage": tracer.coverage(roots),
        "trace.overhead_frac": overhead_s / (report["run_s"] - overhead_s),
        "self_s": tracer.self_times(roots),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv))
