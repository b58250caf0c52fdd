"""What every measured pass records besides its wall-clock time.

* :class:`Patcher` puts replacements on module and class attributes and
  puts every original back; :class:`Capture` and ``tracing.Tracer`` both
  install their hooks through it.
* :class:`Capture` holds the two hooks an untraced pass needs: it keeps
  each learner as ``OnDeviceLearner.run`` returns (for the output check
  and the fingerprint) and times ``process_segment`` of the selection
  baselines, their analogue of DECO's ``condense_seconds``.  Both cost one
  call per run or per segment.
* :func:`check_pass` is the output check behind ``ok_frac``.
* :func:`counter_metrics` turns deltas of
  ``repro.obs.collect_runtime_counters(emit=False)`` into per-layer
  metrics.  Counters are read by prefix and missing keys count as 0, so a
  counter the program stops exposing reads 0 instead of breaking a run.
"""

from __future__ import annotations

import functools
import hashlib
import time


def strategy_classes() -> list[type]:
    """Every selection strategy class that defines ``process_segment``."""
    from repro.buffer.selection import SelectionStrategy
    pending, found = list(SelectionStrategy.__subclasses__()), []
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "process_segment" in vars(cls):
            found.append(cls)
    return sorted(found, key=lambda cls: cls.__name__)


class Patcher:
    """Replaces attributes of modules and classes; restores them all."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Capture(Patcher):
    """Hooks installed around one measured pass, removed afterwards."""

    def __init__(self) -> None:
        super().__init__()
        self.runs: list[dict] = []
        self.select_s: dict[int, float] = {}

    def install(self) -> None:
        from repro import obs
        from repro.core.learner import OnDeviceLearner

        capture = self
        run = vars(OnDeviceLearner)["run"]

        @functools.wraps(run)
        def run_hook(learner, *args, **kwargs):
            condenser = getattr(learner, "condenser", None)
            # Condensation totals so far belong to the offline buffer init.
            offline_iterations = getattr(condenser, "total_iterations", 0)
            history = run(learner, *args, **kwargs)
            capture.runs.append({
                "learner": learner,
                "offline_iterations": offline_iterations,
                "tracked_high_water": obs.default_ledger.high_water_bytes})
            return history

        self._patch(OnDeviceLearner, "run", run_hook)
        for cls in strategy_classes():
            self._patch(cls, "process_segment",
                        self._timed(vars(cls)["process_segment"]))

    def _timed(self, fn):
        totals = self.select_s

        @functools.wraps(fn)
        def timed(strategy, *args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(strategy, *args, **kwargs)
            finally:
                key = id(strategy)
                totals[key] = totals.get(key, 0.0) + (
                    time.perf_counter() - start)
        return timed

    def selection_seconds(self, learner) -> float:
        strategy = getattr(learner, "strategy", None)
        return self.select_s.get(id(strategy), 0.0)


def fingerprint(learner) -> str:
    """SHA-256 of the learner's final buffer images and labels."""
    x, y = learner.training_set()
    digest = hashlib.sha256()
    for array in (x, y):
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _finite(learner) -> bool:
    import numpy as np
    x, _ = learner.training_set()
    return bool(np.isfinite(x).all()) and all(
        bool(np.isfinite(p.data).all()) for p in learner.model.parameters())


def check_pass(results, runs: list[dict], counters: dict[str, float],
               num_classes: int) -> list[list[str]]:
    """Problems found in each ``run_method`` call of one pass ([] = ok).

    Per call: buffer and parameters finite, ``budget_ok``, accuracy above
    chance.  For DECO, the pass's ``condense_passes`` must equal what its
    iterations imply: three passes (``g_real``, ``g_syn``, the distance
    gradient) per iteration, one discrimination pass per online
    iteration, plus the finite-difference evaluations the counters saw
    (one per fused dispatch, two per sequential fallback).
    """
    problems: list[list[str]] = []
    implied = counters.get("fd.fused_dispatches", 0.0) \
        + 2 * counters.get("fd.serial_fallbacks", 0.0)
    reported = 0
    deco_calls = []
    for index, (result, run) in enumerate(zip(results, runs)):
        learner = run["learner"]
        found = []
        if not _finite(learner):
            found.append("non-finite buffer or parameters")
        if not result.extra["memory"]["budget_ok"]:
            found.append("memory budget exceeded")
        if not result.final_accuracy > 1.0 / num_classes:
            found.append(f"accuracy {result.final_accuracy:.3f} not above "
                         f"chance {1.0 / num_classes:.3f}")
        condenser = getattr(learner, "condenser", None)
        if condenser is None:
            if result.condense_passes != 0:
                found.append("selection baseline reports condense passes")
        else:
            deco_calls.append(index)
            iterations = condenser.total_iterations
            online = iterations - run["offline_iterations"]
            alpha = getattr(getattr(condenser, "inner", condenser),
                            "alpha", 0.0)
            implied += 3 * iterations + (online if alpha else 0)
            reported += result.condense_passes
        problems.append(found)
    if deco_calls and reported != implied:
        for index in deco_calls:
            problems[index].append(
                f"condense_passes {reported} != {int(implied)} implied")
    if len(results) != len(runs):
        problems = [p + ["learner not captured"] for p in problems]
    return problems


def counter_delta(before: dict, after: dict) -> dict[str, float]:
    return {key: after.get(key, 0.0) - before.get(key, 0.0)
            for key in set(before) | set(after)}


def _ratio(hits: float, total: float) -> float:
    """``hits / total``; 0 when there was nothing to hit (the base says so)."""
    return hits / total if total else 0.0


def counter_metrics(delta: dict[str, float], after: dict[str, float]
                    ) -> dict[str, float]:
    """Per-layer metrics of the ``nn``, ``obs`` and ``parallel`` layers.

    Every ratio comes with its base (``*_lookups`` / ``*_requests``).
    """
    def get(key: str) -> float:
        return float(delta.get(key, 0.0))

    def by_prefix(prefix: str) -> float:
        return float(sum(v for k, v in delta.items() if k.startswith(prefix)))

    plan = get("plan_cache.hits") + get("plan_cache.misses")
    step = get("step_cache.hits") + get("step_cache.misses")
    arena = get("arena.hits") + get("arena.misses")
    return {
        "nn.plan_cache_hit_ratio": _ratio(get("plan_cache.hits"), plan),
        "nn.plan_cache_lookups": plan,
        "nn.plan_cache_evictions": get("plan_cache.evictions"),
        "nn.step_cache_hit_ratio": _ratio(get("step_cache.hits"), step),
        "nn.step_cache_lookups": step,
        "nn.arena_hit_ratio": _ratio(get("arena.hits"), arena),
        "nn.arena_requests": arena,
        "nn.arena_high_water_mib":
            float(after.get("arena.high_water_bytes", 0.0)) / 2 ** 20,
        "nn.fd_fused": get("fd.fused_dispatches"),
        "nn.fd_fallbacks": get("fd.serial_fallbacks"),
        "obs.health_checks": get("health.checks"),
        "obs.health_incidents": get("health.incidents"),
        "obs.health_divergence": get("health.divergence"),
        "parallel.sharded_calls": by_prefix("parallel.sharded_calls"),
        "parallel.reduce_calls": by_prefix("parallel.reduce.calls"),
    }
