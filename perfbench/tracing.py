"""Layer spans recorded from outside the program, for the traced run only.

:class:`Tracer` wraps the public entry points of each layer of ``repro``
(attributes of its modules and classes, as the callers look them up),
records one span per call (name, start, end, parent) in memory, and puts
every original back on :meth:`Tracer.uninstall`.  Nothing here runs at
import, and nothing imports ``repro`` until :meth:`Tracer.install`.

Self time of a span is its duration minus the time of its direct
children; e.g. ``condense.offline`` contains ``condense``.

The tracing overhead is estimated, not timed against an untraced pass:
the host's speed drifts more between two passes than the wrappers cost.
:meth:`Tracer.wrapper_cost` times a wrapper around a no-op, and the
overhead of a pass is that cost times the wrapped calls the pass made.
"""

from __future__ import annotations

import functools
import importlib
import time

from measure import Patcher, strategy_classes

# (module, attribute path, span name).  The module is where the caller
# looks the name up, so the span sits at the layer boundary the caller
# crosses; ``None`` as the name counts calls without a span.
TARGETS = (
    # experiments: the public API the worker calls, plus the grid's loop.
    ("repro.experiments", "prepare_experiment", "experiments.prepare"),
    ("repro.experiments", "run_method", "experiments.run_method"),
    ("repro.experiments", "run_method_grid", "experiments.run_method_grid"),
    ("repro.experiments.grid", "run_method", "experiments.run_method"),
    # data
    ("repro.experiments.common", "load_dataset", "data.load_dataset"),
    ("repro.experiments.common", "make_stream", "data.make_stream"),
    # core.pseudo_label: DECO's majority vote and the replay learner's labels
    ("repro.core.pseudo_label", "MajorityVotePseudoLabeler.label_segment",
     "pseudo_label"),
    ("repro.core.replay", "predict_with_confidence", "pseudo_label"),
    # condensation, with the matching functions as one_step calls them
    ("repro.experiments.common", "condense_offline", "condense.offline"),
    ("repro.condensation.one_step", "OneStepMatcher.condense", "condense"),
    ("repro.condensation.one_step", "parameter_gradients",
     "condense.param_grads"),
    ("repro.condensation.one_step", "distance_and_grad_wrt_gsyn",
     "condense.grad_distance"),
    ("repro.condensation.one_step", "finite_difference_matching_grad",
     "condense.fd"),
    ("repro.condensation.one_step", "OneStepMatcher._discrimination_grad",
     "condense.discrimination"),
    ("repro.condensation.one_step", "feature_discrimination_loss", None),
    # core.training
    ("repro.experiments.common", "train_model", "train.pretrain"),
    ("repro.core.learner", "train_model", "train.retrain"),
    ("repro.core.learner", "evaluate_accuracy", "train.eval"),
    ("repro.nn.optim", "SGD.step", None),
    # core.learner
    ("repro.core.learner", "OnDeviceLearner.run", "learner.run"),
    # obs: the health sentinels called from the matcher and optimizers
    ("repro.obs.health", "HealthMonitor.check", "obs.health_check"),
    ("repro.obs.health", "HealthMonitor.check_loss", "obs.health_check"),
)

# Spans that only contain other layers' work; coverage counts the rest.
CONTAINERS = ("experiments.", "learner.")

_MARK = "_perfbench_wrapper"


def resolve_targets():
    """``(owner, attribute, span name)`` for every wrapped entry point."""
    resolved = []
    for module_name, path, span in TARGETS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        resolved.append((owner, attr, span))
    return resolved + [(cls, "process_segment", "buffer.select")
                       for cls in strategy_classes()]


def installed_wrappers() -> list[str]:
    """Names of the targets that currently hold a tracing wrapper."""
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, _ in resolve_targets()
            if hasattr(vars(owner).get(attr), _MARK)]


class Tracer(Patcher):
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        super().__init__()
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.stack: list[int] = []
        self.fb_passes = 0
        self.disc_rows_encoded = 0
        self.disc_rows_active = 0
        self.sgd_steps = 0
        self.segment_s: list[float] = []
        self.observed_calls = 0         # calls of wrappers without a span

    # -- recording ---------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def _inside(self, name: str) -> bool:
        return bool(self.stack) and self.spans[self.stack[-1]][0] == name

    def _observe(self, attr: str, args, result) -> None:
        """Counts taken at a boundary, from its arguments or result."""
        if attr == "condense":
            self.fb_passes += int(result.forward_backward_passes)
        elif attr == "feature_discrimination_loss":
            # (features, labels, active_indices, ...): rows encoded vs the
            # rows whose pixels the loss actually updates.
            self.disc_rows_encoded += int(args[0].shape[0])
            self.disc_rows_active += len(args[2])
        elif attr == "step" and self._inside("train.retrain"):
            self.sgd_steps += 1

    def _wrap(self, fn, attr: str, name: str | None):
        tracer = self

        if attr == "run":  # OnDeviceLearner.run: time every segment
            @functools.wraps(fn)
            def wrapper(learner, stream, *args, **kwargs):
                index = tracer._open(name)
                try:
                    return fn(learner, _TimedStream(stream, tracer), *args,
                              **kwargs)
                finally:
                    tracer._close(index)
        elif name is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                tracer.observed_calls += 1
                tracer._observe(attr, args, result)
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                index = tracer._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(index)
                tracer._observe(attr, args, result)
                return result
        setattr(wrapper, _MARK, True)
        return wrapper

    # -- install / uninstall -------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in resolve_targets():
            self._patch(owner, attr, self._wrap(vars(owner)[attr], attr, name))

    def uninstall(self) -> bool:
        """Restore every original; True when no wrapper is left anywhere."""
        super().uninstall()
        return not installed_wrappers()

    @staticmethod
    def wrapper_cost(calls: int = 20_000, repeats: int = 5
                     ) -> tuple[float, float]:
        """Seconds one call of a spanned / observe-only wrapper adds to
        the call it wraps, timed around a no-op on a scratch tracer.  The
        fastest of ``repeats`` timings is kept: host slowdowns only add."""
        def noop(*args, **kwargs):
            return None

        scratch = Tracer()
        costs = []
        for name in ("calibrate", None):
            wrapped = scratch._wrap(noop, "noop", name)
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                for _ in range(calls):
                    noop(calls)
                bare = time.perf_counter() - start
                start = time.perf_counter()
                for _ in range(calls):
                    wrapped(calls)
                best = min(best, time.perf_counter() - start - bare)
                scratch.spans.clear()
            costs.append(max(best, 0.0) / calls)
        return costs[0], costs[1]

    # -- analysis ------------------------------------------------------------
    def _ancestors(self, index: int) -> list[int]:
        found, parent = [], self.spans[index][3]
        while parent >= 0:
            found.append(parent)
            parent = self.spans[parent][3]
        return found

    def _roots(self, roots: tuple[str, ...]) -> set[int]:
        """Indices of the outermost spans named in ``roots``."""
        return {i for i, s in enumerate(self.spans) if s[0] in roots
                and not any(self.spans[a][0] in roots
                            for a in self._ancestors(i))}

    def self_times(self, roots: tuple[str, ...]) -> dict[str, float]:
        """Per span name, over the ``roots`` spans and everything inside
        them: total duration minus direct-child durations."""
        root_ids = self._roots(roots)
        totals: dict[str, float] = {}
        for index, (name, start, end, parent) in enumerate(self.spans):
            if index not in root_ids and root_ids.isdisjoint(
                    self._ancestors(index)):
                continue
            totals[name] = totals.get(name, 0.0) + (end - start)
            if index not in root_ids:
                pname = self.spans[parent][0]
                totals[pname] = totals.get(pname, 0.0) - (end - start)
        return totals

    def inclusive(self, name: str, outermost: bool = False) -> tuple[float, int]:
        """(seconds, calls) of spans called ``name``; ``outermost`` skips
        those nested in a span of the same name."""
        seconds, calls = 0.0, 0
        for index, (span_name, start, end, _) in enumerate(self.spans):
            if span_name != name or (outermost and any(
                    self.spans[a][0] == name for a in self._ancestors(index))):
                continue
            seconds += end - start
            calls += 1
        return seconds, calls

    def coverage(self, roots: tuple[str, ...]) -> float:
        """Share of the outermost ``roots`` spans' time covered by the
        outermost work (non-container) spans inside them."""
        root_ids = self._roots(roots)
        total = sum(self.spans[i][2] - self.spans[i][1] for i in root_ids)
        covered = 0.0
        for index, (name, start, end, _) in enumerate(self.spans):
            ancestors = self._ancestors(index)
            if (not name.startswith(CONTAINERS)
                    and not root_ids.isdisjoint(ancestors)
                    and all(self.spans[a][0].startswith(CONTAINERS)
                            for a in ancestors)):
                covered += end - start
        return covered / total if total > 0 else 0.0

    def dump(self) -> dict:
        return {"spans": self.spans, "segment_s": self.segment_s}


class _TimedStream:
    """Stream proxy timing each segment from its delivery to the next
    request: observe, any retrain, and the loop's bookkeeping."""

    def __init__(self, stream, tracer: Tracer) -> None:
        self._stream = stream
        self._tracer = tracer

    def __len__(self) -> int:
        return len(self._stream)

    def __getattr__(self, name):
        return getattr(self._stream, name)

    def __iter__(self):
        delivered = None
        for segment in self._stream:
            now = time.perf_counter()
            if delivered is not None:
                self._tracer.segment_s.append(now - delivered)
            delivered = time.perf_counter()
            yield segment
        if delivered is not None:
            self._tracer.segment_s.append(time.perf_counter() - delivered)
