"""Timing spans around pacsim's public functions, installed from outside.

A target is an attribute of the module or class through which pacsim makes
the call, so replacing it there catches every call: ``controller.py`` calls
``network_output`` and ``adapt_weights`` through its own globals, each plant
module calls its own imported ``rigid_body_step``, and ``run_experiment``
calls ``write_outputs`` through ``pacsim.experiment``. ``Tracer.installed``
swaps each target for a wrapper and puts the original back on exit.

Spans nest through a stack of child-time accumulators: a span's self time is
its duration minus the time its direct child spans took, so the self times
of all spans add up to the durations of the outermost spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass

MARKER = "__perfbench_span__"


def _rule_count(args, result) -> int:
    # network_output(x_e, net, y_r): rules evaluated by this call
    return args[1].rule_count


def _gust_blowing(args, result) -> int:
    return int(result != 0.0)


# (owner, attribute, span name, work counter or None); "module:Class" owners
# are patched on the class so that every instance sees the wrapper.
TARGETS = (
    ("pacsim.experiment", "run_experiment", "experiment.run", None),
    ("pacsim.experiment", "write_outputs", "experiment.write_outputs", None),
    ("pacsim.experiment", "read_step_csv", "experiment.read_step_csv", None),
    ("pacsim.trajectories", "reference", "trajectories.reference", None),
    ("pacsim.metrics", "report", "metrics.report", None),
    ("pacsim.stats", "wilcoxon_signed_rank", "stats.wilcoxon", None),
    ("pacsim.controller:ParsimoniousController", "step", "controller.step", None),
    ("pacsim.controller", "network_output", "palm.network_output", _rule_count),
    ("pacsim.controller", "adapt_weights", "controller.adapt_weights", None),
    ("pacsim.evolution", "network_bias_variance", "evolution.bias_variance", None),
    ("pacsim.evolution", "check_grow", "evolution.detect", None),
    ("pacsim.evolution", "check_prune", "evolution.detect", None),
    ("pacsim.pid:PidController", "step", "pid.step", None),
    ("pacsim.plants.hexacopter:Hexacopter", "step", "plants.step", None),
    ("pacsim.plants.flapping:BiFwmav", "step", "plants.step", None),
    ("pacsim.plants.hexacopter", "rigid_body_step", "plants.rigid_body_step", None),
    ("pacsim.plants.flapping", "rigid_body_step", "plants.rigid_body_step", None),
    ("pacsim.plants.disturbances:GustTracker", "advance", "plants.gust", _gust_blowing),
)


def _lookup(path: str, attr: str):
    """(owner, current attribute value); (None, None) when either is gone."""
    module, _, cls = path.partition(":")
    try:
        owner = importlib.import_module(module)
        owner = getattr(owner, cls) if cls else owner
    except (ImportError, AttributeError):
        return None, None
    # a class attribute is read from __dict__ so a plain function is saved and restored
    value = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return owner, value


def wrapped_targets() -> list[str]:
    """Targets that currently hold a tracing wrapper (empty when nothing is installed)."""
    return [f"{path}.{attr}" for path, attr, _, _ in TARGETS if hasattr(_lookup(path, attr)[1], MARKER)]


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: int = 0


class Tracer:
    """Aggregated spans, kept in memory: name -> SpanStats."""

    def __init__(self):
        self.spans: dict[str, SpanStats] = {}
        self.missing: list[str] = []
        self._stack: list[float] = []

    def wrap(self, fn, name: str, work=None):
        stats = self.spans.setdefault(name, SpanStats())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += duration
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - child
            if work is not None:
                stats.work += work(args, result)
            return result

        setattr(traced, MARKER, name)
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target that exists; restore the originals on exit."""
        saved = []
        try:
            for path, attr, name, work in TARGETS:
                owner, original = _lookup(path, attr)
                if original is None:
                    if f"{path}.{attr}" not in self.missing:
                        self.missing.append(f"{path}.{attr}")
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, work))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def layer_metrics(spans: dict, reps: list, overhead: float, slowness: float) -> dict:
    """Per-layer metrics from the spans of ``reps`` traced passes over a workload.

    Times are per call unless named otherwise, divided by the host slowness
    measured over the traced passes; counts, bytes and I/O seconds are per
    pass; shares are of the total ``run_experiment`` time.
    """
    passes = len(reps)
    steps = sum(r.steps for r in reps)

    def get(name) -> SpanStats:
        return spans.get(name, SpanStats())

    def per_call(name, scale) -> float:
        s = get(name)
        return scale * s.total_s / s.calls if s.calls else 0.0

    def self_per_call(name) -> float:
        s = get(name)
        return 1e6 * s.self_s / s.calls if s.calls else 0.0

    def share(name) -> float:
        run = get("experiment.run").total_s
        return get(name).total_s / run if run else 0.0

    values = {
        "plants.step_us": (per_call("plants.step", 1e6), "us"),
        "plants.self_us": (self_per_call("plants.step"), "us"),
        "plants.rigid_body_step_us": (per_call("plants.rigid_body_step", 1e6), "us"),
        "plants.share": (share("plants.step"), "ratio"),
        "plants.gust_steps": (get("plants.gust").work / passes, "count"),
        "controller.step_us": (per_call("controller.step", 1e6), "us"),
        "controller.self_us": (self_per_call("controller.step"), "us"),
        "controller.adapt_weights_us": (per_call("controller.adapt_weights", 1e6), "us"),
        "controller.share": (share("controller.step"), "ratio"),
        "palm.network_output_us": (per_call("palm.network_output", 1e6), "us"),
        "palm.calls": (get("palm.network_output").calls / passes, "count"),
        "palm.rule_evals": (get("palm.network_output").work / passes, "count"),
        "evolution.bias_variance_us": (per_call("evolution.bias_variance", 1e6), "us"),
        "evolution.detect_us": (per_call("evolution.detect", 1e6), "us"),
        "evolution.grows": (sum(r.grows for r in reps) / passes, "count"),
        "evolution.prunes": (sum(r.prunes for r in reps) / passes, "count"),
        "pid.step_us": (per_call("pid.step", 1e6), "us"),
        "pid.calls": (get("pid.step").calls / passes, "count"),
        "trajectories.reference_us": (per_call("trajectories.reference", 1e6), "us"),
        "experiment.loop_self_us": (1e6 * get("experiment.run").self_s / steps if steps else 0.0, "us"),
        "experiment.write_outputs_s": (get("experiment.write_outputs").total_s / passes, "s"),
        "experiment.write_bytes": (sum(r.write_bytes for r in reps) / passes, "bytes"),
        "experiment.read_step_csv_s": (get("experiment.read_step_csv").total_s / passes, "s"),
        "metrics.report_ms": (per_call("metrics.report", 1e3), "ms"),
        "stats.wilcoxon_ms": (per_call("stats.wilcoxon", 1e3), "ms"),
        "trace.overhead": (overhead, "ratio"),
    }
    timed = {"us", "ms", "s"}
    return {
        name: {"value": value / slowness if unit in timed else value, "unit": unit}
        for name, (value, unit) in values.items()
    }
