"""Per-layer spans recorded from outside the program.

The tracer replaces public functions at run time, under the names the calling
module looks them up by (``mixprofile.experiment.simulate_trace``,
``mixprofile.estimators.expected_departures``, ...), so nothing under ``src/``
changes.  Each call becomes a span with its name, start, end, parent span and
op id; spans stay in memory and are written out when the run ends.  A span's
self time is its duration minus the time its child spans cover.

The same wrappers run a workload's hooks: checks on the result of a chosen
call, made at once so the harness keeps no large input alive.  Hooks run on
every op, traced or not.  Their time is kept apart, in ``hook_seconds`` and in
``bench.check`` spans, so that it counts neither in op latency nor in any
layer's self time.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

#: (module the caller looks the function up in, attribute, span name)
PATCH_POINTS = (
    ("mixprofile.experiment", "run_experiment", "experiment.run_experiment"),
    ("mixprofile.experiment", "gen_population", "population.gen_population"),
    ("mixprofile.experiment", "uniformity_stats", "population.uniformity_stats"),
    ("mixprofile.experiment", "simulate_trace", "mixsim.simulate_trace"),
    ("mixprofile.experiment", "predict_mse_threshold", "theory.predict_mse_threshold"),
    ("mixprofile.experiment", "predict_mse_pool", "theory.predict_mse_pool"),
    ("mixprofile.experiment", "lsda", "estimators.lsda"),
    ("mixprofile.experiment", "clsda", "estimators.clsda"),
    ("mixprofile.experiment", "zero_clip", "estimators.zero_clip"),
    ("mixprofile.experiment", "profile_mse_vector", "metrics.profile_mse_vector"),
    # clsda's projected start calls lsda through the estimators module
    ("mixprofile.estimators", "lsda", "estimators.lsda"),
    ("mixprofile.estimators", "expected_departures", "observe.expected_departures"),
    ("mixprofile.cli", "main", "cli.main"),
    ("mixprofile.cli", "load_events", "ingest.load_events"),
    ("mixprofile.cli", "build_rounds", "ingest.build_rounds"),
    ("mixprofile.cli", "save_trace", "mixsim.save_trace"),
    ("mixprofile.cli", "save_population", "population.save_population"),
    ("mixprofile.cli", "load_trace", "mixsim.load_trace"),
    ("mixprofile.cli", "lsda", "estimators.lsda"),
    ("mixprofile.cli", "rls", "estimators.rls"),
    ("mixprofile.cli", "save_estimate", "estimators.save_estimate"),
)


def _gram(args, result):
    trace = args[0]
    return {"gram_mul_adds": trace.rho * trace.n_senders**2}


def _clsda(args, result):
    return {**_gram(args, result), "iterations": result.iterations, "converged": result.converged}


#: span name -> function of (call arguments, result) giving the span's counts
COUNTS = {
    "estimators.lsda": _gram,
    "estimators.rls": _gram,
    "estimators.clsda": _clsda,
    "mixsim.simulate_trace": lambda args, result: {"messages": result.rho * result.config.t},
    "ingest.load_events": lambda args, result: {"events": len(result)},
    "mixsim.save_trace": lambda args, result: {"bytes": os.path.getsize(args[1])},
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


#: span name of the time a hook takes
HOOK_SPAN = "bench.check"


class Tracer:
    """Wraps the patch points for one op at a time; records spans if asked."""

    def __init__(self):
        self.spans: list[Span] = []
        self.hook_seconds = 0.0
        self._open: list[int] = []

    def _wrap(self, name, fn, op, record, hook):
        spans, open_ = self.spans, self._open
        count = COUNTS.get(name) if record else None

        def wrapped(*args, **kwargs):
            if record:
                span = Span(name, 0.0, 0.0, open_[-1] if open_ else None, op)
                open_.append(len(spans))
                spans.append(span)
                span.start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span.end = time.perf_counter()
                    open_.pop()
                if count is not None:
                    span.counts = count(args, result)
            else:
                result = fn(*args, **kwargs)
            if hook is not None:
                start = time.perf_counter()
                hook(args, result)
                end = time.perf_counter()
                self.hook_seconds += end - start
                if record:
                    spans.append(Span(HOOK_SPAN, start, end, open_[-1] if open_ else None, op))
            return result

        return wrapped

    @contextmanager
    def installed(self, op: int, record: bool, hooks: dict):
        """Wrap patch points for the duration of op ``op``.

        ``hooks`` maps a patch point's (module, attribute) to a function of
        the call's arguments and result.  With ``record`` every patch point is
        wrapped and each call becomes a span; without it only the hooked ones.
        """
        saved = []
        try:
            for module_name, attr, name in PATCH_POINTS:
                hook = hooks.get((module_name, attr))
                if not record and hook is None:
                    continue
                module = sys.modules[module_name]
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._wrap(name, getattr(module, attr), op, record, hook))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.duration
        return [span.duration - c for span, c in zip(self.spans, child)]

    def dump(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


def self_time_shares(tracer: Tracer, traced_seconds: float) -> list[tuple[str, float]]:
    """Each span name's share of the traced ops' time, largest first.

    ``traced_seconds`` leaves hook time out, and so do the shares.
    """
    if traced_seconds <= 0.0:
        return []
    totals: dict[str, float] = {}
    for span, own in zip(tracer.spans, tracer.self_times()):
        if span.name != HOOK_SPAN:
            totals[span.name] = totals.get(span.name, 0.0) + own
    shares = [(name, total / traced_seconds) for name, total in totals.items()]
    return sorted(shares, key=lambda item: -item[1])


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, untraced: dict, traced: dict) -> dict:
    """Per-layer metrics from the spans: medians per call, or counts.

    ``untraced`` and ``traced`` map op ids to latencies of the same op run
    without and with tracing; ``trace.overhead_pct`` is the median of their
    paired ratios, less one.  A layer the workload does not call reads 0.
    """
    spans = tracer.spans
    self_s = tracer.self_times()
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def self_ms(*names):
        return _median(self_s[i] * 1e3 for name in names for i in by_name.get(name, ()))

    def per_op_sum(names, key):
        totals: dict[int, float] = {}
        for name in names:
            for i in by_name.get(name, ()):
                totals[spans[i].op] = totals.get(spans[i].op, 0.0) + spans[i].counts[key]
        return _median(totals.values())

    simulate = by_name.get("mixsim.simulate_trace", ())
    clsda = [spans[i] for i in by_name.get("estimators.clsda", ())]
    parsed: dict[int, list] = {}  # op -> [s in load_events and build_rounds, events]
    for name in ("ingest.load_events", "ingest.build_rounds"):
        for i in by_name.get(name, ()):
            entry = parsed.setdefault(spans[i].op, [0.0, 0])
            entry[0] += spans[i].duration
            entry[1] += spans[i].counts.get("events", 0)
    saves = [spans[i].counts["bytes"] for i in by_name.get("mixsim.save_trace", ())]

    paired = [traced[k] / untraced[k] for k in traced if k in untraced]
    overhead = (_median(paired) - 1.0) * 100.0 if paired else 0.0

    return {
        "mixsim.simulate_trace_ms": self_ms("mixsim.simulate_trace"),
        "mixsim.simulate_msgs_per_s": _median(spans[i].counts["messages"] / self_s[i] for i in simulate),
        "estimators.clsda_ms": self_ms("estimators.clsda"),
        "estimators.clsda_iterations": _median(s.counts["iterations"] for s in clsda),
        "estimators.clsda_converged_ratio": (
            sum(s.counts["converged"] for s in clsda) / len(clsda) if clsda else 0.0
        ),
        "estimators.lsda_ms": self_ms("estimators.lsda"),
        "estimators.zero_clip_ms": self_ms("estimators.zero_clip"),
        "estimators.gram_flops_computed": per_op_sum(
            ("estimators.lsda", "estimators.clsda", "estimators.rls"), "gram_mul_adds"
        ),
        "estimators.rls_ms": self_ms("estimators.rls"),
        "observe.expected_departures_ms": self_ms("observe.expected_departures"),
        "ingest.load_events_ms": self_ms("ingest.load_events"),
        "ingest.build_rounds_ms": self_ms("ingest.build_rounds"),
        "ingest.events_per_s": _median(events / s for s, events in parsed.values()),
        "mixsim.save_trace_ms": self_ms("mixsim.save_trace"),
        "mixsim.load_trace_ms": self_ms("mixsim.load_trace"),
        "mixsim.trace_file_bytes": _median(saves),
        "estimators.save_estimate_ms": self_ms("estimators.save_estimate"),
        "population.gen_population_ms": self_ms("population.gen_population"),
        "theory.predict_ms": self_ms("theory.predict_mse_threshold", "theory.predict_mse_pool"),
        "metrics.profile_mse_vector_ms": self_ms("metrics.profile_mse_vector"),
        "experiment.self_ms": self_ms("experiment.run_experiment"),
        "cli.self_ms": self_ms("cli.main"),
        "trace.overhead_pct": overhead,
    }
