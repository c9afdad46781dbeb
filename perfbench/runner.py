"""One benchmark run of one workload: the simulated pass, timed windows, figures.

An untraced run (``trace=False``) reports the end-to-end metrics:

* the *simulated pass* runs the workload's full input once and yields every
  simulated figure; at a fixed seed they repeat exactly;
* *timed windows* then repeat one smaller, identical slice of the input on a
  fresh fixture each, until the run's seconds are spent; wall-clock figures
  are the fastest window (``wall_calls_per_s``) and the fastest set-up
  (``setup_s``), the first window being warm-up.  Both are scaled to a
  reference host speed (see :mod:`perfbench.calibration`).

A traced run (``trace=True``) reports the per-layer metrics: half its
windows run bare, half under :class:`~perfbench.layers.LayerTimers`, and one
extra window runs with the policy's end-to-end tracing to split simulated
latency into critical-path phases.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from perfbench.calibration import CALIBRATION_REFERENCE_S, calibration_loop
from perfbench.common import Outcome, median, peak_rss_mb, percentile
from perfbench.layers import LayerTimers, assert_untraced
from perfbench.workloads import WORKLOADS, OpenLoopReads
from repro.observability.analysis import critical_path

#: Timed windows besides the warm-up window, whatever the run length.
MIN_WINDOWS = 4

#: ``name -> (unit, better)`` of every end-to-end metric, in report order.
END_TO_END = {
    "wall_calls_per_s": ("1/s", "higher"),
    "sim_calls_per_s": ("1/s", "higher"),
    "sim_ms_p50": ("ms", "lower"),
    "sim_ms_p99": ("ms", "lower"),
    "max_rate_at_slo": ("1/s", "higher"),
    "success_rate": ("ratio", "higher"),
    "exec_per_ack": ("ratio", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: ``name -> unit`` of every per-layer metric of the traced run.
PER_LAYER = {
    "api.pipe_self_us": "us",
    "api.interceptor_self_us": "us",
    "batching.calls_per_batch": "count",
    "pipelining.self_us": "us",
    "pipelining.queue_wait_ms": "ms",
    "faulttolerance.retries_per_call": "ratio",
    "faulttolerance.useful_share": "ratio",
    "address_space.invoke_self_us": "us",
    "address_space.dispatch_self_us": "us",
    "serialization.marshal_us": "us",
    "codec.encode_us_per_call": "us",
    "codec.decode_us_per_call": "us",
    "codec.bytes_per_call": "B",
    "simnet.messages_per_call": "count",
    "simnet.self_us_per_message": "us",
    "simnet.link_queue_ms": "ms",
    "simnet.drops": "count",
    "pool.queue_wait_ms_p99": "ms",
    "pool.busy_share": "ratio",
    "pool.rejected_share": "ratio",
    "ladder.sim_ms_p99_30": "ms",
    "ladder.sim_ms_p99_50": "ms",
    "ladder.sim_ms_p99_70": "ms",
    "ladder.sim_ms_p99_90": "ms",
    "ladder.sim_ms_p99_110": "ms",
    "caching.hit_rate": "ratio",
    "caching.lookup_self_us": "us",
    "caching.invalidations_per_write": "ratio",
    "core.transform_ms": "ms",
    "core.deploy_ms": "ms",
    "core.proxy_self_us": "us",
    "redistribution.move_ms": "ms",
    "redistribution.moves": "count",
    "phase.client_queue_ms": "ms",
    "phase.wire_ms": "ms",
    "phase.server_queue_ms": "ms",
    "phase.service_ms": "ms",
    "calls.error_rate": "ratio",
    "calls.samples": "count",
    "generator.max_late_ms": "ms",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


@dataclass
class Window:
    """One timed window: set-up seconds, call seconds and what it did."""

    calibration_s: float
    setup_s: float
    wall_s: float
    #: From the start of set-up to the end of teardown.
    total_s: float
    calls: int
    messages: int


class Run:
    """Accumulates the calls a run attempted and the problems it found."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def absorb(self, outcome: Outcome) -> Outcome:
        self.attempted += outcome.calls
        self.failed += outcome.failures
        self.problems.extend(outcome.problems)
        return outcome


def simulated_pass(workload: Any, run: Run) -> Outcome:
    """Run the workload's full input once; returns the checked outcome."""
    fixture = workload.setup()
    try:
        outcome = workload.run(fixture, workload.inputs)
        workload.check(fixture, outcome)
    finally:
        workload.teardown(fixture)
    return run.absorb(outcome)


def timed_windows(workload: Any, seconds: float, run: Run) -> List[Window]:
    """Repeat one identical window on fresh fixtures until ``seconds`` pass.

    Only the first window's outcome is kept; every later one is compared
    with it (when the workload's windows are history-independent) and
    dropped, so the run's memory does not grow with the number of windows.
    """
    inputs = workload.inputs[: workload.window_calls]
    windows: List[Window] = []
    first: Optional[Outcome] = None
    deadline = perf_counter() + seconds
    while len(windows) <= MIN_WINDOWS or perf_counter() < deadline:
        gc.collect()
        calibration = calibration_loop()
        started = perf_counter()
        fixture = workload.setup()
        ready = perf_counter()
        try:
            outcome = workload.run(fixture, inputs)
            finished = perf_counter()
            workload.check(fixture, outcome)
        finally:
            workload.teardown(fixture)
        ended = perf_counter()
        run.absorb(outcome)
        windows.append(
            Window(calibration, ready - started, finished - ready, ended - started,
                   outcome.calls, outcome.counters["messages"])
        )
        if first is None:
            first = outcome
        elif workload.repeatable_windows and (
            outcome.sim_metrics() != first.sim_metrics() or outcome.counters != first.counters
        ):
            run.problems.append(f"window {len(windows) - 1} simulated differently from window 0")
    return windows


def ladder(workload: Any, nominal: Outcome, run: Run) -> List[Dict[str, Any]]:
    """Every rung of the open-loop ladder (the nominal rung is the simulated pass).

    Runs straight after the simulated pass, before any timed window, so the
    rungs see the same process history, and repeat exactly, in every run.
    """
    if not isinstance(workload, OpenLoopReads):
        return []
    rungs = []
    for share in workload.ladder:
        rung = workload.ladder_point(share, nominal if share == workload.nominal else None)
        run.problems.extend(rung.pop("problems"))
        rungs.append(rung)
    return rungs


def _fastest(windows: List[Window], field: str) -> float:
    return min(getattr(window, field) for window in windows[1:])


def _host_speed(windows: List[Window]) -> float:
    """How much faster than the reference host this run's host was at best."""
    return CALIBRATION_REFERENCE_S / _fastest(windows, "calibration_s")


def _spread(values: List[float]) -> Dict[str, float]:
    return {"min": min(values), "median": median(values), "max": max(values)}


def measure_end_to_end(
    name: str, seed: int, seconds: float
) -> Tuple[Dict[str, Any], Run, Dict[str, Any]]:
    """The untraced run: end-to-end metrics, the run record and a report."""
    assert_untraced()
    workload = WORKLOADS[name](seed)
    run = Run()
    outcome = simulated_pass(workload, run)
    rungs = ladder(workload, outcome, run)
    windows = timed_windows(workload, seconds, run)
    assert_untraced()
    sim = outcome.sim_metrics()
    speed = _host_speed(windows)
    report: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "windows": len(windows) - 1,
        "window_calls": workload.window_calls,
        "host_speed": speed,
        "wall_calls_per_s_unscaled": workload.window_calls / _fastest(windows, "wall_s"),
        "window_wall_s": _spread([window.wall_s for window in windows[1:]]),
        "setup_s": _spread([window.setup_s for window in windows[1:]]),
        "calibration_s": _spread([window.calibration_s for window in windows[1:]]),
        "sim_samples": len(outcome.latencies),
        "error_rate": 1.0 - sim["success_rate"],
        "counters": outcome.counters,
    }
    if rungs:
        passing = [rung["rate"] for rung in rungs if rung["meets_slo"]]
        max_rate = max(passing) if passing else 0.0
        report["ladder"] = rungs
    else:
        max_rate = sim["slo_goodput"]
    metrics = {
        "wall_calls_per_s": workload.window_calls / (_fastest(windows, "wall_s") * speed),
        "sim_calls_per_s": sim["sim_calls_per_s"],
        "sim_ms_p50": sim["sim_ms_p50"],
        "sim_ms_p99": sim["sim_ms_p99"],
        "max_rate_at_slo": max_rate,
        "success_rate": sim["success_rate"],
        "exec_per_ack": sim["exec_per_ack"],
        "setup_s": _fastest(windows, "setup_s") * speed,
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, run, report


def _phase_figures(workload: Any, run: Run) -> Dict[str, float]:
    """Critical-path phases and queue waits from one fully traced window."""
    if not workload.facade:
        return {}
    fixture = workload.setup(lambda policy: policy.with_tracing(1.0))
    try:
        outcome = workload.run(fixture, workload.inputs[: workload.window_calls])
        workload.check(fixture, outcome)
        collector = fixture.session.tracer().collector
        phases: Dict[str, List[float]] = {}
        queue_waits: List[float] = []
        pool_waits: List[float] = []
        for root in collector.roots():
            if root.end is None:
                continue
            spans = collector.spans(root.trace_id)
            for phase, seconds in critical_path(spans, root).phases.items():
                phases.setdefault(phase, []).append(seconds)
            queue_waits.append(_covered(spans, "queue"))
            pool_waits.append(_covered(spans, "server_queue"))
    finally:
        workload.teardown(fixture)
    run.absorb(outcome)
    figures = {f"phase.{phase}_ms": median(values) * 1000.0 for phase, values in phases.items()}
    if queue_waits:
        figures["pipelining.queue_wait_ms"] = sum(queue_waits) / len(queue_waits) * 1000.0
        figures["pool.queue_wait_ms_p99"] = percentile(sorted(pool_waits), 0.99) * 1000.0
    return figures


def _covered(spans: List[Any], kind: str) -> float:
    """Total duration of one trace's closed spans of ``kind``, in seconds."""
    return sum(
        span.end - span.start for span in spans if span.kind == kind and span.end is not None
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def measure_per_layer(
    name: str, seed: int, seconds: float
) -> Tuple[Dict[str, Any], Run, Dict[str, Any]]:
    """The traced run: per-layer metrics, the run record and a report."""
    workload = WORKLOADS[name](seed)
    run = Run()
    outcome = simulated_pass(workload, run)
    rungs = ladder(workload, outcome, run)
    bare = timed_windows(workload, seconds / 2, run)
    timers = LayerTimers()
    timers.install()
    try:
        timed = timed_windows(workload, seconds / 2, run)
    finally:
        timers.uninstall()
    assert_untraced()
    calls = sum(window.calls for window in timed)
    counters = outcome.counters
    messages = sum(window.messages for window in timed)
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(
        {
            "api.pipe_self_us": timers.self_us("api.pipe", calls),
            "api.interceptor_self_us": timers.self_us("api.interceptor", calls),
            "batching.calls_per_batch": _ratio(counters["shipped"], counters["batches"]),
            "pipelining.self_us": timers.self_us("pipelining", calls),
            "faulttolerance.retries_per_call": _ratio(
                counters["shipped"] - counters["network_calls"], counters["network_calls"]
            ),
            "faulttolerance.useful_share": _ratio(counters["network_acked"], counters["shipped"]),
            "address_space.invoke_self_us": timers.self_us("address_space.invoke", calls),
            "address_space.dispatch_self_us": timers.self_us("address_space.dispatch", calls),
            "serialization.marshal_us": timers.self_us("serialization", calls),
            "codec.encode_us_per_call": timers.self_us("codec.encode", calls),
            "codec.decode_us_per_call": timers.self_us("codec.decode", calls),
            "codec.bytes_per_call": _ratio(timers.encoded_bytes, calls),
            "simnet.messages_per_call": _ratio(counters["messages"], outcome.calls),
            "simnet.self_us_per_message": timers.self_us("simnet", messages),
            "simnet.link_queue_ms": _ratio(counters["link_queue_s"] * 1000.0, counters["messages"]),
            "simnet.drops": counters["drops"],
            "caching.lookup_self_us": timers.self_us("caching.lookup", calls),
            "core.transform_ms": timers.mean_ms("core.transform"),
            "core.deploy_ms": timers.mean_ms("core.deploy"),
            "core.proxy_self_us": timers.self_us("core.proxy", calls),
            "redistribution.move_ms": timers.mean_ms("redistribution"),
            "redistribution.moves": counters.get("moves", 0),
            "calls.error_rate": outcome.errors / outcome.calls,
            "calls.samples": len(outcome.latencies),
            "trace.coverage": timers.covered_ns() / 1e9 / sum(window.total_s for window in timed),
            "trace.overhead": _fastest(timed, "wall_s") * _host_speed(timed)
            / (_fastest(bare, "wall_s") * _host_speed(bare)),
        }
    )
    if isinstance(workload, OpenLoopReads):
        metrics.update(
            {
                "pool.busy_share": counters["pool_served"] * workload.service_time
                / (workload.workers * outcome.sim_elapsed),
                "pool.rejected_share": _ratio(
                    counters["pool_rejected"], counters["pool_admitted"] + counters["pool_rejected"]
                ),
                "caching.hit_rate": _ratio(counters["hits"], counters["lookups"]),
                "caching.invalidations_per_write": _ratio(
                    counters["invalidated"], counters["writes"]
                ),
                "generator.max_late_ms": counters["generator_late_s"] * 1000.0,
            }
        )
        for share, rung in zip(workload.ladder, rungs):
            metrics[f"ladder.sim_ms_p99_{round(share * 100)}"] = rung["sim_ms_p99"]
    metrics.update(_phase_figures(workload, run))
    report = {
        "workload": name,
        "seed": seed,
        "host_speed": _host_speed(bare),
        "bare_windows": len(bare) - 1,
        "traced_windows": len(timed) - 1,
        "layer_self_ms": {layer: ns / 1e6 for layer, ns in sorted(timers.self_ns.items())},
    }
    return metrics, run, report
