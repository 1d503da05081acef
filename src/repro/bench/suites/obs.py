"""Benchmark for the observability layer: tracing overhead on serving.

``obs.overhead`` replays the same offered-load cells as
``serve.offered_load_sweep`` (engines prebuilt, traces pregenerated, so
only the event loop is timed) twice per pass — once with the default
no-op tracer, once with a real :class:`~repro.obs.tracer.Tracer`
installed — and asserts the enabled/disabled ratio stays under
:data:`OVERHEAD_BUDGET_PCT`.  Both modes publish into a fresh registry,
so the ratio isolates span recording.  That is the contract
docs/observability.md advertises: instrumentation costs one
``tracer.enabled`` check per event until a run opts in, and bulk metric
publication is too cheap to see.

Min-of-passes timing on both sides keeps scheduler noise from deciding
the ratio; the modes are interleaved so a frequency ramp hits both.
"""

from __future__ import annotations

import gc
import time
from typing import Dict

from ...obs.metrics import MetricsRegistry
from ...obs.runtime import use_metrics, use_tracer
from ...obs.tracer import Tracer
from ...serve import synthetic_trace
from ..registry import Workload, benchmark
from .serve import build_engine

__all__ = ["OVERHEAD_BUDGET_PCT", "measure_overhead", "overhead_factory"]

OVERHEAD_BUDGET_PCT = 5.0

_CHIP_COUNTS = (1, 2)
_LOAD_FACTORS = (0.5, 1.3)


def measure_overhead(num_requests: int, passes: int) -> Dict[str, float]:
    """Min-of-``passes`` serve time with tracing off vs on.

    Returns ``disabled_s``, ``enabled_s``, ``overhead_pct`` and the span
    count of one enabled pass.  Engines and traces are built outside the
    timed region — the claim under test is about the replay loop, not
    the deployment compiler.
    """
    jobs = []
    for chips in _CHIP_COUNTS:
        engine = build_engine(chips)
        for factor in _LOAD_FACTORS:
            offered = factor * engine.plan.throughput_fps
            jobs.append((engine, synthetic_trace(num_requests,
                                                 rate_rps=offered,
                                                 seed=17).materialize()))

    # One timed region per (pass, mode) covers the whole job sweep —
    # a ~10 ms slice is long enough for scheduler jitter to average
    # out, where per-cell ~2 ms slices are not.  Modes alternate
    # back-to-back within a pass and the minimum per mode is taken
    # across passes, so CPU frequency drift hits both sides equally
    # and min-filtering drops the noisy passes.  An untimed warmup
    # pass (caches, lazy imports, allocator steady state) runs first.
    def sweep_disabled() -> float:
        t0 = time.perf_counter()
        for engine, trace in jobs:
            # Fresh registry in both modes: the measured delta is the
            # tracer alone, not registry warm-up effects.
            with use_metrics(MetricsRegistry()):
                engine.serve(trace)
        return time.perf_counter() - t0

    def sweep_enabled(tracer: Tracer) -> float:
        t0 = time.perf_counter()
        for engine, trace in jobs:
            with use_tracer(tracer), use_metrics(MetricsRegistry()):
                engine.serve(trace)
        return time.perf_counter() - t0

    sweep_disabled()
    sweep_enabled(Tracer())

    disabled_s = enabled_s = float("inf")
    spans = 0
    # GC pauses land wherever the allocation counter happens to trip;
    # the enabled sweeps allocate more (span tuples), so collections
    # would bias the ratio against them.  Standard timeit discipline:
    # collect once, then keep the collector out of the timed region.
    gc.collect()
    gc.disable()
    try:
        for _ in range(passes):
            disabled_s = min(disabled_s, sweep_disabled())
            tracer = Tracer()
            enabled_s = min(enabled_s, sweep_enabled(tracer))
            spans = len(tracer)
    finally:
        gc.enable()
    overhead_pct = (enabled_s / disabled_s - 1.0) * 100.0
    return {"disabled_s": disabled_s, "enabled_s": enabled_s,
            "overhead_pct": overhead_pct, "spans": float(spans)}


@benchmark("obs.overhead", suite="obs",
           description="tracing+metrics overhead on the serve replay loop",
           warmup=0, repeats=2, min_sample_ms=0.0)
def overhead_factory(fast: bool) -> Workload:
    num_requests = 150 if fast else 400
    passes = 25 if fast else 15
    cells = len(_CHIP_COUNTS) * len(_LOAD_FACTORS)
    measured: Dict[str, float] = {}

    def fn():
        # A shared machine can throw a noise spike bigger than the
        # budget itself; a genuine regression shows up in every
        # attempt, so retrying twice keeps the gate sharp without
        # making it flaky.
        for _attempt in range(3):
            result = measure_overhead(num_requests, passes)
            if result["overhead_pct"] < OVERHEAD_BUDGET_PCT:
                break
        assert result["overhead_pct"] < OVERHEAD_BUDGET_PCT, (
            f"observability overhead {result['overhead_pct']:.2f}% "
            f"exceeds the {OVERHEAD_BUDGET_PCT}% budget in 3 attempts "
            f"(disabled {result['disabled_s'] * 1e3:.2f} ms, "
            f"enabled {result['enabled_s'] * 1e3:.2f} ms)")
        measured.update(result)
        return result

    # Each timed call replays every cell twice (off + on) per pass.
    return Workload(fn=fn, items=float(num_requests * cells * 2 * passes),
                    unit="requests", counters=lambda: dict(measured))
