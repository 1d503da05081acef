"""Host-time stage clock: times the benchmark's own calls into ``repro``.

A pass runs inside ``clock.run_pass``.  The workload splits it into
*segments* (one search->serve job, one replay with its summary and
export), and every call it makes into a layer's public function runs
inside ``clock.layer(name)``.  The reference loop of
:mod:`calibrate` runs before the first segment and after each one, off
the clock, so each segment's host seconds are scaled to reference
seconds by the loop timings that bracket it.  On this kind of shared
host the speed swings within seconds, so a bracket around a whole
multi-second pass tracks it far worse than one around each segment.

Traced, the clock also records one span per pass, segment, layer call
and loop timing on a :class:`repro.obs.tracer.Tracer` (host time only;
simulated time never enters this trace), each tagged with its own id,
its parent's id and the pass id, so :func:`self_times` can charge every
span its duration minus its children's.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from calibrate import loop_s, scale

UNATTRIBUTED = "bench.unattributed_s"
CALIBRATION = "calibration"         # category of the loop-timing spans


class StageClock:
    """Per-pass layer seconds, host and reference, plus spans when a
    tracer is attached.  After ``run_pass`` exits, ``wall_s`` is the
    pass's host seconds without the loop timings, ``ref_s`` the same in
    reference seconds, ``layer_s`` / ``layer_ref_s`` the per-layer
    totals, and ``factor`` the pass's mean host-to-reference factor."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.traced = False
        self.pass_id = -1
        self._next_id = 0
        self._stack: List[int] = []

    @contextmanager
    def run_pass(self, pass_id: int, traced: bool):
        if traced and self.tracer is None:
            raise ValueError("a traced pass needs a tracer")
        self.pass_id, self.traced = pass_id, traced
        self.layer_s: Dict[str, float] = defaultdict(float)
        self.layer_ref_s: Dict[str, float] = defaultdict(float)
        self._segment_layers: Dict[str, float] = defaultdict(float)
        self.segments: List[Tuple[float, float]] = []   # (host s, factor)
        self.loop_s: List[float] = []
        self._calibration_s = 0.0
        with self._span("pass", "group") as args:
            self._last_loop = self._calibrate()
            self._calibration_s = 0.0
            start = time.perf_counter()
            yield
            self.wall_s = (time.perf_counter() - start
                           - self._calibration_s)
            factors = [f for _, f in self.segments]
            self.factor = statistics.fmean(factors)
            in_segments = sum(s for s, _ in self.segments)
            self.ref_s = (sum(s * f for s, f in self.segments)
                          + (self.wall_s - in_segments) * self.factor)
            args["factor"] = self.factor

    @contextmanager
    def segment(self, name: str):
        """A part of the pass with its own pair of loop timings."""
        start = time.perf_counter()
        with self._span(name, "group") as args:
            yield
            seconds = time.perf_counter() - start
            now = self._calibrate()
            factor = scale([self._last_loop, now])
            self._last_loop = now
            args["factor"] = factor
        self.segments.append((seconds, factor))
        for layer, layer_s in self._segment_layers.items():
            self.layer_ref_s[layer] += layer_s * factor
        self._segment_layers.clear()

    @contextmanager
    def layer(self, name: str):
        """Time one call into a layer (a leaf: it holds no other span)."""
        start = time.perf_counter()
        with self._span(name, "layer"):
            yield
        seconds = time.perf_counter() - start
        self.layer_s[name] += seconds
        self._segment_layers[name] += seconds

    def _calibrate(self) -> float:
        start = time.perf_counter()
        with self._span("reference loop", CALIBRATION):
            seconds = loop_s()
        self.loop_s.append(seconds)
        self._calibration_s += time.perf_counter() - start
        return seconds

    @contextmanager
    def _span(self, name: str, category: str):
        """Yields the span's args dict (callers may add to it)."""
        args: Dict = {}
        if not self.traced:
            yield args
            return
        span_id = self._next_id
        self._next_id += 1
        parent: Optional[int] = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start_ms = self.tracer.now_ms()
        try:
            yield args
        finally:
            end_ms = self.tracer.now_ms()
            self._stack.pop()
            args.update({"span": span_id, "pass": self.pass_id})
            if parent is not None:
                args["parent"] = parent
            self.tracer.record(name, category, start_ms, end_ms,
                               track="host", args=args)


def self_times(spans) -> Dict[int, Dict[str, float]]:
    """Per pass: reference seconds of self time per layer, and the host
    seconds of self time of all spans (``"total"``, for the check that
    they add up to the pass span).

    A span's self time is its duration minus its children's durations,
    scaled by the factor of its nearest segment (the pass's mean factor
    outside segments).  Group spans (pass, segments) hold no layer call
    of their own, so their self time is the benchmark's glue between
    layer calls, charged to ``bench.unattributed_s``; loop timings are
    off the clock and charged to nothing.
    """
    by_id = {span.args["span"]: span for span in spans}
    children: Dict[int, float] = defaultdict(float)
    for span in spans:
        parent = span.args.get("parent")
        if parent is not None:
            children[parent] += span.duration_ms

    def factor(span) -> float:
        while "factor" not in span.args:
            span = by_id[span.args["parent"]]
        return span.args["factor"]

    out: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        own_s = (span.duration_ms - children[span.args["span"]]) / 1000.0
        totals = out[span.args["pass"]]
        totals["total"] += own_s
        if span.category == CALIBRATION:
            continue
        name = span.name if span.category == "layer" else UNATTRIBUTED
        totals[name] += own_s * factor(span)
    return out
