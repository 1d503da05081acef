"""Event-vectorized trace replay: whole-trace array passes.

The scalar :meth:`~repro.serve.engine.ServingEngine.serve` loop walks one
``Request`` object at a time through scheduler heaps and telemetry
records — faithful, but a million-request day costs minutes of pure
Python dispatch.  This module replays the *same* discrete-event process
in two phases sized for web-scale traces:

- **Phase A** (:func:`_replay_events`): a pass over the event timeline
  using primitive lists only.  Under the FIFO policy (the vectorizable
  subset) the scheduler state collapses to a head pointer into the
  accepted-index list — no ``Request`` objects, no heaps, no per-event
  allocations.  The pass
  emits *batch* columns (dispatch time, size, executor), the
  accepted/rejected index sets, and the per-event queue-depth series.
  A fault plan cuts the pass into *segments* at fault boundaries: each
  segment runs the event loop until the next fault (or straggler
  expiry) is due, :class:`_FaultSchedule` applies it to the resumable
  :class:`_EventState`, and the next segment picks up where the last
  stopped.  With the resilience runtime armed, :func:`_segment_armed`
  runs the segments and calls the run's real controllers (admission,
  brownout, breakers, retry budget) at the scalar loop's points.
- **Phase B**: NumPy expansion of the batch columns into per-request
  completion columns (``start = repeat(dispatch, size)``,
  ``finish = repeat(dispatch + fill, size) + j * interval``) and
  per-chip busy totals, handed to
  :meth:`~repro.serve.telemetry.TelemetryCollector.ingest_columns` in
  one call.  Under faults ``fill`` / ``interval`` become per-batch
  columns (straggler factor, cache-wipe stall, brownout scales when
  armed) and rows a chip kill retracted are masked out.

Byte-identical by construction: every float the scalar loop produces is
recomputed here by the *same* arithmetic expression in the same order —
``now + fill + j * interval`` groups as ``(now + fill) + (j * interval)``
in both engines, chip busy totals accumulate left-to-right
(``np.cumsum``, never pairwise ``np.sum``), and comparisons use the same
``_EPS`` slack.  The differential harness in
``tests/serve/test_engine_equivalence.py`` holds the scalar engine as
the permanent oracle and asserts ``summary()`` equality across the
scenario catalog, with and without fault plans and the resilience
runtime;
docs/vectorized-replay.md maps each event-loop rule to its array-pass
twin.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .resilience import ResilienceConfig, ResilienceRuntime
from .scenarios.faults import (
    DEFAULT_WIPE_STALL_FACTOR,
    FaultPlan,
    ResolvedFault,
)
from .scheduler import MicroBatchScheduler
from .telemetry import TelemetryCollector
from .trace import (
    Request,
    TraceArrays,
    arrays_from_requests,
    in_replay_order,
)

__all__ = ["replay_vectorized"]

_EPS = 1e-9
_INF = float("inf")


class _EventState:
    """Everything Phase A carries from one event to the next.

    ``acc[head:head + depth]`` is the FIFO queue (trace indices in
    submission order).  ``next_arr`` mirrors ``arr[i]`` (``_INF`` once
    drained) and ``head_dl`` the batching-window deadline of the queue
    head whenever ``depth > 0``.  Failover resubmissions are appended
    as blocks starting at ``rq_starts``; while the head is below
    ``rq_end`` (the last block's end) their older arrivals may anchor
    the window.  ``bd`` / ``bs`` / ``bx`` are the per-batch dispatch
    time, size and executor; an armed run adds ``bg``, whether the batch
    ran browned out.
    Per executor: ``free`` is the free time (``_INF`` once the replica
    is dead — it can then neither win a dispatch nor be a candidate),
    ``ivl`` the straggler-scaled image interval and ``stall`` the
    recompile debt its next dispatch pays.
    """

    __slots__ = ("now", "i", "depth", "head", "next_arr", "head_dl",
                 "rq_starts", "rq_end", "acc", "rej", "ev_t", "ev_d",
                 "bd", "bs", "bx", "bg", "free", "ivl", "stall")

    def __init__(self, first_ms: float, num_executors: int,
                 image_interval_ms: float):
        self.now = first_ms
        self.i = 0              # next trace index to ingest
        self.depth = 0          # live queue length
        self.head = 0           # next accepted slot to dispatch (FIFO)
        self.next_arr = first_ms
        self.head_dl = _INF
        self.rq_starts: List[int] = []
        self.rq_end = 0
        self.acc: List[int] = []
        self.rej: List[int] = []
        self.ev_t: List[float] = []
        self.ev_d: List[int] = []
        self.bd: List[float] = []
        self.bs: List[int] = []
        self.bx: List[int] = []
        self.bg: List[bool] = []    # browned out (armed runs only)
        self.free = [0.0] * num_executors
        self.ivl = [image_interval_ms] * num_executors
        self.stall = [0.0] * num_executors


def _oldest(arr: List[float], acc: List[int], head: int,
            rq_starts: List[int]) -> float:
    """Oldest queued arrival while resubmissions are queued.

    A fresh arrival was ingested after everything queued ahead of it,
    so it arrived no earlier than any of it; a resubmission block is in
    ``(arrival_ms, request_id)`` order.  The minimum is therefore the
    head or the first slot of a block still wholly behind it — one
    probe per chip kill, however deep the queue.
    """
    oldest = arr[acc[head]]
    for start in rq_starts:
        if start > head and arr[acc[start]] < oldest:
            oldest = arr[acc[start]]
    return oldest


def _replay_events(arrivals: List[float], num_executors: int,
                   queue_depth: int, max_batch: int, window_ms: float,
                   image_interval_ms: float,
                   faults: Optional["_FaultSchedule"] = None,
                   segment: Optional[Callable[..., float]] = None
                   ) -> _EventState:
    """Replay the scalar event loop over primitive lists.

    Mirrors the engine's loop rule for rule — arrivals within ``_EPS``
    of ``now`` are ingested (shed when the bounded queue is full),
    batches release while the queue holds a full batch or the window has
    expired on its head, the dispatch target is the free executor with
    the smallest ``(free_at_ms, index)``, exactly one queue-depth sample
    lands per event, and the clock advances to the earliest of next
    arrival / window expiry / executor-free candidates (minimally, by
    ``_EPS``, when ready work has nothing to wait for).

    Replica fleets are almost always one or two executor groups, so
    that case runs a twin loop holding both free times in local floats
    (no list indexing per event); wider fleets take the generic loop.
    The differential harness exercises both paths.

    A segment runs until its next event time reaches ``thr`` — the
    first instant a pending fault fires or a straggler window lapses,
    ``_INF`` without a fault plan, so the fault-free pass is one
    segment whose per-event exit test is the same single compare.
    Between segments ``faults`` adds its own event candidate and
    applies what is due at the top of the next event.

    ``segment`` replaces the disarmed loop (a resilience-armed run
    passes :func:`_segment_armed`, whose candidates include the retry
    backoff heap's top, so the drained test below needs no heap check).
    """
    n = len(arrivals)
    st = _EventState(arrivals[0], num_executors, image_interval_ms)
    if segment is None:
        segment = _segment_small if num_executors <= 2 else _segment_any
    if faults is not None and faults.fire(st):
        return st
    while True:
        thr = _INF if faults is None else faults.open_segment(st)
        nxt = segment(arrivals, st, queue_depth, max_batch, window_ms, thr)
        lim = st.now + _EPS
        if faults is not None:
            nxt = faults.close_segment(st, lim, nxt)
        if nxt == _INF:
            if st.i >= n and not st.depth:
                return st
            nxt = lim
        st.now = nxt
        if faults is not None and faults.fire(st):
            return st


# reprolint: hot-loop -- 1/2-executor event pass: free times in locals
def _segment_small(arr: List[float], st: _EventState, cap: int, full: int,
                   window: float, thr: float) -> float:
    """The ``num_executors <= 2`` twin of :func:`_segment_any`.

    Identical rules; the per-executor lists collapse to local floats (a
    single-executor fleet pins the second free time to ``_INF``, which
    can never win dispatch nor land in a candidate window).  Returns the
    next event time that stopped the segment.
    """
    n = len(arr)
    acc = st.acc
    acc_append = acc.append
    rej_append = st.rej.append
    evt_append = st.ev_t.append
    evd_append = st.ev_d.append
    bd_append = st.bd.append
    bs_append = st.bs.append
    bx_append = st.bx.append
    two = len(st.free) == 2
    f0 = st.free[0]
    i0 = st.ivl[0]
    s0 = st.stall[0]
    f1 = st.free[1] if two else _INF
    i1 = st.ivl[1] if two else 0.0
    s1 = st.stall[1] if two else 0.0
    now = st.now
    i = st.i
    depth = st.depth
    head = st.head
    next_arr = st.next_arr
    head_dl = st.head_dl
    rq_starts = st.rq_starts
    rq_end = st.rq_end
    while True:
        lim = now + _EPS
        while next_arr <= lim:
            if depth >= cap:
                rej_append(i)
            else:
                acc_append(i)
                if not depth:
                    head_dl = next_arr + window
                depth += 1
            i += 1
            next_arr = arr[i] if i < n else _INF
        while depth and (depth >= full or now >= head_dl):
            if f0 <= lim:
                best = 1 if f1 <= lim and f1 < f0 else 0
            elif f1 <= lim:
                best = 1
            else:
                break
            take = full if depth > full else depth
            bd_append(now)
            bs_append(take)
            bx_append(best)
            if best:
                f1 = now + s1 + take * i1
                s1 = 0.0
            else:
                f0 = now + s0 + take * i0
                s0 = 0.0
            head += take
            depth -= take
            if depth:
                if head < rq_end:
                    head_dl = _oldest(arr, acc, head, rq_starts) + window
                else:
                    head_dl = arr[acc[head]] + window
        evt_append(now)
        evd_append(depth)
        nxt = next_arr
        if depth:
            if lim < head_dl < nxt:
                nxt = head_dl
            if lim < f0 < nxt:
                nxt = f0
            if lim < f1 < nxt:
                nxt = f1
        if nxt >= thr:
            break
        now = nxt
    st.now = now
    st.i = i
    st.depth = depth
    st.head = head
    st.next_arr = next_arr
    st.head_dl = head_dl
    st.free[0] = f0
    st.stall[0] = s0
    if two:
        st.free[1] = f1
        st.stall[1] = s1
    return nxt


# reprolint: hot-loop -- whole-trace event pass: primitive lists only
def _segment_any(arr: List[float], st: _EventState, cap: int, full: int,
                 window: float, thr: float) -> float:
    """Generic-fleet event segment (see :func:`_replay_events`)."""
    n = len(arr)
    acc = st.acc
    acc_append = acc.append
    rej_append = st.rej.append
    evt_append = st.ev_t.append
    evd_append = st.ev_d.append
    bd_append = st.bd.append
    bs_append = st.bs.append
    bx_append = st.bx.append
    free = st.free
    ivl = st.ivl
    stall = st.stall
    c = len(free)
    now = st.now
    i = st.i
    depth = st.depth
    head = st.head
    next_arr = st.next_arr
    head_dl = st.head_dl
    rq_starts = st.rq_starts
    rq_end = st.rq_end
    while True:
        lim = now + _EPS
        while next_arr <= lim:
            if depth >= cap:
                rej_append(i)
            else:
                acc_append(i)
                if not depth:
                    head_dl = next_arr + window
                depth += 1
            i += 1
            next_arr = arr[i] if i < n else _INF
        while depth and (depth >= full or now >= head_dl):
            best = -1
            best_free = 0.0
            e = 0
            while e < c:
                f = free[e]
                if f <= lim and (best < 0 or f < best_free):
                    best = e
                    best_free = f
                e += 1
            if best < 0:
                break
            take = full if depth > full else depth
            bd_append(now)
            bs_append(take)
            bx_append(best)
            free[best] = now + stall[best] + take * ivl[best]
            stall[best] = 0.0
            head += take
            depth -= take
            if depth:
                if head < rq_end:
                    head_dl = _oldest(arr, acc, head, rq_starts) + window
                else:
                    head_dl = arr[acc[head]] + window
        evt_append(now)
        evd_append(depth)
        nxt = next_arr
        if depth:
            if lim < head_dl < nxt:
                nxt = head_dl
            e = 0
            while e < c:
                f = free[e]
                if lim < f < nxt:
                    nxt = f
                e += 1
        if nxt >= thr:
            break
        now = nxt
    st.now = now
    st.i = i
    st.depth = depth
    st.head = head
    st.next_arr = next_arr
    st.head_dl = head_dl
    return nxt


# reprolint: hot-loop -- armed event pass: controller calls, no allocation
def _segment_armed(arr: List[float], st: _EventState, cap: int, full: int,
                   window: float, thr: float, *,
                   runtime: ResilienceRuntime,
                   telemetry: TelemetryCollector, priority: List[int],
                   schedule: "_FaultSchedule") -> float:
    """Event segment with the resilience runtime armed (FIFO policy).

    Drives ``runtime`` (its transitions land in ``telemetry``) with the
    trace's ``priority`` column as admission's input; ``schedule`` (the
    fault schedule, empty without a plan) owns the straggler factors the
    breakers observe, the failed / retried ids and the trace rows of
    retries parked on the backoff heap.

    The scalar loop's armed rules in its per-event order, calling the
    same controllers: due retries re-enter the queue ahead of fresh
    arrivals (each a one-slot resubmission block, a full queue asks the
    budget again or fails the request); each arrival feeds brownout its
    queue delay (while the controller watches, or the delay reaches the
    entry threshold) and then asks admission; dispatch skips replicas
    whose breaker does not allow it — failing open when every live one
    is blocked, waiting when healthy capacity is only busy — feeds the
    breaker the straggler factor and, browned out, scales the batch's
    interval by the degraded plan's.  The retry heap's top and
    open breakers' cooldown ends join the event candidates.
    """
    n = len(arr)
    acc = st.acc
    acc_append = acc.append
    rej_append = st.rej.append
    evt_append = st.ev_t.append
    evd_append = st.ev_d.append
    bd_append = st.bd.append
    bs_append = st.bs.append
    bx_append = st.bx.append
    bg_append = st.bg.append
    free = st.free
    ivl = st.ivl
    stall = st.stall
    c = len(free)
    factor = schedule.factor
    admit = runtime.admission.admit
    brownout = runtime.brownout
    brownout_update = brownout.update
    enter_ms = brownout.enter_ms - 1e-9
    breakers = runtime.breakers
    retry_heap = runtime.retry_heap
    interval_scale = runtime.brownout_plan.interval_scale
    now = st.now
    i = st.i
    depth = st.depth
    head = st.head
    next_arr = st.next_arr
    head_dl = st.head_dl
    rq_starts = st.rq_starts
    rq_end = st.rq_end
    oldest = _oldest(arr, acc, head, rq_starts) if depth else 0.0
    watch = brownout.active or brownout._over_since_ms >= 0.0
    while True:
        lim = now + _EPS
        while retry_heap and retry_heap[0][0] <= lim:
            request = runtime.pop_retry()
            k = schedule.pending.pop(id(request))
            if depth >= cap:
                schedule.refused += 1
                if runtime.try_schedule_retry(request, now):
                    schedule.pending[id(request)] = k
                    schedule.retried.append(request.request_id)
                else:
                    schedule.failed.append(request.request_id)
                continue
            if not depth or arr[k] < oldest:
                oldest = arr[k]
                head_dl = oldest + window
            acc_append(k)
            rq_end = len(acc)
            rq_starts.append(rq_end - 1)
            depth += 1
        while next_arr <= lim:
            delay = now - oldest if depth else 0.0
            if watch or delay >= enter_ms:
                transition = brownout_update(now, delay)
                if transition:
                    runtime.note_brownout_transition(transition, now,
                                                     telemetry)
                watch = brownout.active or brownout._over_since_ms >= 0.0
            if not admit(now, delay, priority[i]) or depth >= cap:
                rej_append(i)
            else:
                acc_append(i)
                if not depth:
                    oldest = next_arr
                    head_dl = next_arr + window
                depth += 1
            i += 1
            next_arr = arr[i] if i < n else _INF
        while depth and (depth >= full or now >= head_dl):
            best = -1
            best_free = 0.0
            idle = 0
            gate = runtime.open_episodes
            e = 0
            while e < c:
                f = free[e]
                if f <= lim:
                    idle += 1
                    if (not gate or breakers[e].allows(now)) \
                            and (best < 0 or f < best_free):
                        best = e
                        best_free = f
                e += 1
            if best < 0:
                if not idle:
                    break
                # Every free replica is tripped: fail open when no live
                # replica is healthy, else wait for healthy capacity.
                alive = 0
                e = 0
                while e < c:
                    f = free[e]
                    if f < _INF:
                        alive += 1
                        if f <= lim and (best < 0 or f < best_free):
                            best = e
                            best_free = f
                    e += 1
                if gate < alive:
                    break
                runtime.fail_open_batches += 1
            take = full if depth > full else depth
            delta = breakers[best].on_dispatch(now, factor[best])
            if delta:
                runtime.note_breaker_transition(best, delta, now, telemetry)
            step = ivl[best]
            if runtime.degraded:
                step *= interval_scale
                runtime.degraded_completions += take
            bd_append(now)
            bs_append(take)
            bx_append(best)
            bg_append(runtime.degraded)
            free[best] = now + stall[best] + take * step
            stall[best] = 0.0
            head += take
            depth -= take
            if depth:
                if head < rq_end:
                    oldest = _oldest(arr, acc, head, rq_starts)
                else:
                    oldest = arr[acc[head]]
                head_dl = oldest + window
        evt_append(now)
        evd_append(depth)
        nxt = next_arr
        if retry_heap and lim < retry_heap[0][0] < nxt:
            nxt = retry_heap[0][0]
        if depth:
            if lim < head_dl < nxt:
                nxt = head_dl
            e = 0
            while e < c:
                f = free[e]
                if lim < f < nxt:
                    nxt = f
                e += 1
            if runtime.open_episodes:
                for breaker in breakers:
                    if breaker.is_open \
                            and lim < breaker.open_until_ms < nxt:
                        nxt = breaker.open_until_ms
        if nxt >= thr:
            break
        now = nxt
    st.now = now
    st.i = i
    st.depth = depth
    st.head = head
    st.next_arr = next_arr
    st.head_dl = head_dl
    st.rq_end = rq_end
    return nxt


def _fire_threshold(at_ms: float) -> float:
    """Smallest event time ``t`` with ``t + _EPS >= at_ms`` — the
    scalar loop's firing test, inverted once so a segment can compare
    event times against it directly (float addition is monotone, so the
    two tests agree on every ``t``)."""
    t = at_ms - _EPS
    while t + _EPS >= at_ms:
        t = math.nextafter(t, -_INF)
    while t + _EPS < at_ms:
        t = math.nextafter(t, _INF)
    return t


class _FaultSchedule:
    """A resolved fault plan applied between Phase A segments.

    Disarmed-engine semantics, rule for rule with the scalar loop:
    faults fire at the top of the first event with ``at_ms <= now +
    _EPS``; a pending fault is itself an event candidate while
    ``at_ms <= max_finish_ms + _EPS`` (work in flight it could still
    retract); a straggler scales its replica's service from firing until
    the first event at or past ``until_ms``; a cache wipe charges each
    live replica's next dispatch a recompile stall; a chip kill retracts
    the replica's rows finishing after the kill and resubmits them once,
    in ``(arrival_ms, request_id)`` order, under the queue cap.

    With a resilience ``runtime`` armed, a chip kill instead asks the
    run's retry budget for each retracted row (same order) and parks the
    granted ones on the runtime's backoff heap (``pending`` maps each
    parked request back to its trace row); a total outage also fails
    the heap, and batch timing follows the brownout plan on batches
    dispatched browned out.

    Also records what Phase B needs: per-batch straggler factor and
    stall (one column chunk per segment), the retracted row positions,
    and the failed / retried ids and fault events for telemetry.
    """

    def __init__(self, engine, arrivals: List[float],
                 request_ids: np.ndarray, faults: List[ResolvedFault],
                 runtime: Optional[ResilienceRuntime] = None):
        cfg = engine.config.scheduler
        self.engine = engine
        self.runtime = runtime
        self.brownout_plan = runtime.brownout_plan if runtime is not None \
            else None
        self.retry_heap = runtime.retry_heap if runtime is not None else ()
        self.pending: Dict[int, int] = {}   # id(Request) -> trace index
        self.arr = arrivals
        self.rid = request_ids
        self.faults = faults
        self.k = 0                  # next fault to fire
        self.cap = cfg.queue_depth
        self.full = cfg.max_batch_size
        self.window = cfg.window_ms
        self.interval = engine.plan.image_interval_ms
        self.per_image = engine.plan.per_image_latency_ms
        c = len(engine.executors)
        self.factor = [1.0] * c
        self.until: List[Optional[float]] = [None] * c
        # The scalar loop clears a lapsed straggle lazily, on the
        # replica's next dispatch; remember the last straggler applied
        # and the batch count at which its window lapsed so write-back
        # leaves the same executor state.
        self.straggle: List[Optional[Tuple[float, Optional[float]]]] = \
            [None] * c
        self.lapsed: List[Optional[int]] = [None] * c
        self.dead_free: List[Optional[float]] = [None] * c
        self.seg_start = 0
        self.seg_factor: List[float] = []
        self.seg_stall: List[float] = []
        self.batch_factor: List[np.ndarray] = []
        self.batch_stall: List[np.ndarray] = []
        self.max_finish = arrivals[0]
        self.retracted: List[int] = []      # accepted-list positions
        self.failed: List[int] = []
        self.retried: List[int] = []
        self.events: List[Dict] = []
        self.retried_ids: set = set()
        self.refused = 0            # resubmissions shed by a full queue
        self.forced_batches = 0     # queue drained by a total outage

    # ---- segment bookkeeping -----------------------------------------
    def open_segment(self, st: _EventState) -> float:
        """Snapshot the service parameters the coming segment runs
        under; return its stop threshold."""
        self.seg_start = len(st.bd)
        self.seg_factor = list(self.factor)
        self.seg_stall = list(st.stall)
        thr = (_fire_threshold(self.faults[self.k].at_ms)
               if self.k < len(self.faults) else _INF)
        for until in self.until:
            if until is not None and until < thr:
                thr = until
        return thr

    def close_segment(self, st: _EventState, lim: float,
                      nxt: float) -> float:
        """Expand the segment's per-batch factor / stall columns, fold
        its dispatches into the in-flight horizon, and return the next
        event time with the pending fault as a candidate."""
        b0, b1 = self.seg_start, len(st.bd)
        if b1 > b0:
            bx = np.asarray(st.bx[b0:b1], dtype=np.int64)
            factor = np.asarray(self.seg_factor, dtype=np.float64)[bx]
            stall = np.zeros(b1 - b0, dtype=np.float64)
            for e, debt in enumerate(self.seg_stall):
                if debt:
                    hits = np.flatnonzero(bx == e)
                    if hits.size:
                        stall[hits[0]] = debt
            self.batch_factor.append(factor)
            self.batch_stall.append(stall)
            bd = np.asarray(st.bd[b0:b1], dtype=np.float64)
            bs = np.asarray(st.bs[b0:b1], dtype=np.int64)
            fill, interval = self.service(factor, stall, st.bg[b0:b1])
            # `now + fill + (size - 1) * interval`, as _execute returns it
            last = (bd + fill) + (bs - 1) * interval
            self.max_finish = max(self.max_finish, float(last.max()))
        if self.k < len(self.faults):
            at = self.faults[self.k].at_ms
            if lim < at < nxt and at <= self.max_finish + _EPS:
                return at
        return nxt

    def service(self, factor: np.ndarray, stall: np.ndarray,
                degraded: Sequence[bool]) -> Tuple[np.ndarray, np.ndarray]:
        """Per-batch pipeline fill and image interval by _execute's
        expressions: ``per_image * factor + stall`` and ``image_interval
        * factor``, each scaled by the brownout plan on batches an armed
        run dispatched degraded (``degraded`` is empty when disarmed)."""
        fill = self.per_image * factor
        interval = self.interval * factor
        if self.brownout_plan is not None:
            degraded = np.asarray(degraded, dtype=bool)
            plan = self.brownout_plan
            fill = fill * np.where(degraded, plan.fill_scale, 1.0)
            interval = interval * np.where(degraded, plan.interval_scale,
                                           1.0)
        return fill + stall, interval

    def batch_params(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-batch straggler factor and stall, in dispatch order."""
        if not self.batch_factor:
            empty = np.zeros(0, dtype=np.float64)
            return empty, empty
        return (np.concatenate(self.batch_factor),
                np.concatenate(self.batch_stall))

    # ---- fault application -------------------------------------------
    def fire(self, st: _EventState) -> bool:
        """Top of the event at ``st.now``: apply every due fault, then
        lapse expired straggler windows.  True when the replay is over
        (total outage, or nothing left to serve once a fault fired)."""
        faults = self.faults
        if self.k < len(faults):
            lim = st.now + _EPS
            while self.k < len(faults) and faults[self.k].at_ms <= lim:
                fault = faults[self.k]
                self.k += 1
                if fault.kind == "chip-kill":
                    if self._kill(fault, st):
                        self._outage(st)
                        return True
                elif fault.kind == "straggler":
                    self._straggle(fault, st)
                else:
                    self._wipe(fault, st)
            if st.i >= len(self.arr) and not st.depth \
                    and not self.retry_heap:
                return True
        for e, until in enumerate(self.until):
            if until is not None and st.now >= until:
                self.until[e] = None
                self.factor[e] = 1.0
                st.ivl[e] = self.interval
                self.lapsed[e] = len(st.bd)
        return False

    def _straggle(self, fault: ResolvedFault, st: _EventState) -> None:
        ex = self.engine._executor_for_chip(fault.chip)
        event = {"kind": "straggler", "at_ms": fault.at_ms,
                 "chip": fault.chip, "until_ms": fault.until_ms,
                 "factor": fault.factor,
                 "label": f"straggler chip={fault.chip} "
                          f"x{fault.factor:g}"}
        if ex is None or not ex.alive:
            event["outcome"] = "no-op (chip unowned or dead)"
        else:
            e = ex.index
            self.factor[e] = fault.factor
            self.until[e] = fault.until_ms
            self.straggle[e] = (fault.factor, fault.until_ms)
            self.lapsed[e] = None
            st.ivl[e] = self.interval * fault.factor
            event["replica"] = e
            event["outcome"] = f"replica{e} degraded {fault.factor:g}x"
        self.events.append(event)

    def _wipe(self, fault: ResolvedFault, st: _EventState) -> None:
        stall = (fault.stall_ms if fault.stall_ms is not None
                 else DEFAULT_WIPE_STALL_FACTOR * self.per_image)
        touched = 0
        for ex in self.engine.executors:
            if ex.alive:
                st.stall[ex.index] += stall
                touched += 1
        self.events.append({
            "kind": "cache-wipe", "at_ms": fault.at_ms,
            "stall_ms": stall, "label": "cache-wipe",
            "outcome": f"{touched} replica(s) stalled {stall:g} ms"})

    def _inflight(self, st: _EventState, replica: int,
                  after_ms: float) -> List[int]:
        """Accepted-list positions of the rows ``replica`` would finish
        after ``after_ms`` (finish computed as Phase B will)."""
        bx = np.asarray(st.bx, dtype=np.int64)
        on = np.flatnonzero(bx == replica)
        if not on.size:
            return []
        bs = np.asarray(st.bs, dtype=np.int64)
        first = (np.cumsum(bs) - bs)[on]
        sizes = bs[on]
        factor, stall = self.batch_params()
        fill, ivl = self.service(factor[on], stall[on],
                                 np.asarray(st.bg, dtype=bool)[on]
                                 if self.brownout_plan is not None else ())
        base = np.asarray(st.bd, dtype=np.float64)[on] + fill
        j = (np.arange(int(sizes.sum()), dtype=np.int64)
             - np.repeat(np.cumsum(sizes) - sizes, sizes))
        finish = np.repeat(base, sizes) + j * np.repeat(ivl, sizes)
        rows = np.repeat(first, sizes) + j
        return rows[finish > after_ms].tolist()

    def _kill(self, fault: ResolvedFault, st: _EventState) -> bool:
        """Kill the replica owning ``fault.chip`` and fail over its
        in-flight rows (retry-once); True on a total outage."""
        executors = self.engine.executors
        ex = self.engine._executor_for_chip(fault.chip)
        event = {"kind": "chip-kill", "at_ms": fault.at_ms,
                 "chip": fault.chip,
                 "label": f"chip-kill chip={fault.chip}"}
        if ex is None or not ex.alive:
            event.update(outcome="no-op (chip unowned or already dead)",
                         failover=False, requeued=0, lost=0,
                         retried_ids=())
            self.events.append(event)
            return not any(e.alive for e in executors)
        ex.alive = False
        e = ex.index
        self.dead_free[e] = st.free[e]
        st.free[e] = _INF
        rows = self._inflight(st, e, fault.at_ms + _EPS)
        self.retracted.extend(rows)
        survivors = any(x.alive for x in executors)
        requeued = lost = 0
        requeued_ids = []
        for idx in sorted(st.acc[p] for p in rows):
            rid = int(self.rid[idx])
            if self.runtime is not None:
                if survivors:
                    request = Request(request_id=rid,
                                      arrival_ms=self.arr[idx])
                    if self.runtime.try_schedule_retry(request,
                                                       fault.at_ms):
                        self.pending[id(request)] = idx
                        self.retried.append(rid)
                        requeued += 1
                        requeued_ids.append(rid)
                        continue
                self.failed.append(rid)
                lost += 1
                continue
            if survivors and rid not in self.retried_ids:
                self.retried_ids.add(rid)
                if st.depth < self.cap:
                    st.acc.append(idx)
                    st.depth += 1
                    self.retried.append(rid)
                    requeued += 1
                    requeued_ids.append(rid)
                    continue
                self.refused += 1
            self.failed.append(rid)
            lost += 1
        if requeued and self.runtime is None:
            st.rq_starts.append(len(st.acc) - requeued)
            st.rq_end = len(st.acc)
            st.head_dl = (_oldest(self.arr, st.acc, st.head, st.rq_starts)
                          + self.window)
        event.update(
            outcome=(f"replica{e} down; {requeued} retried, {lost} lost"
                     if survivors else f"replica{e} down; fleet offline"),
            replica=e, failover=survivors, requeued=requeued, lost=lost,
            retried_ids=tuple(requeued_ids))
        self.events.append(event)
        return not survivors

    def _outage(self, st: _EventState) -> None:
        """Total outage: the queue (in release order, drained by forced
        batches), then the retries still backing off (in heap order),
        then every request still to arrive, fails."""
        queued = st.acc[st.head:st.head + st.depth]
        self.failed.extend(self.rid[queued].tolist())
        self.forced_batches += -(-st.depth // self.full)
        while self.retry_heap:
            request = self.runtime.pop_retry()
            del self.pending[id(request)]
            self.failed.append(request.request_id)
        self.failed.extend(self.rid[st.i:].tolist())
        st.i = len(self.arr)
        st.depth = 0

    def write_back(self, st: _EventState) -> None:
        """Leave each executor in the state the scalar loop would."""
        for ex in self.engine.executors:
            e = ex.index
            if self.dead_free[e] is not None:
                ex.free_at_ms = self.dead_free[e]
            ex.pending_stall_ms = st.stall[e]
            if self.straggle[e] is not None:
                ex.straggle_factor, ex.straggle_until_ms = self.straggle[e]
                lapsed = self.lapsed[e]
                if lapsed is not None and e in st.bx[lapsed:]:
                    ex.straggle_factor = 1.0
                    ex.straggle_until_ms = None


def replay_vectorized(engine, requests: Union[Sequence[Request],
                                              TraceArrays],
                      faults: Optional[FaultPlan] = None,
                      scheduler: Optional[MicroBatchScheduler] = None,
                      resilience: Optional[ResilienceConfig] = None
                      ) -> TelemetryCollector:
    """Replay a trace through ``engine``'s deployment as array passes.

    Accepts either an object trace or :class:`TraceArrays` (the
    web-scale form — a million-request replay never builds a
    million ``Request`` objects).  The caller
    (:meth:`ServingEngine.serve` with the vectorized engine selected)
    guarantees the vectorizable subset: the FIFO policy.  ``faults``
    replays a fault plan; ``resilience`` arms the resilience runtime
    (admission, retry budgets, breakers, brownout) and with it the
    armed engine's failover semantics.  ``scheduler``, when given,
    receives the lifetime counters the scalar loop's scheduler would end
    with.
    Returns a :class:`TelemetryCollector` in column mode whose
    ``summary()`` is byte-identical to the scalar engine's.
    """
    trace = (in_replay_order(requests) if isinstance(requests, TraceArrays)
             else arrays_from_requests(requests))
    telemetry = TelemetryCollector(num_chips=engine.config.num_chips)
    for ex in engine.executors:
        ex.reset()
    if len(trace) == 0:
        return telemetry

    plan = engine.plan
    cfg = engine.config.scheduler
    arrivals = trace.arrival_ms.tolist()
    runtime = None
    if resilience is not None:
        # Built exactly as the scalar loop builds it: thresholds scale
        # off one pipeline fill plus one batching window.
        runtime = ResilienceRuntime(
            resilience,
            base_ms=plan.per_image_latency_ms + cfg.window_ms,
            capacity_fps=plan.throughput_fps,
            offered=len(trace),
            num_replicas=len(engine.executors),
            brownout_plan=engine.brownout_plan)
    schedule = segment = None
    if faults is not None or runtime is not None:
        schedule = _FaultSchedule(
            engine, arrivals, trace.request_id,
            faults.resolve(arrivals[0], arrivals[-1])
            if faults is not None else [], runtime)
    if runtime is not None:
        segment = functools.partial(
            _segment_armed, runtime=runtime, telemetry=telemetry,
            priority=trace.priority.tolist(), schedule=schedule)
    st = _replay_events(arrivals, len(engine.executors), cfg.queue_depth,
                        cfg.max_batch_size, cfg.window_ms,
                        plan.image_interval_ms, schedule, segment)
    if runtime is not None:
        runtime.finalize(st.now, telemetry)
    # The scalar loop leaves each executor at its last dispatch's free
    # time; keep that observable state identical.
    for ex, free_ms in zip(engine.executors, st.free):
        ex.free_at_ms = free_ms
    if schedule is not None:
        schedule.write_back(st)
    if scheduler is not None:
        # Admission sheds never reach the scheduler; queue-full
        # rejections and refused resubmissions do.
        rejected = len(st.rej) + (schedule.refused if schedule is not None
                                  else 0)
        if runtime is not None:
            rejected -= runtime.admission.shed
        scheduler.num_submitted = len(st.acc) + rejected
        scheduler.num_rejected = rejected
        scheduler.num_batches = len(st.bd) + (
            schedule.forced_batches if schedule is not None else 0)

    # ---- Phase B: expand batch columns into completion columns -------
    interval = plan.image_interval_ms
    fill = plan.per_image_latency_ms
    # Batches consume the accepted list in order, so the dispatched rows
    # are its first `head` slots (a total outage leaves the rest queued).
    acc_idx = np.asarray(st.acc, dtype=np.int64)[:st.head]
    bd_np = np.asarray(st.bd, dtype=np.float64)
    bs_np = np.asarray(st.bs, dtype=np.int64)
    bx_np = np.asarray(st.bx, dtype=np.int64)
    total = st.head
    # j-th request of its batch finishes at (dispatch + fill) +
    # j * interval — grouped exactly as the scalar expression
    # `now + fill + j * interval` parses.
    starts = np.repeat(bd_np, bs_np)
    j_intra = (np.arange(total, dtype=np.int64)
               - np.repeat(np.cumsum(bs_np) - bs_np, bs_np))
    if schedule is None:
        finishes = np.repeat(bd_np + fill, bs_np) + j_intra * interval
    else:
        # _execute's fill and interval, one value per batch
        factor_b, stall_b = schedule.batch_params()
        fill_b, interval_b = schedule.service(factor_b, stall_b, st.bg)
        finishes = (np.repeat(bd_np + fill_b, bs_np)
                    + j_intra * np.repeat(interval_b, bs_np))
        # Browned-out batches occupy their chips for the degraded
        # plan's shorter interval.
        occupancy_b = (np.where(np.asarray(st.bg, dtype=bool),
                                runtime.brownout_plan.interval_scale, 1.0)
                       if runtime is not None else None)

    # Per-chip busy time: the scalar loop adds `stall + size *
    # shard_interval * factor * occupancy_scale` per dispatch in order,
    # so reduce with the sequential cumsum (pairwise np.sum would round
    # differently and break byte-identity).
    chip_busy: Dict[int, float] = {}
    for ex in engine.executors:
        on = bx_np == ex.index
        sizes = bs_np[on]
        if not sizes.size:
            continue
        for chip_id, shard in zip(ex.chip_ids, plan.shards):
            vals = sizes * shard.image_interval_ms
            if schedule is not None:
                vals = vals * factor_b[on]
                if occupancy_b is not None:
                    vals = vals * occupancy_b[on]
                vals = stall_b[on] + vals
            chip_busy[chip_id] = float(np.cumsum(vals)[-1])

    batch_size = np.repeat(bs_np, bs_np)
    executor_index = np.repeat(bx_np, bs_np)
    if schedule is not None and schedule.retracted:
        # Rows a chip kill retracted never completed; the batch sizes
        # and busy time they were dispatched with still count.
        keep = np.ones(total, dtype=bool)
        keep[schedule.retracted] = False
        acc_idx = acc_idx[keep]
        starts = starts[keep]
        finishes = finishes[keep]
        batch_size = batch_size[keep]
        executor_index = executor_index[keep]

    model = None
    if trace.model is not None:
        model = tuple(trace.model[k] for k in acc_idx.tolist())
    telemetry.ingest_columns(
        arrival_ms=trace.arrival_ms[acc_idx],
        start_ms=starts,
        finish_ms=finishes,
        request_id=trace.request_id[acc_idx],
        priority=trace.priority[acc_idx],
        batch_size=batch_size,
        executor_index=executor_index,
        executor_chip_ids=tuple(ex.chip_ids for ex in engine.executors),
        model=model,
        rejected_ids=trace.request_id[
            np.asarray(st.rej, dtype=np.int64)].tolist(),
        queue_times=np.asarray(st.ev_t, dtype=np.float64),
        queue_depths=np.asarray(st.ev_d, dtype=np.int64),
        batch_sizes=bs_np,
        chip_busy_ms=chip_busy,
        failed_ids=schedule.failed if schedule is not None else (),
        retried_ids=schedule.retried if schedule is not None else (),
        fault_events=schedule.events if schedule is not None else ())
    return telemetry
