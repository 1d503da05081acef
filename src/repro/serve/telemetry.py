"""Serving telemetry: per-request latency percentiles, queue depth, chip
utilization and rolling throughput.

The collector is deliberately simulation-agnostic: the engine feeds it
completion records, queue-depth samples and per-chip busy time in simulated
milliseconds, and it reduces them into the metrics a serving operator
watches (p50/p95/p99 latency, achieved vs offered throughput, utilization).
``report()`` renders everything with :class:`repro.tables.Table`
so serving output visually matches the paper-artefact tables.

Two ingestion modes share one set of reductions:

- *record mode* — the scalar engine appends one :class:`RequestRecord`
  per completion and one ``(t, depth)`` tuple per event;
- *column mode* — the vectorized engine hands over whole NumPy columns
  at once (:meth:`TelemetryCollector.ingest_columns`), and the familiar
  ``records`` / ``queue_samples`` / ``batch_sizes`` views materialize
  lazily on first access.

Every reduction (``summary()``, percentiles, utilization) routes through
the same value accessors in both modes, performing the identical
floating-point operations on identical arrays — which is what lets the
engine-equivalence harness demand *byte-identical* summaries from the
two replay engines rather than "close enough" ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.slo import SLO, SLOReport
from ..tables import Table

__all__ = ["RequestRecord", "TelemetryCollector"]


@dataclass(frozen=True)
class RequestRecord:
    """Lifecycle of one completed request (simulated milliseconds)."""

    request_id: int
    arrival_ms: float
    start_ms: float
    finish_ms: float
    chip_ids: Tuple[int, ...]
    batch_size: int
    priority: int = 0
    model: str = ""

    @property
    def latency_ms(self) -> float:
        """End-to-end: arrival to completion (queue wait + service)."""
        return self.finish_ms - self.arrival_ms

    @property
    def wait_ms(self) -> float:
        return self.start_ms - self.arrival_ms

    @property
    def service_ms(self) -> float:
        return self.finish_ms - self.start_ms


class TelemetryCollector:
    """Accumulates serving events and reduces them to operator metrics."""

    def __init__(self, num_chips: int = 1):
        self.num_chips = num_chips
        self._records: Optional[List[RequestRecord]] = []
        self.rejected: List[int] = []
        self.failed: List[int] = []
        self.retried: List[int] = []
        self.fault_events: List[Dict] = []
        # Resilience bookkeeping: transition events (breaker open/close,
        # brownout enter/exit) for span synthesis, and the run's stats
        # dict attached by the engine when a ResilienceConfig was armed
        # (None otherwise, so summaries of plain runs are unchanged).
        self.resilience_events: List[Dict] = []
        self.resilience: Optional[Dict] = None
        self._queue_samples: Optional[List[Tuple[float, int]]] = []
        self.chip_busy_ms: Dict[int, float] = {c: 0.0 for c in range(num_chips)}
        self._batch_sizes: Optional[List[int]] = []
        # Column mode (ingest_columns): completion columns keyed by
        # field, plus event-time/queue-depth and batch-size columns.
        # None in record mode; the list views above are None exactly
        # when their columnar twin is the source of truth.
        self._completed: Optional[Dict] = None
        # Record mode's twin of the completion columns, built from the
        # records on first read and dropped whenever they change.
        self._record_cols: Optional[Dict[str, np.ndarray]] = None
        self._queue_cols: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._batch_col: Optional[np.ndarray] = None

    # ---- record/column views -----------------------------------------
    @property
    def records(self) -> List[RequestRecord]:
        """Completed-request records (materialized on demand from the
        completion columns after a vectorized replay)."""
        if self._records is None:
            self._records = self._materialize_records()
        return self._records

    @records.setter
    def records(self, value: List[RequestRecord]) -> None:
        # An external overwrite (drop_records retracting in-flight work)
        # makes the record list the only truth — drop the column backing
        # rather than let reductions read stale columns.
        self._records = list(value)
        self._completed = None
        self._record_cols = None

    @property
    def queue_samples(self) -> List[Tuple[float, int]]:
        if self._queue_samples is None:
            times, depths = self._queue_cols
            self._queue_samples = list(zip(times.tolist(), depths.tolist()))
        return self._queue_samples

    @property
    def batch_sizes(self) -> List[int]:
        if self._batch_sizes is None:
            self._batch_sizes = self._batch_col.tolist()
        return self._batch_sizes

    def _materialize_records(self) -> List[RequestRecord]:
        cols = self._completed
        if cols is None:
            return []
        groups: Tuple[Tuple[int, ...], ...] = cols["executor_chip_ids"]
        ids = cols["request_id"].tolist()
        arrivals = cols["arrival_ms"].tolist()
        starts = cols["start_ms"].tolist()
        finishes = cols["finish_ms"].tolist()
        sizes = cols["batch_size"].tolist()
        executors = cols["executor_index"].tolist()
        priorities = cols["priority"].tolist()
        models = cols["model"]
        return [RequestRecord(
                    request_id=ids[k], arrival_ms=arrivals[k],
                    start_ms=starts[k], finish_ms=finishes[k],
                    chip_ids=groups[executors[k]], batch_size=sizes[k],
                    priority=priorities[k],
                    model=models[k] if models is not None else "")
                for k in range(len(ids))]

    # ---- event ingestion ---------------------------------------------
    def record_completion(self, record: RequestRecord) -> None:
        self._records.append(record)
        self._record_cols = None

    def ingest_columns(self, *,
                       arrival_ms: np.ndarray,
                       start_ms: np.ndarray,
                       finish_ms: np.ndarray,
                       request_id: np.ndarray,
                       priority: np.ndarray,
                       batch_size: np.ndarray,
                       executor_index: np.ndarray,
                       executor_chip_ids: Tuple[Tuple[int, ...], ...],
                       model: Optional[Tuple[str, ...]] = None,
                       rejected_ids: Sequence[int] = (),
                       queue_times: Optional[np.ndarray] = None,
                       queue_depths: Optional[np.ndarray] = None,
                       batch_sizes: Optional[np.ndarray] = None,
                       chip_busy_ms: Optional[Dict[int, float]] = None,
                       failed_ids: Sequence[int] = (),
                       retried_ids: Sequence[int] = (),
                       fault_events: Sequence[Dict] = ()
                       ) -> None:
        """Bulk ingestion of a whole replay (the vectorized engine's
        single call): completion columns ordered by dispatch, the
        per-event queue-depth series, per-batch sizes, per-chip busy
        totals, and — under a fault plan — the failed / retried ids and
        applied fault events, each in the order the scalar loop records
        them.  The ``records`` / ``queue_samples`` / ``batch_sizes``
        views materialize lazily from these columns, so a million-request
        replay only ever builds objects a consumer actually reads.
        """
        self._completed = {
            "arrival_ms": arrival_ms, "start_ms": start_ms,
            "finish_ms": finish_ms, "request_id": request_id,
            "priority": priority, "batch_size": batch_size,
            "executor_index": executor_index,
            "executor_chip_ids": executor_chip_ids, "model": model,
        }
        self._records = None
        self.rejected.extend(rejected_ids)
        self.failed.extend(failed_ids)
        self.retried.extend(retried_ids)
        self.fault_events.extend(fault_events)
        if queue_times is not None:
            self._queue_cols = (queue_times, queue_depths)
            self._queue_samples = None
        if batch_sizes is not None:
            self._batch_col = batch_sizes
            self._batch_sizes = None
        if chip_busy_ms:
            for chip, busy in chip_busy_ms.items():
                self.chip_busy_ms[chip] = \
                    self.chip_busy_ms.get(chip, 0.0) + busy

    def record_rejection(self, request_id: int) -> None:
        """A request shed because the bounded queue was full."""
        self.rejected.append(request_id)

    def record_failure(self, request_id: int) -> None:
        """A request lost to a fault and not recoverable (already
        retried once, retry queue full, or the whole fleet is down) —
        counts against availability exactly like a shed request."""
        self.failed.append(request_id)

    def record_retry(self, request_id: int) -> None:
        """An in-flight request pulled off a failed replica and
        requeued onto the survivors (at most once per request)."""
        self.retried.append(request_id)

    def record_fault(self, event: Dict) -> None:
        """One applied fault event (kind, firing time, and its failover
        outcome — see :meth:`repro.serve.engine.ServingEngine.serve`)."""
        self.fault_events.append(event)

    def record_resilience(self, event: Dict) -> None:
        """One resilience state transition (``breaker-open`` /
        ``breaker-close`` / ``brownout-enter`` / ``brownout-exit``) —
        kept apart from ``fault_events`` so injected-fault accounting
        and the ``serve.faults.*`` cross-checks stay untouched."""
        self.resilience_events.append(event)

    def drop_records(self, records: List[RequestRecord]) -> None:
        """Retract completion records for requests that were in flight
        on a failed replica — their images never made it out."""
        doomed = {id(r) for r in records}
        self.records = [r for r in self.records if id(r) not in doomed]

    def record_queue_depth(self, now_ms: float, depth: int) -> None:
        self._queue_samples.append((now_ms, depth))

    def record_chip_busy(self, chip_id: int, busy_ms: float) -> None:
        self.chip_busy_ms[chip_id] = \
            self.chip_busy_ms.get(chip_id, 0.0) + busy_ms

    def record_batch(self, batch_size: int) -> None:
        self._batch_sizes.append(batch_size)

    # ---- value accessors ----------------------------------------------
    # Both ingestion modes answer through these, performing the same
    # floating-point operations on the same float64 values in the same
    # order — the bit-for-bit contract the equivalence harness pins.
    def _columns(self) -> Dict:
        """Completion columns (``arrival_ms`` / ``start_ms`` /
        ``finish_ms``, dispatch order): the ingested ones in column
        mode, else built once from the records."""
        if self._completed is not None:
            return self._completed
        if self._record_cols is None:
            records = self._records
            self._record_cols = {
                "arrival_ms": np.array([r.arrival_ms for r in records]),
                "start_ms": np.array([r.start_ms for r in records]),
                "finish_ms": np.array([r.finish_ms for r in records]),
            }
        return self._record_cols

    def latency_values(self) -> np.ndarray:
        """End-to-end latency per completed request (dispatch order)."""
        cols = self._columns()
        return cols["finish_ms"] - cols["arrival_ms"]

    def wait_values(self) -> np.ndarray:
        """Queueing delay per completed request (dispatch order)."""
        cols = self._columns()
        return cols["start_ms"] - cols["arrival_ms"]

    def service_values(self) -> np.ndarray:
        """Chip service time per completed request (dispatch order)."""
        cols = self._columns()
        return cols["finish_ms"] - cols["start_ms"]

    def finish_values(self) -> np.ndarray:
        return self._columns()["finish_ms"]

    def queue_depth_values(self) -> np.ndarray:
        if self._queue_samples is None:
            return self._queue_cols[1]
        return np.array([d for _, d in self._queue_samples], dtype=np.int64)

    def batch_size_values(self) -> np.ndarray:
        if self._batch_sizes is None:
            return self._batch_col
        return np.array(self._batch_sizes, dtype=np.int64)

    @property
    def num_batches(self) -> int:
        if self._batch_sizes is None:
            return int(self._batch_col.shape[0])
        return len(self._batch_sizes)

    @property
    def num_queue_samples(self) -> int:
        if self._queue_samples is None:
            return int(self._queue_cols[0].shape[0])
        return len(self._queue_samples)

    # ---- reductions ---------------------------------------------------
    @property
    def num_completed(self) -> int:
        if self._records is not None:
            return len(self._records)
        return int(self._completed["finish_ms"].shape[0])

    @property
    def num_rejected(self) -> int:
        return len(self.rejected)

    @property
    def num_failed(self) -> int:
        return len(self.failed)

    @property
    def num_retried(self) -> int:
        return len(self.retried)

    @property
    def num_failovers(self) -> int:
        """Chip-kill events survived by re-routing onto live replicas."""
        return sum(1 for e in self.fault_events
                   if e.get("kind") == "chip-kill" and e.get("failover"))

    @property
    def makespan_ms(self) -> float:
        """First arrival to last completion."""
        if not self.num_completed:
            return 0.0
        cols = self._columns()
        return (float(cols["finish_ms"].max())
                - float(cols["arrival_ms"].min()))

    def latency_percentile(self, q: float) -> float:
        """Latency percentile over completed requests (q in [0, 100])."""
        if not self.num_completed:
            return float("nan")
        return float(np.percentile(self.latency_values(), q))

    def latency_percentiles(self) -> Dict[str, float]:
        return {"p50": self.latency_percentile(50.0),
                "p95": self.latency_percentile(95.0),
                "p99": self.latency_percentile(99.0)}

    def _component_percentiles(self, attr: str) -> Dict[str, float]:
        """p50/p95/p99/mean over one latency component (wait or service)."""
        if not self.num_completed:
            nan = float("nan")
            return {"p50": nan, "p95": nan, "p99": nan, "mean": nan}
        values = (self.wait_values() if attr == "wait_ms"
                  else self.service_values())
        p50, p95, p99 = np.percentile(values, [50.0, 95.0, 99.0])
        return {"p50": float(p50), "p95": float(p95), "p99": float(p99),
                "mean": float(np.mean(values))}

    def wait_percentiles(self) -> Dict[str, float]:
        """Queueing delay (arrival -> dispatch) percentiles + mean."""
        return self._component_percentiles("wait_ms")

    def service_percentiles(self) -> Dict[str, float]:
        """Chip time (dispatch -> completion) percentiles + mean."""
        return self._component_percentiles("service_ms")

    def mean_latency_ms(self) -> float:
        if not self.num_completed:
            return float("nan")
        return float(np.mean(self.latency_values()))

    def availability(self) -> float:
        """Fraction of offered requests that completed (shed *and*
        fault-lost requests count against it).

        An empty run is vacuously available (1.0): zero offered requests
        means zero were denied, and a NaN here would leak through
        ``summary()`` into SLO reports as a spurious miss (the SLO layer
        treats NaN observations as failed targets)."""
        offered = self.num_completed + self.num_rejected + self.num_failed
        if offered == 0:
            return 1.0
        return self.num_completed / offered

    def throughput_fps(self) -> float:
        """Achieved completions/second over the whole run."""
        span = self.makespan_ms
        return self.num_completed / span * 1000.0 if span > 0 else 0.0

    def rolling_throughput(self, window_ms: float = 1000.0
                           ) -> List[Tuple[float, float]]:
        """Completions/second in consecutive ``window_ms`` buckets,
        returned as ``(bucket_end_ms, fps)`` pairs.

        Buckets tile ``[first_arrival, last_finish]``; idle windows inside
        that span emit explicit zero buckets (a gap in the series would
        otherwise read as "no data" where the truth is "zero throughput").
        A finish landing exactly on a bucket edge belongs to the bucket
        *ending* there, and the series stops at the bucket containing the
        last finish — no trailing all-zero bucket.
        """
        if not self.num_completed or window_ms <= 0:
            return []
        finishes = self.finish_values()
        start = float(self._columns()["arrival_ms"].min())
        # Bucket k covers (start + k*w, start + (k+1)*w]; ceil maps an
        # exact-edge finish into the bucket that ends there, and finishes
        # at (or numerically before) `start` clamp into bucket 0.
        index = np.ceil((finishes - start) / window_ms).astype(np.int64) - 1
        index = np.maximum(index, 0)
        counts = np.bincount(index)
        return [(start + (k + 1) * window_ms,
                 int(count) / window_ms * 1000.0)
                for k, count in enumerate(counts)]

    def chip_utilization(self) -> Dict[int, float]:
        """Raw busy fraction per chip over the makespan (0 when idle run).

        Deliberately *not* clamped at 1.0: a fraction above one means the
        busy-time accounting booked more chip-milliseconds than the run's
        makespan — a real signal (double-counted dispatches, overlapping
        busy intervals) that a clamp would silently mask.  ``report()``
        surfaces such chips with a ``saturated`` warning.
        """
        span = self.makespan_ms
        if span <= 0:
            return {chip: 0.0 for chip in self.chip_busy_ms}
        return {chip: busy / span
                for chip, busy in sorted(self.chip_busy_ms.items())}

    def saturated_chips(self, tolerance: float = 1e-9) -> List[int]:
        """Chips whose raw utilization exceeds 1.0 (accounting anomaly)."""
        return [chip for chip, util in self.chip_utilization().items()
                if util > 1.0 + tolerance]

    def mean_queue_depth(self) -> float:
        if not self.num_queue_samples:
            return 0.0
        return float(np.mean(self.queue_depth_values()))

    def max_queue_depth(self) -> int:
        if not self.num_queue_samples:
            return 0
        return int(self.queue_depth_values().max())

    def mean_batch_size(self) -> float:
        if not self.num_batches:
            return 0.0
        return float(np.mean(self.batch_size_values()))

    def slo_attainment(self, slo: SLO) -> SLOReport:
        """Evaluate an :class:`~repro.obs.slo.SLO` against this run
        (observed p99 latency and availability)."""
        return slo.evaluate(p99_ms=self.latency_percentile(99.0),
                            availability=self.availability())

    # ---- presentation -------------------------------------------------
    def summary(self, slo: Optional["SLO"] = None
                ) -> Dict[str, Optional[float]]:
        """Flat metric dict (the JSON output of the serve CLI).

        End-to-end latency is reported alongside its wait (queueing) and
        service (chip time) components, so an operator can tell a batching
        /queueing problem from a slow deployment straight from the JSON.
        With ``slo`` given, the dict gains the ``slo_*`` attainment keys
        of :meth:`repro.obs.slo.SLOReport.as_dict`.

        Metrics undefined for the run (e.g. latency percentiles with zero
        completions) are ``None``, not NaN — the output must stay valid
        JSON for strict consumers (jq, JSON.parse).
        """
        pct = self.latency_percentiles()
        wait = self.wait_percentiles()
        service = self.service_percentiles()
        out = {
            "completed": float(self.num_completed),
            "rejected": float(self.num_rejected),
            "failed": float(self.num_failed),
            "retries": float(self.num_retried),
            "failovers": float(self.num_failovers),
            "fault_events": float(len(self.fault_events)),
            "availability": self.availability(),
            "makespan_ms": self.makespan_ms,
            "throughput_fps": self.throughput_fps(),
            "latency_mean_ms": self.mean_latency_ms(),
            "latency_p50_ms": pct["p50"],
            "latency_p95_ms": pct["p95"],
            "latency_p99_ms": pct["p99"],
            "wait_mean_ms": wait["mean"],
            "wait_p50_ms": wait["p50"],
            "wait_p95_ms": wait["p95"],
            "wait_p99_ms": wait["p99"],
            "service_mean_ms": service["mean"],
            "service_p50_ms": service["p50"],
            "service_p95_ms": service["p95"],
            "service_p99_ms": service["p99"],
            "mean_batch_size": self.mean_batch_size(),
            "mean_queue_depth": self.mean_queue_depth(),
            "max_queue_depth": float(self.max_queue_depth()),
        }
        for chip, util in self.chip_utilization().items():
            out[f"chip{chip}_utilization"] = util
        if self.resilience is not None:
            # Only resilience-armed runs carry these keys — plain runs'
            # summaries stay byte-identical to previous releases (the
            # CI scenario matrix depends on that).
            for key, value in self.resilience.items():
                out[f"resilience_{key}"] = value
        if slo is not None:
            out.update(self.slo_attainment(slo).as_dict())
        return {key: None if isinstance(value, float) and np.isnan(value)
                else value
                for key, value in out.items()}

    def report(self, slo: Optional["SLO"] = None) -> str:
        """Operator-facing text report (latency, throughput, chips, and —
        with ``slo`` — attainment)."""
        pct = self.latency_percentiles()
        wait = self.wait_percentiles()
        service = self.service_percentiles()
        latency = Table(["metric", "total", "wait", "service"],
                        title="request latency (ms; total = wait + service)")
        latency.add_row("mean", self.mean_latency_ms(), wait["mean"],
                        service["mean"])
        latency.add_row("p50", pct["p50"], wait["p50"], service["p50"])
        latency.add_row("p95", pct["p95"], wait["p95"], service["p95"])
        latency.add_row("p99", pct["p99"], wait["p99"], service["p99"])

        load = Table(["metric", "value"], title="load")
        load.add_row("completed", self.num_completed)
        load.add_row("rejected", self.num_rejected)
        if self.fault_events or self.failed or self.retried:
            load.add_row("failed (faults)", self.num_failed)
            load.add_row("retried (failover)", self.num_retried)
        load.add_row("throughput (req/s)", self.throughput_fps())
        load.add_row("mean batch size", self.mean_batch_size())
        load.add_row("mean queue depth", self.mean_queue_depth())
        load.add_row("max queue depth", self.max_queue_depth())

        chips = Table(["chip", "busy_ms", "utilization"],
                      title="chip utilization")
        for chip, util in self.chip_utilization().items():
            chips.add_row(chip, self.chip_busy_ms.get(chip, 0.0), util)

        sections = [latency.render(), load.render(), chips.render()]
        if self.fault_events:
            faults = Table(["t_ms", "fault", "outcome"],
                           title="injected faults")
            for event in self.fault_events:
                faults.add_row(event.get("at_ms", float("nan")),
                               event.get("label", event.get("kind", "?")),
                               event.get("outcome", ""))
            sections.append(faults.render())
        if self.resilience is not None:
            res = Table(["metric", "value"], title="resilience")
            res.add_row("admission shed", self.resilience["admission_shed"])
            res.add_row("retry budget",
                        f"{self.resilience['retries_scheduled']:g} / "
                        f"{self.resilience['retry_budget']:g} used")
            res.add_row("breaker opens", self.resilience["breaker_opens"])
            res.add_row("brownout time (ms)", self.resilience["brownout_ms"])
            res.add_row("degraded completions",
                        self.resilience["degraded_completions"])
            sections.append(res.render())
        saturated = self.saturated_chips()
        if saturated:
            sections.append(
                f"WARNING: chip(s) {saturated} report utilization > 1.0 — "
                "busy-time accounting booked more chip-ms than the "
                "makespan; investigate double-counted dispatches")
        if slo is not None:
            attainment = self.slo_attainment(slo)
            table = Table(["target", "goal", "observed", "attained"],
                          title=f"SLO attainment ({attainment.name})")
            if slo.p99_ms is not None:
                table.add_row("p99 latency (ms)", slo.p99_ms,
                              attainment.p99_observed_ms,
                              "yes" if attainment.p99_attained else "NO")
            if slo.availability is not None:
                table.add_row("availability", slo.availability,
                              attainment.availability_observed,
                              "yes" if attainment.availability_attained
                              else "NO")
            sections.append(table.render())
        return "\n\n".join(sections)
