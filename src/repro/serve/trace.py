"""Request traces: the workload a serving run replays.

A trace is an ordered list of :class:`Request` records — arrival time in
simulated milliseconds, plus an optional priority class.  Synthetic traces
use Poisson arrivals (exponential inter-arrival gaps at a configured
offered load), the standard open-loop model for serving benchmarks; traces
round-trip through JSON so a run is exactly reproducible from a file
(``python -m repro serve --requests trace.json``).

Web-scale traces additionally exist in *columnar* form:
:class:`TraceArrays` holds the same workload as parallel NumPy columns so
a million-request trace never materializes a million ``Request`` objects.
:meth:`TraceArrays.materialize` produces the exact object trace the
column form describes (bit-identical arrival floats), which is the
contract the engine-equivalence test harness pins: every generator
builds the arrays first and derives the object trace *from them*, so the
two forms cannot drift.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["Request", "TraceArrays", "arrays_from_requests",
           "in_replay_order", "synthetic_trace", "synthetic_trace_arrays",
           "save_trace", "load_trace"]


@dataclass(frozen=True)
class Request:
    """One inference request.

    Attributes
    ----------
    request_id:
        Unique id within the trace.
    arrival_ms:
        Simulated arrival time (milliseconds from trace start).
    priority:
        Larger = more urgent; only consulted by the ``"priority"``
        scheduling policy.
    model:
        Model class tag for multi-model request mixes (see
        :mod:`repro.serve.scenarios`); empty for single-model traces.
        Pure accounting today — the engine serves whatever deployment
        it holds — but it round-trips through trace files so recorded
        mixes replay faithfully.
    """

    request_id: int
    arrival_ms: float
    priority: int = 0
    model: str = ""

    def __post_init__(self):
        if self.arrival_ms < 0:
            raise ValueError("arrival_ms must be >= 0")


@dataclass(frozen=True)
class TraceArrays:
    """A request trace as parallel columns (no per-request objects).

    The columnar twin of a ``List[Request]``: ``arrival_ms[k]``,
    ``request_id[k]`` and ``priority[k]`` describe request ``k``;
    ``model`` is ``None`` for single-model traces (every request serves
    the deployment's one network) or a per-request tag tuple for mixes.
    Rows are ordered by ``(arrival_ms, request_id)`` — the replay order
    both engines use — when produced by the in-repo generators;
    :func:`arrays_from_requests` enforces it for arbitrary input.

    The vectorized replay engine consumes this form directly; the scalar
    engine (and anything else wanting objects) goes through
    :meth:`materialize`, which yields exactly the ``Request`` list the
    object-based generators used to build — same floats, same ints.
    """

    arrival_ms: np.ndarray              # float64, nondecreasing
    request_id: np.ndarray              # int64, unique within the trace
    priority: np.ndarray                # int64
    model: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        n = self.arrival_ms.shape[0]
        if self.request_id.shape[0] != n or self.priority.shape[0] != n:
            raise ValueError("trace columns must share one length")
        if self.model is not None and len(self.model) != n:
            raise ValueError("model column must match the trace length")

    def __len__(self) -> int:
        return int(self.arrival_ms.shape[0])

    def materialize(self) -> List[Request]:
        """Expand the columns into the equivalent ``Request`` list.

        Bit-identical to the object path by construction: each field
        goes through the same ``float()``/``int()`` conversion the
        object-based generators applied element-wise.
        """
        ids = self.request_id.tolist()
        arrivals = self.arrival_ms.tolist()
        priorities = self.priority.tolist()
        if self.model is None:
            return [Request(request_id=ids[k], arrival_ms=arrivals[k],
                            priority=priorities[k])
                    for k in range(len(ids))]
        return [Request(request_id=ids[k], arrival_ms=arrivals[k],
                        priority=priorities[k], model=self.model[k])
                for k in range(len(ids))]


def in_replay_order(trace: TraceArrays) -> TraceArrays:
    """``trace`` sorted by ``(arrival_ms, request_id)``, the replay
    order the engine imposes.  The sort is stable, like ``sorted()``;
    generator output already is in order, so the identity check keeps
    the common case copy-free."""
    order = np.lexsort((trace.request_id, trace.arrival_ms))
    if np.array_equal(order, np.arange(len(order))):
        return trace
    model = (tuple(trace.model[k] for k in order.tolist())
             if trace.model is not None else None)
    return TraceArrays(arrival_ms=trace.arrival_ms[order],
                       request_id=trace.request_id[order],
                       priority=trace.priority[order], model=model)


def arrays_from_requests(requests: Sequence[Request]) -> TraceArrays:
    """Column form of an existing object trace, sorted by
    ``(arrival_ms, request_id)`` — the replay order the engine imposes,
    so replaying the arrays is replaying the list."""
    models = [r.model for r in requests]
    return in_replay_order(TraceArrays(
        arrival_ms=np.array([r.arrival_ms for r in requests],
                            dtype=np.float64),
        request_id=np.array([r.request_id for r in requests],
                            dtype=np.int64),
        priority=np.array([r.priority for r in requests], dtype=np.int64),
        model=tuple(models) if any(models) else None))


def synthetic_trace_arrays(num_requests: int, rate_rps: float, seed: int = 0,
                           priority_levels: int = 1,
                           start_ms: float = 0.0) -> TraceArrays:
    """Columnar Poisson trace — :func:`synthetic_trace` without the
    per-request objects (same RNG stream, same floats)."""
    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    if rate_rps <= 0:
        raise ValueError("rate_rps must be > 0")
    if priority_levels < 1:
        raise ValueError("priority_levels must be >= 1")
    rng = np.random.default_rng(seed)
    gaps_ms = rng.exponential(1000.0 / rate_rps, size=num_requests)
    arrivals = start_ms + np.cumsum(gaps_ms)
    if priority_levels > 1:
        priorities = rng.integers(0, priority_levels, size=num_requests)
    else:
        priorities = np.zeros(num_requests, dtype=int)
    return TraceArrays(arrival_ms=arrivals,
                       request_id=np.arange(num_requests, dtype=np.int64),
                       priority=priorities.astype(np.int64))


def synthetic_trace(num_requests: int, rate_rps: float, seed: int = 0,
                    priority_levels: int = 1,
                    start_ms: float = 0.0) -> List[Request]:
    """Poisson arrival trace at an offered load of ``rate_rps`` req/s.

    ``priority_levels > 1`` draws each request's priority uniformly from
    ``0..priority_levels-1`` (higher is more urgent).  Materialized from
    :func:`synthetic_trace_arrays`, so the object and column forms of
    the same ``(n, rate, seed)`` tuple are identical by construction.
    """
    return synthetic_trace_arrays(
        num_requests, rate_rps, seed=seed,
        priority_levels=priority_levels, start_ms=start_ms).materialize()


def save_trace(requests: Sequence[Request], path: Union[str, Path]) -> None:
    """Write a trace as JSON (``{"requests": [...]}``)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)

    def entry(r: Request) -> Dict:
        out = {"id": r.request_id, "arrival_ms": r.arrival_ms,
               "priority": r.priority}
        if r.model:
            out["model"] = r.model
        return out

    payload: Dict = {"requests": [entry(r) for r in requests]}
    path.write_text(json.dumps(payload, indent=2))


def load_trace(path: Union[str, Path]) -> List[Request]:
    """Read a trace written by :func:`save_trace` (extra keys ignored)."""
    payload = json.loads(Path(path).read_text())
    requests = [Request(request_id=int(entry["id"]),
                        arrival_ms=float(entry["arrival_ms"]),
                        priority=int(entry.get("priority", 0)),
                        model=str(entry.get("model", "")))
                for entry in payload["requests"]]
    return sorted(requests, key=lambda r: (r.arrival_ms, r.request_id))
