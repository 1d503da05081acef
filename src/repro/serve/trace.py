"""Request traces: the workload a serving run replays.

A trace is an ordered sequence of :class:`Request` records — arrival
time in simulated milliseconds, plus an optional priority class.
Synthetic traces use Poisson arrivals (exponential inter-arrival gaps at
a configured offered load), the standard open-loop model for serving
benchmarks; traces round-trip through JSON so a run is exactly
reproducible from a file (``python -m repro serve --requests trace.json``).

Generated traces are *columnar*: :func:`synthetic_trace` and every
scenario's ``to_trace`` return a :class:`TraceArrays`, the same workload
as parallel NumPy columns, so a million-request trace never builds a
million ``Request`` objects.  ``TraceArrays`` is a read-only
``Sequence[Request]`` — indexing and iteration build the rows on
demand, slicing gives a sliced column trace, and it compares equal to
the ``Request`` list it describes — while :meth:`TraceArrays.materialize`
gives that list outright (bit-identical arrival floats).  The vectorized
replay engine consumes the columns directly; the scalar oracle
materializes on entry.  Building the objects costs ~70x generating the
columns, and cheaper ``Request`` construction does not close that gap
(docs/vectorized-replay.md has the measurements).
"""

from __future__ import annotations

import json
import operator
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

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


@dataclass(frozen=True, eq=False)
class TraceArrays(SequenceABC):
    """A request trace as parallel columns (no per-request objects).

    The columnar twin of a ``List[Request]``: ``arrival_ms[k]``,
    ``request_id[k]`` and ``priority[k]`` describe request ``k``;
    ``model`` is ``None`` for single-model traces (every request serves
    the deployment's one network) or a per-request tag tuple for mixes.
    Rows are ordered by ``(arrival_ms, request_id)`` — the replay order
    both engines use — when produced by the in-repo generators;
    :func:`arrays_from_requests` enforces it for arbitrary input.

    A read-only ``Sequence[Request]``: ``trace[k]`` (negative ``k``
    too) builds row ``k`` as a ``Request``, a slice returns the sliced
    columns, iteration yields the rows, and ``==`` holds against any
    sequence holding the same requests (in either direction, so
    ``requests == trace`` works).  The vectorized replay engine consumes
    the columns directly; the scalar engine (and anything else wanting
    a list) goes through :meth:`materialize`.  Rows are built with the
    same ``float()``/``int()`` conversions wherever they come from.
    """

    arrival_ms: np.ndarray              # float64, nondecreasing
    request_id: np.ndarray              # int64, unique within the trace
    priority: np.ndarray                # int64
    model: Optional[Tuple[str, ...]] = None

    __hash__ = None                     # mutable columns, list-like ==

    def __post_init__(self):
        n = self.arrival_ms.shape[0]
        if self.request_id.shape[0] != n or self.priority.shape[0] != n:
            raise ValueError("trace columns must share one length")
        if self.model is not None and len(self.model) != n:
            raise ValueError("model column must match the trace length")

    def __len__(self) -> int:
        return int(self.arrival_ms.shape[0])

    def __getitem__(self, key):
        if isinstance(key, slice):
            return TraceArrays(
                arrival_ms=self.arrival_ms[key],
                request_id=self.request_id[key],
                priority=self.priority[key],
                model=self.model[key] if self.model is not None else None)
        n = len(self)
        k = operator.index(key)
        if k < 0:
            k += n
        if not 0 <= k < n:
            raise IndexError("trace index out of range")
        return Request(request_id=int(self.request_id[k]),
                       arrival_ms=float(self.arrival_ms[k]),
                       priority=int(self.priority[k]),
                       model=self.model[k] if self.model is not None else "")

    def __iter__(self) -> Iterator[Request]:
        models = self.model if self.model is not None \
            else ("",) * len(self)
        return map(Request, self.request_id.tolist(),
                   self.arrival_ms.tolist(), self.priority.tolist(), models)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SequenceABC):
            return NotImplemented
        return len(self) == len(other) \
            and all(map(operator.eq, self, other))

    def materialize(self) -> List[Request]:
        """The trace as a ``Request`` list (what iteration yields)."""
        return list(self)


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
                    start_ms: float = 0.0) -> TraceArrays:
    """Poisson arrival trace at an offered load of ``rate_rps`` req/s.

    ``priority_levels > 1`` draws each request's priority uniformly from
    ``0..priority_levels-1`` (higher is more urgent).  Returns the
    column trace of :func:`synthetic_trace_arrays`; call
    :meth:`TraceArrays.materialize` for a ``Request`` list.
    """
    return synthetic_trace_arrays(
        num_requests, rate_rps, seed=seed,
        priority_levels=priority_levels, start_ms=start_ms)


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
