"""Shared multiprocess fan-out for the search engine.

One helper serves both process-parallel call sites — the evolve loop's
restart fan-out and the candidate-grid build's simulation sharding — with
two guarantees the callers rely on:

- **order preservation**: results come back in payload order regardless
  of which worker finished first, so downstream reductions (restart-winner
  selection, grid assembly) are bit-for-bit identical to a serial run;
- **counter repatriation**: each task's :class:`~repro.pim.simulator.
  SimCounters` delta is measured inside the worker and merged back into
  the parent's process-global counters, so benchmark ``work`` fields stay
  truthful when the simulation work happens in child processes (they were
  silently dropped before this helper existed).

Platforms that refuse to fork (sandboxes, restricted containers) degrade
to serial execution with a warning — never a behaviour change.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Sequence

from ..pim.simulator import sim_counters

__all__ = ["ENV_FORCE_WORKERS", "effective_workers", "parallel_map"]

# Set to any non-empty value to bypass the cpu_count cap (tests use this to
# exercise the pool path on single-core machines, where it is otherwise
# skipped because a process pool can only add overhead there).
ENV_FORCE_WORKERS = "REPRO_SEARCH_FORCE_WORKERS"


def effective_workers(requested: int, tasks: int,
                      min_tasks_per_worker: int = 1) -> int:
    """Workers actually worth spawning for ``tasks`` payloads.

    Capped at the machine's CPU count (a pool on a single-core host can
    only lose), at the task count, and so that every worker gets at
    least ``min_tasks_per_worker`` tasks — cheap tasks must pay for the
    pool's start-up, so too little work per worker runs serially.
    ``REPRO_SEARCH_FORCE_WORKERS`` bypasses the CPU cap and the
    minimum-work rule.
    """
    if requested <= 1 or tasks <= 1:
        return 1
    if os.environ.get(ENV_FORCE_WORKERS):
        return max(1, min(requested, tasks))
    cap = min(os.cpu_count() or 1, tasks // max(1, min_tasks_per_worker))
    return max(1, min(requested, cap, tasks))


def _counted_task(args):
    """Run one task in a worker, returning (result, counter delta).

    The before/after snapshot makes the delta correct under both fork
    (children inherit the parent's non-zero counters) and spawn (children
    start from zero) start methods, and under many tasks per worker.
    """
    task, payload = args
    before = sim_counters().as_dict()
    result = task(payload)
    after = sim_counters().as_dict()
    return result, {key: after[key] - before[key] for key in after}


def parallel_map(task: Callable, payloads: Sequence, workers: int,
                 chunksize: int = 1) -> List:
    """Map ``task`` over ``payloads``, optionally across processes.

    Results preserve payload order.  Worker simulation-counter deltas are
    merged back into the parent.  Falls back to serial execution (and
    plain in-process counting) when the pool cannot be created or
    :func:`effective_workers` says parallelism cannot pay.
    """
    n = effective_workers(workers, len(payloads))
    if n > 1:
        try:
            with ProcessPoolExecutor(max_workers=n) as pool:
                pairs = list(pool.map(_counted_task,
                                      [(task, payload) for payload in payloads],
                                      chunksize=max(1, chunksize)))
        except (OSError, PermissionError) as exc:
            warnings.warn(f"process pool unavailable ({exc}); running "
                          "tasks serially", stacklevel=3)
        else:
            counters = sim_counters()
            for _, delta in pairs:
                counters.merge(delta)
            return [result for result, _ in pairs]
    return [task(payload) for payload in payloads]
