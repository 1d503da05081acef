"""Per-run resilience runtime: the object the serve loop actually drives.

:class:`ResilienceRuntime` assembles one run's controllers from a frozen
:class:`~repro.serve.resilience.config.ResilienceConfig` plus the
engine-derived operating facts (service quantum, capacity, offered load,
replica count, attached brownout plan), and owns the mutable state the
event loop touches: the backoff heap of pending retries, the breaker
array, the degraded-mode flag.

Hot-loop discipline: every method the engine calls per event is plain
attribute arithmetic plus at most one heap op; telemetry events are
appended only on state *transitions* (breaker open/close, brownout
enter/exit) and all counters are published in bulk after the run under
``serve.resilience.*`` (see docs/resilience.md).
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from ..trace import Request
from .admission import AdmissionController
from .breaker import CircuitBreaker
from .brownout import BrownoutController
from .config import BrownoutPlan, ResilienceConfig
from .retry import RetryBudget

__all__ = ["ResilienceRuntime"]


class ResilienceRuntime:
    """One serve() call's resilience state (see module docstring)."""

    def __init__(self, config: ResilienceConfig, *, base_ms: float,
                 capacity_fps: float, offered: int, num_replicas: int,
                 brownout_plan: Optional[BrownoutPlan] = None):
        self.config = config
        self.admission = AdmissionController(config.admission, base_ms,
                                             capacity_fps)
        self.retry = RetryBudget(config.retry, offered, base_ms, config.seed)
        self.breakers: Tuple[CircuitBreaker, ...] = tuple(
            CircuitBreaker(config.breaker, base_ms)
            for _ in range(num_replicas))
        self.brownout = BrownoutController(config.brownout, base_ms)
        self.brownout_plan = brownout_plan if brownout_plan is not None \
            else BrownoutPlan(interval_scale=config.brownout.interval_scale,
                              fill_scale=config.brownout.fill_scale,
                              label="fallback-downshift")
        # Mutable hot-loop state.
        self.retry_heap: List[Tuple[float, int, Request]] = []
        self._retry_seq = 0
        self.open_episodes = 0      # replicas in an open breaker episode
        self.degraded = False       # brownout active right now
        self.degraded_completions = 0
        self.fail_open_batches = 0

    # ---- admission ----------------------------------------------------
    def admit(self, now_ms: float, delay_ms: float, priority: int) -> bool:
        return self.admission.admit(now_ms, delay_ms, priority)

    # ---- retries ------------------------------------------------------
    def try_schedule_retry(self, request: Request, now_ms: float) -> bool:
        """Reserve a budget slot and park ``request`` on the backoff
        heap; False (caller fails the request) when the budget says no."""
        attempt = self.retry.try_reserve(request.request_id)
        if attempt == 0:
            return False
        due = now_ms + self.retry.backoff_ms(attempt)
        self._retry_seq += 1
        heapq.heappush(self.retry_heap, (due, self._retry_seq, request))
        return True

    def pop_retry(self) -> Request:
        return heapq.heappop(self.retry_heap)[2]

    # ---- breakers -----------------------------------------------------
    def note_dispatch(self, replica: int, now_ms: float,
                      service_factor: float, telemetry) -> None:
        """Feed a dispatch outcome to the replica's breaker; records a
        telemetry event on open/close episode transitions."""
        delta = self.breakers[replica].on_dispatch(now_ms, service_factor)
        if delta:
            self.note_breaker_transition(replica, delta, now_ms, telemetry)

    def note_breaker_transition(self, replica: int, delta: int,
                                now_ms: float, telemetry) -> None:
        """Apply a non-zero :meth:`CircuitBreaker.on_dispatch` verdict.
        Split out so the engine can feed breakers directly (hot path)
        and only pay for this on actual episode transitions."""
        if delta > 0:
            self.open_episodes += 1
            telemetry.record_resilience({
                "kind": "breaker-open", "at_ms": now_ms,
                "replica": replica})
        else:
            self.open_episodes -= 1
            telemetry.record_resilience({
                "kind": "breaker-close", "at_ms": now_ms,
                "replica": replica})

    # ---- brownout -----------------------------------------------------
    def update_brownout(self, now_ms: float, delay_ms: float,
                        telemetry) -> None:
        transition = self.brownout.update(now_ms, delay_ms)
        if transition:
            self.note_brownout_transition(transition, now_ms, telemetry)

    def note_brownout_transition(self, transition: int, now_ms: float,
                                 telemetry) -> None:
        """Apply a non-zero :meth:`BrownoutController.update` verdict.
        Split out so the engine can drive the controller directly (hot
        path) and only pay for this on actual enter/exit transitions."""
        if transition > 0:
            self.degraded = True
            telemetry.record_resilience({
                "kind": "brownout-enter", "at_ms": now_ms,
                "plan": self.brownout_plan.label})
        else:
            self.degraded = False
            telemetry.record_resilience({
                "kind": "brownout-exit", "at_ms": now_ms,
                "plan": self.brownout_plan.label})

    # ---- end of run ---------------------------------------------------
    def finalize(self, now_ms: float, telemetry) -> None:
        """Close the run's books: settle brownout time accounting and
        attach the stats dict the summary/metrics layers publish."""
        self.brownout.finalize(now_ms)
        telemetry.resilience = self.stats()

    def stats(self) -> dict:
        """Flat float dict: the ``serve.resilience.*`` publication set
        and the ``resilience_*`` telemetry-summary keys."""
        adm = self.admission
        return {
            "admitted": float(adm.admitted),
            "admission_shed": float(adm.shed),
            "shed_queue_delay": float(adm.shed_delay),
            "shed_token_bucket": float(adm.shed_rate),
            "retry_budget": float(self.retry.budget),
            "retries_scheduled": float(self.retry.spent),
            "retry_exhausted": float(self.retry.exhausted),
            "breaker_opens": float(sum(b.opens for b in self.breakers)),
            "breaker_probes": float(sum(b.probes for b in self.breakers)),
            "breaker_closes": float(sum(b.closes for b in self.breakers)),
            "fail_open_batches": float(self.fail_open_batches),
            "brownout_entries": float(self.brownout.entries),
            "brownout_exits": float(self.brownout.exits),
            "brownout_ms": float(self.brownout.degraded_ms),
            "degraded_completions": float(self.degraded_completions),
        }
