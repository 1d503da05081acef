"""Differential engine-equivalence harness (scalar vs vectorized replay).

The scalar event loop in :mod:`repro.serve.engine` is the permanent
oracle: every float it produces came out of per-request discrete-event
execution, reviewed line by line against the scheduler and executor
contracts.  The vectorized engine (:mod:`repro.serve.vectorized`)
promises *byte-identical* summaries — not "close", identical — so the
check here is ``json.dumps`` equality of the full ``summary()`` dict,
which freezes every percentile, utilization figure, and counter at
once.

Coverage is five-pronged:

- the scenario catalog x seeds {3, 7, 11} (the exact matrix the CI
  ``engine-equivalence`` job replays through the CLI), against golden
  summary fixtures under ``tests/baselines/serve_summaries/``
  (refresh with ``pytest --update-goldens``);
- config edge cases the event loop is touchy about: zero batching
  window, batch size one, a shedding-depth queue, single- and
  four-chip fleets (the 1/2-executor fast path and the generic path);
- property tests over hundreds of randomly drawn traces and scheduler
  configs, because hand-picked cases never find the boundary where two
  implementations disagree;
- fault plans: the catalog matrix again under a straggler + chip kill +
  cache wipe plan, hand-picked failover edges, and randomly drawn fault
  plans — each compared beyond ``summary()``: records, queue samples,
  batch sizes, the rejected / failed / retried lists, fault events and
  the executors' final state;
- the resilience runtime (admission, retry budgets, breakers,
  brownout): the catalog on the chaos fleet with and without the chaos
  plan, against armed golden summaries, hand-picked controller edges,
  and randomly drawn resilience configs x fault plans — compared on
  the same observables plus the resilience transition events, the
  run's resilience stats, exported spans and metrics.

The armed-mode tests pin the fallback contract: a non-FIFO policy must
*never* silently change results — ``auto`` falls back to the scalar
loop (and says why), and asking for ``vectorized`` explicitly is a hard
error.  Fault plans and the resilience runtime replay vectorized.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.designer import build_deployments, uniform_assignment
from repro.models.specs import resnet18_spec
from repro.obs.export import prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.pim.simulator import simulate_network
from repro.obs.tracer import Tracer
from repro.serve.engine import ENGINES, ServingConfig, ServingEngine
from repro.serve.resilience import (
    AdmissionPolicy,
    BreakerPolicy,
    BrownoutPolicy,
    ResilienceConfig,
    RetryPolicy,
)
from repro.serve.resilience.chaos import build_chaos_fleets
from repro.serve.scenarios import get_scenario, list_scenarios
from repro.serve.scheduler import SchedulerConfig
from repro.serve.trace import (
    Request,
    TraceArrays,
    arrays_from_requests,
    synthetic_trace_arrays,
)

CATALOG = sorted(list_scenarios())
SEEDS = [3, 7, 11]
GOLDEN_DIR = Path(__file__).resolve().parent.parent / "baselines" / \
    "serve_summaries"


@pytest.fixture(scope="module")
def report():
    spec = resnet18_spec()
    deployments = build_deployments(spec, uniform_assignment(spec),
                                    weight_bits=9, activation_bits=9,
                                    use_wrapping=True)
    return simulate_network(deployments)


@pytest.fixture(scope="module")
def chaos_fleet():
    """The chaos drill's armed fleet: ResNet-50 latency-opt on 6 chips
    (2 replica groups of 3) with the energy-opt brownout plan."""
    return build_chaos_fleets()["resilience-on"]


# The chaos plan on the chaos fleet: chip 3 heads the second replica.
ARMED_CHAOS_PLAN = ("straggler@t=0.2:chip=0:factor=3:until=0.3,"
                    "chip-kill@t=0.55:chip=3,cache-wipe@t=0.8")


def armed_trace(engine, name, seed, n=2000, load=0.9):
    return get_scenario(name).to_trace_arrays(
        n, rate_rps=load * engine.plan.throughput_fps, seed=seed)


def make_engine(report, num_chips=2, **sched_kwargs):
    return ServingEngine(report, ServingConfig(
        num_chips=num_chips,
        scheduler=SchedulerConfig(**sched_kwargs)))


def summaries(engine, requests, **serve_kwargs):
    """Serve the same trace through both engines; return both summaries.

    Each run gets a private metrics registry so neither pollutes the
    process-global one (and neither sees the other's counters).
    """
    scalar = engine.serve(requests, metrics=MetricsRegistry(),
                          engine="scalar", **serve_kwargs).summary()
    vectorized = engine.serve(requests, metrics=MetricsRegistry(),
                              engine="vectorized", **serve_kwargs).summary()
    return scalar, vectorized


def assert_identical(scalar, vectorized):
    # json round-trip makes "byte-identical" literal: NaN/-0.0/precision
    # differences that == would hide fail the string comparison.
    assert json.dumps(scalar, sort_keys=True) == \
        json.dumps(vectorized, sort_keys=True)


class TestCatalogMatrix:
    """Scenario catalog x seeds {3, 7, 11}: the CI matrix, in-process."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", CATALOG)
    def test_summaries_byte_identical(self, report, name, seed):
        engine = make_engine(report)
        rate = 0.9 * engine.plan.throughput_fps
        trace = get_scenario(name).to_trace_arrays(2000, rate_rps=rate,
                                                   seed=seed)
        scalar, vectorized = summaries(engine, trace)
        assert_identical(scalar, vectorized)
        # the matrix must exercise real work, not degenerate empties
        assert scalar["completed"] > 0

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", CATALOG)
    def test_matches_golden_summary(self, report, name, seed,
                                    update_goldens):
        """Both engines must match the *committed* summary, so a rewrite
        of either one cannot silently move the shared answer."""
        engine = make_engine(report)
        rate = 0.9 * engine.plan.throughput_fps
        trace = get_scenario(name).to_trace_arrays(2000, rate_rps=rate,
                                                   seed=seed)
        scalar, vectorized = summaries(engine, trace)
        assert_identical(scalar, vectorized)
        path = GOLDEN_DIR / f"{name}-seed{seed}.json"
        rendered = json.dumps(scalar, sort_keys=True, indent=2) + "\n"
        if update_goldens:
            path.write_text(rendered)
        assert path.exists(), (
            f"golden fixture {path.name} missing — run "
            f"pytest --update-goldens to create it")
        assert rendered == path.read_text(), (
            f"summary drifted from golden {path.name} — if the change "
            f"is intentional, refresh with pytest --update-goldens")


class TestConfigEdges:
    """The loop boundaries where an array rewrite typically diverges."""

    def _trace(self, engine, load=0.9, n=1500, seed=7, **kwargs):
        return synthetic_trace_arrays(
            n, rate_rps=load * engine.plan.throughput_fps, seed=seed,
            **kwargs)

    def test_zero_window_dispatches_immediately(self, report):
        engine = make_engine(report, window_ms=0.0)
        assert_identical(*summaries(engine, self._trace(engine)))

    def test_batch_size_one(self, report):
        engine = make_engine(report, max_batch_size=1)
        assert_identical(*summaries(engine, self._trace(engine)))

    def test_shedding_queue_depth(self, report):
        # queue depth below the batch size sheds most of an overload
        engine = make_engine(report, queue_depth=4)
        scalar, vectorized = summaries(engine,
                                       self._trace(engine, load=2.0))
        assert_identical(scalar, vectorized)
        assert scalar["rejected"] > 0

    def test_single_chip_fleet(self, report):
        engine = make_engine(report, num_chips=1)
        assert_identical(*summaries(engine, self._trace(engine)))

    def test_four_chip_fleet_generic_path(self, report):
        # >2 executors leaves the locals-specialized event loop for the
        # generic one; both must agree with the oracle
        engine = make_engine(report, num_chips=4)
        assert len(engine.executors) > 2
        assert_identical(*summaries(engine, self._trace(engine, load=0.95)))

    def test_priority_traces_under_fifo(self, report):
        engine = make_engine(report)
        trace = self._trace(engine, priority_levels=3)
        assert_identical(*summaries(engine, trace))

    def test_empty_trace(self, report):
        engine = make_engine(report)
        assert_identical(*summaries(engine, []))

    def test_simultaneous_arrivals(self, report):
        engine = make_engine(report)
        requests = [Request(request_id=i, arrival_ms=float(5 * (i // 7)))
                    for i in range(140)]
        assert_identical(*summaries(engine, requests))

    def test_object_and_array_input_agree(self, report):
        """serve() accepts Request lists and TraceArrays on both engines;
        all four combinations must land on one summary."""
        engine = make_engine(report)
        arrays = self._trace(engine)
        objects = arrays.materialize()
        results = [
            engine.serve(reqs, metrics=MetricsRegistry(),
                         engine=choice).summary()
            for reqs in (objects, arrays)
            for choice in ("scalar", "vectorized")
        ]
        rendered = {json.dumps(s, sort_keys=True) for s in results}
        assert len(rendered) == 1


class TestRandomTraceProperties:
    """Property tests: ~200+ random traces, no hand-picked structure."""

    N_TRACES = 220

    def test_random_traces_and_configs_agree(self, report):
        rng = np.random.default_rng(20240808)
        checked = 0
        for case in range(self.N_TRACES):
            sched = SchedulerConfig(
                max_batch_size=int(rng.integers(1, 12)),
                window_ms=float(rng.choice([0.0, 0.5, 2.0, 8.0])),
                queue_depth=int(rng.integers(1, 64)))
            engine = ServingEngine(report, ServingConfig(
                num_chips=int(rng.choice([1, 2, 4])), scheduler=sched))
            n = int(rng.integers(1, 160))
            # lognormal gaps: bursts + lulls, far off the Poisson path
            gaps = rng.lognormal(mean=float(rng.uniform(-1.0, 1.5)),
                                 sigma=1.0, size=n)
            arrivals = np.cumsum(gaps) * engine.plan.image_interval_ms
            trace = TraceArrays(
                arrival_ms=np.asarray(arrivals, dtype=np.float64),
                request_id=np.arange(n, dtype=np.int64),
                priority=rng.integers(0, 3, size=n).astype(np.int64))
            scalar, vectorized = summaries(engine, trace)
            assert json.dumps(scalar, sort_keys=True) == \
                json.dumps(vectorized, sort_keys=True), (
                    f"case {case}: scalar and vectorized summaries "
                    f"diverge for seed-derived trace (n={n}, "
                    f"sched={sched})")
            checked += 1
        assert checked == self.N_TRACES

    def test_unsorted_input_is_replayed_in_arrival_order(self, report):
        rng = np.random.default_rng(99)
        engine = make_engine(report)
        n = 300
        arrivals = rng.uniform(0.0, 400.0, size=n)
        trace = TraceArrays(arrival_ms=arrivals.astype(np.float64),
                            request_id=np.arange(n, dtype=np.int64),
                            priority=np.zeros(n, dtype=np.int64))
        assert_identical(*summaries(engine, trace))


CHAOS_PLAN = ("straggler@t=0.2:chip=0:factor=3:until=0.3,"
              "chip-kill@t=0.55:chip=1,cache-wipe@t=0.8")


def run_state(engine, requests, choice, faults, resilience=None):
    """One replay's full observable state, beyond ``summary()``."""
    registry = MetricsRegistry()
    telemetry = engine.serve(requests, metrics=registry, engine=choice,
                             faults=faults, resilience=resilience)
    assert engine.last_engine == choice
    return {
        "summary": json.dumps(telemetry.summary(), sort_keys=True),
        "metrics": prometheus_text(registry),
        "records": telemetry.records,
        "queue_samples": telemetry.queue_samples,
        "batch_sizes": telemetry.batch_sizes,
        "rejected": telemetry.rejected,
        "failed": telemetry.failed,
        "retried": telemetry.retried,
        "fault_events": telemetry.fault_events,
        "resilience_events": telemetry.resilience_events,
        "resilience": telemetry.resilience,
        "executors": [(ex.free_at_ms, ex.alive, ex.pending_stall_ms,
                       ex.straggle_factor, ex.straggle_until_ms)
                      for ex in engine.executors],
    }


def assert_same_faulted_run(engine, requests, faults, label="",
                            resilience=None):
    """Scalar and vectorized replays under ``faults`` (and, when given,
    the ``resilience`` runtime) agree on every observable: summary,
    published metrics, per-request records, queue samples, batch sizes,
    rejected / failed / retried ids, fault events, resilience events and
    stats, and each executor's final free time, liveness and fault
    state."""
    scalar = run_state(engine, requests, "scalar", faults, resilience)
    vectorized = run_state(engine, requests, "vectorized", faults,
                           resilience)
    for key in scalar:
        assert scalar[key] == vectorized[key], (
            f"{label}: engines diverge on {key} under faults {faults!r}"
            f" and resilience {resilience!r}")
    return scalar


class TestFaultedCatalogMatrix:
    """The catalog x seeds matrix again, under the chaos fault plan."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", CATALOG)
    def test_faulted_runs_identical(self, report, name, seed):
        engine = make_engine(report)
        rate = 0.9 * engine.plan.throughput_fps
        trace = get_scenario(name).to_trace_arrays(2000, rate_rps=rate,
                                                   seed=seed)
        state = assert_same_faulted_run(engine, trace, CHAOS_PLAN,
                                        f"{name}-seed{seed}")
        summary = json.loads(state["summary"])
        assert summary["fault_events"] == 3.0
        assert summary["completed"] > 0


class TestFaultEdges:
    """Hand-picked failover boundaries."""

    def _trace(self, engine, n=600, load=0.9, seed=7):
        return synthetic_trace_arrays(
            n, rate_rps=load * engine.plan.throughput_fps, seed=seed)

    def test_total_outage(self, report):
        engine = make_engine(report)
        state = assert_same_faulted_run(
            engine, self._trace(engine),
            "chip-kill@t=0.3:chip=0,chip-kill@t=0.5:chip=1")
        assert state["failed"]
        assert not any(alive for _, alive, *_ in state["executors"])

    def test_single_chip_outage(self, report):
        engine = make_engine(report, num_chips=1)
        assert_same_faulted_run(engine, self._trace(engine),
                                "chip-kill@t=0.4")

    def test_kill_after_last_arrival_with_work_in_flight(self, report):
        engine = make_engine(report, max_batch_size=16, window_ms=8.0)
        trace = self._trace(engine, load=1.5)
        last = float(trace.arrival_ms[-1])
        state = assert_same_faulted_run(
            engine, trace,
            f"chip-kill@t_ms={last + engine.plan.image_interval_ms}:chip=1")
        assert state["retried"] or state["failed"]

    def test_straggler_until_past_the_end(self, report):
        engine = make_engine(report)
        assert_same_faulted_run(engine, self._trace(engine),
                                "straggler@t=0.5:chip=1:factor=4:until=3.0")

    def test_straggler_lapses_on_an_exact_event(self, report):
        # the window closes at an arrival instant: that dispatch already
        # runs healthy (the lapse test is `now >= until_ms`)
        engine = make_engine(report, num_chips=1, window_ms=0.0,
                             max_batch_size=1)
        gap = 4.0 * engine.plan.per_image_latency_ms
        requests = [Request(request_id=i, arrival_ms=gap * i)
                    for i in range(12)]
        state = assert_same_faulted_run(
            engine, requests,
            f"straggler@t_ms={gap * 2}:chip=0:factor=3:"
            f"until_ms={gap * 5}")
        service = [r.service_ms for r in state["records"]]
        assert service[4] > service[5] == pytest.approx(service[0])

    def test_open_ended_straggler(self, report):
        engine = make_engine(report, num_chips=4)
        assert_same_faulted_run(engine, self._trace(engine),
                                "straggler@t=0.1:chip=2:factor=2.5")

    def test_two_wipes_before_any_dispatch(self, report):
        engine = make_engine(report, window_ms=8.0)
        state = assert_same_faulted_run(
            engine, self._trace(engine),
            "cache-wipe@t=0,cache-wipe@t=0:stall_ms=3")
        # both debts stack onto the first dispatch's fill
        stalls = 20.0 * engine.plan.per_image_latency_ms + 3.0
        assert state["records"][0].service_ms > stalls

    def test_kill_of_dead_and_unowned_chips(self, report):
        engine = make_engine(report)
        state = assert_same_faulted_run(
            engine, self._trace(engine),
            "chip-kill@t=0.3:chip=1,chip-kill@t=0.4:chip=1,"
            "chip-kill@t=0.5:chip=9,straggler@t=0.6:chip=1:factor=2")
        outcomes = [e["outcome"] for e in state["fault_events"]]
        assert sum("no-op" in o for o in outcomes) == 3

    def test_queue_depth_below_batch_size(self, report):
        engine = make_engine(report, queue_depth=3, max_batch_size=8)
        assert_same_faulted_run(engine, self._trace(engine, load=1.4),
                                CHAOS_PLAN)

    def test_four_chip_fleet_generic_path(self, report):
        engine = make_engine(report, num_chips=4)
        assert len(engine.executors) == 4
        assert_same_faulted_run(
            engine, self._trace(engine, load=1.2),
            "chip-kill@t=0.2:chip=3,cache-wipe@t=0.4,"
            "straggler@t=0.5:chip=0:factor=3:until=0.7,"
            "chip-kill@t=0.6:chip=0")

    def test_fault_before_first_arrival_and_after_run(self, report):
        engine = make_engine(report)
        trace = self._trace(engine)
        last = float(trace.arrival_ms[-1])
        assert_same_faulted_run(
            engine, trace,
            f"cache-wipe@t_ms=0,chip-kill@t_ms={last + 1e6}:chip=0")

    def test_empty_plan_engages_fault_metrics(self, report):
        from repro.serve.scenarios.faults import FaultPlan

        engine = make_engine(report)
        assert_same_faulted_run(engine, self._trace(engine), FaultPlan())


FAULT_KINDS = ("chip-kill", "straggler", "cache-wipe")


def random_fault_plan(rng, num_chips, interval_ms):
    """A random fault plan spec (None when no event was drawn)."""
    events = []
    windows = {}        # chip -> [(start, end)] straggler windows
    for _ in range(int(rng.integers(0, 5))):
        kind = FAULT_KINDS[int(rng.integers(len(FAULT_KINDS)))]
        # t=0 fires before the first dispatch; fractions past 1 land
        # after the last arrival (drain); chip == num_chips is
        # unowned
        at = 0.0 if rng.random() < 0.1 else float(rng.uniform(0.0, 1.3))
        chip = (num_chips if rng.random() < 0.1
                else int(rng.integers(0, num_chips)))
        if kind == "chip-kill":
            events.append(f"chip-kill@t={at}:chip={chip}")
        elif kind == "straggler":
            until = (at + float(rng.uniform(0.01, 1.5))
                     if rng.random() < 0.8 else None)
            end = until if until is not None else float("inf")
            if any(s < end and at < e
                   for s, e in windows.get(chip, [])):
                continue
            windows.setdefault(chip, []).append((at, end))
            spec = (f"straggler@t={at}:chip={chip}:"
                    f"factor={float(rng.uniform(1.2, 6.0))}")
            events.append(spec if until is None
                          else f"{spec}:until={until}")
        elif rng.random() < 0.5:
            events.append(f"cache-wipe@t={at}")
        else:
            stall = float(rng.uniform(0.01, 20.0)) * interval_ms
            events.append(f"cache-wipe@t={at}:stall_ms={stall}")
    return ",".join(events) if events else None


class TestRandomFaultPlans:
    """Property tests: randomly drawn fault plans over random traces."""

    N_CASES = 120

    def test_random_fault_plans_agree(self, report):
        rng = np.random.default_rng(20241017)
        faulted = 0
        for case in range(self.N_CASES):
            num_chips = int(rng.choice([1, 2, 4]))
            sched = SchedulerConfig(
                max_batch_size=int(rng.integers(1, 12)),
                window_ms=float(rng.choice([0.0, 0.5, 2.0, 8.0])),
                queue_depth=int(rng.integers(1, 64)))
            engine = ServingEngine(report, ServingConfig(
                num_chips=num_chips, scheduler=sched))
            n = int(rng.integers(1, 200))
            gaps = rng.lognormal(mean=float(rng.uniform(-3.0, 0.5)),
                                 sigma=1.0, size=n)
            arrivals = np.cumsum(gaps) * engine.plan.image_interval_ms
            trace = TraceArrays(
                arrival_ms=np.asarray(arrivals, dtype=np.float64),
                request_id=np.arange(n, dtype=np.int64),
                priority=rng.integers(0, 3, size=n).astype(np.int64))
            plan = random_fault_plan(rng, num_chips,
                                     engine.plan.image_interval_ms)
            if plan is None:
                plan = "cache-wipe@t=0.5"
            assert_same_faulted_run(
                engine, trace, plan,
                f"case {case} (n={n}, chips={num_chips}, sched={sched})")
            faulted += 1
        assert faulted == self.N_CASES


class TestArmedCatalogMatrix:
    """The catalog x seeds matrix on the armed chaos fleet, with and
    without the chaos plan."""

    @pytest.mark.parametrize("faults", [None, ARMED_CHAOS_PLAN],
                             ids=["no-faults", "chaos-plan"])
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", CATALOG)
    def test_armed_runs_identical(self, chaos_fleet, name, seed, faults):
        state = assert_same_faulted_run(
            chaos_fleet, armed_trace(chaos_fleet, name, seed), faults,
            f"{name}-seed{seed}", resilience=ResilienceConfig(seed=seed))
        summary = json.loads(state["summary"])
        assert summary["completed"] > 0
        assert summary["resilience_admitted"] > 0

    @pytest.mark.parametrize("name", CATALOG)
    def test_matches_armed_golden_summary(self, chaos_fleet, name,
                                          update_goldens):
        """Both engines match the committed armed summary (generated
        from the scalar oracle before the armed path was vectorized)."""
        trace = armed_trace(chaos_fleet, name, seed=3)
        scalar, vectorized = summaries(chaos_fleet, trace,
                                       faults=ARMED_CHAOS_PLAN,
                                       resilience=ResilienceConfig(seed=3))
        assert_identical(scalar, vectorized)
        path = GOLDEN_DIR / f"armed-{name}-seed3.json"
        rendered = json.dumps(scalar, sort_keys=True, indent=2) + "\n"
        if update_goldens:
            path.write_text(rendered)
        assert path.exists(), (
            f"golden fixture {path.name} missing — run "
            f"pytest --update-goldens to create it")
        assert rendered == path.read_text(), (
            f"armed summary drifted from golden {path.name}")
        assert scalar["resilience_brownout_entries"] > 0
        assert scalar["resilience_breaker_opens"] > 0


class TestArmedEdges:
    """Hand-picked resilience-controller boundaries; each asserts the
    boundary was actually reached, not just that the engines agree."""

    def _trace(self, engine, n=600, load=0.9, seed=7, **kwargs):
        return synthetic_trace_arrays(
            n, rate_rps=load * engine.plan.throughput_fps, seed=seed,
            **kwargs)

    # Admission that never sheds, so the queue itself fills up.
    OPEN_GATE = AdmissionPolicy(target_factor=100.0, rate_headroom=10.0,
                                burst=1000)

    def test_retry_budget_exhausted(self, report):
        engine = make_engine(report, max_batch_size=16, window_ms=8.0)
        state = assert_same_faulted_run(
            engine, self._trace(engine, load=1.5), "chip-kill@t=0.5:chip=1",
            resilience=ResilienceConfig(
                retry=RetryPolicy(budget_fraction=0.005)))
        assert state["resilience"]["retry_exhausted"] > 0
        assert state["failed"]

    def test_due_retry_meets_full_queue(self, report):
        engine = make_engine(report, queue_depth=4, max_batch_size=4)
        state = assert_same_faulted_run(
            engine, self._trace(engine, load=3.0), "chip-kill@t=0.5:chip=1",
            resilience=ResilienceConfig(admission=self.OPEN_GATE))
        requeued = sum(e["requeued"] for e in state["fault_events"])
        # every retry beyond the kill's own grants was a re-grant for a
        # due retry that found the queue full
        assert len(state["retried"]) > requeued > 0

    def test_every_breaker_open_fails_open(self, report):
        engine = make_engine(report)
        state = assert_same_faulted_run(
            engine, self._trace(engine),
            "straggler@t=0.1:chip=0:factor=3:until=0.9,"
            "straggler@t=0.1:chip=1:factor=3:until=0.9",
            resilience=ResilienceConfig())
        assert state["resilience"]["fail_open_batches"] > 0

    def test_breaker_probe_lands_on_open_until(self, report):
        engine = make_engine(report)
        config = ResilienceConfig()
        state = assert_same_faulted_run(
            engine, self._trace(engine, n=1500, load=1.1),
            "straggler@t=0.1:chip=0:factor=3:until=0.8",
            resilience=config)
        cooldown = config.breaker.cooldown_factor * (
            engine.plan.per_image_latency_ms
            + engine.config.scheduler.window_ms)
        starts = sorted({r.start_ms for r in state["records"]
                         if r.chip_ids == engine.executors[0].chip_ids})
        # a probe dispatched at exactly `open_until_ms = now + cooldown`
        on_time = [b for a, b in zip(starts, starts[1:]) if b == a + cooldown]
        assert on_time
        assert state["resilience"]["breaker_probes"] > 0

    def test_brownout_active_at_end_of_run(self, report):
        engine = make_engine(report)
        state = assert_same_faulted_run(
            engine, self._trace(engine, load=1.6), None,
            resilience=ResilienceConfig(admission=self.OPEN_GATE))
        stats = state["resilience"]
        assert stats["brownout_entries"] > stats["brownout_exits"]
        assert stats["brownout_ms"] > 0

    def test_protect_priority_bypass(self, report):
        engine = make_engine(report)
        trace = self._trace(engine, load=2.0, priority_levels=2)
        state = assert_same_faulted_run(engine, trace, None,
                                        resilience=ResilienceConfig())
        priority = dict(zip(trace.request_id.tolist(),
                            trace.priority.tolist()))
        shed = [priority[rid] for rid in state["rejected"]]
        assert shed.count(0) > 0
        assert shed.count(1) == 0       # protected requests bypass

    def test_kill_after_last_arrival_parks_retries(self, report):
        # sparse arrivals, each dispatched at once to replica 0: when
        # the kill fires the trace is drained and the queue empty, and
        # the run must go on until the parked retry is served
        engine = make_engine(report, window_ms=0.0)
        gap = 4.0 * engine.plan.per_image_latency_ms
        requests = [Request(request_id=i, arrival_ms=gap * i)
                    for i in range(5)]
        state = assert_same_faulted_run(
            engine, requests, f"chip-kill@t_ms={gap * 4 + 1.0}:chip=0",
            resilience=ResilienceConfig())
        assert state["retried"] == [4]
        assert [r.request_id for r in state["records"]] == [0, 1, 2, 3, 4]

    def test_total_outage_with_retries_pending(self, report):
        engine = make_engine(report, max_batch_size=16, window_ms=8.0)
        trace = self._trace(engine, load=1.5)
        mid = float(trace.arrival_ms[300])
        # the second kill lands inside the first kill's retry backoff
        state = assert_same_faulted_run(
            engine, trace,
            f"chip-kill@t_ms={mid}:chip=0,chip-kill@t_ms={mid + 0.5}:chip=1",
            resilience=ResilienceConfig())
        assert state["retried"]
        assert set(state["retried"]) <= set(state["failed"])

    @pytest.mark.parametrize("num_chips, faults", [
        (1, "straggler@t=0.2:chip=0:factor=3:until=0.4,cache-wipe@t=0.5,"
            "chip-kill@t=0.8:chip=0"),
        (2, "straggler@t=0.2:chip=0:factor=3:until=0.3,"
            "chip-kill@t=0.55:chip=1,cache-wipe@t=0.8"),
        (4, "straggler@t=0.1:chip=0:factor=4:until=0.6,"
            "chip-kill@t=0.3:chip=3,cache-wipe@t=0.4,"
            "chip-kill@t=0.7:chip=1"),
    ], ids=["1-chip", "2-chip", "4-chip"])
    def test_fleet_sizes(self, report, num_chips, faults):
        engine = make_engine(report, num_chips=num_chips)
        assert len(engine.executors) == num_chips
        assert_same_faulted_run(engine, self._trace(engine, load=1.2),
                                faults, resilience=ResilienceConfig())


class TestRandomArmedPlans:
    """Property tests: random resilience configs x fault plans x
    traces."""

    N_CASES = 120

    def _config(self, rng):
        enter = float(rng.uniform(1.0, 8.0))
        base = float(rng.uniform(0.1, 4.0))
        return ResilienceConfig(
            admission=AdmissionPolicy(
                target_factor=float(rng.uniform(0.2, 6.0)),
                interval_factor=float(rng.uniform(0.2, 8.0)),
                rate_headroom=float(rng.uniform(0.3, 2.0)),
                burst=int(rng.integers(1, 64)),
                protect_priority=int(rng.integers(0, 4))),
            retry=RetryPolicy(
                budget_fraction=float(rng.uniform(0.01, 1.0)),
                max_attempts=int(rng.integers(1, 5)),
                base_factor=base,
                cap_factor=base * float(rng.uniform(1.0, 16.0)),
                jitter=float(rng.uniform(0.0, 1.0))),
            breaker=BreakerPolicy(
                slow_factor=float(rng.uniform(1.1, 4.0)),
                trip_after=int(rng.integers(1, 4)),
                cooldown_factor=float(rng.uniform(0.2, 16.0))),
            brownout=BrownoutPolicy(
                enter_factor=enter,
                exit_factor=enter * float(rng.uniform(0.0, 0.9)),
                enter_hold_factor=float(rng.uniform(0.0, 4.0)),
                exit_hold_factor=float(rng.uniform(0.0, 8.0)),
                interval_scale=float(rng.uniform(0.4, 1.5)),
                fill_scale=float(rng.uniform(0.6, 2.0))),
            seed=int(rng.integers(0, 1000)))

    def test_random_armed_plans_agree(self, report):
        rng = np.random.default_rng(20261017)
        armed = 0
        for case in range(self.N_CASES):
            num_chips = int(rng.choice([1, 2, 4]))
            sched = SchedulerConfig(
                max_batch_size=int(rng.integers(1, 12)),
                window_ms=float(rng.choice([0.0, 0.5, 2.0, 8.0])),
                queue_depth=int(rng.integers(1, 64)))
            engine = ServingEngine(report, ServingConfig(
                num_chips=num_chips, scheduler=sched))
            n = int(rng.integers(1, 200))
            gaps = rng.lognormal(mean=float(rng.uniform(-3.0, 0.5)),
                                 sigma=1.0, size=n)
            arrivals = np.cumsum(gaps) * engine.plan.image_interval_ms
            trace = TraceArrays(
                arrival_ms=np.asarray(arrivals, dtype=np.float64),
                request_id=np.arange(n, dtype=np.int64),
                priority=rng.integers(0, 3, size=n).astype(np.int64))
            plan = random_fault_plan(rng, num_chips,
                                     engine.plan.image_interval_ms)
            config = self._config(rng)
            assert_same_faulted_run(
                engine, trace, plan,
                f"case {case} (n={n}, chips={num_chips}, sched={sched})",
                resilience=config)
            armed += 1
        assert armed == self.N_CASES


class TestArmedObservability:
    """An armed run exports the same spans and metrics from both
    engines, and the vectorized artifacts validate."""

    def _run(self, engine, choice):
        tracer, registry = Tracer(), MetricsRegistry()
        engine.serve(armed_trace(engine, "flash-crowd", seed=3, n=1500),
                     tracer=tracer, metrics=registry, engine=choice,
                     faults=ARMED_CHAOS_PLAN,
                     resilience=ResilienceConfig(seed=3))
        assert engine.last_engine == choice
        return tracer, registry

    def test_spans_and_resilience_metrics_match(self, chaos_fleet):
        scalar_tracer, scalar_metrics = self._run(chaos_fleet, "scalar")
        vec_tracer, vec_metrics = self._run(chaos_fleet, "vectorized")
        assert scalar_tracer.to_chrome_trace() == \
            vec_tracer.to_chrome_trace()
        names = {span.name for span in vec_tracer.spans}
        assert {"breaker", "brownout", "failover"} <= names
        scalar_text = prometheus_text(scalar_metrics)
        vec_text = prometheus_text(vec_metrics)
        assert "serve_resilience_admitted" in vec_text
        assert scalar_text == vec_text

    def test_obs_validate_accepts_vectorized_armed_artifacts(
            self, chaos_fleet, tmp_path, capsys):
        from repro.analysis.cli import main

        tracer, registry = self._run(chaos_fleet, "vectorized")
        trace_path = tracer.write_chrome_trace(tmp_path / "armed.json")
        metrics_path = tmp_path / "armed.prom"
        metrics_path.write_text(prometheus_text(registry))
        assert main(["obs", "validate", str(trace_path),
                     str(metrics_path)]) == 0
        out = capsys.readouterr().out
        assert "ok (chrome-trace)" in out and "ok (prometheus)" in out


class TestArmedModeFallback:
    """Faults / resilience / non-FIFO must never silently change results."""

    def _trace(self, engine, n=400, seed=5):
        return synthetic_trace_arrays(
            n, rate_rps=0.8 * engine.plan.throughput_fps, seed=seed)

    def test_auto_runs_vectorized_when_unarmed(self, report):
        engine = make_engine(report)
        engine.serve(self._trace(engine), metrics=MetricsRegistry())
        assert engine.last_engine == "vectorized"
        assert engine.engine_fallback_reason is None

    def test_auto_with_faults_runs_vectorized(self, report):
        """auto + faults replays vectorized and matches scalar byte for
        byte."""
        engine = make_engine(report)
        trace = self._trace(engine)
        auto = engine.serve(trace, metrics=MetricsRegistry(),
                            faults="chip-kill@t=0.5").summary()
        assert engine.last_engine == "vectorized"
        assert engine.engine_fallback_reason is None
        scalar = engine.serve(trace, metrics=MetricsRegistry(),
                              faults="chip-kill@t=0.5",
                              engine="scalar").summary()
        assert json.dumps(auto, sort_keys=True) == \
            json.dumps(scalar, sort_keys=True)

    def test_auto_with_resilience_runs_vectorized(self, report):
        """auto + resilience replays vectorized and matches scalar byte
        for byte."""
        engine = make_engine(report)
        trace = self._trace(engine)
        auto = engine.serve(trace, metrics=MetricsRegistry(),
                            resilience=ResilienceConfig()).summary()
        assert engine.last_engine == "vectorized"
        assert engine.engine_fallback_reason is None
        scalar = engine.serve(trace, metrics=MetricsRegistry(),
                              resilience=ResilienceConfig(),
                              engine="scalar").summary()
        assert json.dumps(auto, sort_keys=True) == \
            json.dumps(scalar, sort_keys=True)

    def test_auto_with_priority_policy_falls_back(self, report):
        engine = make_engine(report, policy="priority")
        engine.serve(self._trace(engine), metrics=MetricsRegistry())
        assert engine.last_engine == "scalar"
        assert "policy" in engine.engine_fallback_reason

    def test_vectorized_faults_resilience_raises(self, report):
        """Explicit vectorized + faults + resilience runs under FIFO; the
        priority policy is what makes the same request a hard error."""
        engine = make_engine(report)
        engine.serve(self._trace(engine), metrics=MetricsRegistry(),
                     faults="chip-kill@t=0.5",
                     resilience=ResilienceConfig(), engine="vectorized")
        assert engine.last_engine == "vectorized"
        engine = make_engine(report, policy="priority")
        with pytest.raises(ValueError, match="policy"):
            engine.serve(self._trace(engine), metrics=MetricsRegistry(),
                         faults="chip-kill@t=0.5",
                         resilience=ResilienceConfig(),
                         engine="vectorized")

    def test_explicit_vectorized_with_priority_policy_raises(self, report):
        engine = make_engine(report, policy="priority")
        with pytest.raises(ValueError, match="vectorized engine"):
            engine.serve(self._trace(engine), metrics=MetricsRegistry(),
                         engine="vectorized")

    def test_fallback_reason_lands_in_describe(self, report):
        engine = make_engine(report, policy="priority")
        engine.serve(self._trace(engine), metrics=MetricsRegistry(),
                     resilience=ResilienceConfig())
        text = engine.describe()
        assert "engine: auto" in text
        assert "fallback" in text and "policy" in text

    @pytest.mark.parametrize("armed", [False, True],
                             ids=["disarmed", "armed"])
    def test_auto_runs_vectorized_across_chaos_catalog(
            self, chaos_fleet, armed):
        """Every catalog scenario under the chaos plan, armed and
        disarmed, replays vectorized under FIFO with no fallback."""
        for name in CATALOG:
            chaos_fleet.serve(
                armed_trace(chaos_fleet, name, seed=3, n=300),
                metrics=MetricsRegistry(), faults=ARMED_CHAOS_PLAN,
                resilience=ResilienceConfig(seed=3) if armed else None)
            assert chaos_fleet.last_engine == "vectorized", name
            assert chaos_fleet.engine_fallback_reason is None, name

    def test_unknown_engine_rejected(self, report):
        engine = make_engine(report)
        with pytest.raises(ValueError, match="engine"):
            engine.serve(self._trace(engine), metrics=MetricsRegistry(),
                         engine="simd")
        with pytest.raises(ValueError):
            ServingConfig(engine="turbo")
        assert set(ENGINES) == {"auto", "scalar", "vectorized"}


class TestObservableStateParity:
    """Beyond summary(): the engine-visible side state must agree too."""

    def test_executor_free_times_match(self, report):
        engine = make_engine(report)
        trace = synthetic_trace_arrays(
            600, rate_rps=0.9 * engine.plan.throughput_fps, seed=13)
        engine.serve(trace, metrics=MetricsRegistry(), engine="scalar")
        scalar_free = [ex.free_at_ms for ex in engine.executors]
        engine.serve(trace, metrics=MetricsRegistry(), engine="vectorized")
        vec_free = [ex.free_at_ms for ex in engine.executors]
        assert scalar_free == vec_free

    def test_per_record_fields_match(self, report):
        """The lazily materialized records equal the scalar ones field
        for field (the columns are not a lossy projection)."""
        engine = make_engine(report)
        trace = arrays_from_requests([
            Request(request_id=i, arrival_ms=float(i) * 3.0,
                    priority=i % 2, model="resnet18")
            for i in range(90)])
        scalar = engine.serve(trace, metrics=MetricsRegistry(),
                              engine="scalar")
        vectorized = engine.serve(trace, metrics=MetricsRegistry(),
                                  engine="vectorized")
        assert scalar.records == vectorized.records
        assert scalar.queue_samples == vectorized.queue_samples
        assert scalar.batch_sizes == vectorized.batch_sizes
