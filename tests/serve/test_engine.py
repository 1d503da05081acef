"""Tests for the serving engine event loop (repro.serve.engine)."""

import time

import pytest

import repro.serve.engine as engine_module
import repro.serve.vectorized as vectorized_module

from repro.core.designer import build_deployments, uniform_assignment
from repro.core.export import export_deployments, write_manifest
from repro.models.specs import resnet18_spec
from repro.pim.config import DEFAULT_CONFIG
from repro.pim.simulator import simulate_network
from repro.serve.cache import DeploymentCache
from repro.serve.engine import ServingConfig, ServingEngine
from repro.serve.scheduler import MicroBatchScheduler, SchedulerConfig
from repro.serve.trace import Request, synthetic_trace


@pytest.fixture(scope="module")
def report():
    spec = resnet18_spec()
    deployments = build_deployments(spec, uniform_assignment(spec),
                                    weight_bits=9, activation_bits=9,
                                    use_wrapping=True)
    return simulate_network(deployments)


def make_engine(report, num_chips=2, **sched_kwargs):
    return ServingEngine(report, ServingConfig(
        num_chips=num_chips,
        scheduler=SchedulerConfig(**sched_kwargs)))


class TestConstruction:
    def test_from_spec_by_name(self):
        engine = ServingEngine.from_spec("resnet18",
                                         ServingConfig(num_chips=2))
        assert engine.plan.num_chips == 2
        assert len(engine.executors) == engine.plan.num_replicas

    def test_from_manifest_path(self, report, tmp_path):
        spec = resnet18_spec()
        deployments = build_deployments(spec, uniform_assignment(spec),
                                        weight_bits=9, activation_bits=9,
                                        use_wrapping=True)
        manifest = export_deployments(deployments, DEFAULT_CONFIG, name="resnet18")
        path = tmp_path / "m.json"
        write_manifest(manifest, path)
        engine = ServingEngine.from_manifest(path,
                                             ServingConfig(num_chips=2))
        assert engine.report.latency_ms == pytest.approx(report.latency_ms)

    def test_from_spec_uses_cache(self):
        cache = DeploymentCache(capacity=4)
        ServingEngine.from_spec("resnet18", cache=cache)
        ServingEngine.from_spec("resnet18", cache=cache)
        assert cache.stats["hits"] == 1
        assert cache.stats["misses"] == 1

    def test_describe_renders(self, report):
        text = make_engine(report).describe()
        assert "deployment" in text and "scheduler" in text

    def test_over_capacity_plan_warns(self):
        # resnet50-epim needs 2 default chips; forcing 1 must warn
        with pytest.warns(UserWarning, match="chip capacity"):
            ServingEngine.from_spec("resnet50", ServingConfig(num_chips=1))


class TestServing:
    def test_completes_full_500_request_trace(self, report):
        engine = make_engine(report, num_chips=2)
        trace = synthetic_trace(500, rate_rps=0.7 * engine.plan.throughput_fps,
                                seed=0)
        telemetry = engine.serve(trace)
        assert telemetry.num_completed == 500
        assert telemetry.num_rejected == 0
        pct = telemetry.latency_percentiles()
        assert pct["p50"] <= pct["p95"] <= pct["p99"]
        # every request takes at least the pipeline fill latency
        assert pct["p50"] >= engine.plan.per_image_latency_ms
        utils = telemetry.chip_utilization()
        assert len(utils) == 2
        assert all(0.0 < u <= 1.0 for u in utils.values())

    def test_empty_trace(self, report):
        telemetry = make_engine(report).serve([])
        assert telemetry.num_completed == 0

    def test_latency_bounded_under_light_load(self, report):
        engine = make_engine(report, num_chips=1, window_ms=1.0)
        # one request every 100ms: no queueing, latency ~= fill + window
        trace = [Request(request_id=i, arrival_ms=100.0 * (i + 1))
                 for i in range(20)]
        telemetry = engine.serve(trace)
        assert telemetry.num_completed == 20
        bound = engine.plan.per_image_latency_ms + 1.0 + 1e-6
        assert telemetry.latency_percentile(99.0) <= bound

    def test_more_chips_cut_latency_under_overload(self, report):
        trace = synthetic_trace(300, rate_rps=400.0, seed=1)
        p99 = {}
        for chips in (1, 2):
            telemetry = make_engine(report, num_chips=chips).serve(trace)
            assert telemetry.num_completed == 300
            p99[chips] = telemetry.latency_percentile(99.0)
        assert p99[2] < p99[1]

    def test_overload_sheds_into_bounded_queue(self, report):
        engine = make_engine(report, num_chips=1, queue_depth=16,
                             max_batch_size=4)
        # far beyond capacity: queue must cap and shed
        trace = synthetic_trace(400, rate_rps=5000.0, seed=2)
        telemetry = engine.serve(trace)
        assert telemetry.num_rejected > 0
        assert telemetry.num_completed + telemetry.num_rejected == 400
        assert telemetry.max_queue_depth() <= 16

    def test_batching_amortizes_under_load(self, report):
        engine = make_engine(report, num_chips=1, max_batch_size=8,
                             window_ms=10.0)
        trace = synthetic_trace(300, rate_rps=engine.plan.throughput_fps,
                                seed=3)
        telemetry = engine.serve(trace)
        assert telemetry.mean_batch_size() > 1.0

    def test_throughput_approaches_plan_under_saturation(self, report):
        engine = make_engine(report, num_chips=2, max_batch_size=16,
                             window_ms=5.0, queue_depth=64)
        # offered load 3x capacity; achieved should approach plan capacity
        trace = synthetic_trace(600,
                                rate_rps=3.0 * engine.plan.throughput_fps,
                                seed=4)
        telemetry = engine.serve(trace)
        achieved = telemetry.throughput_fps()
        assert achieved == pytest.approx(engine.plan.throughput_fps,
                                         rel=0.25)

    def test_priority_requests_jump_queue(self, report):
        engine = ServingEngine(report, ServingConfig(
            num_chips=1,
            scheduler=SchedulerConfig(max_batch_size=4, window_ms=2.0,
                                      queue_depth=512, policy="priority")))
        trace = synthetic_trace(300, rate_rps=500.0, seed=5,
                                priority_levels=2)
        telemetry = engine.serve(trace)
        by_priority = {0: [], 1: []}
        for rec in telemetry.records:
            by_priority[rec.priority].append(rec.latency_ms)
        assert by_priority[0] and by_priority[1]
        def mean(xs):
            return sum(xs) / len(xs)
        assert mean(by_priority[1]) < mean(by_priority[0])


class TestStalledReplay:
    """Queued work with no pending event is a scheduling bug: both
    engines raise at once instead of stepping the clock by ``_EPS``
    without bound.  Each test drops a real candidate to force the
    state; the call guards turn a regression into a failure, not a
    hang."""

    GUARD = 100_000

    def test_scalar_loop_raises(self, report, monkeypatch):
        calls = []

        class LosesWindow(MicroBatchScheduler):
            def next_timeout_ms(self):
                calls.append(None)
                assert len(calls) < TestStalledReplay.GUARD, "replay spun"
                return None         # drop the window-expiry candidate

            def has_ready_batch(self, now_ms):
                return len(self) >= self.config.max_batch_size or (
                    len(self) > 0
                    and now_ms >= super().next_timeout_ms())

        monkeypatch.setattr(engine_module, "MicroBatchScheduler",
                            LosesWindow)
        engine = make_engine(report, num_chips=2, max_batch_size=8)
        trace = synthetic_trace(
            203, rate_rps=0.3 * engine.plan.throughput_fps, seed=1)
        start = time.perf_counter()
        with pytest.raises(RuntimeError,
                           match=r"replay stalled: \d+ request\(s\) "
                                 r"queued at t=.* \(trace cursor 203 of "
                                 r"203\)"):
            engine.serve(trace, engine="scalar")
        assert time.perf_counter() - start < 5.0

    def test_vectorized_pass_raises(self, report, monkeypatch):
        close = vectorized_module._FaultSchedule.close_segment
        calls = []

        def drop_candidates(self, st, lim, nxt):
            calls.append(None)
            assert len(calls) < TestStalledReplay.GUARD, "replay spun"
            close(self, st, lim, nxt)
            return vectorized_module._INF

        monkeypatch.setattr(vectorized_module._FaultSchedule,
                            "close_segment", drop_candidates)
        engine = make_engine(report, num_chips=2)
        trace = synthetic_trace(
            400, rate_rps=0.9 * engine.plan.throughput_fps, seed=2)
        start = time.perf_counter()
        with pytest.raises(RuntimeError,
                           match=r"replay stalled: \d+ request\(s\) "
                                 r"queued at t=.* \(trace cursor \d+ of "
                                 r"400\)"):
            engine.serve(trace, engine="vectorized",
                         faults="cache-wipe@t=0.5")
        assert time.perf_counter() - start < 5.0
