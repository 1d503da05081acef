"""Tests for request traces (repro.serve.trace)."""

from collections.abc import Sequence

import numpy as np
import pytest

import repro.serve.trace as trace_module
import repro.serve.vectorized as vectorized_module
from repro.obs.metrics import MetricsRegistry
from repro.serve.engine import ServingConfig, ServingEngine
from repro.serve.resilience import ResilienceConfig
from repro.serve.scenarios import get_scenario
from repro.serve.scheduler import SchedulerConfig
from repro.serve.trace import (
    Request,
    TraceArrays,
    arrays_from_requests,
    load_trace,
    save_trace,
    synthetic_trace,
    synthetic_trace_arrays,
)


class TestSyntheticTrace:
    def test_length_and_monotone_arrivals(self):
        trace = synthetic_trace(200, rate_rps=100.0, seed=1)
        assert len(trace) == 200
        arrivals = [r.arrival_ms for r in trace]
        assert arrivals == sorted(arrivals)
        assert all(a > 0 for a in arrivals)

    def test_rate_controls_span(self):
        fast = synthetic_trace(500, rate_rps=1000.0, seed=0)
        slow = synthetic_trace(500, rate_rps=10.0, seed=0)
        assert fast[-1].arrival_ms < slow[-1].arrival_ms
        # mean inter-arrival approximates 1000/rate ms
        mean_gap = slow[-1].arrival_ms / 500
        assert mean_gap == pytest.approx(100.0, rel=0.2)

    def test_deterministic_by_seed(self):
        assert synthetic_trace(50, 100.0, seed=3) == \
            synthetic_trace(50, 100.0, seed=3)
        assert synthetic_trace(50, 100.0, seed=3) != \
            synthetic_trace(50, 100.0, seed=4)

    def test_priority_levels(self):
        flat = synthetic_trace(50, 100.0, seed=0)
        assert all(r.priority == 0 for r in flat)
        tiered = synthetic_trace(200, 100.0, seed=0, priority_levels=3)
        assert {r.priority for r in tiered} == {0, 1, 2}

    def test_validation(self):
        with pytest.raises(ValueError):
            synthetic_trace(0, 100.0)
        with pytest.raises(ValueError):
            synthetic_trace(10, 0.0)
        with pytest.raises(ValueError):
            Request(request_id=0, arrival_ms=-1.0)


class TestTraceRoundTrip:
    def test_save_and_load(self, tmp_path):
        trace = synthetic_trace(100, 200.0, seed=2, priority_levels=2)
        path = tmp_path / "traces" / "t.json"
        save_trace(trace, path)
        assert load_trace(path) == trace


class TestTraceArrays:
    """Property tests for the column-form trace (the vectorized engine's
    input).  The array generator is not a second generator: it must emit
    the same floats as the object path, request for request."""

    @pytest.mark.parametrize("seed", range(12))
    def test_array_and_object_generation_identical(self, seed):
        n = 400
        arrays = synthetic_trace_arrays(n, rate_rps=180.0, seed=seed,
                                        priority_levels=3)
        objects = synthetic_trace(n, rate_rps=180.0, seed=seed,
                                  priority_levels=3)
        assert arrays.materialize() == objects

    @pytest.mark.parametrize("seed", range(8))
    def test_arrivals_monotone_and_positive(self, seed):
        arrays = synthetic_trace_arrays(1000, rate_rps=500.0, seed=seed)
        assert np.all(np.diff(arrays.arrival_ms) >= 0)
        assert arrays.arrival_ms[0] > 0
        assert arrays.request_id.tolist() == list(range(1000))

    def test_mean_rate_honest_at_scale(self):
        # the law of large numbers tightens the measured mean rate to
        # ~1/sqrt(n); at n=200k a 1% tolerance has ~9 sigma of slack,
        # so this catches any constant-factor normalization bug without
        # flaking
        n = 200_000
        arrays = synthetic_trace_arrays(n, rate_rps=1000.0, seed=5)
        span_s = (arrays.arrival_ms[-1] - arrays.arrival_ms[0]) / 1000.0
        measured = (n - 1) / span_s
        assert measured == pytest.approx(1000.0, rel=0.01)

    def test_materialize_round_trips_through_arrays(self):
        trace = synthetic_trace(150, 120.0, seed=9, priority_levels=2)
        arrays = arrays_from_requests(trace)
        assert arrays.materialize() == sorted(
            trace, key=lambda r: (r.arrival_ms, r.request_id))
        again = arrays_from_requests(arrays.materialize())
        assert np.array_equal(again.arrival_ms, arrays.arrival_ms)
        assert np.array_equal(again.request_id, arrays.request_id)
        assert np.array_equal(again.priority, arrays.priority)

    def test_model_column_survives(self):
        reqs = [Request(request_id=i, arrival_ms=float(i),
                        model="m{}".format(i % 2)) for i in range(6)]
        arrays = arrays_from_requests(reqs)
        assert arrays.model == ("m0", "m1", "m0", "m1", "m0", "m1")
        assert [r.model for r in arrays.materialize()] == list(arrays.model)

    def test_len_and_validation(self):
        arrays = synthetic_trace_arrays(25, rate_rps=10.0, seed=0)
        assert len(arrays) == 25
        with pytest.raises(ValueError):
            synthetic_trace_arrays(0, 10.0)
        with pytest.raises(ValueError):
            synthetic_trace_arrays(10, 0.0)
        with pytest.raises(ValueError):
            TraceArrays(arrival_ms=np.zeros(3),
                        request_id=np.arange(2, dtype=np.int64),
                        priority=np.zeros(3, dtype=np.int64))


class TestSequenceProtocol:
    """Generated traces are column traces that read as ``Request``
    sequences: every row built on demand equals the materialized one."""

    @pytest.fixture
    def columns(self):
        return get_scenario("multi-model-mix").to_trace(
            60, rate_rps=300.0, seed=4)

    def test_generators_return_columns(self, columns):
        assert isinstance(columns, TraceArrays)
        assert isinstance(synthetic_trace(10, 100.0), TraceArrays)
        assert isinstance(columns, Sequence)

    def test_index_matches_materialize(self, columns):
        rows = columns.materialize()
        assert columns[0] == rows[0]
        assert columns[-1] == rows[-1]
        assert columns[-len(rows)] == rows[0]
        assert columns[np.int64(7)] == rows[7]
        assert isinstance(columns[5].arrival_ms, float)
        assert isinstance(columns[5].request_id, int)
        assert isinstance(columns[5].priority, int)
        assert columns[5].model == rows[5].model != ""

    @pytest.mark.parametrize("k", [60, 1000, -61])
    def test_index_out_of_range(self, columns, k):
        with pytest.raises(IndexError):
            columns[k]

    def test_index_rejects_non_integers(self, columns):
        with pytest.raises(TypeError):
            columns[1.0]

    @pytest.mark.parametrize("key", [slice(2, 9), slice(None, None, -3),
                                     slice(-5, None), slice(40, 10)])
    def test_slices_are_column_traces(self, columns, key):
        part = columns[key]
        assert isinstance(part, TraceArrays)
        assert part == columns.materialize()[key]
        assert len(part) == len(columns.materialize()[key])

    def test_slice_of_single_model_trace(self):
        trace = synthetic_trace(20, 100.0, seed=1)
        assert trace[3:6].model is None
        assert trace[3:6] == trace.materialize()[3:6]

    def test_iteration_is_materialize(self, columns):
        assert list(columns) == columns.materialize()
        assert list(reversed(columns)) == columns.materialize()[::-1]
        assert columns[4] in columns
        assert columns.index(columns[4]) == 4

    def test_equality_both_directions(self, columns):
        rows = columns.materialize()
        assert columns == rows and rows == columns
        assert columns == tuple(rows) and tuple(rows) == columns
        assert not (columns != rows) and not (rows != columns)
        assert columns == columns[:]
        shorter = rows[:-1]
        assert columns != shorter and shorter != columns
        moved = rows[:3] + [Request(request_id=rows[3].request_id,
                                    arrival_ms=rows[3].arrival_ms + 1.0,
                                    priority=rows[3].priority,
                                    model=rows[3].model)] + rows[4:]
        assert columns != moved and moved != columns
        assert columns != columns[1:]
        assert columns != "not a trace" and columns != 3

    def test_model_none_equals_untagged_rows(self):
        trace = synthetic_trace(12, 50.0, seed=2)
        tagged = TraceArrays(arrival_ms=trace.arrival_ms,
                             request_id=trace.request_id,
                             priority=trace.priority,
                             model=("",) * len(trace))
        assert trace == tagged and tagged == trace

    def test_unhashable(self, columns):
        with pytest.raises(TypeError):
            hash(columns)

    def test_read_only(self, columns):
        with pytest.raises(TypeError):
            columns[0] = columns[1]

    def test_save_load_round_trip(self, tmp_path, columns):
        path = tmp_path / "columns.json"
        save_trace(columns, path)
        assert load_trace(path) == columns
        assert columns == load_trace(path)


@pytest.fixture(scope="module")
def resnet18_fleet():
    return ServingEngine.from_spec("resnet18", ServingConfig(
        num_chips=2, scheduler=SchedulerConfig(max_batch_size=8,
                                               window_ms=2.0)))


@pytest.fixture(scope="module")
def resnet18_priority_fleet(resnet18_fleet):
    return ServingEngine(resnet18_fleet.report, ServingConfig(
        num_chips=2, scheduler=SchedulerConfig(max_batch_size=8,
                                               window_ms=2.0,
                                               policy="priority")))


class TestVectorizedReplayKeepsColumns:
    """A vectorized replay of a generated trace never turns the columns
    into objects: no ``materialize``, no ``arrays_from_requests``, no
    whole-trace iteration."""

    @pytest.fixture
    def spied(self, monkeypatch):
        calls = []

        def spy(name):
            def refuse(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"vectorized replay called {name}")
            return refuse

        monkeypatch.setattr(TraceArrays, "materialize",
                            spy("TraceArrays.materialize"))
        monkeypatch.setattr(TraceArrays, "__iter__",
                            spy("TraceArrays.__iter__"))
        monkeypatch.setattr(trace_module, "arrays_from_requests",
                            spy("arrays_from_requests"))
        monkeypatch.setattr(vectorized_module, "arrays_from_requests",
                            spy("arrays_from_requests"))
        return calls

    @pytest.mark.parametrize("leg", ["plain", "faulted", "armed",
                                     "priority"])
    def test_no_objects_built(self, leg, resnet18_fleet,
                              resnet18_priority_fleet, spied):
        engine = (resnet18_priority_fleet if leg == "priority"
                  else resnet18_fleet)
        trace = get_scenario("flash-crowd").to_trace(
            1500, rate_rps=0.9 * engine.plan.throughput_fps, seed=3)
        if leg == "priority":
            trace = synthetic_trace(
                1500, rate_rps=0.9 * engine.plan.throughput_fps, seed=3,
                priority_levels=3)
        faults = (None if leg in ("plain", "priority")
                  else "chip-kill@t=0.55:chip=1,cache-wipe@t=0.8")
        resilience = ResilienceConfig(seed=3) if leg == "armed" else None
        telemetry = engine.serve(trace, engine="vectorized",
                                 metrics=MetricsRegistry(), faults=faults,
                                 resilience=resilience)
        summary = telemetry.summary()
        assert spied == []
        assert summary["completed"] + summary["rejected"] \
            + summary["failed"] == 1500
