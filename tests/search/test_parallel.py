"""The shared process-pool fan-out (repro.search.parallel).

Pins the two guarantees its callers build on: order preservation and
SimCounters repatriation from worker processes (bench ``work`` fields
used to silently under-report when ``workers > 1``).
"""

import numpy as np
import pytest

from repro.models.specs import resnet18_spec
from repro.pim.simulator import (
    baseline_deployment,
    reset_sim_counters,
    sim_counters,
    simulate_layer,
)
from repro.search.parallel import (
    ENV_FORCE_WORKERS,
    effective_workers,
    parallel_map,
)


def square(x):
    return x * x


def simulate_one(layer):
    report = simulate_layer(baseline_deployment(layer, weight_bits=9,
                                                activation_bits=9))
    return report.num_crossbars


class TestEffectiveWorkers:
    def test_serial_requests_stay_serial(self):
        assert effective_workers(1, 100) == 1
        assert effective_workers(0, 100) == 1

    def test_capped_by_tasks(self, monkeypatch):
        monkeypatch.setenv(ENV_FORCE_WORKERS, "1")
        assert effective_workers(8, 3) == 3
        assert effective_workers(8, 1) == 1

    def test_capped_by_cpu_count(self, monkeypatch):
        monkeypatch.delenv(ENV_FORCE_WORKERS, raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        assert effective_workers(8, 100) == 2

    def test_force_env_bypasses_cpu_cap(self, monkeypatch):
        monkeypatch.setenv(ENV_FORCE_WORKERS, "1")
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        assert effective_workers(4, 100) == 4


    def test_minimum_work_per_worker(self, monkeypatch):
        monkeypatch.delenv(ENV_FORCE_WORKERS, raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        assert effective_workers(8, 100, min_tasks_per_worker=500) == 1
        assert effective_workers(8, 1000, min_tasks_per_worker=500) == 2
        assert effective_workers(8, 9000, min_tasks_per_worker=500) == 8

    def test_force_env_bypasses_minimum_work(self, monkeypatch):
        monkeypatch.setenv(ENV_FORCE_WORKERS, "1")
        assert effective_workers(2, 50, min_tasks_per_worker=500) == 2

    def test_small_grid_build_spawns_no_pool(self, monkeypatch):
        """A deduplicated ResNet-18 grid is far below the per-worker
        minimum: asking for workers must not start a pool."""
        from repro.search import MIN_SIMS_PER_WORKER, build_candidate_grid

        def no_pool(*args, **kwargs):
            raise AssertionError("process pool started for a small build")

        monkeypatch.delenv(ENV_FORCE_WORKERS, raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        monkeypatch.setattr("repro.search.parallel.ProcessPoolExecutor",
                            no_pool)
        grid = build_candidate_grid(resnet18_spec(), workers=4,
                                    weight_bits=9, activation_bits=9,
                                    use_wrapping=True)
        assert grid.build_stats.simulated < MIN_SIMS_PER_WORKER


class TestParallelMap:
    def test_serial_path(self):
        assert parallel_map(square, [1, 2, 3], workers=1) == [1, 4, 9]

    def test_pool_preserves_order(self, monkeypatch):
        monkeypatch.setenv(ENV_FORCE_WORKERS, "1")
        payloads = list(range(40))
        assert parallel_map(square, payloads, workers=2, chunksize=7) \
            == [x * x for x in payloads]

    def test_empty_payloads(self):
        assert parallel_map(square, [], workers=4) == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_counters_merged_from_workers(self, monkeypatch, workers):
        """The satellite contract: simulation work done in child
        processes lands in the parent's counters, so serial and parallel
        fan-outs report identical totals."""
        monkeypatch.setenv(ENV_FORCE_WORKERS, "1")
        layers = list(resnet18_spec())[:6]
        reset_sim_counters()
        results = parallel_map(simulate_one, layers, workers=workers)
        counted = sim_counters().as_dict()
        assert counted["layers"] == len(layers)
        assert counted["crossbar_tiles"] == sum(results)
        assert counted["activation_rounds"] > 0

    def test_counter_merge_totals_match_serial(self, monkeypatch):
        monkeypatch.setenv(ENV_FORCE_WORKERS, "1")
        layers = list(resnet18_spec())[:8]
        reset_sim_counters()
        parallel_map(simulate_one, layers, workers=1)
        serial_counts = sim_counters().as_dict()
        reset_sim_counters()
        parallel_map(simulate_one, layers, workers=3, chunksize=2)
        assert sim_counters().as_dict() == serial_counts


class TestSimCountersMerge:
    def test_merge_adds_fields(self):
        counters = reset_sim_counters()
        counters.merge({"layers": 2, "positions": 10,
                        "activation_rounds": 4, "analog_mac_ops": 7,
                        "crossbar_tiles": 3})
        counters.merge({"layers": 1})
        assert counters.as_dict() == {
            "layers": 3, "positions": 10, "activation_rounds": 4,
            "analog_mac_ops": 7, "crossbar_tiles": 3}
        counters.reset()

    def test_merge_ignores_unknown_keys(self):
        counters = reset_sim_counters()
        counters.merge({"layers": 1, "not_a_counter": 99})
        assert counters.layers == 1
        counters.reset()


class TestEvolveFanOutCounters:
    def test_restart_fanout_merges_worker_counters(self, monkeypatch):
        """evolve's restart fan-out routes through parallel_map, so any
        simulation a restart performs in a worker is repatriated."""
        monkeypatch.setenv(ENV_FORCE_WORKERS, "1")
        from repro.search.evolve import _run_restarts
        from repro.search import EvoSearchConfig, build_candidate_grid
        from repro.pim.lut import DEFAULT_LUT

        grid = build_candidate_grid(resnet18_spec(), weight_bits=9,
                                    activation_bits=9)
        configs = [EvoSearchConfig(population_size=8, iterations=2,
                                   restarts=1, seed=s) for s in (0, 1)]
        reset_sim_counters()
        serial = _run_restarts(grid, None, configs, DEFAULT_LUT, workers=1)
        serial_counts = sim_counters().as_dict()
        reset_sim_counters()
        parallel = _run_restarts(grid, None, configs, DEFAULT_LUT, workers=2)
        assert sim_counters().as_dict() == serial_counts
        assert [r.genome for r in serial] == [r.genome for r in parallel]
        assert np.isclose(serial[0].eval.latency_ms,
                          parallel[0].eval.latency_ms)
