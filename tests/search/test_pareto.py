"""Tests for the Pareto multi-objective mode (repro.search.pareto)."""

import hashlib

import numpy as np
import pytest

from repro.search import (
    EvoSearchConfig,
    build_candidate_grid,
    crowding_distance,
    evaluate_assignment,
    evolution_search,
    non_dominated_mask,
    pareto_search,
    select_index,
)
from repro.search.pareto import _dedupe
from repro.models.specs import resnet18_spec


@pytest.fixture(scope="module")
def grid():
    return build_candidate_grid(resnet18_spec(), weight_bits=9,
                                activation_bits=9)


@pytest.fixture(scope="module")
def budget(grid):
    genome = [(1024, 256) if (1024, 256) in grid.candidates[l.name] else None
              for l in grid.spec]
    return evaluate_assignment(grid, genome).crossbars


@pytest.fixture(scope="module")
def front(grid, budget):
    return pareto_search(grid, budget,
                         EvoSearchConfig(population_size=32, iterations=15,
                                         restarts=2, seed=0))


class TestNonDominatedMask:
    def test_simple_cases(self):
        objs = np.array([[1.0, 2.0], [2.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        mask = non_dominated_mask(objs)
        assert mask.tolist() == [True, True, False, False]

    def test_equal_rows_survive_together(self):
        objs = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert non_dominated_mask(objs).tolist() == [True, True]

    def test_single_and_empty(self):
        assert non_dominated_mask(np.array([[1.0, 2.0]])).tolist() == [True]
        assert non_dominated_mask(np.empty((0, 3))).tolist() == []

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_pairwise_reference(self, m, seed):
        # Small-integer values make ties and duplicate rows common.
        rng = np.random.default_rng(seed * 10 + m)
        n = 300 if seed == 0 else int(rng.integers(1, 80))
        objs = rng.integers(0, 5, size=(n, m)).astype(np.float64)
        assert non_dominated_mask(objs).tolist() == _pairwise_mask(objs)


def _pairwise_mask(objs):
    """Brute-force reference: row j survives unless some row i is <= it
    everywhere and < it somewhere."""
    rows = objs.tolist()

    def dominates(a, b):
        return (all(x <= y for x, y in zip(a, b))
                and any(x < y for x, y in zip(a, b)))

    return [not any(dominates(a, b) for a in rows) for b in rows]


class TestDedupe:
    def test_keeps_first_occurrence_in_input_order(self):
        genomes = np.array([[2, 0], [1, 1], [2, 0], [0, 3], [1, 1]])
        objectives = np.arange(10, dtype=np.float64).reshape(5, 2)
        kept_g, kept_o = _dedupe(genomes, objectives)
        assert kept_g.tolist() == [[2, 0], [1, 1], [0, 3]]
        assert kept_o.tolist() == objectives[[0, 1, 3]].tolist()

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_unique_reference(self, seed):
        rng = np.random.default_rng(seed)
        genomes = rng.integers(0, 3, size=(200, 6), dtype=np.int64)
        objectives = rng.random((200, 3))
        _, index = np.unique(genomes, axis=0, return_index=True)
        index.sort()
        kept_g, kept_o = _dedupe(genomes, objectives)
        assert np.array_equal(kept_g, genomes[index])
        assert np.array_equal(kept_o, objectives[index])


class TestCrowdingDistance:
    def test_extremes_infinite(self):
        objs = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
        distance = crowding_distance(objs)
        assert np.isinf(distance[0]) and np.isinf(distance[-1])
        assert np.isfinite(distance[1]) and np.isfinite(distance[2])


class TestParetoFront:
    def test_dominance_invariant(self, front):
        objectives = np.array([p.objectives for p in front.points])
        assert non_dominated_mask(objectives).all()

    def test_budget_invariant(self, front, budget):
        assert front.feasible
        assert all(p.eval.crossbars <= budget for p in front.points)

    def test_sorted_by_latency_no_duplicates(self, front):
        latencies = [p.eval.latency_ms for p in front.points]
        assert latencies == sorted(latencies)
        objective_rows = {p.objectives for p in front.points}
        assert len(objective_rows) == len(front.points)

    def test_points_eval_consistent(self, grid, front):
        for point in front.points[:5]:
            assert evaluate_assignment(grid, list(point.genome)) == point.eval

    def test_knee_minimizes_edp(self, front):
        knee = front.knee()
        assert knee.eval.edp == min(p.eval.edp for p in front.points)

    def test_deterministic(self, grid, budget, front):
        again = pareto_search(grid, budget,
                              EvoSearchConfig(population_size=32,
                                              iterations=15, restarts=2,
                                              seed=0))
        assert [p.genome for p in again.points] == \
               [p.genome for p in front.points]

    def test_history_tracks_front_size(self, front):
        assert len(front.history) == 2 * 15      # restarts x iterations
        assert all(size >= 0 for size in front.history)

    def test_select_policies(self, front):
        assert front.select("latency-opt").eval.latency_ms == \
            min(p.eval.latency_ms for p in front.points)
        assert front.select("energy-opt").eval.energy_mj == \
            min(p.eval.energy_mj for p in front.points)
        assert front.select("knee") == front.knee()
        assert front.select("index", index=0) == front.points[0]


def _front_digest(result):
    """SHA-256 over every point's genome, exact float bits and crossbars,
    the archive-size history and the feasibility flag."""
    lines = [f"{p.genome!r} {p.eval.latency_ms.hex()} "
             f"{p.eval.energy_mj.hex()} {p.eval.crossbars}"
             for p in result.points]
    lines.append(" ".join(float(size).hex() for size in result.history))
    lines.append(str(result.feasible))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestGoldenFront:
    """Exactness golden: any change to the search's arithmetic, RNG use or
    bookkeeping order moves these digests (resnet18 W9A9, default
    Pareto configuration, the uniform 1024x256 design's crossbars as
    budget)."""

    GOLDEN = {
        0: (124, "a7e673fa26797bcc06bb369dfdf4e7f8"
                 "2e3f559e01449a9fa819049031bbbab7"),
        3: (120, "3100ca2461e2dc6bf32af64c2491f1a5"
                 "5f6136f27c850652e1fdc999c48d7706"),
    }

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_front_bit_identical(self, grid, budget, seed):
        result = pareto_search(grid, budget,
                               EvoSearchConfig(objective="pareto", seed=seed))
        size, digest = self.GOLDEN[seed]
        assert len(result.points) == size
        assert _front_digest(result) == digest


class TestSelectIndex:
    # (latency, energy, edp): argmins at 0, 1 and 2 respectively.
    METRICS = [(10.0, 5.0, 50.0), (30.0, 1.0, 30.0), (13.0, 2.0, 26.0)]

    def test_each_policy(self):
        assert select_index(self.METRICS, "latency-opt") == 0
        assert select_index(self.METRICS, "energy-opt") == 1
        assert select_index(self.METRICS, "knee") == 2
        assert select_index(self.METRICS, "index", 1) == 1

    def test_ties_break_on_other_objective_then_order(self):
        tied = [(1.0, 9.0, 9.0), (1.0, 2.0, 2.0), (1.0, 2.0, 2.0)]
        assert select_index(tied, "latency-opt") == 1
        assert select_index(tied, "knee") == 1

    def test_errors(self):
        with pytest.raises(ValueError, match="unknown selection"):
            select_index(self.METRICS, "cheapest")
        with pytest.raises(ValueError, match="empty front"):
            select_index([], "knee")
        with pytest.raises(ValueError, match="explicit index"):
            select_index(self.METRICS, "index")
        with pytest.raises(ValueError, match="out of range"):
            select_index(self.METRICS, "index", 3)


class TestParetoViaEvolutionSearch:
    def test_objective_pareto_returns_knee_with_front(self, grid, budget):
        result = evolution_search(grid, budget,
                                  EvoSearchConfig(population_size=32,
                                                  iterations=10, restarts=2,
                                                  objective="pareto",
                                                  seed=3))
        assert result.front is not None and len(result.front) >= 1
        assert result.feasible
        assert result.eval.edp == min(p.eval.edp for p in result.front)
        # assignment matches the knee genome
        for name, cand in zip((l.name for l in grid.spec), result.genome):
            if cand is None:
                assert name not in result.assignment
            else:
                assert result.assignment[name] == cand

    def test_unattainable_budget_flags_infeasible(self, grid):
        result = pareto_search(grid, 1,
                               EvoSearchConfig(population_size=8,
                                               iterations=3, restarts=1,
                                               seed=0))
        assert not result.feasible
        assert len(result.points) == 1      # the smallest design, flagged

    def test_parallel_restarts_match_serial(self, grid, budget):
        serial = pareto_search(grid, budget,
                               EvoSearchConfig(population_size=16,
                                               iterations=5, restarts=2,
                                               seed=2, workers=1))
        parallel = pareto_search(grid, budget,
                                 EvoSearchConfig(population_size=16,
                                                 iterations=5, restarts=2,
                                                 seed=2, workers=2))
        assert [p.genome for p in serial.points] == \
               [p.genome for p in parallel.points]
