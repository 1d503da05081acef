"""Vectorized evaluator vs the scalar reference (repro.search.grid)."""

import numpy as np
import pytest

from repro.search import (
    CandidateGrid,
    build_candidate_grid,
    build_matrices,
    decode_genome,
    encode_genome,
    evaluate_assignment,
    evaluate_population,
    population_rewards,
)
from repro.search.evolve import _reward
from repro.models.specs import NetworkSpec, resnet18_spec


@pytest.fixture(scope="module")
def grid():
    return build_candidate_grid(resnet18_spec(), weight_bits=9,
                                activation_bits=9)


def random_population(grid, size, seed=0):
    matrices = grid.matrices()
    rng = np.random.default_rng(seed)
    return rng.integers(0, matrices.num_options,
                        size=(size, matrices.num_layers), dtype=np.int64)


class TestMatrices:
    def test_shapes_and_counts(self, grid):
        m = grid.matrices()
        L = len(grid.spec)
        assert m.num_layers == L
        assert m.crossbars.shape == m.latency_ns.shape == m.dynamic_pj.shape
        assert m.crossbars.shape[0] == L
        assert (m.num_options
                == [len(grid.candidates[l.name]) for l in grid.spec]).all()

    def test_matrices_match_cache(self, grid):
        m = grid.matrices()
        for li, layer in enumerate(grid.spec):
            for ki, cand in enumerate(grid.candidates[layer.name]):
                xb, lat, dyn = grid.cache[(layer.name, cand)]
                assert m.crossbars[li, ki] == xb
                assert m.latency_ns[li, ki] == lat
                assert m.dynamic_pj[li, ki] == dyn

    def test_matrices_cached_on_grid(self, grid):
        assert grid.matrices() is grid.matrices()

    def test_build_matrices_standalone(self, grid):
        m = build_matrices(grid)
        assert m.layer_names == tuple(l.name for l in grid.spec)

    def test_encode_decode_roundtrip(self, grid):
        m = grid.matrices()
        population = random_population(grid, 16, seed=3)
        for row in population:
            genome = decode_genome(m, row)
            assert (encode_genome(m, genome) == row).all()

    def test_encode_rejects_wrong_length(self, grid):
        with pytest.raises(ValueError):
            encode_genome(grid.matrices(), [None])


class TestVectorizedAgreement:
    """The satellite contract: vectorized == scalar, bit for bit."""

    def test_bit_for_bit_metrics(self, grid):
        m = grid.matrices()
        population = random_population(grid, 128)
        evals = evaluate_population(m, population)
        for i, row in enumerate(population):
            scalar = evaluate_assignment(grid, decode_genome(m, row))
            # Exact equality, not approx: both paths accumulate in the
            # same layer order with the same IEEE-754 operations.
            assert scalar.crossbars == evals.crossbars[i]
            assert scalar.latency_ms == evals.latency_ms[i]
            assert scalar.energy_mj == evals.energy_mj[i]
            assert scalar.edp == evals.edp[i]
            assert evals.result(i) == scalar

    @pytest.mark.parametrize("objective", ["latency", "energy", "edp"])
    def test_reward_ordering_identical(self, grid, objective):
        m = grid.matrices()
        population = random_population(grid, 96, seed=7)
        evals = evaluate_population(m, population)
        budget = int(np.median(evals.crossbars))
        vector = population_rewards(evals, budget, objective)
        scalar = np.array([
            _reward(evaluate_assignment(grid, decode_genome(m, row)),
                    budget, objective)
            for row in population])
        assert (vector == scalar).all()
        assert (np.argsort(-vector, kind="stable")
                == np.argsort(-scalar, kind="stable")).all()

    def test_budget_gate(self, grid):
        m = grid.matrices()
        population = random_population(grid, 32, seed=1)
        evals = evaluate_population(m, population)
        rewards = population_rewards(evals, int(evals.crossbars.min()) - 1,
                                     "latency")
        assert (rewards == 0.0).all()
        rewards = population_rewards(evals, None, "latency")
        assert (rewards > 0.0).all()

    def test_unknown_objective(self, grid):
        m = grid.matrices()
        evals = evaluate_population(m, random_population(grid, 2))
        with pytest.raises(ValueError):
            population_rewards(evals, None, "speed")

    def test_empty_population(self, grid):
        m = grid.matrices()
        evals = evaluate_population(m, np.empty((0, m.num_layers),
                                                dtype=np.int64))
        assert len(evals) == 0
        assert evals.crossbars.dtype == np.int64
        assert evals.latency_ms.dtype == evals.energy_mj.dtype == np.float64
        assert evals.latency_ms.shape == evals.energy_mj.shape == (0,)

    def test_zero_layer_grid(self):
        empty = CandidateGrid(spec=NetworkSpec("empty", (32, 32)),
                              candidates={}, cache={})
        m = empty.matrices()
        assert m.num_layers == 0
        evals = evaluate_population(m, np.empty((4, 0), dtype=np.int64))
        assert evals.crossbars.tolist() == [0, 0, 0, 0]
        assert evals.latency_ms.tolist() == [0.0] * 4
        assert evals.energy_mj.tolist() == [0.0] * 4
        assert evals.result(0) == evaluate_assignment(empty, [])
        assert len(evaluate_population(m, np.empty((0, 0),
                                                dtype=np.int64))) == 0

    def test_rejects_bad_shapes(self, grid):
        m = grid.matrices()
        with pytest.raises(ValueError):
            evaluate_population(m, np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError):
            evaluate_population(m, np.zeros((2, m.num_layers + 1),
                                            dtype=np.int64))
