"""The paper's headline claims, checked as plain tests.

Hardware claims run in the tier-1 suite: Table 1 crossbar compression,
Figure 3's early-layer penalty, Figure 4's latency/energy/EDP wins, the
Table 2 and Table 3 anchors that need no training, and the extension
studies (NoC, array size, cell bits, IR drop, device noise, the w1
ablation, search vs uniform/random, datapath exactness).

Claims that train a model on the synthetic substrate carry the
``paper_training`` marker. The default ``addopts`` deselects them; run
them with ``python -m pytest -m paper_training -q`` (smoke preset,
a few minutes on two CPUs). ``python -m repro table1 --preset default``
regenerates the full-quality tables.
"""

import numpy as np
import pytest

from repro import nn
from repro.analysis.accuracy import PRESETS, AccuracyWorkbench
from repro.analysis.experiments import run_table1, run_table2, run_table3
from repro.analysis.hardware import (
    figure3_rows,
    figure4_series,
    table1_hardware_rows,
)
from repro.baselines.pim_prune import pim_prune_network
from repro.core.designer import build_deployments, uniform_assignment
from repro.core.epitome import EpitomeShape, build_plan
from repro.core.equant import EpitomeQuantConfig, make_epitome_quant_hook
from repro.core.layers import EpitomeConv2d
from repro.models.specs import resnet50_spec, resnet101_spec
from repro.nn import functional as F
from repro.pim.config import DEFAULT_CONFIG, HardwareConfig
from repro.pim.datapath import execute_epitome_conv
from repro.pim.noc import analyze_noc
from repro.pim.simulator import baseline_deployment, simulate_network
from repro.search import (
    EvoSearchConfig,
    build_candidate_grid,
    evaluate_assignment,
    evolution_search,
)


def weighted_error(layer, config):
    """Repetition-weighted squared quantization error of an epitome: an
    error on an element counts once per time the sampler repeats it."""
    out = make_epitome_quant_hook(layer, config)(layer.epitome).data
    counts = layer.repetition_counts().astype(np.float64)
    return float((counts * (out - layer.epitome.data) ** 2).sum())


def wide_epitome_layer(seed):
    shape = EpitomeShape.from_rows_cols(1024, 256, (3, 3), 512)
    return EpitomeConv2d(512, 512, 3, padding=1, epitome_shape=shape,
                         rng=np.random.default_rng(seed))


def relative_error(a, b):
    scale = np.abs(b).max() + 1e-9
    return float(np.abs(a - b).mean() / scale)


def resnet50_w9(config=DEFAULT_CONFIG, epitome=True, use_wrapping=True):
    """Simulated W9A9 ResNet-50: uniform (1024, 256) epitomes or the
    plain-conv baseline."""
    spec = resnet50_spec()
    if epitome:
        deps = build_deployments(spec, uniform_assignment(spec),
                                 weight_bits=9, activation_bits=9,
                                 use_wrapping=use_wrapping, config=config)
    else:
        deps = [baseline_deployment(l, 9, 9, config=config) for l in spec]
    return simulate_network(deps, config)


class TestTable1:
    def test_resnet101_w3_crossbar_compression(self):
        """Paper: 31.22x for 3-bit EPIM-ResNet101 (shape: >15x)."""
        rows = table1_hardware_rows("resnet101", include_opt_rows=False)
        w3 = next(r for r in rows if r.bitwidth == "W3A9")
        assert w3.cr > 15


class TestFigure3:
    @pytest.fixture(scope="class")
    def rows(self):
        return {r.paper_index: r for r in figure3_rows()}

    def test_tradeoff_efficiency_ordered_late_to_early(self, rows):
        eff = {idx: r.params_saved_k / r.latency_increase_ms
               for idx, r in rows.items()}
        assert eff[67] > eff[41] > eff[9]

    def test_paper_magnitude_anchors(self, rows):
        """L67 saves ~1 M params (paper 983.6k), L9 only tens of k
        (paper 20.5k)."""
        assert rows[67].params_saved_k > 500
        assert rows[9].params_saved_k < 50


class TestFigure4:
    def test_latency_energy_edp(self):
        """EPIM-Opt vs Uniform at similar compression: paper reports up
        to 3.07x speedup, 2.36x energy savings and 7.13x EDP reduction."""
        points = figure4_series(
            search=EvoSearchConfig(population_size=48, iterations=40))
        for point in points:
            uniform = point.metrics["Uniform"]
            wrap = point.metrics["EPIM-CW"]
            opt = point.metrics["EPIM-Opt"]
            assert wrap[0] <= uniform[0] * 1.001
            assert wrap[1] <= uniform[1] * 1.001
            assert opt[2] < uniform[2]
        uniform = points[-1].metrics["Uniform"]
        opt = points[-1].metrics["EPIM-Opt"]
        assert uniform[0] / opt[0] > 2.0
        assert uniform[1] / opt[1] > 1.8
        assert uniform[2] / opt[2] > 5.0


class TestTable2:
    def test_static_quant_error_ordering(self):
        """No-training check of the Table 2 mechanism: weighted error on
        a fixed epitome improves naive -> crossbar -> overlap."""
        layer = wide_epitome_layer(0)
        errors = {mode: weighted_error(layer,
                                       EpitomeQuantConfig(bits=3, mode=mode))
                  for mode in ("naive", "crossbar", "crossbar_overlap")}
        assert errors["crossbar"] <= errors["naive"]
        assert errors["crossbar_overlap"] <= errors["crossbar"] * 1.02


class TestTable3:
    def test_pim_prune_param_cr_anchors(self):
        """Parameter compression against the paper's exact numbers (no
        training involved, so these are tight)."""
        paper = [(resnet50_spec, 0.5, 1.80), (resnet50_spec, 0.75, 3.38),
                 (resnet101_spec, 0.5, 1.90), (resnet101_spec, 0.75, 3.24)]
        for spec_fn, ratio, expected in paper:
            result = pim_prune_network(spec_fn(), ratio)
            assert abs(result.param_compression - expected) < 0.45


class TestNoc:
    def test_epim_shrinks_mesh_and_traffic_energy(self):
        """Same feature-map volume on fewer tiles: cheaper movement."""
        base = analyze_noc(resnet50_w9(epitome=False))
        epim = analyze_noc(resnet50_w9(use_wrapping=False))
        assert epim.total_values == base.total_values
        assert epim.total_tiles < base.total_tiles
        assert epim.energy_mj < base.energy_mj

    def test_noc_energy_secondary_to_compute(self):
        report = resnet50_w9(epitome=False)
        assert analyze_noc(report).energy_mj / report.energy_mj < 0.25


class TestCrossbarDesign:
    def test_array_size_sweep(self):
        baseline_util = {}
        for size in (128, 256, 512):
            config = HardwareConfig(xbar_rows=size, xbar_cols=size)
            base = resnet50_w9(config, epitome=False)
            assert resnet50_w9(config).num_crossbars < base.num_crossbars
            baseline_util[size] = base.utilization
        # smaller arrays fragment less -> utilization no worse
        assert baseline_util[128] >= baseline_util[512] - 1e-9

    def test_denser_cells_need_fewer_crossbars(self):
        xbars = [resnet50_w9(HardwareConfig(cell_bits=b)).num_crossbars
                 for b in (4, 2, 1)]
        assert xbars[0] <= xbars[1] <= xbars[2]


def ir_drop_case(rows, beta):
    rng = np.random.default_rng(0)
    shape = EpitomeShape.from_rows_cols(rows, 16, (3, 3), 64)
    plan = build_plan((16, 64, 3, 3), shape)
    epitome = rng.integers(0, 8, size=shape.as_tuple())   # non-negative
    x = rng.integers(0, 64, size=(1, 64, 8, 8))
    exact = execute_epitome_conv(x, epitome, plan, 1, 1, DEFAULT_CONFIG, 6, 4)
    dropped = execute_epitome_conv(x, epitome, plan, 1, 1, DEFAULT_CONFIG,
                                   6, 4, ir_drop_beta=beta)
    avg_rows = int(np.mean([p.ci_size * 9 for p in plan.patches]))
    return relative_error(dropped, exact), avg_rows


class TestIrDrop:
    def test_error_grows_with_beta(self):
        errors = [ir_drop_case(256, beta)[0] for beta in (0.0, 0.1, 0.3, 0.6)]
        assert errors[0] == 0.0
        assert all(b >= a for a, b in zip(errors, errors[1:]))

    def test_fewer_active_rows_less_drop(self):
        """IFRT-gated patch rounds drive only the patch's rows: smaller
        epitomes mean smaller column currents and less IR drop."""
        small_err, small_rows = ir_drop_case(128, 0.4)
        large_err, large_rows = ir_drop_case(512, 0.4)
        assert small_rows < large_rows
        assert small_err < large_err


def conv_case(seed, batch, size):
    rng = np.random.default_rng(seed)
    shape = EpitomeShape.from_rows_cols(160, 16, (3, 3), 32)
    plan = build_plan((32, 32, 3, 3), shape)
    epitome = rng.integers(-16, 16, size=shape.as_tuple())
    x = rng.integers(0, 256, size=(batch, 32, size, size))
    return plan, epitome, x


class TestDeviceNonIdeality:
    def test_noise_degrades_gracefully(self):
        plan, epitome, x = conv_case(0, 2, 10)
        exact = execute_epitome_conv(x, epitome, plan, 1, 1, DEFAULT_CONFIG,
                                     8, 6)
        errors = [relative_error(
            execute_epitome_conv(x, epitome, plan, 1, 1, DEFAULT_CONFIG, 8, 6,
                                 noise_std=noise,
                                 rng=np.random.default_rng(1)), exact)
                  for noise in (0.0, 0.01, 0.03, 0.1)]
        assert errors[0] == 0.0
        assert all(b >= a for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 0.2

    def test_saturating_adc_error_bounded(self):
        plan, epitome, x = conv_case(2, 1, 8)
        exact = execute_epitome_conv(x, epitome, plan, 1, 1, DEFAULT_CONFIG,
                                     8, 6)
        clipped = execute_epitome_conv(x, epitome, plan, 1, 1,
                                       DEFAULT_CONFIG, 8, 6, ideal_adc=False)
        assert relative_error(clipped, exact) < 0.5


class TestOverlapWeightAblation:
    """The w1/w2 blend of Eqs. 4-5 weights the highly repeated region."""

    @staticmethod
    def blend(mode, w1):
        return EpitomeQuantConfig(bits=3, mode=mode, w1=w1, w2=1.0 - w1)

    def test_w1_sweep(self):
        layer = wide_epitome_layer(0)
        reference = weighted_error(layer, self.blend("crossbar", 0.7))
        errors = {w1: weighted_error(layer, self.blend("crossbar_overlap", w1))
                  for w1 in (0.3, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)}
        best = min(errors.values())
        assert best < reference
        # the default (0.7) is within 10% of the swept optimum
        assert errors[0.7] <= best * 1.10

    def test_overlap_quantile_sweep_finite(self):
        layer = wide_epitome_layer(1)
        for quantile in (0.25, 0.5, 0.75):
            assert np.isfinite(weighted_error(layer, EpitomeQuantConfig(
                bits=3, mode="crossbar_overlap", overlap_quantile=quantile)))


class TestSearchAblation:
    """Algorithm 1 against the best uniform design and random sampling
    at the same evaluation budget."""

    @pytest.fixture(scope="class")
    def grid(self):
        return build_candidate_grid(resnet50_spec(), weight_bits=9,
                                    activation_bits=9, use_wrapping=True)

    @pytest.fixture(scope="class")
    def budget(self):
        return resnet50_w9(epitome=False).num_crossbars // 8

    @staticmethod
    def best_under(grid, genomes, budget):
        """Lowest-EDP genome within the crossbar budget, or None."""
        results = [evaluate_assignment(grid, g) for g in genomes]
        feasible = [r for r in results if r.crossbars <= budget]
        return min(feasible, key=lambda r: r.edp) if feasible else None

    @staticmethod
    def uniform_genome(grid, cand):
        """``cand`` on every layer that offers it, else that layer's
        fewest-crossbar candidate."""
        genome = []
        for layer in grid.spec:
            options = grid.candidates[layer.name]
            genome.append(cand if cand in options else min(
                options, key=lambda c: grid.cache[(layer.name, c)][0]))
        return genome

    def test_search_beats_uniform_and_random(self, grid, budget):
        config = EvoSearchConfig(population_size=48, iterations=40,
                                 objective="edp", seed=0)
        found = evolution_search(grid, budget, config).eval
        uniform = self.best_under(
            grid, [self.uniform_genome(grid, cand) for cand in
                   [(2048, 512), (1024, 256), (512, 128), (256, 64)]], budget)
        rng = np.random.default_rng(0)
        options = [grid.candidates[l.name] for l in grid.spec]
        random = self.best_under(
            grid, [[o[rng.integers(len(o))] for o in options]
                   for _ in range(config.population_size * config.iterations)],
            budget)
        if uniform is not None:
            assert found.edp <= uniform.edp * 1.001
        if random is not None:
            assert found.edp <= random.edp * 1.05

    def test_reward_history_monotone(self, grid, budget):
        history = evolution_search(
            grid, budget, EvoSearchConfig(population_size=48, iterations=40,
                                          objective="latency", seed=3)).history
        assert all(b >= a - 1e-12 for a, b in zip(history, history[1:]))
        assert history[-1] >= history[0]


class TestDatapathExactness:
    """The bit-sliced crossbar path computes exactly the software conv."""

    def test_matches_software_conv(self):
        plan, epitome, x = conv_case(0, 4, 14)
        out = execute_epitome_conv(x, epitome, plan, 1, 1, DEFAULT_CONFIG,
                                   activation_bits=8, weight_bits=6)
        ref = F.conv2d(nn.Tensor(x.astype(np.float64)),
                       nn.Tensor(plan.reconstruct(epitome).astype(np.float64)),
                       None, 1, 1).data
        np.testing.assert_array_equal(out, np.rint(ref).astype(np.int64))

    def test_wrapping_preserves_output(self):
        plan, epitome, x = conv_case(1, 4, 14)
        kwargs = {"activation_bits": 8, "weight_bits": 6}
        wrapped = execute_epitome_conv(x, epitome, plan, 1, 1, DEFAULT_CONFIG,
                                       use_wrapping=True, **kwargs)
        plain = execute_epitome_conv(x, epitome, plan, 1, 1, DEFAULT_CONFIG,
                                     **kwargs)
        np.testing.assert_array_equal(wrapped, plain)


@pytest.fixture(scope="module")
def workbench():
    """One smoke-preset workbench: trained checkpoints are cached, so the
    three training claims reuse the same baseline/epitome runs."""
    return AccuracyWorkbench(PRESETS["smoke"])


@pytest.mark.paper_training
class TestTrainingClaims:
    """Rankings that must survive the ImageNet -> synthetic substrate swap
    (not absolute ImageNet accuracies)."""

    def test_table1_accuracy_ranking(self, workbench):
        acc = run_table1("resnet50", preset=PRESETS["smoke"],
                         workbench=workbench, verbose=False).accuracy
        assert acc["EPIM W9A9"] >= acc["EPIM W3A9"] - 0.05
        assert acc["EPIM FP32"] >= acc["EPIM W3A9"] - 0.10

    def test_table2_quantization_ablation(self, workbench):
        result = run_table2(preset=PRESETS["smoke"], workbench=workbench,
                            verbose=False)
        acc = result.accuracies
        # QAT: the two proposed adjustments do not hurt (the paper sees
        # them strictly better; at substrate scale they sit inside noise)
        for scenario in ("3-bit", "3-5 bit"):
            naive = acc[(scenario, "naive")]
            assert acc[(scenario, "crossbar")] >= naive - 0.05
            assert acc[(scenario, "crossbar_overlap")] >= naive - 0.05
        # PTQ: the full method does not lose to naive quantization.
        # Single columns are volatile at 3 bits on the small substrate;
        # TestTable2 pins the strict mechanism-level order.
        ptq = result.ptq_accuracies
        assert ptq["crossbar_overlap"] >= ptq["naive"]
        assert max(ptq["crossbar"], ptq["crossbar_overlap"]) > ptq["naive"] - 0.10
        assert ptq["crossbar"] >= ptq["naive"] - 0.10

    def test_table3_pruning_stacks_compression(self, workbench):
        rows = {row["Method"]: row
                for row in run_table3(preset=PRESETS["smoke"],
                                      workbench=workbench,
                                      verbose=False).rows}
        assert (rows["Epitome + Pruning 50%"]["Compress. Rate"]
                > rows["Epitome"]["Compress. Rate"])
