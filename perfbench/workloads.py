"""The benchmark's three workloads: each builds its fixtures once, then
runs closed-loop passes whose calls into ``repro`` are timed per layer.

A pass returns a :class:`PassResult`: the operations it completed (the
unit of ``ops_per_s``), its outputs in JSON form for the correctness
gate, per-layer work counts, and any problem the pass itself found
(malformed metrics export).  Simulated latencies, availability and
Pareto fronts are model outputs: they are checked, never reported as
performance.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List

from repro.analysis.experiments import SearchRunResult
from repro.bench.suites.serve import synthetic_search_payload
from repro.models.specs import get_network_spec
from repro.obs.export import prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.obs.validate import validate_prometheus
from repro.search import (
    EvoSearchConfig,
    build_candidate_grid,
    effective_workers,
    evaluate_assignment,
    pareto_search,
    uniform_budget,
)
from repro.search.cli import search_result_payload
from repro.serve import (
    ResilienceConfig,
    ab_offered_load_sweep,
    engine_from_search,
    get_scenario,
    load_search_result,
    parse_faults,
)
from repro.serve.resilience.chaos import build_chaos_fleets

from gate import digest, non_dominated, normalize


@dataclass
class PassResult:
    ops: int
    outputs: Dict
    counts: Dict[str, float]
    problems: List[str] = field(default_factory=list)


def _export(clock, registry: MetricsRegistry) -> List[str]:
    """Prometheus export of one replay's metrics, validated."""
    with clock.layer("obs.export_s"):
        return validate_prometheus(prometheus_text(registry))


def _replay_counts(counts: Counter, engine, telemetry,
                   summary: Dict) -> None:
    """Work counts of one replay, added into the pass's totals."""
    offered = summary["completed"] + summary["rejected"] + summary["failed"]
    counts["serve.offered"] += offered
    counts["serve.completed"] += summary["completed"]
    counts["serve.shed"] += summary["rejected"]
    counts["serve.failed"] += summary["failed"]
    counts["serve.batches"] += telemetry.num_batches
    counts["bench.batched_requests"] += (summary["mean_batch_size"]
                                         * telemetry.num_batches)
    counts["serve.engine.scalar_replays"] += engine.last_engine == "scalar"
    counts["serve.faults.failovers"] += summary["failovers"]
    for key in ("retries_scheduled", "retry_exhausted", "admission_shed",
                "breaker_opens", "brownout_entries"):
        counts[f"serve.resilience.{key}"] += summary.get(
            f"resilience_{key}", 0.0)


def _conservation(label: str, summary: Dict, offered: int) -> List[str]:
    total = summary["completed"] + summary["rejected"] + summary["failed"]
    if total != offered:
        return [f"{label}: completed + rejected + failed = {total:g} "
                f"!= offered {offered}"]
    return []


class DesignSweep:
    """ResNet-18/34/50/101 x {W9A9, W3A3}: grid -> Pareto search ->
    search-result JSON -> deploy latency-/energy-opt -> A/B sweep."""

    name = "design_sweep"
    op = "search->serve job"
    MODELS = ("resnet18", "resnet34", "resnet50", "resnet101")
    BITS = (9, 3)
    POLICIES = ("latency-opt", "energy-opt")
    BUDGET_FRACTION = 0.78
    AB_REQUESTS = 2_000
    # Fields of the payload that describe how the grid was built on this
    # run (host seconds, cache directory), not what the search found.
    RUN_VARYING = ("grid_build_s", "grid_cache")

    def __init__(self, seed: int):
        self.seed = seed
        self.search = EvoSearchConfig(objective="pareto", seed=seed)
        self.specs = {model: get_network_spec(model) for model in self.MODELS}
        self.fleet_s = 0.0              # fleets are deployed per job
        self.grid_workers: Counter = Counter()
        self.used: Counter = Counter()

    def provenance(self) -> Dict[str, object]:
        return {"workers": {
                    "grid": dict(self.grid_workers),
                    "search": effective_workers(self.search.workers,
                                                self.search.restarts)},
                "engines": {"ab": dict(self.used)}}

    def run_pass(self, clock) -> PassResult:
        outputs: Dict = {}
        counts: Counter = Counter()
        for model, spec in self.specs.items():
            for bits in self.BITS:
                job = f"{model}/W{bits}A{bits}"
                with clock.segment(job):
                    outputs[job] = self._job(clock, model, spec, bits,
                                             counts)
        counts["search.grid.dedup_ratio"] = (
            counts["search.grid.unique_sims"]
            / counts.pop("bench.total_sims"))
        counts["search.pareto.front_per_eval"] = (
            counts["search.pareto.front_size"]
            / counts["search.pareto.evaluations"])
        return PassResult(ops=len(outputs), outputs=outputs, counts=counts)

    def _job(self, clock, model, spec, bits, counts) -> Dict:
        with clock.layer("search.grid.build_s"):
            grid = build_candidate_grid(spec, weight_bits=bits,
                                        activation_bits=bits,
                                        use_wrapping=True)
        with clock.layer("search.budget_s"):
            budget = uniform_budget(grid, 1024, 256, self.BUDGET_FRACTION)
            baseline = evaluate_assignment(grid, [None] * len(spec))
        with clock.layer("search.pareto.search_s"):
            front = pareto_search(grid, budget, self.search)
        with clock.layer("search.payload_s"):
            result = front.as_search_result()
            outcome = SearchRunResult(
                model=model, objective="pareto", budget=budget,
                baseline_crossbars=baseline.crossbars,
                design_space_size=grid.design_space_size, result=result,
                front=result.front, rendered="",
                grid_stats=grid.build_stats,
                layers=[layer.name for layer in spec], weight_bits=bits,
                activation_bits=bits, use_wrapping=True)
            text = json.dumps(search_result_payload(outcome))
        with clock.layer("serve.deploy.load_s"):
            payload = json.loads(text)
            loaded = load_search_result(payload)
        with clock.layer("serve.deploy.engine_s"):
            engines = {policy: engine_from_search(loaded, policy=policy)
                       for policy in self.POLICIES}
        with clock.layer("serve.deploy.ab_s"):
            rows = ab_offered_load_sweep(engines,
                                         num_requests=self.AB_REQUESTS,
                                         seed=self.seed)
        for policy, engine in engines.items():
            self.used[f"{policy}:{engine.last_engine}"] += 1
        stats = grid.build_stats
        self.grid_workers[stats.workers] += 1
        counts["search.grid.unique_sims"] += stats.sim_tasks_unique
        counts["bench.total_sims"] += stats.sim_tasks_total
        counts["search.pareto.front_size"] += len(front)
        counts["search.pareto.evaluations"] += (len(front.history)
                                                * self.search.population_size)
        return {"payload": self._checked_fields(payload),
                "ab": normalize(rows)}

    def _checked_fields(self, payload: Dict) -> Dict:
        """The payload as the gate checks it: run-varying fields dropped,
        each genome (and the best design's assignment) replaced by its
        digest, which keeps the check exact and the reference small."""
        out = {key: value for key, value in payload.items()
               if key not in self.RUN_VARYING}
        out["best"] = dict(out["best"], genome=digest(out["best"]["genome"]),
                           assignment=digest(out["best"]["assignment"]))
        out["front"] = [dict(point, genome=digest(point["genome"]))
                        for point in out["front"]]
        return out

    def invariants(self, outputs: Dict) -> List[str]:
        problems = []
        for job, out in outputs.items():
            payload = out["payload"]
            front = payload["front"]
            objectives = [(p["latency_ms"], p["energy_mj"], p["crossbars"])
                          for p in front]
            if not front or not non_dominated(objectives):
                problems.append(f"{job}: front is empty or dominated")
            if payload["best"]["genome"] not in [p["genome"] for p in front]:
                problems.append(f"{job}: best design is not on the front")
            if payload["feasible"] and any(
                    p["crossbars"] > payload["budget"] for p in front):
                problems.append(f"{job}: front point over the budget")
            for row in out["ab"]:
                if not (0 <= row["shed"] <= self.AB_REQUESTS
                        and row["p50_ms"] <= row["p99_ms"]
                        and row["achieved_fps"] > 0):
                    problems.append(f"{job}: implausible A/B row {row}")
        return problems


class ReplayPeak:
    """One million diurnal requests at 0.7x plan throughput on the
    latency-opt point, 2 chips: trace -> replay -> summary -> export."""

    name = "replay_peak"
    op = "simulated request"
    NUM_REQUESTS = 1_000_000
    NUM_CHIPS = 2
    LOAD = 0.7

    def __init__(self, seed: int):
        self.seed = seed
        start = time.perf_counter()
        self.engine = engine_from_search(synthetic_search_payload(),
                                         policy="latency-opt",
                                         num_chips=self.NUM_CHIPS)
        self.fleet_s = time.perf_counter() - start
        self.rate = self.LOAD * self.engine.plan.throughput_fps
        self.scenario = get_scenario("diurnal")
        self.used: Counter = Counter()

    def provenance(self) -> Dict[str, object]:
        return {"engines": {"replay": dict(self.used)}}

    def run_pass(self, clock) -> PassResult:
        counts: Counter = Counter()
        with clock.segment("replay"):
            with clock.layer("serve.scenarios.trace_s"):
                trace = self.scenario.to_trace_arrays(
                    self.NUM_REQUESTS, rate_rps=self.rate, seed=self.seed)
            registry = MetricsRegistry()
            with clock.layer("serve.engine.replay_s"):
                telemetry = self.engine.serve(trace, metrics=registry)
            with clock.layer("serve.telemetry.summary_s"):
                summary = telemetry.summary()
            problems = _export(clock, registry)
        _replay_counts(counts, self.engine, telemetry, summary)
        self.used[self.engine.last_engine] += 1
        outputs = {"replay": normalize(summary),
                   "batches": telemetry.num_batches}
        return PassResult(ops=self.NUM_REQUESTS, outputs=outputs,
                          counts=counts, problems=problems)

    def invariants(self, outputs: Dict) -> List[str]:
        return _conservation("replay", outputs["replay"], self.NUM_REQUESTS)


class ChaosArmed:
    """ResNet-50 chaos fleets under a flash crowd at 0.6x capacity with a
    straggler, a chip kill and a cache wipe: the armed fleet
    (``ResilienceConfig``) and the disarmed fleet replay the same trace."""

    name = "chaos_armed"
    op = "simulated request"
    NUM_REQUESTS = 100_000
    LOAD = 0.6
    FAULTS = ("straggler@t=0.2:chip=0:factor=3:until=0.3,"
              "chip-kill@t=0.55:chip=3,cache-wipe@t=0.8")

    def __init__(self, seed: int):
        self.seed = seed
        start = time.perf_counter()
        fleets = build_chaos_fleets()
        self.fleet_s = time.perf_counter() - start
        self.fleets = (("armed", fleets["resilience-on"], True),
                       ("disarmed", fleets["resilience-off"], False))
        self.rate = self.LOAD * fleets["resilience-on"].plan.throughput_fps
        self.scenario = get_scenario("flash-crowd")
        self.used: Dict[str, Counter] = {label: Counter()
                                         for label, _, _ in self.fleets}

    def provenance(self) -> Dict[str, object]:
        return {"engines": {label: dict(used)
                            for label, used in self.used.items()}}

    def run_pass(self, clock) -> PassResult:
        counts: Counter = Counter()
        outputs: Dict = {}
        problems: List[str] = []
        with clock.segment("trace"), \
                clock.layer("serve.scenarios.trace_s"):
            trace = self.scenario.to_trace(self.NUM_REQUESTS,
                                           rate_rps=self.rate,
                                           seed=self.seed)
            faults = parse_faults(self.FAULTS)
        for label, engine, armed in self.fleets:
            resilience = ResilienceConfig(seed=self.seed) if armed else None
            registry = MetricsRegistry()
            with clock.segment(label):
                with clock.layer(f"serve.engine.replay_{label}_s"):
                    telemetry = engine.serve(trace, metrics=registry,
                                             faults=faults,
                                             resilience=resilience)
                with clock.layer("serve.telemetry.summary_s"):
                    summary = telemetry.summary()
                problems.extend(f"{label}: {p}"
                                for p in _export(clock, registry))
            _replay_counts(counts, engine, telemetry, summary)
            self.used[label][engine.last_engine] += 1
            outputs[label] = normalize(summary)
            outputs[f"{label}_batches"] = telemetry.num_batches
        return PassResult(ops=len(self.fleets) * self.NUM_REQUESTS,
                          outputs=outputs, counts=counts, problems=problems)

    def invariants(self, outputs: Dict) -> List[str]:
        problems = []
        for label, _, _ in self.fleets:
            problems.extend(_conservation(label, outputs[label],
                                          self.NUM_REQUESTS))
        return problems


WORKLOADS = {cls.name: cls for cls in (DesignSweep, ReplayPeak, ChaosArmed)}
