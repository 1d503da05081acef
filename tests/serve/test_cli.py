"""Tests for the serve CLI (repro.serve.cli via python -m repro)."""

import json
from pathlib import Path

import pytest

from repro.analysis.cli import main
from repro.bench.suites.serve import synthetic_search_payload
from repro.serve.trace import save_trace, synthetic_trace


@pytest.fixture(scope="module")
def search_result(tmp_path_factory):
    """A deployable two-point search-result file (no search needed)."""
    path = tmp_path_factory.mktemp("search") / "result.json"
    path.write_text(json.dumps(synthetic_search_payload()))
    return str(path)


class TestServeCommand:
    def test_default_run_reports_everything(self, capsys):
        assert main(["serve", "--num-requests", "60", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        for token in ("p50", "p95", "p99", "throughput", "chip utilization"):
            assert token in out

    def test_replays_recorded_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        save_trace(synthetic_trace(40, 200.0, seed=0), path)
        assert main(["serve", "--requests", str(path),
                     "--num-chips", "1"]) == 0
        out = capsys.readouterr().out
        assert "replaying 40 recorded requests" in out

    def test_manifest_export_and_replay(self, tmp_path, capsys):
        manifest = tmp_path / "deploy.json"
        assert main(["serve", "--export-manifest", str(manifest),
                     "--num-requests", "30"]) == 0
        assert manifest.exists()
        capsys.readouterr()
        assert main(["serve", "--manifest", str(manifest),
                     "--num-requests", "30"]) == 0
        assert "p99" in capsys.readouterr().out

    def test_json_summary(self, capsys):
        assert main(["serve", "--num-requests", "30", "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["completed"] == 30.0
        assert "latency_p99_ms" in payload
        assert "chip0_utilization" in payload

    def test_baseline_and_mode_flags(self, capsys):
        assert main(["serve", "--model", "resnet18", "--baseline",
                     "--mode", "layer", "--num-chips", "2",
                     "--num-requests", "30"]) == 0
        assert "sharding" in capsys.readouterr().out


class TestFromSearch:
    def test_deploys_selected_policy(self, search_result, capsys):
        assert main(["serve", "--from-search", search_result,
                     "--policy", "latency-opt",
                     "--num-requests", "40"]) == 0
        out = capsys.readouterr().out
        assert "operating point: front[0]" in out
        assert "p99" in out

    def test_policy_index(self, search_result, capsys):
        assert main(["serve", "--from-search", search_result,
                     "--policy", "index", "--point-index", "1",
                     "--num-requests", "30"]) == 0
        assert "operating point: front[1]" in capsys.readouterr().out

    def test_chips_derived_unless_pinned(self, search_result, capsys):
        assert main(["serve", "--from-search", search_result,
                     "--num-requests", "30"]) == 0
        assert "1 chip(s) on 1 provisioned" in capsys.readouterr().out
        assert main(["serve", "--from-search", search_result,
                     "--num-chips", "2", "--num-requests", "30"]) == 0
        assert "on 2 provisioned" in capsys.readouterr().out

    def test_ab_sweep_reports_both_policies(self, search_result, capsys):
        assert main(["serve", "--from-search", search_result,
                     "--policy", "latency-opt",
                     "--ab-policy", "energy-opt",
                     "--num-requests", "60", "--json"]) == 0
        out = capsys.readouterr().out
        assert "[latency-opt]" in out and "[energy-opt]" in out
        assert "energy/req" in out
        rows = json.loads(out[out.rindex("\n[") + 1:])
        assert len(rows) == 4
        assert {row["point"] for row in rows} == {"latency-opt",
                                                  "energy-opt"}

    def test_missing_file_exits_2(self, capsys):
        assert main(["serve", "--from-search", "/nope/result.json"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_conflicting_sources_exit_2(self, search_result, tmp_path,
                                        capsys):
        manifest = tmp_path / "deploy.json"
        manifest.write_text("{}")
        assert main(["serve", "--from-search", search_result,
                     "--manifest", str(manifest)]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_ab_without_from_search_exits_2(self, capsys):
        assert main(["serve", "--ab-policy", "energy-opt"]) == 2
        assert "--from-search" in capsys.readouterr().err

    def test_same_ab_policies_exit_2(self, search_result, capsys):
        assert main(["serve", "--from-search", search_result,
                     "--policy", "knee", "--ab-policy", "knee"]) == 2
        assert "two different policies" in capsys.readouterr().err

    def test_export_manifest_from_search(self, search_result, tmp_path,
                                         capsys):
        manifest = tmp_path / "deploy.json"
        assert main(["serve", "--from-search", search_result,
                     "--policy", "energy-opt",
                     "--export-manifest", str(manifest),
                     "--num-requests", "30"]) == 0
        assert "wrote deployment manifest" in capsys.readouterr().out
        assert main(["serve", "--manifest", str(manifest),
                     "--num-requests", "30"]) == 0
        assert "p99" in capsys.readouterr().out

    def test_ab_replays_recorded_trace(self, search_result, tmp_path,
                                       capsys):
        path = tmp_path / "trace.json"
        save_trace(synthetic_trace(50, 150.0, seed=2), path)
        assert main(["serve", "--from-search", search_result,
                     "--policy", "latency-opt",
                     "--ab-policy", "energy-opt",
                     "--requests", str(path), "--json"]) == 0
        out = capsys.readouterr().out
        assert "replaying 50 recorded requests" in out
        rows = json.loads(out[out.rindex("\n[") + 1:])
        assert len(rows) == 2                     # one row per fleet

    def test_ab_rejects_ambiguous_artifact_flags(self, search_result,
                                                 tmp_path, capsys):
        base = ["serve", "--from-search", search_result,
                "--policy", "latency-opt", "--ab-policy", "energy-opt"]
        assert main(base + ["--save-trace", str(tmp_path / "t.json")]) == 2
        assert "not supported in A/B" in capsys.readouterr().err
        assert main(base + ["--export-manifest",
                            str(tmp_path / "d.json")]) == 2
        assert "ambiguous in A/B" in capsys.readouterr().err


class TestScenarioFlags:
    def test_scenarios_list(self, capsys):
        assert main(["serve", "scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("steady-poisson", "flash-crowd", "diurnal",
                     "bursty-mmpp", "multi-model-mix"):
            assert name in out

    def test_scenario_run_with_faults_reports_availability(self, capsys):
        assert main(["serve", "--scenario", "flash-crowd",
                     "--faults", "chip-kill@t=0.5", "--seed", "7",
                     "--num-requests", "200", "--json"]) == 0
        out = capsys.readouterr().out
        assert "scenario 'flash-crowd'" in out
        assert "fault plan: chip-kill@t=0.5" in out
        assert "injected faults" in out
        summary = json.loads(out[out.index("{"):])
        assert summary["fault_events"] == 1.0
        assert summary["availability"] is not None
        assert summary["availability"] <= 1.0

    def test_same_seed_scenario_runs_identically(self, capsys):
        argv = ["serve", "--scenario", "bursty-mmpp", "--seed", "3",
                "--num-requests", "150", "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first[first.index("{"):] == second[second.index("{"):]

    PRIORITY_ARGV = ["serve", "--scenario", "steady-poisson", "--seed", "3",
                     "--num-requests", "400", "--json"]

    def test_priority_levels_reach_scenario_traces(self, capsys):
        summaries = {}
        for policy in ("fifo", "priority"):
            assert main(self.PRIORITY_ARGV + [
                "--sched-policy", policy, "--priority-levels", "3"]) == 0
            out = capsys.readouterr().out
            summaries[policy] = json.loads(out[out.index("\n{") + 1:])
        assert summaries["priority"] != summaries["fifo"]
        assert summaries["priority"]["completed"] == 400.0

    def test_single_priority_level_output_unchanged(self, capsys):
        """One level leaves the scenario trace untouched: the whole
        report matches the output recorded before priorities were
        applied to scenario traces."""
        golden = (Path(__file__).resolve().parent.parent / "baselines"
                  / "serve_summaries"
                  / "cli-steady-poisson-priority1-seed3.out")
        assert main(self.PRIORITY_ARGV + [
            "--sched-policy", "priority", "--priority-levels", "1"]) == 0
        assert capsys.readouterr().out == golden.read_text()

    def test_unknown_scenario_fails_cleanly(self, capsys):
        assert main(["serve", "--scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_bad_fault_spec_fails_before_compile(self, capsys):
        assert main(["serve", "--faults", "meteor@t=0.5"]) == 2
        err = capsys.readouterr().err
        assert "unknown fault kind" in err

    def test_scenario_conflicts_with_recorded_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        save_trace(synthetic_trace(10, 100.0, seed=0), path)
        assert main(["serve", "--scenario", "diurnal",
                     "--requests", str(path)]) == 2
        assert "exactly one workload source" in capsys.readouterr().err

    def test_ab_accepts_scenario_and_faults(self, search_result, capsys):
        assert main(["serve", "--from-search", search_result,
                     "--policy", "latency-opt", "--ab-policy", "energy-opt",
                     "--scenario", "diurnal",
                     "--faults", "straggler@t=0.2:factor=2",
                     "--num-requests", "80", "--json"]) == 0
        out = capsys.readouterr().out
        rows = json.loads(out[out.index("[\n"):])
        assert all("availability" in row for row in rows)
