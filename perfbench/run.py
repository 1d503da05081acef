#!/usr/bin/env python3
"""Benchmark of the EPIM reproduction: search -> serve, timed per layer.

    python3 perfbench/run.py --workload design_sweep --seed 3 --seconds 30 --trace 0

Runs one workload (see perfbench/README.md) in fresh worker processes:
``SETUP_PROBES`` processes that only set up, then one that sets up and
runs closed-loop passes for ``--seconds``.  Prints each metric with its
unit, the raw host figures and the host provenance, and as its last line
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
ones with ``--trace 1``.

Every time is reported in reference seconds (see calibrate.py): host
seconds scaled by the speed of a fixed loop timed next to the
measurement, so host drift does not read as a change of the code.

Only the standard library is used here, so the parent process neither
pins nor loads BLAS and its own imports never enter a measurement.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from calibrate import loop_s, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
BENCHMARK = ROOT / "BENCHMARK.json"

WORKLOADS = ("design_sweep", "replay_peak", "chaos_armed")
SETUP_PROBES = 4            # plus the measuring process's own set-up
IMPORT_PROBES = 3
RUN_TIMEOUT_S = 170.0


def _median(values) -> float:
    return float(statistics.median(values))


def worker_cmd(*args: str) -> List[str]:
    return [sys.executable, str(WORKER), *args]


def _read_ready(proc) -> Dict:
    for line in proc.stdout:
        if line.startswith("READY "):
            return json.loads(line[len("READY "):])
    raise RuntimeError("worker ended before its workload was ready")


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def start_worker(*args: str) -> Tuple[float, Dict, str]:
    """Run a worker; returns (host seconds until READY, READY info, the
    rest of its standard output)."""
    start = time.perf_counter()
    proc = subprocess.Popen(worker_cmd(*args), stdout=subprocess.PIPE,
                            text=True)
    try:
        ready = _read_ready(proc)
        setup_s = time.perf_counter() - start
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[1]} exited with {proc.returncode}")
    return setup_s, ready, out


def import_s(module: str) -> float:
    out = subprocess.run(worker_cmd("--mode", "import", "--module", module),
                         capture_output=True, text=True, check=True,
                         timeout=RUN_TIMEOUT_S)
    return float(out.stdout.strip().splitlines()[-1])


class Bracketed:
    """Runs host measurements, each bracketed by reference-loop timings,
    and returns them with their factor to reference seconds."""

    def __init__(self):
        self.last = loop_s()
        self.factors: List[float] = []

    def measure(self, fn: Callable):
        value = fn()
        now = loop_s()
        factor = scale([self.last, now])
        self.last = now
        self.factors.append(factor)
        return value, factor


def measure(args, units: Dict[str, str]) -> Tuple[Dict, Dict, List[float]]:
    """All probes and the measuring run; returns (metrics, worker result,
    raw host set-up seconds)."""
    bracket = Bracketed()
    common = ("--workload", args.workload, "--seed", str(args.seed))
    setup, setup_ref, fleet_ref = [], [], []
    for _ in range(SETUP_PROBES):
        (seconds, ready, _), factor = bracket.measure(
            lambda: start_worker("--mode", "setup", *common))
        setup.append(seconds)
        setup_ref.append(seconds * factor)
        fleet_ref.append(ready["fleet_s"] * factor)
    imports = {}
    if args.trace:
        for module in ("repro.search", "repro.serve"):
            samples = [bracket.measure(lambda: import_s(module))
                       for _ in range(IMPORT_PROBES)]
            imports[module] = _median([v * k for v, k in samples])
    before = bracket.last
    seconds, ready, out = start_worker(
        "--mode", "run", *common, "--seconds", str(args.seconds),
        "--trace", str(args.trace))
    results = [line for line in out.splitlines()
               if line.startswith("RESULT ")]
    if not results:
        raise RuntimeError("worker printed no result")
    result = json.loads(results[-1][len("RESULT "):])
    # The measuring worker times the loop itself right after set-up.
    factor = scale([before, result["records"][0]["loop_s"][0]])
    setup.append(seconds)
    setup_ref.append(seconds * factor)
    fleet_ref.append(ready["fleet_s"] * factor)

    timed = [r for r in result["records"] if not r["warmup"]]
    metrics: Dict[str, float] = {name: 0.0 for name in units}
    if args.trace:
        per_layer(metrics, timed)
        metrics["serve.import_s"] = imports["repro.serve"]
        metrics["search.import_s"] = imports["repro.search"]
        metrics["serve.deploy.fleet_s"] = _median(fleet_ref)
        metrics["bench.host_speed"] = _median(
            bracket.factors + [r["factor"] for r in result["records"]])
    else:
        metrics["setup_s"] = _median(setup_ref)
        metrics["ops_per_s"] = timed[0]["ops"] / _median(
            [r["ref_s"] for r in timed])
        metrics["peak_rss_mb"] = result["peak_rss_kb"] / 1024.0
    unknown = set(metrics) - set(units)
    if unknown:
        raise RuntimeError(f"undeclared metrics {sorted(unknown)}")
    return metrics, result, setup


def per_layer(metrics: Dict[str, float], timed: List[Dict]) -> None:
    """Per-layer self times of the traced passes (reference seconds),
    work counts, and the benchmark's own accounting."""
    traced = [r for r in timed if r["traced"]]
    untraced = [r for r in timed if not r["traced"]]
    for name in {n for r in traced for n in r["self_ref_s"]}:
        metrics[name] = _median([r["self_ref_s"].get(name, 0.0)
                                 for r in traced])
    counts = timed[0]["counts"]
    for name, value in counts.items():
        if name in metrics:
            metrics[name] = float(value)
    if counts.get("serve.batches"):
        metrics["serve.mean_batch_size"] = (counts["bench.batched_requests"]
                                            / counts["serve.batches"])
        metrics["serve.availability"] = (counts["serve.completed"]
                                         / counts["serve.offered"])
    metrics["bench.trace_overhead_pct"] = 100.0 * (
        _median([r["ref_s"] for r in traced])
        / _median([r["ref_s"] for r in untraced]) - 1.0)
    metrics["bench.passes"] = float(len(timed))


def report(result: Dict, setup: List[float], metrics: Dict[str, float],
           units: Dict[str, str]) -> None:
    """Human-readable lines ahead of the final JSON line."""
    timed = [r for r in result["records"] if not r["warmup"]]
    untraced = [r for r in timed if not r["traced"]]
    walls = [r["wall_s"] for r in timed]
    ops = timed[0]["ops"]
    print(f"workload {result['workload']}: {len(timed)} timed passes of "
          f"{ops} x {result['op']} (+1 warm-up), {len(setup)} set-up "
          f"samples")
    print(f"host s per pass: median {_median(walls):.4f}, min "
          f"{min(walls):.4f}, max {max(walls):.4f} "
          f"({ops / _median(walls):.4f} ops per host s); host s of set-up: "
          f"median {_median(setup):.4f}")
    layers = sorted({n for r in untraced for n in r["layer_ref_s"]})
    for name in layers + [None]:
        values = [r["layer_ref_s"].get(name, 0.0) if name
                  else r["unattributed_ref_s"] for r in untraced]
        print(f"  untraced {name or '(unattributed)':36s} "
              f"{_median(values):10.4f} ref s")
    for name, value in metrics.items():
        print(f"metric {name:40s} {value:16.6f} {units[name]}")
    for record in result["records"]:
        for problem in record["problems"]:
            print(f"FAILED pass {record['index']}: {problem}")
    for problem in result["problems"]:
        print(f"FAILED: {problem}")
    if result["trace_path"]:
        print(f"host-time trace: {result['trace_path']}")
    print("provenance: " + json.dumps(result["provenance"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    try:
        metrics, result, setup = measure(args, units)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(result, setup, metrics, units)

    attempted = sum(r["ops"] for r in result["records"])
    failed = sum(r["ops"] for r in result["records"] if r["problems"])
    if result["problems"]:
        failed = attempted
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
