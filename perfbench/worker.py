"""One workload in one fresh interpreter (started by ``run.py``).

Modes:

- ``setup``: import ``repro``, build the workload's fixtures, print
  ``READY`` and exit — one set-up sample for ``setup_s``;
- ``run``: set up, print ``READY``, run one warm-up pass and then
  closed-loop passes for ``--seconds`` (at least ``MIN_PASSES``), check
  every pass, print ``RESULT <json>``;
- ``import``: print the seconds ``import <module>`` takes here;
- ``reference``: run two passes and store their outputs as the reference
  for ``--seed`` (only after an intended change of the model's results).

BLAS is pinned to one thread before numpy is first imported.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse                                     # noqa: E402
import gc                                           # noqa: E402
import importlib                                    # noqa: E402
import json                                         # noqa: E402
import sys                                          # noqa: E402
import time                                         # noqa: E402
from pathlib import Path                            # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

MIN_PASSES = 3
TRACE_DIR = ROOT / ".bench_out"
ACCOUNTING_TOLERANCE_S = 1e-6


def _blas_threads():
    """Threads the loaded OpenBLAS will use (``None`` if not OpenBLAS)."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def provenance(workload) -> dict:
    """What moves the numbers on this host, recorded with every result."""
    import platform

    import numpy

    from repro.bench.runner import git_sha

    # git must not look for a repository above the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    affinity = (sorted(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else None)
    return {
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {var: os.environ.get(var) for var in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                      "MKL_NUM_THREADS")},
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": git_sha(str(ROOT)),      # None outside a git checkout
        **workload.provenance(),
    }


def run_passes(workload, seconds: float, trace: bool, reference):
    """Warm-up pass, then timed passes; returns (records, tracer)."""
    from gate import compare, digest
    from repro.obs.tracer import Tracer
    from stages import StageClock

    clock = StageClock(Tracer() if trace else None)
    records = []
    first = []

    def one_pass(index: int, traced: bool, warmup: bool) -> None:
        gc.collect()
        with clock.run_pass(index, traced):
            result = workload.run_pass(clock)
        problems = list(result.problems)
        unattributed = clock.wall_s - sum(clock.layer_s.values())
        if unattributed < -ACCOUNTING_TOLERANCE_S:
            problems.append(f"layer times exceed the pass wall time by "
                            f"{-unattributed:.9f} s")
        problems.extend(workload.invariants(result.outputs))
        if reference is not None:
            problems.extend(compare(reference, result.outputs,
                                    workload.name))
        current = digest(result.outputs)
        if not first:
            first.append(current)
        elif current != first[0]:
            problems.append("outputs differ from the first pass")
        records.append({
            "index": index, "warmup": warmup, "traced": traced,
            "wall_s": clock.wall_s, "ref_s": clock.ref_s,
            "factor": clock.factor, "loop_s": clock.loop_s,
            "layer_ref_s": dict(clock.layer_ref_s),
            "unattributed_ref_s": (clock.ref_s
                                   - sum(clock.layer_ref_s.values())),
            "ops": result.ops, "counts": dict(result.counts),
            "problems": problems[:10],
        })

    one_pass(0, traced=False, warmup=True)
    begin = time.perf_counter()
    timed = 0
    min_passes = MIN_PASSES + (1 if trace else 0)
    while timed < min_passes or time.perf_counter() - begin < seconds:
        one_pass(timed + 1, traced=trace and timed % 2 == 1, warmup=False)
        timed += 1
    return records, clock.tracer


def finish_trace(tracer, records, path: Path) -> list:
    """Write the host-time Chrome trace, validate it, and attach each
    traced pass's per-layer self times; returns the problems found."""
    from repro.obs.validate import validate_file
    from stages import self_times

    tracer.write_chrome_trace(path)
    _, problems = validate_file(path)
    problems = [f"trace: {p}" for p in problems]
    spans = tracer.spans
    pass_s = {s.args["pass"]: s.duration_ms / 1000.0 for s in spans
              if s.name == "pass"}
    by_pass = self_times(spans)
    for record in records:
        if not record["traced"]:
            continue
        own = dict(by_pass[record["index"]])
        total = own.pop("total")
        record["self_ref_s"] = own
        if abs(total - pass_s[record["index"]]) > ACCOUNTING_TOLERANCE_S:
            problems.append(f"pass {record['index']}: self times sum to "
                            f"{total:.9f} s, pass span is "
                            f"{pass_s[record['index']]:.9f} s")
    return problems


def store_reference(workload, seed: int) -> int:
    """Run two passes; if both hold the invariants and agree, store
    their outputs as the reference for ``seed``."""
    from gate import digest, write_reference
    from stages import StageClock

    clock = StageClock()
    results = []
    for index in range(2):
        with clock.run_pass(index, traced=False):
            results.append(workload.run_pass(clock))
    problems = [p for r in results
                for p in r.problems + workload.invariants(r.outputs)]
    if digest(results[0].outputs) != digest(results[1].outputs):
        problems.append("two passes disagree")
    if problems:
        print("not stored: " + "; ".join(problems[:10]), file=sys.stderr)
        return 1
    print(f"wrote {write_reference(workload.name, seed, results[0].outputs)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--mode", required=True,
                        choices=("setup", "run", "import", "reference"))
    parser.add_argument("--workload")
    parser.add_argument("--module")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    if args.mode == "import":
        start = time.perf_counter()
        importlib.import_module(args.module)
        print(json.dumps(time.perf_counter() - start), flush=True)
        return 0

    from workloads import WORKLOADS
    from gate import load_reference

    workload = WORKLOADS[args.workload](args.seed)
    print("READY " + json.dumps({"fleet_s": workload.fleet_s}), flush=True)
    if args.mode == "setup":
        return 0

    if args.mode == "reference":
        return store_reference(workload, args.seed)

    records, tracer = run_passes(workload, args.seconds, bool(args.trace),
                                 load_reference(workload.name, args.seed))
    problems = []
    trace_path = None
    if tracer is not None:
        trace_path = TRACE_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        problems = finish_trace(tracer, records, trace_path)

    from repro.bench.runner import peak_rss_kb

    result = {
        "workload": workload.name,
        "op": workload.op,
        "records": records,
        "problems": problems,
        "peak_rss_kb": peak_rss_kb(),
        "trace_path": str(trace_path) if trace_path else None,
        "provenance": provenance(workload),
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
