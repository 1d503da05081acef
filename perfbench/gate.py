"""Correctness gate: every pass's outputs against reference or invariants.

On the default seed each pass is compared with the reference outputs in
``perfbench/reference/``: counts must match exactly, simulated times
(keys ending in ``_ms``) to within 1 ns, and other floats to a relative
1e-9.  On every seed the workload's invariants must hold and each pass
must reproduce the first pass's outputs exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, List

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
TIME_TOLERANCE_MS = 1e-6            # 1 ns
REL_TOLERANCE = 1e-9
MAX_PROBLEMS = 20                   # differences listed per pass


def normalize(outputs: Any) -> Any:
    """The JSON form of ``outputs`` (tuples become lists, keys strings)."""
    return json.loads(json.dumps(outputs))


def digest(outputs: Any) -> str:
    return hashlib.sha256(
        json.dumps(outputs, sort_keys=True).encode()).hexdigest()


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, seed: int):
    """Reference outputs for ``seed``, or ``None`` when none are kept."""
    path = reference_path(workload)
    if not path.is_file():
        return None
    data = json.loads(path.read_text())
    return data["outputs"] if data["seed"] == seed else None


def write_reference(workload: str, seed: int, outputs: Any) -> Path:
    path = reference_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"seed": seed, "outputs": outputs},
                               indent=1, sort_keys=True) + "\n")
    return path


def compare(ref: Any, got: Any, where: str = "") -> List[str]:
    """Differences between a reference value and a pass's value."""
    problems: List[str] = []

    def walk(ref, got, where, key):
        if len(problems) >= MAX_PROBLEMS:
            return
        if isinstance(ref, dict):
            if not isinstance(got, dict) or set(ref) != set(got):
                problems.append(f"{where}: keys differ")
                return
            for k in sorted(ref):
                walk(ref[k], got[k], f"{where}.{k}", k)
        elif isinstance(ref, list):
            if not isinstance(got, list) or len(ref) != len(got):
                problems.append(f"{where}: length differs")
                return
            for i, (r, g) in enumerate(zip(ref, got)):
                walk(r, g, f"{where}[{i}]", key)
        elif isinstance(ref, bool) or ref is None or isinstance(ref, str):
            if ref != got:
                problems.append(f"{where}: {got!r} != reference {ref!r}")
        elif isinstance(ref, (int, float)):
            if isinstance(got, bool) or not isinstance(got, (int, float)):
                problems.append(f"{where}: {got!r} is not a number")
            elif not _close(float(ref), float(got), key):
                problems.append(f"{where}: {got!r} != reference {ref!r}")
        else:
            problems.append(f"{where}: unexpected type {type(ref).__name__}")

    walk(ref, got, where, "")
    return problems


def _close(ref: float, got: float, key: str) -> bool:
    if math.isnan(ref) or math.isnan(got):
        return math.isnan(ref) and math.isnan(got)
    if key.endswith("_ms"):
        return abs(got - ref) <= TIME_TOLERANCE_MS
    if ref.is_integer():
        return got == ref
    return math.isclose(got, ref, rel_tol=REL_TOLERANCE, abs_tol=0.0)


def non_dominated(points) -> bool:
    """True when no point is <= another everywhere and < somewhere
    (all objectives minimized).  Deliberately the plain O(N^2) pairwise
    definition, independent of :mod:`repro.search.pareto`."""
    for a in points:
        for b in points:
            if all(x <= y for x, y in zip(a, b)) \
                    and any(x < y for x, y in zip(a, b)):
                return False
    return True
