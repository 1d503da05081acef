"""EPIM reproduction — Efficient Processing-In-Memory Accelerators based on Epitome.

Full from-scratch reproduction of Wang et al., DAC 2024 (arXiv:2311.07620):

- :mod:`repro.nn` — numpy autograd deep-learning framework (PyTorch stand-in),
- :mod:`repro.models` — ResNet family (runnable nets + exact layer-shape specs),
- :mod:`repro.data` — deterministic synthetic datasets (ImageNet stand-in),
- :mod:`repro.pim` — MNSIM-style behaviour-level PIM simulator,
- :mod:`repro.quant` — quantization + HAWQ-style mixed precision,
- :mod:`repro.core` — the paper's contribution: epitome operator, designer,
  channel wrapping, epitome-aware quantization,
- :mod:`repro.search` — vectorized multi-objective design-space search
  (Algorithm 1, Pareto front, parallel restarts),
- :mod:`repro.baselines` — PIM-Prune and element pruning baselines,
- :mod:`repro.analysis` — experiment runners regenerating every table/figure,
- :mod:`repro.serve` — batched multi-chip inference serving runtime,
- :mod:`repro.bench` — unified benchmark harness + perf-trajectory tooling,
- :mod:`repro.tables` — plain-text table rendering shared by every report.
"""

__version__ = "1.0.0"

__all__ = [
    "nn",
    "models",
    "data",
    "pim",
    "quant",
    "core",
    "search",
    "baselines",
    "analysis",
    "serve",
    "bench",
    "tables",
]
