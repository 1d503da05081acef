"""repro.analysis — experiment runners regenerating every table and figure.

- :mod:`repro.analysis.hardware` — exact shape-level hardware experiments;
- :mod:`repro.analysis.accuracy` — trainable-substrate accuracy workbench;
- :mod:`repro.analysis.experiments` — one runner per paper table/figure
  (rendered with :mod:`repro.tables`).
"""

from .accuracy import PRESETS, AccuracyPreset, AccuracyWorkbench
from .experiments import run_figure3, run_figure4, run_table1, run_table2, run_table3
from .hardware import (
    FIGURE3_LAYERS,
    Figure4Point,
    HardwareRow,
    figure3_rows,
    figure4_series,
    mixed_precision_bit_map,
    table1_hardware_rows,
)

__all__ = [
    "AccuracyPreset",
    "AccuracyWorkbench",
    "PRESETS",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_figure3",
    "run_figure4",
    "HardwareRow",
    "Figure4Point",
    "table1_hardware_rows",
    "figure3_rows",
    "figure4_series",
    "mixed_precision_bit_map",
    "FIGURE3_LAYERS",
]
