"""Package layering: the serving runtime sits below the paper-artefact
runners (docs/architecture.md), so importing it must not load them."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def test_import_serve_loads_no_analysis_module():
    probe = ("import sys, repro.serve; "
             "print(sorted(m for m in sys.modules "
             "if m == 'repro.analysis' or m.startswith('repro.analysis.')))")
    out = subprocess.run([sys.executable, "-c", probe], cwd=SRC,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]", out.stdout
