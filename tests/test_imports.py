"""Importing the package loads numpy only; SciPy is loaded where it is used."""

import subprocess
import sys
from pathlib import Path

import anisodiff

SRC = str(Path(anisodiff.__file__).resolve().parents[1])


def run_fresh(code):
    """Run `code` in a fresh interpreter with this checkout's src on the path."""
    script = f"import sys\nsys.path.insert(0, {SRC!r})\n{code}"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_cli_loads_no_scipy():
    out = run_fresh(
        "import anisodiff.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    assert out.strip() == "[]"


def test_oracle_field_and_generation_metrics_load_scipy_on_first_use():
    out = run_fresh(
        "import numpy as np\n"
        "from anisodiff.fields import OracleFlowField\n"
        "from anisodiff.gmm import single_gaussian\n"
        "from anisodiff.schedule import matrix_schedule_for_family\n"
        "from anisodiff.subspaces import axis_family\n"
        "from anisodiff.training import evaluate_generation\n"
        "assert 'scipy' not in sys.modules\n"
        "ms = matrix_schedule_for_family(axis_family(2, 1), horizon=5.0, n_knots=4)\n"
        "field = OracleFlowField(single_gaussian(np.zeros(2), np.eye(2)), ms)\n"
        "x = np.random.default_rng(0).standard_normal((3, 2))\n"
        "assert np.all(np.isfinite(field(x, 1.0)))\n"
        "assert 'scipy.linalg' in sys.modules\n"
        "metrics = evaluate_generation(x, x)\n"
        "assert 'scipy.spatial' in sys.modules\n"
        "print(metrics.energy_distance)\n"
    )
    assert float(out) == 0.0
