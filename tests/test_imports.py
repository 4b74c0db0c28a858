"""Importing the package loads numpy only; SciPy is loaded where it is used.

The oracle factors its covariances with numpy alone, so it loads no SciPy at all.
"""

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


def test_oracle_paths_load_no_scipy_and_generation_metrics_load_it_on_first_use():
    # d = 3 splits the triangular inverse's last block unevenly; the oracle factors with numpy alone
    out = run_fresh(
        "import numpy as np\n"
        "from anisodiff.fields import OracleFlowField\n"
        "from anisodiff.gmm import GaussianMixture\n"
        "from anisodiff.loss import LossSample\n"
        "from anisodiff.sampler import SamplerConfig, sample_trajectory\n"
        "from anisodiff.schedule import matrix_schedule_for_family\n"
        "from anisodiff.schedule_grad import outer_gradient\n"
        "from anisodiff.subspaces import axis_family\n"
        "from anisodiff.training import evaluate_generation\n"
        "assert 'scipy' not in sys.modules\n"
        "rng = np.random.default_rng(0)\n"
        "gm = GaussianMixture(np.array([0.3, 0.7]), rng.standard_normal((2, 3)),\n"
        "                     np.stack([np.eye(3), 0.5 * np.eye(3)]))\n"
        "ms = matrix_schedule_for_family(axis_family(3, 1), horizon=5.0, n_knots=4)\n"
        "field = OracleFlowField(gm, ms)\n"
        "x = rng.standard_normal((4, 3))\n"
        "assert np.all(np.isfinite(field(x, 1.0)))\n"
        "batch = LossSample(x0=x, eps=rng.standard_normal((4, 3)), t=rng.uniform(0.1, 5.0, 4))\n"
        "assert np.all(np.isfinite(outer_gradient(ms, field, batch).total))\n"
        "final = sample_trajectory(ms, field, SamplerConfig(steps=3), n=4).final\n"
        "assert np.all(np.isfinite(final))\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
        "metrics = evaluate_generation(x, x)\n"
        "assert 'scipy.spatial' in sys.modules\n"
        "print(metrics.energy_distance)\n"
    )
    assert float(out) == 0.0
