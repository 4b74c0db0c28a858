"""Print the seed-3 output fingerprints of units 0-3 of every benchmark workload.

A refactor that must leave outputs bit-identical shows it by running this
before and after the change and comparing the printed lines:

    python3 tools/fingerprints.py

Each line is `<workload> unit <k> <sha256 of the unit's output>`, as
`perfbench/workloads.py` computes it.  BLAS is pinned to one thread.
"""

import os
import sys
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS  # noqa: E402

SEED, UNITS = 3, 4

for name, make in WORKLOADS.items():
    workload = make(SEED)
    for k in range(UNITS):
        print(name, "unit", k, workload.fingerprint(workload.run_unit(k).output), flush=True)
