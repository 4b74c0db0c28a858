"""The seed-3 benchmark outputs and the `verify` check values are pinned bit for bit in
`tests/fingerprints.txt`.

The file's first line names the numpy, scipy and BLAS builds its hashes were taken on; the rest
is the output of `tools/fingerprints.py`, which this test runs in a subprocess so that BLAS is
pinned to one thread.  A change that moves output bits rewrites the file and reports the drift
per unit (`tools/fingerprints.py --compare`) and each `verify` line it changes.  On other builds the test fails, naming both and
the command that rewrites the file.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
RECORDED = Path(__file__).resolve().with_name("fingerprints.txt")


def builds():
    """The numpy, scipy and BLAS builds the hashes depend on, as one comment line."""
    blas = [lib.show_config(mode="dicts")["Build Dependencies"]["blas"] for lib in (np, scipy)]
    return (f"# numpy {np.__version__} (BLAS {blas[0]['name']} {blas[0]['version']}), "
            f"scipy {scipy.__version__} (BLAS {blas[1]['name']} {blas[1]['version']}), "
            "one BLAS thread")


def test_seed_3_fingerprints_are_unchanged():
    header, *recorded = RECORDED.read_text().splitlines()
    here = builds()
    assert header == here, (
        f"tests/fingerprints.txt was recorded on\n  {header[2:]}\nbut this is\n  {here[2:]}\n"
        "so its hashes say nothing here.  Rewrite it on this build, from a tree whose outputs "
        f"are trusted, with\n  (echo '{here}'; python3 tools/fingerprints.py) "
        "> tests/fingerprints.txt")
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "fingerprints.py")],
                          capture_output=True, text=True, check=False, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == recorded
