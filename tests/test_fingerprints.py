"""The seed-3 benchmark outputs and the `verify` check values are pinned bit for bit in
`tests/fingerprints.txt`, and the files a short chain of CLI commands writes in
`tests/cli_fingerprints.txt`.

The file's first line names the numpy, scipy and BLAS builds its hashes were taken on; the rest
is the output of `tools/fingerprints.py`, which this test runs in a subprocess so that BLAS is
pinned to one thread.  A change that moves output bits rewrites the file and reports the drift
per unit (`tools/fingerprints.py --compare`) and each `verify` line it changes.  On other builds the test fails, naming both and
the command that rewrites the file.  `tests/cli_fingerprints.txt` has the same first line and
then the output of `tools/cli_fingerprints.py`.
"""

import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from anisodiff import __version__

ROOT = Path(__file__).resolve().parent.parent
RECORDED = Path(__file__).resolve().with_name("fingerprints.txt")
CLI_RECORDED = RECORDED.with_name("cli_fingerprints.txt")


def builds():
    """The numpy, scipy and BLAS builds the hashes depend on, as one comment line."""
    blas = [lib.show_config(mode="dicts")["Build Dependencies"]["blas"] for lib in (np, scipy)]
    return (f"# numpy {np.__version__} (BLAS {blas[0]['name']} {blas[0]['version']}), "
            f"scipy {scipy.__version__} (BLAS {blas[1]['name']} {blas[1]['version']}), "
            "one BLAS thread")


def recorded_lines(path: Path, tool: str) -> list:
    """The lines of a fingerprint file after its build line, which must name this build."""
    header, *recorded = path.read_text().splitlines()
    here = builds()
    assert header == here, (
        f"tests/{path.name} was recorded on\n  {header[2:]}\nbut this is\n  {here[2:]}\n"
        "so its hashes say nothing here.  Rewrite it on this build, from a tree whose outputs "
        f"are trusted, with\n  (echo '{here}'; python3 tools/{tool}) > tests/{path.name}")
    return recorded


def run_tool(tool: str, *args) -> list:
    done = subprocess.run([sys.executable, str(ROOT / "tools" / tool), *args],
                          capture_output=True, text=True, check=False, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_seed_3_fingerprints_are_unchanged():
    recorded = recorded_lines(RECORDED, "fingerprints.py")
    assert run_tool("fingerprints.py") == recorded


@pytest.fixture(scope="module")
def cli_chain(tmp_path_factory):
    """The directory the CLI chain ran in and the `<step> <file> <sha256>` lines it printed."""
    root = tmp_path_factory.mktemp("cli") / "chain"
    return root, run_tool("cli_fingerprints.py", "--keep", str(root))


def test_cli_outputs_are_unchanged(cli_chain):
    recorded = recorded_lines(CLI_RECORDED, "cli_fingerprints.py")
    assert cli_chain[1] == recorded


SEEDS = {"gen-data": 5, "gen-data-class": 6}  # the chain's --seed; sample and train steps use 1


def test_every_cli_output_file_starts_with_one_provenance_line(cli_chain):
    root, lines = cli_chain
    provenance = re.compile(r"# anisodiff (\S+) config=[0-9a-f]{12} seed=(-?\d+)")
    for step, name, _ in (line.split() for line in lines):
        text = (root / name).read_text().splitlines()
        if name.endswith(".json"):  # JSON outputs have no provenance line
            assert not any(line.startswith("# anisodiff") for line in text), name
            continue
        first = provenance.fullmatch(text[0])
        assert first, f"{name}: {text[0]!r}"
        seed = SEEDS.get(step, 1 if step.startswith(("sample", "train")) else 0)
        assert first.groups() == (__version__, str(seed)), name
        assert not any(line.startswith("# anisodiff") for line in text[1:]), name
