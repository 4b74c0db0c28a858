"""Print the sha256 of every file one short seeded chain of `anisodiff` commands writes.

The chain runs every command the README documents, in a temporary directory
and on tiny inputs, so that a change which must leave CLI outputs
bit-identical can show it by running this before and after the change:

    python3 tools/cli_fingerprints.py [--keep DIR]

Each line is `<step> <file> <sha256>`, one per file the step writes, where
`<step>` names the command and what it covers (`sample-euler`,
`train-classes`).  A file's leading provenance line `# anisodiff <version>
config=<hash> seed=<seed>` is left out of its hash, since `train`'s hash
covers the config's resolved absolute paths, which differ per directory.
The steps cover oracle, model (on a CSV `"data"` file), class-conditional
and explicit-family (blocks with `pca_meta`) training, sampling with each
solver rule, `--denoise`, `--dump-trajectory`, `--class-label` and a model
field, `gen-data`, both `basis` kinds, `schedule-fit` and both `analyze`
commands.  `verify` is
left out: its report rows carry wall times, and `tools/fingerprints.py`
prints every check value.  `--keep DIR` runs the chain in DIR, which must
not exist yet, and keeps the files.  BLAS is pinned to one thread.
"""

import argparse
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from anisodiff.cli import main as cli_main  # noqa: E402

PROVENANCE = re.compile(r"# anisodiff \S+ config=[0-9a-f]{12} seed=-?\d+")


def mixture(means, variances):
    """A saved equal-weight mixture with diagonal covariances."""
    covs = [[[v[i] if i == j else 0.0 for j in range(len(v))] for i in range(len(v))]
            for v in variances]
    return {"format_version": "1", "weights": [1.0 / len(means)] * len(means),
            "means": means, "covariances": covs}


TRAIN = {"batch_size": 16, "warmup_images": 16, "total_images": 64, "log_every": 1, "seed": 1}
INPUTS = {
    "gmm.json": mixture([[1.0, 0.0, 0.5, 0.0], [-1.0, 0.5, 0.0, -0.5]],
                        [[0.5, 0.8, 0.3, 0.6], [0.4, 0.2, 0.9, 0.5]]),
    "a.json": mixture([[0.5, 0.5, 0.0, 0.0]], [[0.3, 0.6, 0.9, 0.4]]),
    "b.json": mixture([[-0.5, 0.0, 0.5, 0.0], [0.0, -0.5, 0.0, 0.5]],
                      [[0.7, 0.2, 0.5, 0.3], [0.2, 0.4, 0.6, 0.8]]),
    "oracle.json": {"version": "1", "gmm": "gmm.json",
                    "family": {"kind": "dct", "side": 2, "low_side": 1},
                    "schedule": {"horizon": 10.0, "knots": 4}, "train": TRAIN},
    "model.json": {"version": "1", "data": "data.csv", "family": {"kind": "isotropic", "dim": 4},
                   "schedule": {"horizon": 10.0, "floor": 1e-3, "knots": 4},
                   "model": {"widths": [8], "seed": 2},
                   "train": {**TRAIN, "model_steps_per_schedule_step": 2}},
    "classes.json": {"version": "1", "gmm": {"a": "a.json", "b": "b.json"},
                     "family": {"kind": "axis", "dim": 4, "split": 1},
                     "schedule": {"horizon": 10.0, "knots": 4, "classes": ["a", "b"]},
                     "train": TRAIN},
    "explicit.json": {"version": "1", "gmm": "gmm.json",
                      "family": {"kind": "explicit", "dim": 4, "blocks": [
                          [[0.6], [0.0], [0.8], [0.0]],
                          [[0.0, -0.8, 0.0], [0.8, 0.0, 0.6], [0.0, 0.6, 0.0], [0.6, 0.0, -0.8]]],
                          "pca_meta": {"eigenvalues": [2.0, 1.0, 0.5, 0.25], "tie_at_cut": False}},
                      "schedule": {"horizon": 10.0, "knots": 4}, "train": TRAIN},
}
WEIGHTS = "t,w\n0,1\n2,0.8\n5,0.6\n10,0.5\n"

SAMPLE = ["sample", "--steps", "4", "--n", "8", "--seed", "1"]
ORACLE = [*SAMPLE, "--schedule", "oracle/schedule.json", "--oracle", "gmm.json"]
STEPS = [
    ("gen-data", ["gen-data", "--gmm", "gmm.json", "--n", "64", "--seed", "5", "--out", "data.csv"]),
    ("gen-data-class", ["gen-data", "--gmm", "a.json", "--n", "32", "--seed", "6",
                        "--class-label", "a", "--out", "data_a.csv"]),
    ("basis-dct", ["basis", "dct", "--size", "2", "--low-side", "1", "--out", "dct.csv"]),
    ("basis-pca", ["basis", "pca", "--data", "data.csv", "--k", "1", "--out", "pca.csv"]),
    ("basis-pca-class", ["basis", "pca", "--data", "data_a.csv", "--k", "1",
                         "--out", "pca_a.csv"]),
    ("schedule-fit", ["schedule-fit", "--weight-csv", "w.csv", "--horizon", "10",
                      "--quad-points", "1001", "--knots", "4", "--dim", "4",
                      "--out", "fit.json", "--table", "fit_table.csv"]),
    ("train-oracle", ["train", "--config", "oracle.json", "--out", "oracle"]),
    ("train-model-csv", ["train", "--config", "model.json", "--out", "model"]),
    ("train-classes", ["train", "--config", "classes.json", "--out", "classes"]),
    ("train-explicit", ["train", "--config", "explicit.json", "--out", "explicit"]),
    ("sample-heun-endpoint", [*ORACLE, "--out", "heun.csv", "--dump-trajectory", "traj"]),
    ("sample-heun-midpoint", [*ORACLE, "--secondary", "midpoint", "--out", "midpoint.csv"]),
    ("sample-euler", [*ORACLE, "--solver", "euler", "--out", "euler.csv"]),
    ("sample-denoise", [*ORACLE, "--denoise", "--out", "denoised.csv"]),
    ("sample-model", [*SAMPLE, "--schedule", "model/schedule.json",
                      "--model", "model/model_ema.json", "--out", "model.csv"]),
    ("sample-class", [*SAMPLE, "--schedule", "classes/schedule.json", "--oracle", "a.json",
                      "--class-label", "a", "--out", "class_a.csv"]),
    ("sample-fit", [*SAMPLE, "--schedule", "fit.json", "--oracle", "gmm.json",
                    "--out", "fit.csv"]),
    ("sample-explicit", [*SAMPLE, "--schedule", "explicit/schedule.json", "--oracle", "gmm.json",
                         "--out", "explicit.csv"]),
    ("analyze-schedule", ["analyze", "schedule", "oracle/schedule.json", "--points", "16",
                          "--out", "analysis"]),
    ("analyze-schedule-classes", ["analyze", "schedule", "classes/schedule.json",
                                  "--points", "16", "--out", "analysis_classes"]),
    ("analyze-schedule-explicit", ["analyze", "schedule", "explicit/schedule.json",
                                   "--points", "16", "--out", "analysis_explicit"]),
    ("analyze-subspaces", ["analyze", "subspaces", "dct.csv", "pca.csv", "pca_a.csv",
                           "--out", "subspaces"]),
]


def content_hash(path: Path) -> str:
    """sha256 of the file's bytes after its leading provenance line, if it has one."""
    data = path.read_bytes()
    first, _, rest = data.partition(b"\n")
    if PROVENANCE.fullmatch(first.decode(errors="replace")):
        data = rest
    return hashlib.sha256(data).hexdigest()


def snapshot(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def run_chain(root: Path):
    """Write the inputs into `root`, run every step there and yield its
    `(step, file, hash)` lines; a step that does not exit 0 raises."""
    for name, doc in INPUTS.items():
        (root / name).write_text(json.dumps(doc, indent=2))
    (root / "w.csv").write_text(WEIGHTS)
    cwd = os.getcwd()
    os.chdir(root)  # relative paths keep every option, and so the config hash, the same
    try:
        before = snapshot(root)
        for step, argv in STEPS:
            with redirect_stdout(io.StringIO()):  # its "wrote ..." line carries a wall time
                code = cli_main(argv)
            if code != 0:
                raise RuntimeError(f"{step}: anisodiff {' '.join(argv)} exited {code}")
            after = snapshot(root)
            for name in sorted(after):
                if before.get(name) != after[name]:
                    yield step, name, content_hash(root / name)
            before = after
    finally:
        os.chdir(cwd)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", metavar="DIR", help="run in DIR (new) and keep its files")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        if args.keep:
            root = Path(args.keep).resolve()
            root.mkdir(parents=True)
        for step, name, digest in run_chain(root):
            print(f"{step} {name} {digest}", flush=True)


if __name__ == "__main__":
    main()
