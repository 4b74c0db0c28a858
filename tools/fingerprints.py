"""Print the seed-3 output fingerprints of units 0-3 of every benchmark workload,
then the value of every `anisodiff verify` check.

A refactor that must leave outputs bit-identical shows it by running this
before and after the change and comparing the printed lines:

    python3 tools/fingerprints.py

Each workload line is `<workload> unit <k> <sha256 of the unit's output>`, as
`perfbench/workloads.py` computes it.  Each check line that follows is
`verify <group>/<name> <repr of its value>`, one per row of a full
`verify.run_checks()`.  BLAS is pinned to one thread.

A change that may move last digits saves the arrays behind those hashes on
one side and reports its drift on the other:

    python3 tools/fingerprints.py --save before.npz     # at the parent
    python3 tools/fingerprints.py --compare before.npz  # at the change

`--compare` appends to each line `max_rel <x>`: the largest absolute
difference over the unit's arrays, relative to the largest saved entry
(0 when the outputs are bit-identical).
"""

import argparse
import os
import sys
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from anisodiff.verify import run_checks  # noqa: E402

SEED, UNITS = 3, 4


def hashed_arrays(workload, output):
    """The unit's fingerprint and the arrays it hashes, caught at `workloads._digest`."""
    caught = []
    digest = workloads._digest

    def catching(*arrays):
        caught.extend(np.array(a, dtype=float) for a in arrays)
        return digest(*arrays)

    workloads._digest = catching
    try:
        return workload.fingerprint(output), caught
    finally:
        workloads._digest = digest


def max_rel(arrays, saved):
    if len(arrays) != len(saved) or any(a.shape != b.shape for a, b in zip(arrays, saved)):
        return "shape-mismatch"
    # np.max, not Python's max, so a NaN entry reads as nan rather than as a smaller drift
    diff = np.max([np.max(np.abs(a - b), initial=0.0) for a, b in zip(arrays, saved)],
                  initial=0.0)
    scale = np.max([np.max(np.abs(b), initial=0.0) for b in saved], initial=0.0)
    return f"{diff / scale if scale else diff:.3g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--save", metavar="PATH", help="write each unit's arrays to this .npz")
    group.add_argument("--compare", metavar="PATH", help="compare each unit with a saved .npz")
    args = parser.parse_args()
    saved = np.load(args.compare) if args.compare else None
    kept = {}
    for name, make in workloads.WORKLOADS.items():
        workload = make(SEED)
        for k in range(UNITS):
            fingerprint, arrays = hashed_arrays(workload, workload.run_unit(k).output)
            line = f"{name} unit {k} {fingerprint}"
            key = f"{name}.unit{k}"
            if saved is not None:
                count = sum(f.startswith(key + ".") for f in saved.files)
                line += f" max_rel {max_rel(arrays, [saved[f'{key}.{i}'] for i in range(count)])}"
            if args.save:
                kept.update({f"{key}.{i}": a for i, a in enumerate(arrays)})
            print(line, flush=True)
    for row in run_checks():
        print(f"verify {row.group}/{row.name} {row.value!r}", flush=True)
    if args.save:
        np.savez(args.save, **kept)


if __name__ == "__main__":
    main()
