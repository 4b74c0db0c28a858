"""Host-speed calibration: a fixed reference kernel timed next to the workload.

The benchmark runs on a shared host whose per-core speed changes by
1.4-2x for periods from seconds to minutes (CPU time tracks wall time,
so the process is slowed, not descheduled).  Every timing the benchmark
reports is therefore scaled to reference speed:

    scaled = measured * REFERENCE_S / (mean time of the reference_kernel()
                                       runs interleaved with it)

The kernel does not call anisodiff, so a change to the library moves the
scaled figures exactly as it moves the measured ones; the scaling only
removes the host's speed at the moment of measuring.  The kernel mixes
what the workloads spend their time on: batched small-matrix inverses
and log-determinants (gmm), thin products with a tall basis (subspaces),
small dense layers with tanh (flow_model) and interpreter-bound Python.
"""

import os
import time

import numpy as np

# Seconds reference_kernel() takes on a 2-vCPU Intel Xeon KVM guest in
# its fast periods.  It fixes the unit of the scaled figures, nothing else.
REFERENCE_S = 0.0096


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, so calibration and
    workload always run on the same core."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _inputs():
    rng = np.random.default_rng(0)
    small = rng.standard_normal((64, 16, 16))
    small = small @ small.transpose(0, 2, 1) + 16 * np.eye(16)
    mid = rng.standard_normal((4, 64, 64))
    mid = mid @ mid.transpose(0, 2, 1) + 64 * np.eye(64)
    basis = np.linalg.qr(rng.standard_normal((1024, 256)))[0]
    return {"small": small, "mid": mid, "basis": basis,
            "rows": rng.standard_normal((32, 1024)),
            "batch": rng.standard_normal((256, 64)),
            "weight": rng.standard_normal((64, 64)) / 8}


_INPUTS = _inputs()


def reference_kernel():
    """Run the fixed kernel once; return its wall time in seconds."""
    v = _INPUTS
    start = time.perf_counter()
    for _ in range(4):
        np.linalg.inv(v["small"])
        np.linalg.slogdet(v["mid"])
        np.linalg.inv(v["mid"])
        (v["rows"] @ v["basis"]) @ v["basis"].T
        a = v["batch"]
        for _ in range(3):
            a = np.tanh(a @ v["weight"].T)
        s = 0
        for i in range(1500):
            s += i * i
    return time.perf_counter() - start


def speed_factor(kernel_times):
    """Scale for measurements taken among these kernel timings."""
    return REFERENCE_S / (sum(kernel_times) / len(kernel_times))
