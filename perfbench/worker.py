"""One benchmark process for one workload.

It builds the workload from its seed, runs one warm-up unit and prints
``READY``; the parent times process start to that line as set-up.  Then,
unless ``--setup-only`` is given, it measures and prints one JSON line:

* ``--trace 0``: units run back to back for ``--seconds`` of wall time;
  ops are timed from outside the library and scaled to reference host
  speed (calibrate.py).
* ``--trace 1``: a fixed number of units, each run once untraced and
  once traced, for per-layer metrics and the tracing overhead.

BLAS and OpenMP are pinned to one thread before numpy is imported.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Nominal untraced seconds per unit on a 2-core Xeon; sets how many units
# a traced run covers, so its counts depend on --seconds but not on speed.
NOMINAL_UNIT_S = {"oracle-train": 1.0, "model-train": 0.8,
                  "oracle-sample": 0.45, "mlp-sample": 0.5}


def machine_info():
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _as_records(checks):
    return [{"name": name, "passed": bool(passed), "detail": detail}
            for name, passed, detail in checks]


def timed_run(workload, seconds):
    """Units back to back for `seconds` of wall time; per-op and per-unit times.

    The reference kernel runs before the first unit and after each one.
    The run's speed factor is REFERENCE_S over the kernel's mean time
    (calibrate.py), and the reported times are scaled by it.  They are
    means: the kernel's mean weighs fast and slow periods as a mean of
    the run's times does, while a median of a run that mixes the two
    jumps between them.
    """
    import numpy as np

    from calibrate import reference_kernel, speed_factor

    op_times, kernel_times, checks = [], [reference_kernel()], []
    items = attempted = failed = 0
    busy = 0.0
    k = 0
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        try:
            unit = workload.run_unit(k)
        except Exception as exc:  # a failed op is counted, and the run goes on
            attempted += 1
            failed += 1
            print(f"unit {k} failed: {exc!r}", file=sys.stderr)
        else:
            kernel_times.append(reference_kernel())
            busy += unit.duration
            items += unit.items
            attempted += unit.ops
            op_times += unit.op_times
            checks += workload.unit_checks(unit.output)
        k += 1
    checks += workload.final_checks()
    factor = speed_factor(kernel_times)
    return {
        "items_per_s": items / (busy * factor),
        "op_mean_s": float(np.mean(op_times)) * factor,
        "op_p50_s": float(np.median(op_times)) * factor,
        "op_p90_s": float(np.percentile(op_times, 90)) * factor,
        "speed_factor": factor,
        "op_count": len(op_times),
        "units": k,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_attempted": attempted,
        "ops_failed": failed,
        "checks": _as_records(checks),
        "quality": workload.quality(),
    }


def traced_run(workload, name, seed, seconds):
    """Each unit untraced, then traced; per-layer metrics from the traced copies."""
    from layer_metrics import layer_metrics, layer_shares, metric_units, time_identity_gap
    from spans import Tracer, patched

    units = max(1, round(seconds / (2 * NOMINAL_UNIT_S[name])))
    tracer = Tracer()
    checks = []
    plain = traced = 0.0
    ops = attempted = failed = 0
    for k in range(units):
        try:
            reference = workload.run_unit(k)
            with patched(tracer), tracer.root():
                unit = workload.run_unit(k)
        except Exception as exc:  # a failed op is counted, and the run goes on
            attempted += 1
            failed += 1
            print(f"unit {k} failed: {exc!r}", file=sys.stderr)
            continue
        plain += reference.duration
        traced += unit.duration
        ops += unit.ops
        attempted += unit.ops
        same = workload.fingerprint(unit.output) == workload.fingerprint(reference.output)
        checks.append(("traced output bit-identical to untraced", same, f"unit {k}"))
        checks += workload.unit_checks(unit.output)
    checks += workload.final_checks()
    gap = time_identity_gap(tracer.spans)
    checks.append(("root span time = layer self times + untraced remainder",
                   gap < 1e-9, f"relative gap {gap:.1e}"))
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
    tracer.write(spans_path)
    return {
        "layers": layer_metrics(tracer, ops, traced / plain if plain else 0.0),
        "layer_units": metric_units(),
        "layer_shares": layer_shares(tracer.spans),
        "traced_units": units,
        "traced_ops": ops,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(HERE.parent)),
        "ops_attempted": attempted,
        "ops_failed": failed,
        "checks": _as_records(checks),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "anisodiff" / "__init__.py").is_file():
        print(f"benchmark: no anisodiff sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import anisodiff

    if Path(anisodiff.__file__).resolve().parent != SRC / "anisodiff":
        print(f"benchmark: imported anisodiff from {anisodiff.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    workload.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        report = traced_run(workload, args.workload, args.seed, args.seconds)
    else:
        report = timed_run(workload, args.seconds)
    report["machine"] = machine_info()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
