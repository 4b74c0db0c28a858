"""Run one anisodiff benchmark workload and print its metrics.

    python3 perfbench/run.py --workload oracle-train --seed 1 --seconds 10 --trace 0

The workload runs in its own process (perfbench/worker.py).  Set-up time
is process start to the worker's first ``READY`` line, taken over several
set-up-only processes and reported as their median.  Every reported time
is scaled to reference host speed by a kernel timed around it
(perfbench/calibrate.py); the measured figures are on the summary lines.
Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones,
with ``--trace 1`` the per-layer ones.  The full record, machine information included, goes to
perfbench/out/.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from calibrate import pin_to_one_cpu, reference_kernel, speed_factor  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_SAMPLES = 5
MAIN_TIMEOUT_S = 150.0
SETUP_TIMEOUT_S = 30.0
# A percentile is reported only with at least this many ops beyond it.
TAIL_OPS = 10
END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "op_mean_s": "s",
                    "peak_rss_mb": "MB"}


class WorkerFailed(RuntimeError):
    pass


def run_worker(args, setup_only, timeout):
    """Start a worker; return (seconds to READY, its JSON report or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=HERE.parent)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise WorkerFailed(f"worker exited with code {code}")
    lines = rest.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def setup_sample(args):
    """Set-up time of one set-up-only worker, measured and scaled."""
    before = reference_kernel()
    setup = run_worker(args, True, SETUP_TIMEOUT_S)[0]
    return setup, setup * speed_factor([before, reference_kernel()])


def summarize(args, report, setups):
    """Human-readable lines, the record written to perfbench/out, the result line."""
    checks = report["checks"]
    attempted = report["ops_attempted"] + len(checks)
    failed = report["ops_failed"] + sum(1 for c in checks if not c["passed"])
    lines = [f"machine: {json.dumps(report['machine'], sort_keys=True)}"]
    if args.trace:
        metrics = report["layers"]
        from_units = f"{report['traced_units']} units, {report['traced_ops']} ops, {report['spans']} spans"
        lines.append(f"traced run: {from_units}; spans in {report['spans_file']}")
        lines += [f"layer share {k}: {v:.3f}" for k, v in report["layer_shares"].items()]
        units = report["layer_units"]
    else:
        metrics = {"setup_s": statistics.median(scaled for _, scaled in setups),
                   **{name: report[name] for name in END_TO_END_UNITS if name != "setup_s"}}
        units = END_TO_END_UNITS
        lines.append("setup samples (s, measured/scaled): "
                     + ", ".join(f"{raw:.4f}/{scaled:.4f}" for raw, scaled in setups))
        factor = report["speed_factor"]
        lines.append(f"ops timed: {report['op_count']} in {report['units']} units; "
                     f"speed factor {factor:.4f}")
        lines.append(f"measured: items_per_s = {report['items_per_s'] * factor:.6g} 1/s, "
                     f"op_mean_s = {report['op_mean_s'] / factor:.6g} s")
        lines.append(f"op_p50_s = {report['op_p50_s']:.6g} s")
        beyond = report["op_count"] * 0.1
        if beyond >= TAIL_OPS:
            lines.append(f"op_p90_s = {report['op_p90_s']:.6g} s ({beyond:.0f} ops beyond it)")
        else:
            lines.append(f"op_p90_s not reported: {beyond:.1f} ops beyond it, fewer than {TAIL_OPS}")
        for name, (value, unit) in report["quality"].items():
            lines.append(f"{name} = {value:.6g} {unit}")
    lines += [f"{name} = {value:.6g} {units[name]}" for name, value in metrics.items()]
    lines.append(f"error_rate = {failed / attempted:.6g} ratio ({failed} failed of {attempted})")
    by_name = {}
    for check in checks:
        by_name.setdefault(check["name"], []).append(check)
    for name, group in by_name.items():
        bad = [c for c in group if not c["passed"]]
        lines.append(f"check {'FAIL' if bad else 'PASS'}: {name} "
                     f"({len(group) - len(bad)}/{len(group)}; {(bad or group)[0]['detail']})")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    record = dict(report, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_samples=setups, result=result)
    return lines, record, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds through run_worker, which then stops its worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    pin_to_one_cpu()

    try:
        report = run_worker(args, False, MAIN_TIMEOUT_S)[1]
        setups = [] if args.trace else [setup_sample(args) for _ in range(SETUP_SAMPLES)]
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    lines, record, result = summarize(args, report, setups)
    for line in lines:
        print(f"[{args.workload} seed={args.seed}] {line}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
