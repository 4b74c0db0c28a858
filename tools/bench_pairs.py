"""Benchmark a parent tree against a change tree in alternating pairs.

Build both sides the same way, as fresh `git archive` trees, so that a
difference in where or how a tree was made (a warm working tree against a
fresh copy) is not read as a difference in the code:

    git archive HEAD~1 | tar -x -C ../parent    # the parent commit
    git archive HEAD~1 | tar -x -C ../control   # the parent again, an A/A control
    git archive HEAD | tar -x -C ../change      # the change, once committed
    python3 tools/bench_pairs.py --parent ../parent --change ../change --control ../control \
        --pairs 10 --first-seed 20001 --workload mlp-sample --out BENCH.json

(For an uncommitted change, `git add -A && git archive $(git stash create)`
archives the staged tree without touching the working tree.)

Each pair runs `perfbench/run.py --workload W --seed S --seconds T` once in
each tree, on the same seed; the parent runs first on the first, third, ...
pair and the change first on the others.  Seeds are `--first-seed`,
`--first-seed + 1`, ... per pair.  `--seconds` defaults to the benchmark's
`run_seconds`, and the workloads to every workload of `BENCHMARK.json`
(read from the change tree), whose `end_to_end` list also gives each
metric's unit and better direction.

`--out` is rewritten after every pair, so an interrupted session keeps the
pairs it finished.  It holds `machine` (from the first run), `method` and
`end_to_end`: per workload the seeds, the summed attempted and failed ops,
whether every run was correct, and per metric each side's runs in seed
order, their median and inclusive quartiles, the pairs the change won
(ties count for neither side), the ratio of the medians and the parent's
interquartile range.  Each metric also gets the acceptance rule's two
verdicts: `gain_resolved` (the change won at least 9 in 10 pairs and its
median is better than the parent's by more than the parent's interquartile
range, and no change run is incorrect or fails a larger share of its
operations than the parent's; `gain_blocked_by` names which when one
does) and `worse_than_bound` (the change's median is worse than the
parent's by more than the metric's `bound`, a fraction of the parent's
median).  After each workload one verdict line per metric is printed.

`--control TREE` names a second fresh archive of the parent commit, an
A/A control: after each workload's pairs, as many parent/control pairs run
on the same seeds, again alternating which side runs first, and are
summarized the same way under the workload's `control` (the control in the
change's place).  A gain the control resolves is one that code the change
did not touch can show, so the change's gain on that metric does not
count: it keeps `gain_resolved` false and its `gain_blocked_by` names the
control.  The control never grants a gain and never moves a bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def side_stats(runs):
    """Median and inclusive quartiles of one side's runs."""
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": list(runs)}


def summarize(specs, seeds, pairs):
    """One workload's `end_to_end` entry from its (parent, change) result pairs in seed order.

    `specs` is `BENCHMARK.json`'s `end_to_end` list; a result is the JSON object
    on the last line of `perfbench/run.py`'s output.
    """
    sides = {"parent": [p for p, _ in pairs], "change": [c for _, c in pairs]}
    entry = {
        "pairs": len(pairs),
        "seeds": list(seeds),
        "failed_ops": {side: sum(r["failed"] for r in results) for side, results in sides.items()},
        "attempted_ops": {side: sum(r["attempted"] for r in results)
                          for side, results in sides.items()},
        "correct": {side: all(r["correct"] for r in results) for side, results in sides.items()},
        "metrics": {},
    }
    share = {side: entry["failed_ops"][side] / max(entry["attempted_ops"][side], 1)
             for side in sides}
    reasons = []  # why a gain, however large, would not count
    if not entry["correct"]["change"]:
        reasons.append("a change run is incorrect")
    if share["change"] > share["parent"]:
        reasons.append("the change fails a larger share of operations")
    blocked = "; ".join(reasons) or None
    for spec in specs:
        name, lower = spec["name"], spec["better"] == "lower"
        runs = {side: [r["metrics"][name]["value"] for r in results]
                for side, results in sides.items()}
        parent, change = side_stats(runs["parent"]), side_stats(runs["change"])
        won = sum(c < p if lower else c > p for p, c in zip(runs["parent"], runs["change"]))
        iqr = parent["q3"] - parent["q1"]
        gain = (parent["median"] - change["median"]) * (1 if lower else -1)  # > 0: change better
        entry["metrics"][name] = {
            "unit": spec["unit"], "better": spec["better"], "parent": parent, "change": change,
            "change_better_pairs": won, "median_ratio": change["median"] / parent["median"],
            "parent_iqr": iqr,
            "gain_resolved": blocked is None and 10 * won >= 9 * len(pairs) and gain > iqr,
            "gain_blocked_by": blocked,
            "worse_than_bound": -gain > spec["bound"] * abs(parent["median"]),
        }
    return entry


CONTROL_BLOCK = "the A/A control resolved a gain"


def apply_control(entry, control):
    """Put `control`, the parent/control summary, under `entry["control"]`, and block the gain of
    every metric on which the control resolves one."""
    entry["control"] = control
    for name, metric in entry["metrics"].items():
        if control["metrics"][name]["gain_resolved"]:
            blocked = metric["gain_blocked_by"]
            metric["gain_resolved"] = False
            metric["gain_blocked_by"] = f"{blocked}; {CONTROL_BLOCK}" if blocked else CONTROL_BLOCK
    return entry


def verdict(workload, name, metric):
    """One line: the metric's medians, pairs won and the acceptance rule's verdicts."""
    pairs = len(metric["parent"]["runs"])
    gap = abs(metric["change"]["median"] - metric["parent"]["median"])
    return (f"{workload} {name}: median ratio {metric['median_ratio']:.4g}, change better in "
            f"{metric['change_better_pairs']}/{pairs} pairs, median gap {gap:.4g} vs parent IQR "
            f"{metric['parent_iqr']:.4g}: "
            f"{'gain resolved' if metric['gain_resolved'] else 'no resolved gain'}"
            f"{f' ({blocked})' if (blocked := metric['gain_blocked_by']) else ''}, "
            f"{'WORSE THAN BOUND' if metric['worse_than_bound'] else 'within bound'}")


def run_once(tree, workload, seed, seconds):
    """`perfbench/run.py` in `tree`: its result object and the machine line's object."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited {done.returncode}: "
                           f"{done.stderr.strip()[-500:]}")
    machine = next(line.split("] machine: ", 1)[1] for line in lines if "] machine: " in line)
    return json.loads(lines[-1]), json.loads(machine)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="the parent commit's tree")
    parser.add_argument("--change", required=True, type=Path, help="the change's tree")
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--first-seed", required=True, type=int)
    parser.add_argument("--workload", action="append", help="repeat for several; default all")
    parser.add_argument("--seconds", type=float, help="default: the benchmark's run_seconds")
    parser.add_argument("--control", type=Path,
                        help="a second fresh tree of the parent commit, for A/A pairs")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    seeds = [args.first_seed + i for i in range(args.pairs)]
    record = {
        "method": f"perfbench/run.py --seconds {seconds:g} --trace 0, {args.pairs} pairs per "
                  f"workload on seeds {seeds[0]}-{seeds[-1]}, alternating parent/change order "
                  "per pair (the parent first on odd pairs), each side in its own tree; medians "
                  "and inclusive quartiles over runs, runs listed in seed order"
                  + (", then as many parent/control (A/A) pairs on the same seeds"
                     if args.control else ""),
        "end_to_end": {},
    }

    def run_pair(workload, i, other):
        """Pair i, parent against `other` on seed i; the parent runs first on even i."""
        results = {}
        for side in ("parent", other) if i % 2 == 0 else (other, "parent"):
            results[side], machine = run_once(getattr(args, side), workload, seeds[i], seconds)
            record.setdefault("machine", machine)
        print(f"{workload} seed {seeds[i]}: items_per_s" + "".join(
            f" {side} {results[side]['metrics']['items_per_s']['value']:.4g}"
            for side in ("parent", other)), flush=True)
        return results["parent"], results[other]

    specs, entries = bench["end_to_end"], record["end_to_end"]
    for workload in workloads:
        pairs, control = [], []
        for i in range(args.pairs):
            pairs.append(run_pair(workload, i, "change"))
            entries[workload] = summarize(specs, seeds[:i + 1], pairs)
            args.out.write_text(json.dumps(record, indent=1) + "\n")
        for i in range(args.pairs if args.control else 0):
            control.append(run_pair(workload, i, "control"))
            entries[workload] = apply_control(summarize(specs, seeds, pairs),
                                              summarize(specs, seeds[:i + 1], control))
            args.out.write_text(json.dumps(record, indent=1) + "\n")
        shown = [(workload, entries[workload])]
        if args.control:
            shown.append((f"{workload} control", entries[workload]["control"]))
        for label, summary in shown:
            for name, metric in summary["metrics"].items():
                print(verdict(label, name, metric), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
