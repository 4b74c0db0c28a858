import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPECS = [{"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
         {"name": "op_mean_s", "unit": "s", "better": "lower", "bound": 0.25}]


def result(items, op_mean, failed=0, attempted=10):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {"items_per_s": {"value": items, "unit": "1/s"},
                        "op_mean_s": {"value": op_mean, "unit": "s"}}}


def test_summarize_gives_medians_inclusive_quartiles_and_pairs_won():
    pairs = [(result(100, 0.4), result(120, 0.3)), (result(110, 0.2), result(110, 0.3)),
             (result(90, 0.3), result(130, 0.1)), (result(130, 0.1), result(125, 0.1, 1, 12)),
             (result(120, 0.5), result(140, 0.2))]
    entry = bench_pairs.summarize(SPECS, [5, 6, 7, 8, 9], pairs)
    assert entry["pairs"] == 5 and entry["seeds"] == [5, 6, 7, 8, 9]
    assert entry["attempted_ops"] == {"parent": 50, "change": 52}
    assert entry["failed_ops"] == {"parent": 0, "change": 1}
    assert entry["correct"] == {"parent": True, "change": False}
    items = entry["metrics"]["items_per_s"]
    assert items["parent"] == {"median": 110, "q1": 100, "q3": 120,
                               "runs": [100, 110, 90, 130, 120]}
    assert (items["change"]["median"], items["change"]["q1"], items["change"]["q3"]) == (125, 120, 130)
    assert items["change_better_pairs"] == 3  # the tie at 110 counts for neither side
    assert items["median_ratio"] == pytest.approx(125 / 110)
    assert items["parent_iqr"] == 20
    op_mean = entry["metrics"]["op_mean_s"]
    assert (op_mean["unit"], op_mean["better"]) == ("s", "lower")
    assert op_mean["change_better_pairs"] == 3  # lower wins; 0.1 == 0.1 ties
    assert op_mean["parent"]["q1"] == pytest.approx(0.2)


def test_one_pair_has_its_run_as_every_quartile():
    entry = bench_pairs.summarize(SPECS, [1], [(result(100, 0.4), result(120, 0.3))])
    assert entry["metrics"]["items_per_s"]["change"] == {"median": 120, "q1": 120, "q3": 120,
                                                         "runs": [120]}
    assert entry["metrics"]["items_per_s"]["parent_iqr"] == 0


def ten_pairs(parent_items, change_items):
    return [(result(p, 1.0 / p), result(c, 1.0 / c)) for p, c in zip(parent_items, change_items)]


def test_a_gain_won_in_every_pair_by_more_than_the_parent_iqr_is_resolved():
    parent = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]
    entry = bench_pairs.summarize(SPECS, range(10), ten_pairs(parent, [p + 15 for p in parent]))
    for name in ("items_per_s", "op_mean_s"):
        metric = entry["metrics"][name]
        assert metric["change_better_pairs"] == 10
        assert metric["gain_resolved"] and not metric["worse_than_bound"]
    line = bench_pairs.verdict("w", "items_per_s", entry["metrics"]["items_per_s"])
    assert line.startswith("w items_per_s: ") and "10/10 pairs" in line
    assert line.endswith("gain resolved, within bound")


def test_a_gain_won_in_8_of_10_pairs_is_not_resolved():
    parent = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]
    change = [p + 15 for p in parent[:8]] + [p - 1 for p in parent[8:]]
    metric = bench_pairs.summarize(SPECS, range(10), ten_pairs(parent, change))["metrics"][
        "items_per_s"]
    assert metric["change_better_pairs"] == 8
    assert metric["change"]["median"] - metric["parent"]["median"] > metric["parent_iqr"]
    assert not metric["gain_resolved"] and not metric["worse_than_bound"]
    assert "no resolved gain" in bench_pairs.verdict("w", "items_per_s", metric)


def test_a_regression_past_its_bound_is_reported():
    parent = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]
    entry = bench_pairs.summarize(SPECS, range(10), ten_pairs(parent, [0.7 * p for p in parent]))
    for name in ("items_per_s", "op_mean_s"):  # 30% fewer items, 43% longer ops: bound 25%
        metric = entry["metrics"][name]
        assert metric["worse_than_bound"] and not metric["gain_resolved"]
    assert bench_pairs.verdict("w", "op_mean_s", entry["metrics"]["op_mean_s"]).endswith(
        "no resolved gain, WORSE THAN BOUND")
    within = bench_pairs.summarize(SPECS, range(10), ten_pairs(parent, [0.8 * p for p in parent]))
    assert not within["metrics"]["items_per_s"]["worse_than_bound"]  # 20% is inside the bound


@pytest.mark.parametrize("failed, correct, reason", [
    (1, False, "a change run is incorrect; the change fails a larger share of operations"),
    (0, False, "a change run is incorrect"),
    (1, True, "the change fails a larger share of operations"),
])
def test_a_gain_with_failed_ops_or_an_incorrect_run_is_not_resolved(failed, correct, reason):
    parent = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]
    pairs = ten_pairs(parent, [p + 15 for p in parent])
    pairs[4][1].update(failed=failed, correct=correct)
    metric = bench_pairs.summarize(SPECS, range(10), pairs)["metrics"]["items_per_s"]
    assert metric["change_better_pairs"] == 10
    assert not metric["gain_resolved"] and metric["gain_blocked_by"] == reason
    assert bench_pairs.verdict("w", "items_per_s", metric).endswith(
        f"no resolved gain ({reason}), within bound")


PARENT = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]


@pytest.mark.parametrize("change_items, worse", [(15, False), (-30, True)])
def test_a_gain_the_control_resolves_blocks_the_change_gain_and_moves_no_bound(change_items,
                                                                               worse):
    change = bench_pairs.summarize(SPECS, range(10),
                                   ten_pairs(PARENT, [p + change_items for p in PARENT]))
    control = bench_pairs.summarize(SPECS, range(10), ten_pairs(PARENT, [p + 10 for p in PARENT]))
    entry = bench_pairs.apply_control(change, control)
    assert entry["control"] is control
    for name in ("items_per_s", "op_mean_s"):
        metric = entry["metrics"][name]
        assert control["metrics"][name]["gain_resolved"]
        assert not metric["gain_resolved"]
        assert metric["gain_blocked_by"] == "the A/A control resolved a gain"
        assert metric["worse_than_bound"] == worse
    if not worse:
        assert bench_pairs.verdict("w", "items_per_s", entry["metrics"]["items_per_s"]).endswith(
            "no resolved gain (the A/A control resolved a gain), within bound")


def test_the_control_block_follows_the_change_own_reasons():
    pairs = ten_pairs(PARENT, [p + 15 for p in PARENT])
    pairs[4][1].update(correct=False)
    control = bench_pairs.summarize(SPECS, range(10), ten_pairs(PARENT, [p + 10 for p in PARENT]))
    metric = bench_pairs.apply_control(bench_pairs.summarize(SPECS, range(10), pairs),
                                       control)["metrics"]["items_per_s"]
    assert metric["gain_blocked_by"] == ("a change run is incorrect; "
                                         "the A/A control resolved a gain")


def test_a_control_without_a_resolved_gain_leaves_the_verdict_as_summarize_gave_it():
    pairs = ten_pairs(PARENT, [p + 15 for p in PARENT])
    control_pairs = ten_pairs(PARENT, [p + (-1) ** i for i, p in enumerate(PARENT)])  # won 5/10
    control = bench_pairs.summarize(SPECS, range(10), control_pairs)
    assert not any(m["gain_resolved"] for m in control["metrics"].values())
    entry = bench_pairs.apply_control(bench_pairs.summarize(SPECS, range(10), pairs), control)
    assert entry == {**bench_pairs.summarize(SPECS, range(10), pairs), "control": control}
    assert entry["metrics"]["items_per_s"]["gain_resolved"]
