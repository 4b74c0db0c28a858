"""Span arithmetic and the re-binding of traced functions."""

import importlib
import sys

import numpy as np

from layer_metrics import aggregate, layer_metrics, time_identity_gap
from spans import LAYERS, ROOT, Tracer, package_modules, patched, self_times


def span(name, start, end, parent):
    return [name, start, end, parent, None, None]


def test_self_times_on_a_nested_tree():
    spans = [
        span(ROOT, 0.0, 10.0, -1),
        span("gmm.score", 1.0, 4.0, 0),
        span("schedule.eval_M", 2.0, 3.0, 1),
        span("subspaces.apply_spectral", 5.0, 9.0, 0),
        span("schedule.eval_M", 6.0, 6.5, 3),
        span("schedule.eval_M", 7.0, 8.0, 3),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 2.5, 0.5, 1.0]
    assert sum(self_times(spans)) == 10.0
    assert time_identity_gap(spans) == 0.0
    agg = aggregate(spans)
    assert agg["schedule.eval_M"]["calls"] == 3
    assert agg["schedule.eval_M"]["self_s"] == 2.5
    assert agg["subspaces.apply_spectral"]["total_s"] == 4.0


def test_self_times_merge_overlapping_and_clip_outlying_children():
    spans = [
        span(ROOT, 0.0, 10.0, -1),
        span("a", 1.0, 5.0, 0),
        span("b", 3.0, 7.0, 0),
        span("c", 9.0, 12.0, 0),
    ]
    # children cover [1, 7] and [9, 10] of the root: 7 of its 10 seconds
    assert self_times(spans)[0] == 3.0


def unwrapped_bindings():
    """(module, attribute) pairs bound to the unwrapped eval_M or apply_spectral."""
    originals = [sys.modules["anisodiff.schedule"].eval_M,
                 sys.modules["anisodiff.subspaces"].apply_spectral]
    originals = [getattr(fn, "__wrapped_original__", fn) for fn in originals]
    return [(m.__name__, attr) for m in package_modules()
            for attr, value in vars(m).items() if any(value is fn for fn in originals)]


def _load_package():
    for name in (*LAYERS, "cli", "verify", "persistence"):
        importlib.import_module(f"anisodiff.{name}")


def test_patching_leaves_no_unwrapped_eval_M_or_apply_spectral():
    _load_package()
    loss = sys.modules["anisodiff.loss"]
    schedule = sys.modules["anisodiff.schedule"]
    original = schedule.eval_M
    assert unwrapped_bindings()  # several modules bind both names before patching
    tracer = Tracer()
    with patched(tracer):
        assert unwrapped_bindings() == []
        assert loss.eval_M is not original
        assert loss.eval_M.__wrapped_original__ is original
    assert loss.eval_M is original and schedule.eval_M is original


def test_calls_through_importing_modules_are_recorded_with_parents():
    _load_package()
    from anisodiff.loss import weight_values
    from anisodiff.schedule import matrix_schedule_for_family
    from anisodiff.subspaces import build_dct_projectors

    ms = matrix_schedule_for_family(build_dct_projectors(4, low_side=2), 80.0)
    tracer = Tracer()
    with patched(tracer), tracer.root():
        sys.modules["anisodiff.loss"].weight_values(ms, np.array([1.0, 2.0]))
    names = [s[0] for s in tracer.spans]
    assert names == [ROOT, "loss.weight_values", "schedule.eval_M"]
    assert tracer.spans[2][3] == 1
    assert tracer.counters["schedule.knot_evals"] == ms.n_subspaces
    # the caller's own binding, taken before patching, stays untraced
    weight_values(ms, 1.0)
    assert len(tracer.spans) == 3


def test_layer_metrics_count_rows_and_ratios():
    tracer = Tracer()
    tracer.spans = [
        span(ROOT, 0.0, 4.0, -1),
        span("schedule_grad.outer_gradient", 0.0, 3.0, 0),
        ["flow_model.mixed", 0.5, 1.0, 1, 8, None],
        ["flow_model.mixed", 1.0, 1.5, 1, 8, None],
        ["flow_model.mixed", 3.5, 3.8, 0, 8, None],
        ["gmm.score", 3.8, 3.9, 0, 4, "k1"],
        ["gmm.score", 3.9, 4.0, 0, 4, "k1"],
    ]
    tracer.counters["schedule.knot_evals"] = 6
    metrics = layer_metrics(tracer, ops=2, overhead_ratio=1.1)
    assert metrics["flow_model.mixed.calls"] == 3
    assert metrics["flow_model.mixed.rows"] == 24
    assert metrics["schedule_grad.mixed_calls_per_gradient"] == 2.0
    assert metrics["schedule_grad.outer_gradient.self_s"] == 2.0
    assert metrics["gmm.factor_rows"] == 8
    assert metrics["gmm.factorizations_per_point"] == 2.0
    assert metrics["schedule.knot_evals_per_op"] == 3.0
    assert metrics["flow_model.primal_passes_per_op"] == 1.5
    assert metrics["trace.overhead_ratio"] == 1.1
