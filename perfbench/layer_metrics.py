"""Per-layer metrics derived from the spans and counters of a traced run.

`calls` and `rows` are exact counts over the traced units; `self_s` is
span time minus child-span time; `total_s` is span time.  The `*_per_*`
ratios are exact too: they are counts divided by counts.
"""

from collections import defaultdict

from spans import LAYERS, ROOT, has_ancestor, self_times

# span name -> fields reported for it
SPAN_FIELDS = {
    "subspaces.apply_spectral": ("calls", "rows", "self_s"),
    "schedule.eval_M": ("calls", "self_s"),
    "schedule.eval_M_dtheta": ("calls", "self_s"),
    "schedule.eval_M_dt_dtheta": ("calls", "self_s"),
    "gmm.score": ("calls", "self_s"),
    "gmm.score_directional": ("calls", "self_s"),
    "gmm.score_mixed_directional": ("calls", "self_s"),
    "gmm.sample_p0": ("self_s",),
    "gmm.perturb": ("self_s",),
    "flow_model.forward": ("calls", "rows", "self_s"),
    "flow_model.param_grad": ("calls", "rows", "self_s"),
    "flow_model.directional": ("calls", "rows", "self_s"),
    "flow_model.mixed": ("calls", "rows", "self_s"),
    "loss.loss_sample": ("calls", "self_s"),
    "loss.weight_values": ("calls", "self_s"),
    "loss.weight_theta_derivative": ("calls", "self_s"),
    "loss.perturbed_point": ("calls", "self_s"),
    "schedule_grad.outer_gradient": ("calls", "self_s", "total_s"),
    "sampler.heun_step": ("calls", "self_s"),
    "training.adam_step": ("calls", "self_s"),
    "training.ema_update": ("self_s",),
}
FIELD_UNITS = {"calls": "count", "rows": "count", "self_s": "s", "total_s": "s"}
ORACLE_FIELD = ("fields.oracle.call", "fields.oracle.directional", "fields.oracle.mixed")
FLOW_PASSES = ("flow_model.forward", "flow_model.param_grad",
               "flow_model.directional", "flow_model.mixed")
FIELD_VALUES = ("flow_model.forward", "fields.oracle.call")
FIELD_MIXED = ("flow_model.mixed", "fields.oracle.mixed")
DERIVED_UNITS = {
    "fields.oracle.calls": "count",
    "fields.oracle.self_s": "s",
    "schedule.knot_evals_per_op": "1/op",
    "gmm.factor_rows": "count",
    "gmm.factorizations_per_point": "1/batch",
    "flow_model.primal_passes_per_op": "1/op",
    "schedule_grad.mixed_calls_per_gradient": "1/call",
    "sampler.nfe_per_op": "1/op",
    "trace.overhead_ratio": "ratio",
}


def metric_units():
    """Every per-layer metric name and its unit, in report order."""
    units = {f"{name}.{field}": FIELD_UNITS[field]
             for name, fields in SPAN_FIELDS.items() for field in fields}
    units.update(DERIVED_UNITS)
    return units


def _ratio(num, den):
    return num / den if den else 0.0


def aggregate(spans):
    """Per span name: calls, rows, self_s, total_s."""
    agg = defaultdict(lambda: {"calls": 0, "rows": 0, "self_s": 0.0, "total_s": 0.0})
    for span, own in zip(spans, self_times(spans)):
        entry = agg[span[0]]
        entry["calls"] += 1
        entry["rows"] += span[4] or 0
        entry["self_s"] += own
        entry["total_s"] += span[2] - span[1]
    return agg


def layer_metrics(tracer, ops, overhead_ratio):
    """All per-layer metrics as ``{name: value}`` for `ops` traced ops."""
    spans = tracer.spans
    agg = aggregate(spans)
    out = {f"{name}.{field}": agg[name][field]
           for name, fields in SPAN_FIELDS.items() for field in fields}
    out["fields.oracle.calls"] = sum(agg[n]["calls"] for n in ORACLE_FIELD)
    out["fields.oracle.self_s"] = sum(agg[n]["self_s"] for n in ORACLE_FIELD)
    out["schedule.knot_evals_per_op"] = _ratio(tracer.counters.get("schedule.knot_evals", 0), ops)

    oracle = [s for s in spans if s[5] is not None]
    out["gmm.factor_rows"] = sum(s[4] for s in oracle)
    out["gmm.factorizations_per_point"] = _ratio(len(oracle), len({s[5] for s in oracle}))
    out["flow_model.primal_passes_per_op"] = _ratio(sum(agg[n]["calls"] for n in FLOW_PASSES), ops)

    mixed_in_gradient = sum(1 for i, s in enumerate(spans)
                            if s[0] in FIELD_MIXED
                            and has_ancestor(spans, i, "schedule_grad.outer_gradient"))
    out["schedule_grad.mixed_calls_per_gradient"] = _ratio(
        mixed_in_gradient, agg["schedule_grad.outer_gradient"]["calls"])
    nfe = sum(1 for i, s in enumerate(spans)
              if s[0] in FIELD_VALUES and has_ancestor(spans, i, "sampler.sample_trajectory"))
    out["sampler.nfe_per_op"] = _ratio(nfe, ops)
    out["trace.overhead_ratio"] = overhead_ratio
    return out


def layer_shares(spans):
    """Share of root-span time spent in each layer's own code, plus the remainder."""
    agg = aggregate(spans)
    root_total = agg[ROOT]["total_s"]
    shares = {layer: _ratio(sum(v["self_s"] for k, v in agg.items()
                                if k.startswith(layer + ".")), root_total)
              for layer in LAYERS}
    shares["untraced"] = _ratio(agg[ROOT]["self_s"], root_total)
    return shares


def time_identity_gap(spans):
    """|root time - (sum of layer self times + untraced remainder)| / root time."""
    agg = aggregate(spans)
    root_total = agg[ROOT]["total_s"]
    accounted = sum(v["self_s"] for v in agg.values())
    return _ratio(abs(root_total - accounted), root_total)
