"""In-memory span tracer that wraps the public anisodiff API from outside.

A span records a name, a start and end time, the index of the span that
was open when it started (its parent) and, where a layer has them, a row
count and an input key.  Spans stay in memory and are written out once,
when the benchmark ends.  Counters record work that is too fine-grained
for a span of its own (knot-schedule evaluations).

`patched(tracer)` swaps every traced function or method for a wrapper.
Module-level functions are re-bound in every loaded ``anisodiff`` module
that holds them, because several modules bind `eval_M` and
`apply_spectral` by ``from ... import``.  The originals come back on exit.
"""

import functools
import hashlib
import importlib
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

PACKAGE = "anisodiff"
ROOT = "bench.unit"
LAYERS = (
    "subspaces", "schedule", "gmm", "fields", "flow_model",
    "loss", "schedule_grad", "sampler", "training",
)

# Oracle entry points; each builds one noisy-mixture factorization.
ORACLE_FUNCTIONS = (
    "log_density", "score", "posterior_mean", "score_hessian",
    "score_directional", "score_mixed_directional", "dtheta_score_direction",
    "posterior_sample",
)


class Tracer:
    """Spans as lists ``[name, start, end, parent, rows, key]`` plus counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = {}

    def span(self, name, fn, rows_of=None, key_of=None):
        """Wrap `fn` so each call records one span named `name`."""
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                if rows_of is not None:
                    record[4] = rows_of(args, kwargs)
                if key_of is not None:
                    record[5] = key_of(args, kwargs)
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        traced.__wrapped_original__ = fn
        return traced

    def counter(self, name, fn):
        """Wrap `fn` so each call adds one to counter `name`."""
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[name] = counters.get(name, 0) + 1
            return fn(*args, **kwargs)

        counted.__wrapped_original__ = fn
        return counted

    @contextmanager
    def root(self):
        """One top-level span around a benchmark unit (trajectory or episode)."""
        record = [ROOT, time.perf_counter(), 0.0, -1, None, None]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()

    def write(self, path):
        """Write one JSON object per span: name, start, end, parent, rows."""
        with open(path, "w") as out:
            for i, (name, start, end, parent, rows, _) in enumerate(self.spans):
                out.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                      "parent": parent, "rows": rows}) + "\n")


# ---------------------------------------------------------------------------
# argument accessors (positional or keyword)
# ---------------------------------------------------------------------------

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _batch_rows(x):
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _rows_at(index, name):
    return lambda args, kwargs: _batch_rows(_arg(args, kwargs, index, name))


def _oracle_factor_rows(args, kwargs):
    """K components per shared-t call, n * K for a per-sample t."""
    k = _arg(args, kwargs, 0, "gm").n_components
    t = _arg(args, kwargs, 3, "t")
    return k if np.ndim(t) == 0 else k * _batch_rows(_arg(args, kwargs, 1, "x"))


def _oracle_key(args, kwargs):
    """Digest of the (x, t) batch, to count distinct factorization inputs."""
    digest = hashlib.blake2b(digest_size=16)
    for value in (_arg(args, kwargs, 1, "x"), _arg(args, kwargs, 3, "t")):
        digest.update(np.ascontiguousarray(value, dtype=float).data)
        digest.update(repr(np.shape(value)).encode())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# what is traced
# ---------------------------------------------------------------------------

def targets():
    """(module, attribute path, span or counter name, kind, rows_of, key_of)."""
    out = [
        ("subspaces", "apply_spectral", "subspaces.apply_spectral", "span", _rows_at(2, "x"), None),
        ("schedule", "eval_M", "schedule.eval_M", "span", None, None),
        ("schedule", "eval_M_dtheta", "schedule.eval_M_dtheta", "span", None, None),
        ("schedule", "eval_M_dt_dtheta", "schedule.eval_M_dt_dtheta", "span", None, None),
        ("schedule", "KnotSchedule.eval", "schedule.knot_evals", "counter", None, None),
        ("schedule", "KnotSchedule.eval_dtheta", "schedule.knot_evals", "counter", None, None),
        ("schedule", "KnotSchedule.eval_dt_dtheta", "schedule.knot_evals", "counter", None, None),
        ("gmm", "sample_p0", "gmm.sample_p0", "span", None, None),
        ("gmm", "perturb", "gmm.perturb", "span", None, None),
        ("fields", "OracleFlowField.__call__", "fields.oracle.call", "span", _rows_at(1, "x"), None),
        ("fields", "OracleFlowField.directional", "fields.oracle.directional", "span", _rows_at(1, "x"), None),
        ("fields", "OracleFlowField.mixed", "fields.oracle.mixed", "span", _rows_at(1, "x"), None),
        ("flow_model", "FlowModel.__call__", "flow_model.forward", "span", _rows_at(1, "x"), None),
        ("flow_model", "FlowModel.param_grad", "flow_model.param_grad", "span", _rows_at(1, "x"), None),
        ("flow_model", "FlowModel.directional", "flow_model.directional", "span", _rows_at(1, "x"), None),
        ("flow_model", "FlowModel.mixed", "flow_model.mixed", "span", _rows_at(1, "x"), None),
        ("loss", "loss_sample", "loss.loss_sample", "span", None, None),
        ("loss", "weight_values", "loss.weight_values", "span", None, None),
        ("loss", "weight_theta_derivative", "loss.weight_theta_derivative", "span", None, None),
        ("loss", "perturbed_point", "loss.perturbed_point", "span", None, None),
        ("schedule_grad", "outer_gradient", "schedule_grad.outer_gradient", "span", None, None),
        ("sampler", "sample_trajectory", "sampler.sample_trajectory", "span", None, None),
        ("sampler", "heun_step", "sampler.heun_step", "span", None, None),
        ("training", "adam_step", "training.adam_step", "span", None, None),
        ("training", "ema_update", "training.ema_update", "span", None, None),
    ]
    for fn in ORACLE_FUNCTIONS:
        out.append(("gmm", fn, f"gmm.{fn}", "span", _oracle_factor_rows, _oracle_key))
    return out


def package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


@contextmanager
def patched(tracer):
    """Install wrappers for every target; restore the originals on exit."""
    for layer in LAYERS:
        importlib.import_module(f"{PACKAGE}.{layer}")
    undo = []
    try:
        for module_name, path, name, kind, rows_of, key_of in targets():
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            if "." in path:  # a method: patch the class that defines it
                cls_name, attr = path.split(".")
                holders = [(getattr(module, cls_name), attr)]
                original = getattr(module, cls_name).__dict__[attr]
            else:  # a function: patch every module that holds it
                original = getattr(module, path)
                holders = [(m, attr) for m in package_modules()
                           for attr, value in list(vars(m).items()) if value is original]
            wrapper = (tracer.span(name, original, rows_of, key_of) if kind == "span"
                       else tracer.counter(name, original))
            for holder, attr in holders:
                setattr(holder, attr, wrapper)
                undo.append((holder, attr, original))
        yield tracer
    finally:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans):
    """Per span: duration minus the part of it covered by its direct children.

    Children are clipped to the parent's interval and merged, so
    overlapping children are not subtracted twice.
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[1], s[2]
        intervals = sorted((max(spans[c][1], start), min(spans[c][2], end))
                           for c in children[i])
        covered, cursor = 0.0, start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def has_ancestor(spans, index, name):
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
