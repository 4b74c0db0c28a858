"""`MatrixSchedule.at`: one schedule evaluation per batch, bit for bit."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from anisodiff.schedule import (
    KnotSchedule,
    MatrixSchedule,
    eval_M,
    eval_M_dt_dtheta,
    eval_M_dtheta,
    sigmoid,
    softplus,
    uniform_nodes,
)
from anisodiff.subspaces import ProjectorFamily


def coordinate_family(n_subspaces):
    """J coordinate blocks of R^J, one axis each."""
    return ProjectorFamily(np.eye(n_subspaces), np.arange(n_subspaces))


def random_knots(rng, horizon, n_knots, floor):
    theta = 2.0 * rng.standard_normal(n_knots - 1)
    return KnotSchedule(theta, uniform_nodes(horizon, n_knots), floor, horizon)


def batch_times(ms, rng, scalar_index):
    """0, t_min, every interior node, the horizon and random interior times."""
    nodes = ms.per_subspace[0].nodes
    t = np.concatenate(([0.0, ms.t_min], nodes[1:-1], [ms.horizon],
                        rng.uniform(0.0, ms.horizon, 4)))
    if scalar_index is None:
        return t
    return float(t[scalar_index % t.size])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_subspaces=st.integers(1, 3),
       horizon=st.floats(1.0, 1e3), n_knots=st.integers(2, 9),
       floor_fraction=st.floats(1e-8, 0.5), conditional=st.booleans(),
       scalar_index=st.one_of(st.none(), st.integers(0, 20)))
def test_evaluation_equals_the_schedule_functions(seed, n_subspaces, horizon, n_knots,
                                                  floor_fraction, conditional,
                                                  scalar_index):
    rng = np.random.default_rng(seed)
    floor = floor_fraction * horizon

    def row():
        return tuple(random_knots(rng, horizon, n_knots, floor) for _ in range(n_subspaces))

    family = coordinate_family(n_subspaces)
    if conditional:
        ms, label = MatrixSchedule(family, row(), class_table={"a": row(), "b": row()}), "b"
    else:
        ms, label = MatrixSchedule(family, row()), None
    t = batch_times(ms, rng, scalar_index)

    ev = ms.for_class(label).at(t)
    g, dg = eval_M(ms.for_class(label), t)
    assert np.array_equal(ev.g, g)
    assert np.array_equal(ev.dg, dg)
    assert np.array_equal(ev.sqrt_g, np.sqrt(g))
    assert np.array_equal(ev.jac, eval_M_dtheta(ms.for_class(label), t))
    assert np.array_equal(ev.dt_jac, eval_M_dt_dtheta(ms.for_class(label), t))
    assert ev.g.shape == np.shape(t) + (n_subspaces,)
    assert ev.jac.shape == np.shape(t) + (n_subspaces, ms.n_params)


def test_evaluation_calls_each_schedule_function_at_most_once(monkeypatch):
    from anisodiff import schedule as schedule_mod

    ms = MatrixSchedule(coordinate_family(2), tuple(
        random_knots(np.random.default_rng(j), 8.0, 5, 1e-3) for j in range(2)))
    calls = []
    for name in ("eval_M", "eval_M_dtheta", "eval_M_dt_dtheta"):
        original = getattr(schedule_mod, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(schedule_mod, name, counted)
    ev = ms.at(np.array([1.0, 2.0, 3.0]))
    assert calls == ["eval_M"]  # the Jacobians wait for a caller that reads them
    for _ in range(2):
        for name in ("g", "dg", "sqrt_g", "jac", "dt_jac"):
            getattr(ev, name)
    assert calls == ["eval_M", "eval_M_dtheta", "eval_M_dt_dtheta"]


def test_evaluation_locates_each_knot_interval_once(monkeypatch):
    ms = MatrixSchedule(coordinate_family(3), tuple(
        random_knots(np.random.default_rng(j), 8.0, 5, 1e-3) for j in range(3)))
    located = []
    original = KnotSchedule._locate

    def counted(self, t):
        located.append(self)
        return original(self, t)

    monkeypatch.setattr(KnotSchedule, "_locate", counted)
    for t in (2.5, np.array([0.0, 1.0, 2.0, 8.0])):
        located.clear()
        ev = ms.at(t)
        for _ in range(2):
            for name in ("g", "dg", "sqrt_g", "jac", "dt_jac"):
                getattr(ev, name)
        assert located == list(ms.per_subspace)


def test_kept_segments_are_not_pinned_by_the_values():
    """g(0) and g(T) are pinned on a copy: the Jacobians read the unpinned g."""
    s = KnotSchedule(np.array([0.3, -1.0, 0.5]), uniform_nodes(6.0, 4), 1e-4, 6.0)
    ms = MatrixSchedule(coordinate_family(1), (s,))
    t = np.array([0.0, 3.0, 6.0])
    assert np.exp(np.log(s.floor)) != s.floor  # the pin moves g(0)
    ev = ms.at(t)
    assert ev.g[0, 0] == s.floor
    assert np.array_equal(ev.dt_jac, eval_M_dt_dtheta(ms, t))
    assert np.array_equal(ev.jac, eval_M_dtheta(ms, t))


def _log_node_grads_loop(s: KnotSchedule):
    """The per-node loop the broadcast `_log_node_grads` replaced."""
    sp_s = softplus(s.theta)
    sp = sigmoid(s.theta)
    gap = np.log(s.horizon) - np.log(s.floor)
    cum = np.cumsum(sp_s)
    total = cum[-1]  # the total `_log_node_grads` uses, so the last row is exactly 0
    k = s.nodes.size
    grads = np.zeros((k, s.n_params))
    for j in range(1, k):
        mask = np.arange(s.n_params) < j
        grads[j] = gap * sp * (mask * total - cum[j - 1]) / total**2
    return grads


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), horizon=st.floats(1.0, 1e3),
       n_knots=st.integers(2, 40), floor_fraction=st.floats(1e-8, 0.5))
def test_broadcast_log_node_grads_equal_the_loop(seed, horizon, n_knots, floor_fraction):
    s = random_knots(np.random.default_rng(seed), horizon, n_knots, floor_fraction * horizon)
    assert np.array_equal(s._log_node_grads, _log_node_grads_loop(s))
