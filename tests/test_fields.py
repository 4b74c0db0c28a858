"""An oracle's sampling view is kept per (oracle, family) with its grid-time slices, bit for bit."""

import dataclasses
import gc
import sys
import weakref

import numpy as np
import pytest

from anisodiff import fields
from anisodiff import gmm as gmm_mod
from anisodiff import schedule as schedule_mod
from anisodiff.fields import OracleFlowField, OracleScoreField, coordinate_view
from anisodiff.gmm import GaussianMixture
from anisodiff.sampler import SamplerConfig, init_state, sample_trajectory, time_grid
from anisodiff.schedule import matrix_schedule_for_family
from anisodiff.subspaces import build_dct_projectors, build_pca_projectors


def random_setup(seed, d_side=2, k=3):
    rng = np.random.default_rng(seed)
    family = build_dct_projectors(d_side, low_side=1)
    d = family.ambient_dim
    ms = matrix_schedule_for_family(family, 20.0, n_knots=6)
    ms = ms.with_theta_vector(0.5 * rng.standard_normal(ms.n_params))
    a = rng.standard_normal((k, d, d))
    covs = a @ np.swapaxes(a, 1, 2) / d + 0.1 * np.eye(d)
    gm = GaussianMixture(np.full(k, 1.0 / k), rng.standard_normal((k, d)), covs)
    return rng, gm, ms


def jet_outputs(jet, family, rng_seed):
    rng = np.random.default_rng(rng_seed)
    n, d = jet.inner.x.shape
    u, v = rng.standard_normal((2, n, d))
    return [jet.value(), jet.directional(v), jet.mixed(u, v), jet.block_traces(family)]


def assert_same_jet(got, want, family, seed=0):
    for a, b in zip(jet_outputs(got, family, seed), jet_outputs(want, family, seed)):
        assert np.array_equal(a, b)


def count_calls(monkeypatch, module, name):
    """Count calls of `module.name` through every anisodiff module that binds it."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and mod_name.startswith("anisodiff"):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def assert_heun_32_factors_once_per_distinct_time(monkeypatch, ms, field):
    # 63 field calls at 33 distinct times: the secondary evaluation of step k
    # and the base evaluation of step k-1 share t_{k-1}
    factors = count_calls(monkeypatch, gmm_mod, "_factor")
    evals = count_calls(monkeypatch, schedule_mod, "eval_M")
    res = sample_trajectory(ms, field, SamplerConfig(steps=32), n=8, rng=0)
    assert res.nfe == 63
    assert len(factors) == 33
    assert len(evals) == 34  # the sqrt(g) table, with the start's row, one per distinct time
    # a second trajectory on the same oracle and family reads the kept slices
    factors.clear()
    evals.clear()
    again = sample_trajectory(ms, field, SamplerConfig(steps=32), n=8, rng=1)
    assert again.nfe == 63
    assert len(factors) == 0
    assert len(evals) == 1  # the sqrt(g) table


def test_heun_32_trajectory_factors_once_per_distinct_time(monkeypatch):
    _, gm, ms = random_setup(1)
    assert_heun_32_factors_once_per_distinct_time(monkeypatch, ms, OracleFlowField(gm, ms))


def test_heun_32_conditional_trajectory_factors_once_per_distinct_time(monkeypatch):
    rng, gm, ms = random_setup(1)
    table = {"a": ms.per_subspace, "b": ms.with_theta_vector(
        rng.standard_normal(ms.n_params)).per_subspace}
    ms = schedule_mod.MatrixSchedule(ms.family, ms.per_subspace, class_table=table)
    field = OracleFlowField(gm, ms, "b")
    assert_heun_32_factors_once_per_distinct_time(monkeypatch, ms.for_class("b"), field)


def oracle_view(field, x, times):
    """The kept view of an oracle on its own family, and the start in its coordinates."""
    family = field.ms.family
    _, view, c, _ = coordinate_view(field, family, family.forward(x), times)
    return view, c


def test_memoized_jet_equals_a_fresh_field():
    rng, gm, ms = random_setup(2)
    field = OracleFlowField(gm, ms)
    t = 3.7
    view, _ = oracle_view(field, rng.standard_normal((5, 4)), [1.0, t])
    view.at(rng.standard_normal((5, 4)), t)
    kept = view.slices[t]
    x = rng.standard_normal((5, 4))
    view, c = oracle_view(field, x, [1.0, t])
    got = view.at(c, t)
    assert view.slices[t] is kept  # the slice was reused
    fresh, _ = oracle_view(OracleFlowField(gm, ms), x, [1.0, t])
    coords = ms.family.coordinates
    assert_same_jet(got, fresh.at(c, t), coords)
    assert_same_jet(got, OracleFlowField(view.gm, view.ms).at(c, t), coords)  # no slice at all
    assert np.array_equal(view(c, np.float64(t)), fresh(c, t))
    assert np.array_equal(view(c, np.array(t)), fresh(c, t))  # a 0-d array t reads the slice too


def test_array_t_after_scalar_t_equals_a_fresh_field():
    rng, gm, ms = random_setup(3)
    field = OracleFlowField(gm, ms)
    t = 2.5
    x = rng.standard_normal((6, 4))
    view, c = oracle_view(field, x, [t])
    view.at(c, t)
    kept = view.slices[t]
    t_arr = np.full(6, t)
    fresh, _ = oracle_view(OracleFlowField(gm, ms), x, [t])
    assert_same_jet(view.at(c, t_arr), fresh.at(c, t_arr), ms.family.coordinates)
    assert view.slices == {t: kept}  # an array t neither uses nor replaces the slice


@pytest.mark.parametrize("cls, attr", [(OracleFlowField, "gm"), (OracleFlowField, "ms"),
                                        (OracleFlowField, "class_label"),
                                        (OracleFlowField, "slices"), (OracleScoreField, "gm"),
                                        (OracleScoreField, "ms")])
def test_oracle_fields_are_frozen(cls, attr):
    _, gm, ms = random_setup(4)
    field = cls(gm, ms)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(field, attr, getattr(field, attr))


@pytest.mark.parametrize("attr", ["ms", "gm", "class_label"])
def test_a_new_field_never_reads_a_kept_view(monkeypatch, attr):
    rng, gm, ms = random_setup(4)
    table = {"a": ms.per_subspace, "b": ms.with_theta_vector(
        rng.standard_normal(ms.n_params)).per_subspace}
    ms = schedule_mod.MatrixSchedule(ms.family, ms.per_subspace, class_table=table)
    changed = {"ms": ms.with_theta_vector(rng.standard_normal(ms.n_params), "a"),
               "gm": GaussianMixture(gm.weights, gm.means + 1.0, gm.covs),
               "class_label": "b"}[attr]
    args = {"gm": gm, "ms": ms, "class_label": "a", attr: changed}
    cfg = SamplerConfig(steps=4)
    plain = args["ms"].for_class(args["class_label"])
    x_init = init_state(plain, 0, n=3)
    cold = sample_trajectory(plain, OracleFlowField(**args), cfg, x_init=x_init).final
    first = OracleFlowField(gm, ms, "a")
    sample_trajectory(ms.for_class("a"), first, cfg, x_init=x_init)
    field = OracleFlowField(**args)
    factors = count_calls(monkeypatch, gmm_mod, "_factor")
    got = sample_trajectory(plain, field, cfg, x_init=x_init).final
    assert len(factors) == 5  # every grid time is factored afresh
    assert np.array_equal(got, cold)
    kept, view = (fields._VIEWS[f][ms.family] for f in (first, field))
    assert view is not kept
    c = rng.standard_normal((3, 4))
    assert not np.array_equal(view(c, 5.0), kept(c, 5.0))


@pytest.mark.parametrize("rule", [("euler", "endpoint"), ("heun", "endpoint"),
                                  ("heun", "midpoint")])
def test_a_new_grid_never_reads_a_kept_slice(monkeypatch, rule):
    # as verify's convergence_slope does: one oracle sampled on several step counts in turn
    _, gm, ms = random_setup(5)
    field = OracleFlowField(gm, ms)
    x_init = init_state(ms, 1, n=4)
    factors = count_calls(monkeypatch, gmm_mod, "_factor")
    for steps in (32, 16, 8, 16):
        cfg = SamplerConfig(steps=steps, solver=rule[0], secondary=rule[1])
        factors.clear()
        got = sample_trajectory(ms, field, cfg, x_init=x_init).final
        distinct = steps + 1 + (steps if rule[1] == "midpoint" else 0)
        evaluated = distinct - (rule != ("heun", "endpoint"))  # only that rule evaluates t_0
        assert len(factors) == evaluated  # 16 steps after 32 shares every grid-16 time
        view = fields._VIEWS[field][ms.family]
        assert len(view.slices) == distinct
        assert set(view.slices) >= set(time_grid(ms, cfg).tolist())
        assert np.array_equal(got, sample_trajectory(ms, OracleFlowField(gm, ms), cfg,
                                                     x_init=x_init).final)


def test_a_write_into_the_passed_nodes_never_reaches_a_kept_view():
    # as a loaded schedule file does, every knot schedule is handed one nodes array
    _, gm, ms = random_setup(7, d_side=4)
    nodes = schedule_mod.uniform_nodes(ms.horizon, 6)
    ms = schedule_mod.MatrixSchedule(ms.family, tuple(
        schedule_mod.KnotSchedule(s.theta, nodes, s.floor, s.horizon) for s in ms.per_subspace))
    field, cfg = OracleFlowField(gm, ms), SamplerConfig(steps=8)
    x_init = init_state(ms, 0, n=3)
    first = sample_trajectory(ms, field, cfg, x_init=x_init).final
    nodes[1:-1] = ms.horizon * np.array([0.05, 0.1, 0.2, 0.4])  # new interior nodes
    assert np.array_equal(sample_trajectory(ms, field, cfg, x_init=x_init).final, first)


def test_a_dropped_oracle_releases_its_view():
    _, gm, ms = random_setup(6)
    field = OracleFlowField(gm, ms)
    sample_trajectory(ms, field, SamplerConfig(steps=2), n=2)
    view = fields._VIEWS[field][ms.family]
    assert len(view.slices) == 3
    refs = weakref.ref(field), weakref.ref(view)
    del field, view
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


@pytest.mark.parametrize("family", [
    build_dct_projectors(4), build_dct_projectors(16),
    build_pca_projectors(np.random.default_rng(0).standard_normal((40, 6)), 2),
], ids=["dct-4", "separable-dct-16", "pca-6"])
def test_the_rotated_mixture_is_mu_q_and_q_t_sigma_q(family):
    # the view steps this mixture; its only departure from the ambient one is the rotation's
    # rounding, about sqrt(d) ulps of the largest entry
    d = family.ambient_dim
    rng = np.random.default_rng(d)
    a = rng.standard_normal((3, d, d))
    gm = GaussianMixture(np.full(3, 1 / 3), rng.standard_normal((3, d)),
                         a @ np.swapaxes(a, 1, 2) / d + 0.1 * np.eye(d))
    field = OracleFlowField(gm, matrix_schedule_for_family(family, 20.0))
    view, _ = oracle_view(field, np.zeros(d), ())
    q = family.basis
    bound = np.sqrt(d) * np.finfo(float).eps
    for got, want in [(view.gm.means, gm.means @ q), (view.gm.covs, q.T @ gm.covs @ q)]:
        assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))
    assert np.array_equal(view.gm.weights, gm.weights)
    assert view.ms.family is family.coordinates
