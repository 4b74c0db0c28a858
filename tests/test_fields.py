"""`OracleFlowField` keeps the noisy covariances of the last scalar t, bit for bit."""

import sys

import numpy as np
import pytest

from anisodiff import gmm as gmm_mod
from anisodiff import schedule as schedule_mod
from anisodiff.fields import OracleFlowField
from anisodiff.gmm import GaussianMixture
from anisodiff.sampler import SamplerConfig, sample_trajectory
from anisodiff.schedule import matrix_schedule_for_family
from anisodiff.subspaces import build_dct_projectors


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
    assert len(evals) == 35  # init_state, the sqrt(g) table, one per distinct time


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


def test_memoized_jet_equals_a_fresh_field():
    rng, gm, ms = random_setup(2)
    field = OracleFlowField(gm, ms)
    t = 3.7
    field.at(rng.standard_normal((5, 4)), t)
    x = rng.standard_normal((5, 4))
    kept = field._last
    got = field.at(x, t)
    assert field._last is kept  # the slice was reused
    assert_same_jet(got, OracleFlowField(gm, ms).at(x, t), ms.family)
    assert np.array_equal(field(x, np.float64(t)), OracleFlowField(gm, ms)(x, t))


def test_array_t_after_scalar_t_equals_a_fresh_field():
    rng, gm, ms = random_setup(3)
    field = OracleFlowField(gm, ms)
    t = 2.5
    x = rng.standard_normal((6, 4))
    field.at(x, t)
    kept = field._last
    t_arr = np.full(6, t)
    assert_same_jet(field.at(x, t_arr), OracleFlowField(gm, ms).at(x, t_arr), ms.family)
    assert field._last is kept  # an array t neither uses nor replaces the slice


@pytest.mark.parametrize("attr", ["ms", "gm", "class_label"])
def test_reassigned_attribute_drops_the_slice(attr):
    rng, gm, ms = random_setup(4)
    table = {"a": ms.per_subspace, "b": ms.with_theta_vector(
        rng.standard_normal(ms.n_params)).per_subspace}
    ms = schedule_mod.MatrixSchedule(ms.family, ms.per_subspace, class_table=table)
    field = OracleFlowField(gm, ms, "a")
    t = 5.0
    x = rng.standard_normal((3, 4))
    before = field(x, t)
    new = {
        "ms": ms.with_theta_vector(rng.standard_normal(ms.n_params), "a"),
        "gm": GaussianMixture(gm.weights, gm.means + 1.0, gm.covs),
        "class_label": "b",
    }[attr]
    setattr(field, attr, new)
    fresh = OracleFlowField(field.gm, field.ms, field.class_label)
    assert_same_jet(field.at(x, t), fresh.at(x, t), ms.family)
    assert not np.array_equal(field(x, t), before)
