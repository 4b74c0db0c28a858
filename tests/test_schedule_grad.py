from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flow_views import ScoreFromFlow

from anisodiff import flow_model
from anisodiff import gmm as gmm_mod
from anisodiff import schedule as schedule_mod
from anisodiff import schedule_grad
from anisodiff.fields import OracleFlowField, OracleScoreField
from anisodiff.flow_model import FlowModel
from anisodiff.gmm import (
    GaussianMixture,
    dtheta_score_oracle,
    score,
    score_directional,
    score_mixed_directional,
    single_gaussian,
)
from anisodiff.loss import LossSample, draw_loss_samples, loss_sample, perturbed_point
from anisodiff.schedule import (
    KnotSchedule,
    MatrixSchedule,
    eval_M,
    eval_M_dtheta,
    isotropic_matrix_schedule,
    matrix_schedule_for_family,
    uniform_nodes,
)
from anisodiff.schedule_grad import (
    EstimatorConfig,
    estimate_dtheta_score,
    estimate_H,
    fd_outer_gradient,
    outer_gradient,
)
from anisodiff.subspaces import (
    apply_spectral,
    axis_family,
    build_dct_projectors,
    build_pca_projectors,
    isotropic_family,
)


def two_component_gmm():
    mu = np.array([[1.2, 0.4], [-0.8, -0.9]])
    covs = np.stack([np.diag([0.5, 0.8]), np.diag([0.9, 0.3])])
    return GaussianMixture(np.array([0.45, 0.55]), mu, covs)


def random_ms(rng, d=2, horizon=4.0, n_knots=5):
    fam = axis_family(d, 1)
    ms = matrix_schedule_for_family(fam, horizon, n_knots=n_knots)
    return ms.with_theta_vector(rng.standard_normal(ms.n_params))


def estimate_dtheta_flow(flow_field, ms, x, t, theta_index, cfg=EstimatorConfig()):
    """Flow-form estimate of d(flow)/d(theta_j) (three-term identity), one parameter at a time."""
    ev = ms.at(t)
    jet = flow_field.at(x, t)
    responses = schedule_grad._flow_responses(jet, ev, jet.value(), cfg)
    return np.einsum("...j,j...d->...d", ev.jac[..., theta_index], responses)


# ---------------------------------------------------------------------------
# estimator on the score view
# ---------------------------------------------------------------------------

def test_gaussian_case_exact_with_vanishing_term1():
    gm = single_gaussian(np.zeros(2), np.diag([1.0, 1.0]))
    rng = np.random.default_rng(0)
    ms = random_ms(rng)
    field = OracleScoreField(gm, ms)
    t = 1.6
    x = np.array([0.7, -1.1])
    g, _ = eval_M(ms, t)
    jac = eval_M_dtheta(ms, t)
    for p in range(ms.n_params):
        est = estimate_dtheta_score(field, ms, x, t, p)
        d_mat = ms.family.dense(jac[:, p])
        c = np.eye(2) + ms.family.dense(g)
        expected = np.linalg.solve(c, d_mat @ np.linalg.solve(c, x))
        np.testing.assert_allclose(est, expected, atol=1e-12)
        # score is linear, so the mixed-derivative sum contributes nothing
        mixed = score_mixed_directional(gm, x, ms, t, np.array([1.0, 0.0]), jac[:, p])
        np.testing.assert_allclose(mixed, 0.0, atol=1e-13)


def test_estimator_matches_analytic_oracle_on_gmm():
    rng = np.random.default_rng(1)
    gm = two_component_gmm()
    ms = random_ms(rng)
    field = OracleScoreField(gm, ms)
    for _ in range(20):
        t = rng.uniform(0.3, 3.5)
        x = rng.standard_normal(2)
        for p in range(ms.n_params):
            est = estimate_dtheta_score(field, ms, x, t, p)
            ref = dtheta_score_oracle(gm, x, ms, t, p)
            np.testing.assert_allclose(est, ref, rtol=1e-6, atol=1e-10)


def test_estimator_batched_matches_scalar():
    rng = np.random.default_rng(2)
    gm = two_component_gmm()
    ms = random_ms(rng)
    field = OracleScoreField(gm, ms)
    xs = rng.standard_normal((5, 2))
    ts = rng.uniform(0.5, 3.0, size=5)
    batch = estimate_dtheta_score(field, ms, xs, ts, 1)
    for i in range(5):
        single = estimate_dtheta_score(field, ms, xs[i], float(ts[i]), 1)
        np.testing.assert_allclose(batch[i], single, rtol=1e-10, atol=1e-13)


def test_stochastic_probe_unbiased():
    rng = np.random.default_rng(3)
    gm = two_component_gmm()
    ms = random_ms(rng)
    t = 1.2
    x = np.array([0.5, -0.4])
    p = 2
    jac = eval_M_dtheta(ms, t)
    delta = jac[:, p]
    exact = np.zeros(2)
    for i in range(2):
        e = np.zeros(2)
        e[i] = 1.0
        exact += score_mixed_directional(gm, x, ms, t, e, apply_spectral(ms.family, delta, e))
    n = 10_000
    z = rng.integers(0, 2, size=(n, 2)) * 2.0 - 1.0
    dz = apply_spectral(ms.family, delta, z)
    vals = score_mixed_directional(gm, np.tile(x, (n, 1)), ms, t, z, dz)
    se = vals.std(axis=0) / np.sqrt(n)
    assert np.all(np.abs(vals.mean(axis=0) - exact) < 3 * se + 1e-12)


def _probe_error_slope(estimate):
    """Slope of log mean probe error (20 seeds each) against log probe count,
    for `estimate(cfg)` an estimate under the estimator config `cfg`."""
    exact = estimate(EstimatorConfig("exact-sum"))
    ms_list = [8, 64, 512]
    errs = []
    for m in ms_list:
        errors = []
        for seed in range(20):
            est = estimate(EstimatorConfig("stochastic-probe", probes=m, seed=seed))
            errors.append(np.linalg.norm(est - exact))
        errs.append(np.mean(errors))
    return np.polyfit(np.log(ms_list), np.log(errs), 1)[0]


def test_stochastic_probe_error_scales_like_inverse_sqrt():
    rng = np.random.default_rng(4)
    gm = two_component_gmm()
    ms = random_ms(rng)
    field = OracleScoreField(gm, ms)
    t, x, p = 1.4, np.array([0.8, 0.2]), 1
    slope = _probe_error_slope(lambda cfg: estimate_dtheta_score(field, ms, x, t, p, cfg))
    assert slope == pytest.approx(-0.5, abs=0.25)


def test_stochastic_probe_flow_error_scales_like_inverse_sqrt_on_a_model():
    # the probe estimator is the one library path into a FlowModel jet's `mixed`
    rng = np.random.default_rng(4)
    ms = random_ms(rng)
    model = FlowModel.create(2, ms.horizon, widths=(8, 8), seed=3, zero_head=False)
    t, x, p = 1.4, np.array([0.8, 0.2]), 1
    slope = _probe_error_slope(lambda cfg: estimate_dtheta_flow(model, ms, x, t, p, cfg))
    assert slope == pytest.approx(-0.5, abs=0.25)


# ---------------------------------------------------------------------------
# estimator on the flow view
# ---------------------------------------------------------------------------

def test_flow_estimate_matches_chain_rule():
    rng = np.random.default_rng(5)
    gm = two_component_gmm()
    ms = random_ms(rng)
    flow_field = OracleFlowField(gm, ms)
    for _ in range(10):
        t = rng.uniform(0.4, 3.2)
        x = rng.standard_normal(2)
        g, _ = eval_M(ms, t)
        jac = eval_M_dtheta(ms, t)
        s = score(gm, x, ms, t)
        for p in range(ms.n_params):
            est = estimate_dtheta_flow(flow_field, ms, x, t, p)
            # chain rule: M^{1/2} d(score)/dtheta + d(M^{1/2})/dtheta score
            ds = dtheta_score_oracle(gm, x, ms, t, p)
            expected = apply_spectral(ms.family, np.sqrt(g), ds)
            expected += apply_spectral(ms.family, jac[:, p] / (2 * np.sqrt(g)), s)
            np.testing.assert_allclose(est, expected, rtol=1e-8, atol=1e-11)


def test_flow_estimate_score_view_consistency():
    # running the score-form estimator through the flow field's score view
    # agrees with the analytic oracle
    rng = np.random.default_rng(6)
    gm = two_component_gmm()
    ms = random_ms(rng)
    flow_field = OracleFlowField(gm, ms)
    net_view = ScoreFromFlow(flow_field, ms)
    t, x = 1.1, np.array([0.3, -0.6])
    for p in range(ms.n_params):
        est = estimate_dtheta_score(net_view, ms, x, t, p)
        ref = dtheta_score_oracle(gm, x, ms, t, p)
        np.testing.assert_allclose(est, ref, rtol=1e-8, atol=1e-11)


def test_third_term_confined_to_perturbed_subspace():
    rng = np.random.default_rng(7)
    ms = random_ms(rng)
    gm = two_component_gmm()
    flow_field = OracleFlowField(gm, ms)
    t, x = 1.5, np.array([0.9, 0.1])
    g, _ = eval_M(ms, t)
    flow = flow_field(x, t)
    delta = np.array([0.7, 0.0])  # support only on subspace 1
    term3 = 0.5 * apply_spectral(ms.family, delta / g, flow)
    q0, q1 = (ms.family.basis[:, ms.family.labels == j] for j in (0, 1))
    np.testing.assert_allclose((term3 @ q1) @ q1.T, 0.0, atol=1e-12)
    assert np.linalg.norm((term3 @ q0) @ q0.T - term3) < 1e-12


# ---------------------------------------------------------------------------
# outer gradient
# ---------------------------------------------------------------------------

def test_outer_gradient_matches_fd_isotropic():
    rng = np.random.default_rng(8)
    gm = two_component_gmm()
    ms = isotropic_matrix_schedule(2, horizon=4.0, n_knots=3)
    ms = ms.with_theta_vector(np.array([0.4, -0.3]))
    batch = draw_loss_samples(gm, ms, 512, rng)
    grad = outer_gradient(ms, OracleFlowField(gm, ms), batch)
    fd = fd_outer_gradient(lambda m: OracleFlowField(gm, m), ms, batch)
    np.testing.assert_allclose(grad.total, fd, rtol=2e-3, atol=1e-10)


def test_outer_gradient_matches_fd_anisotropic():
    rng = np.random.default_rng(9)
    gm = two_component_gmm()
    fam = axis_family(2, 1)
    ms = matrix_schedule_for_family(fam, horizon=4.0, n_knots=4)
    ms = ms.with_theta_vector(rng.standard_normal(ms.n_params) * 0.5)
    batch = draw_loss_samples(gm, ms, 256, rng)
    grad = outer_gradient(ms, OracleFlowField(gm, ms), batch)
    fd = fd_outer_gradient(lambda m: OracleFlowField(gm, m), ms, batch)
    np.testing.assert_allclose(grad.total, fd, rtol=2e-3, atol=1e-8)


def test_outer_gradient_zero_for_pinned_parameter():
    # a single-interval knot schedule is fully pinned: dM/dtheta = 0
    rng = np.random.default_rng(10)
    gm = two_component_gmm()
    fam = axis_family(2, 1)
    horizon = 4.0
    s_live = KnotSchedule(rng.standard_normal(3), uniform_nodes(horizon, 4), 1e-4, horizon)
    s_pinned = KnotSchedule(np.array([0.2]), np.array([0.0, horizon]), 1e-4, horizon)
    ms = MatrixSchedule(fam, (s_live, s_pinned))
    batch = draw_loss_samples(gm, ms, 64, rng)
    grad = outer_gradient(ms, OracleFlowField(gm, ms), batch)
    pinned_slice = ms.param_slices()[1]
    np.testing.assert_array_equal(grad.total[pinned_slice], 0.0)
    assert np.any(grad.total[ms.param_slices()[0]] != 0.0)


EXACT, PROBES = EstimatorConfig("exact-sum"), EstimatorConfig("stochastic-probe", probes=8, seed=1)


@pytest.mark.parametrize("kind, cfg", [("oracle", EXACT), ("oracle", PROBES), ("model", EXACT),
                                       ("model", PROBES)],
                         ids=["exact-sum", "stochastic-probe", "model-exact-sum",
                              "model-stochastic-probe"])
def test_outer_gradient_implicit_matches_direct_contraction(kind, cfg):
    rng = np.random.default_rng(11)
    gm = two_component_gmm()
    ms = random_ms(rng, n_knots=4)
    if kind == "oracle":
        field = OracleFlowField(gm, ms)
    else:
        field = FlowModel.create(2, ms.horizon, widths=(8, 8), seed=3, zero_head=False)
    batch = draw_loss_samples(gm, ms, 32, rng)
    grad = outer_gradient(ms, field, batch, cfg)
    # direct per-parameter evaluation of the implicit term
    value = loss_sample(ms, field, batch)
    x_t = perturbed_point(ms.at(batch.t), batch)
    implicit = np.zeros(ms.n_params)
    for p in range(ms.n_params):
        dflow = estimate_dtheta_flow(field, ms, x_t, batch.t, p, cfg)
        implicit[p] = np.mean(np.sum(value.cotangent * dflow, axis=1))
    np.testing.assert_allclose(grad.implicit, implicit, rtol=1e-10, atol=1e-12)


def test_outer_gradient_implicit_matches_analytic_oracle():
    rng = np.random.default_rng(12)
    gm = two_component_gmm()
    ms = random_ms(rng, n_knots=4)
    field = OracleFlowField(gm, ms)
    batch = draw_loss_samples(gm, ms, 16, rng)
    grad = outer_gradient(ms, field, batch)

    value = loss_sample(ms, field, batch)
    x_t = perturbed_point(ms.at(batch.t), batch)
    g, _ = eval_M(ms, batch.t)
    jac = eval_M_dtheta(ms, batch.t)
    s = score(gm, x_t, ms, batch.t)
    implicit = np.zeros(ms.n_params)
    for p in range(ms.n_params):
        ds = np.zeros_like(x_t)
        for i in range(x_t.shape[0]):
            ds[i] = dtheta_score_oracle(gm, x_t[i], ms, float(batch.t[i]), p)
        dflow = apply_spectral(ms.family, np.sqrt(g), ds)
        dflow += apply_spectral(ms.family, jac[:, :, p] / (2 * np.sqrt(g)), s)
        implicit[p] = np.mean(np.sum(value.cotangent * dflow, axis=1))
    np.testing.assert_allclose(grad.implicit, implicit, rtol=1e-5, atol=1e-9)


def test_estimator_config_rejects_a_bad_mode_or_no_probes():
    with pytest.raises(ValueError):
        EstimatorConfig(mode="bogus")
    with pytest.raises(ValueError):
        EstimatorConfig(mode="stochastic-probe", probes=0)
    # a probe count or seed that is not an integer used to fail inside outer_gradient (2.5)
    # or run as 1 (True)
    for name in ("probes", "seed"):
        for value in (2.5, 4.0, True, "4", None):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                EstimatorConfig("stochastic-probe", **{name: value})
    cfg = EstimatorConfig("stochastic-probe", probes=np.int64(4), seed=np.int32(1))
    assert (cfg.probes, cfg.seed) == (4, 1)


def test_estimate_H_is_batch_mean_loss():
    rng = np.random.default_rng(13)
    gm = two_component_gmm()
    ms = random_ms(rng)
    field = OracleFlowField(gm, ms)
    batch = draw_loss_samples(gm, ms, 20, rng)
    assert estimate_H(ms, field, batch) == pytest.approx(
        float(np.mean(loss_sample(ms, field, batch).loss))
    )


def test_outer_gradient_and_estimate_H_follow_only_their_class_label():
    """A label riding on the batch is not read; the `class_label` argument picks the class."""
    rng = np.random.default_rng(17)
    gm = two_component_gmm()
    rows = {label: random_ms(rng).per_subspace for label in "ab"}
    base = random_ms(rng)
    ms = MatrixSchedule(base.family, base.per_subspace, class_table=rows)
    batch = draw_loss_samples(gm, base, 16, rng)
    labeled = SimpleNamespace(x0=batch.x0, eps=batch.eps, t=batch.t, class_label="a")
    field = OracleFlowField(gm, ms, "b")
    with pytest.raises(KeyError, match="requires a class label"):
        outer_gradient(ms, field, labeled)
    with pytest.raises(KeyError, match="requires a class label"):
        estimate_H(ms, field, labeled)
    plain = ms.for_class("b")
    got = outer_gradient(ms, field, labeled, class_label="b")
    assert np.array_equal(got.total, outer_gradient(plain, OracleFlowField(gm, plain), batch).total)
    assert estimate_H(ms, field, labeled, "b") == estimate_H(plain, OracleFlowField(gm, plain),
                                                             batch)


# ---------------------------------------------------------------------------
# one field evaluation per (x, t)
# ---------------------------------------------------------------------------

def _count_calls(monkeypatch, cls, name):
    calls = []
    original = getattr(cls, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_outer_gradient_factors_the_noisy_mixture_once(monkeypatch):
    rng = np.random.default_rng(13)
    gm = two_component_gmm()
    ms = random_ms(rng, n_knots=4)
    batch = draw_loss_samples(gm, ms, 16, rng)
    built = _count_calls(monkeypatch, gmm_mod._NoisyMixture, "__init__")
    outer_gradient(ms, OracleFlowField(gm, ms), batch, EstimatorConfig("exact-sum"))
    assert len(built) == 1


def test_outer_gradient_runs_one_model_primal_pass(monkeypatch):
    rng = np.random.default_rng(14)
    gm = two_component_gmm()
    ms = random_ms(rng, n_knots=4)
    batch = draw_loss_samples(gm, ms, 16, rng)
    model = FlowModel.create(2, ms.horizon, widths=(8, 8), seed=3, zero_head=False)
    passes = _count_calls(monkeypatch, FlowModel, "_inputs")
    outer_gradient(ms, model, batch, EstimatorConfig("exact-sum"))
    assert len(passes) == 1


@pytest.mark.parametrize("kind", ["oracle", "model"])
def test_outer_gradient_value_is_the_batch_loss(kind):
    rng = np.random.default_rng(16)
    gm = two_component_gmm()
    ms = random_ms(rng, n_knots=4)
    batch = draw_loss_samples(gm, ms, 16, rng)
    if kind == "oracle":
        field = OracleFlowField(gm, ms)
    else:
        field = FlowModel.create(2, ms.horizon, widths=(8, 8), seed=3, zero_head=False)
    got = outer_gradient(ms, field, batch, EstimatorConfig("exact-sum")).value
    want = loss_sample(ms, field, batch)
    for key in ("loss", "residual", "cotangent", "weights"):
        assert np.array_equal(getattr(got, key), getattr(want, key)), key


@pytest.mark.parametrize("per_sample_t", [False, True])
def test_oracle_jets_match_the_oracle_functions(per_sample_t):
    rng = np.random.default_rng(15)
    gm = two_component_gmm()
    ms = random_ms(rng)
    x = rng.standard_normal((6, 2))
    u, v = rng.standard_normal((2, 6, 2))
    t = rng.uniform(0.2, 3.0, size=6) if per_sample_t else 1.3
    g, _ = eval_M(ms, t)
    score_jet = OracleScoreField(gm, ms).at(x, t)
    flow_jet = OracleFlowField(gm, ms).at(x, t)
    expected = {
        "value": score(gm, x, ms, t),
        "directional": score_directional(gm, x, ms, t, v),
        "mixed": score_mixed_directional(gm, x, ms, t, u, v),
    }
    got_score = {"value": score_jet.value(), "directional": score_jet.directional(v),
                 "mixed": score_jet.mixed(u, v)}
    got_flow = {"value": flow_jet.value(), "directional": flow_jet.directional(v),
                "mixed": flow_jet.mixed(u, v)}
    for key, want in expected.items():
        assert np.array_equal(got_score[key], want), key
        assert np.array_equal(got_flow[key], apply_spectral(ms.family, np.sqrt(g), want)), key


# ---------------------------------------------------------------------------
# the block-trace exact sum
# ---------------------------------------------------------------------------

def _dct_setup(seed, fam=None):
    """Mixture, schedule and batch on a DCT family (J=2, non-axis basis), by
    default the d=16 one."""
    rng = np.random.default_rng(seed)
    if fam is None:
        fam = build_dct_projectors(4, low_side=2)
    ms = matrix_schedule_for_family(fam, horizon=4.0, n_knots=4)
    ms = ms.with_theta_vector(0.5 * rng.standard_normal(ms.n_params))
    d, k = fam.ambient_dim, 3
    rot = np.linalg.qr(rng.standard_normal((k, d, d)))[0]
    covs = np.einsum("kij,kj,klj->kil", rot, rng.uniform(0.1, 1.0, (k, d)), rot)
    gm = GaussianMixture(np.full(k, 1.0 / k), rng.standard_normal((k, d)), covs)
    return rng, gm, ms


@pytest.mark.parametrize("kind, side", [("oracle", 4), ("model", 4), ("oracle", 8), ("model", 8)],
                         ids=["oracle", "model", "oracle-d64-no-config", "model-d64-no-config"])
def test_exact_sum_outer_gradient_makes_one_mixed_call(kind, side, monkeypatch):
    """One block-trace call per exact-sum gradient and no `mixed` call: the
    oracle's traces are closed form and the model's come from their own
    forward pass.  At d=64 no config is passed, since the exact sum is the
    default at every d."""
    rng, gm, ms = _dct_setup(18, None if side == 4 else build_dct_projectors(side))
    batch = draw_loss_samples(gm, ms, 8, rng)
    if kind == "oracle":
        field, jet_cls = OracleFlowField(gm, ms), gmm_mod._NoisyMixture
    else:
        field = FlowModel.create(side**2, ms.horizon, widths=(8, 8), seed=3, zero_head=False)
        jet_cls = flow_model.FlowModelJet
    mixed_calls = _count_calls(monkeypatch, jet_cls, "mixed")
    trace_calls = _count_calls(monkeypatch, jet_cls, "block_traces")
    configs = [EstimatorConfig("exact-sum")] if side == 4 else []  # d=64: the default
    outer_gradient(ms, field, batch, *configs)
    assert len(trace_calls) == 1
    assert len(mixed_calls) == 0


@pytest.mark.parametrize("kind, locates", [("oracle", 4), ("model", 2)])
def test_outer_gradient_evaluates_the_schedule_once(kind, locates, monkeypatch):
    """One knot-interval search per knot schedule at J=2 for the batch's
    `ScheduleEval`, whose `eval_M`, `eval_M_dtheta` and `eval_M_dt_dtheta`
    share it, plus one for the oracle field's own `ms.at(t)`."""
    rng, gm, ms = _dct_setup(18)
    batch = draw_loss_samples(gm, ms, 8, rng)
    if kind == "oracle":
        field = OracleFlowField(gm, ms)
    else:
        field = FlowModel.create(16, ms.horizon, widths=(8, 8), seed=3, zero_head=False)
    calls = _count_calls(monkeypatch, KnotSchedule, "_locate")
    outer_gradient(ms, field, batch, EstimatorConfig("exact-sum"))
    assert ms.n_subspaces == 2
    assert len(calls) == locates


def test_outer_gradient_rejects_t_below_t_min():
    rng, gm, ms = _dct_setup(19)
    batch = draw_loss_samples(gm, ms, 8, rng)
    t = batch.t.copy()
    t[3] = 0.1 * ms.t_min
    with pytest.raises(ValueError, match="t_min"):
        outer_gradient(ms, OracleFlowField(gm, ms), LossSample(batch.x0, batch.eps, t))


def _looped_block_traces(jet, family):
    """Reference T_j: one `mixed(q_i, q_i)` call per basis column q_i, summed per block."""
    per_column = np.stack([jet.mixed(q, q) for q in family.basis.T])
    return np.stack([per_column[family.labels == j].sum(axis=0)
                     for j in range(family.n_subspaces)])


def _assert_close_to_largest(got, want, rel=1e-12, floor=0.0):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * max(np.abs(want).max(), floor)


@pytest.mark.parametrize("family_kind", ["dct", "pca"])
@pytest.mark.parametrize("t_kind", ["shared-t", "per-sample-t", "1-D x"])
def test_closed_form_block_traces_equal_the_stacked_pass(family_kind, t_kind):
    """Closed-form traces against a loop of `mixed` calls over the basis."""
    rng, gm, ms = _dct_setup(21)
    if family_kind == "pca":
        fam = build_pca_projectors(rng.standard_normal((64, 16)) * np.linspace(0.5, 2, 16), 5)
        ms = MatrixSchedule(fam, ms.per_subspace)
    fam, n = ms.family, 6
    x = rng.standard_normal((n, 16))
    t = 1.3 if t_kind == "shared-t" else rng.uniform(0.3, 3.0, size=n)
    if t_kind == "1-D x":
        x, t, n = x[0], float(t[0]), 1
    for field in (OracleScoreField(gm, ms), OracleFlowField(gm, ms)):
        jet = field.at(x, t)
        want = _looped_block_traces(jet, fam)
        assert want.shape == ((2, 16) if t_kind == "1-D x" else (2, n, 16))
        _assert_close_to_largest(jet.block_traces(fam), want)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 8), k=st.integers(1, 4),
       conditioning=st.floats(1e-10, 1.0))
def test_block_traces_property_random_mixtures(seed, d, k, conditioning):
    """Closed-form traces against a loop of `mixed` calls on random d <= 8 mixtures.

    The smallest eigenvalue of each Sigma_k is `conditioning` times the
    largest, down to 1e-10, and t sits at the schedule's floor t_min, where
    M_t is smallest and C_k = Sigma_k + M_t is closest to singular.  The
    traces cancel to exactly 0 for K=1, where the loop of `mixed` calls leaves
    rounding noise, so the tolerance is floored at the size of the terms
    they sum, (|s_k|^2 + tr C_k^{-1}) |s_k|.
    """
    rng = np.random.default_rng(seed)
    cut = int(rng.integers(0, d))  # 0: the one-block isotropic family
    fam = build_pca_projectors(rng.standard_normal((4 * d + 4, d)), cut) if cut \
        else isotropic_family(d)
    ms = matrix_schedule_for_family(fam, horizon=4.0, n_knots=3)
    ms = ms.with_theta_vector(0.5 * rng.standard_normal(ms.n_params))
    rot = np.linalg.qr(rng.standard_normal((k, d, d)))[0]
    eig = np.geomspace(conditioning, 1.0, d) * rng.uniform(0.5, 2.0, (k, 1))
    covs = np.einsum("kij,kj,klj->kil", rot, eig, rot)
    covs = 0.5 * (covs + np.swapaxes(covs, 1, 2))
    weights = rng.dirichlet(np.ones(k))
    gm = GaussianMixture(weights / weights.sum(), rng.standard_normal((k, d)), covs)
    n = 5
    x = rng.standard_normal((n, d))
    jet = OracleScoreField(gm, ms).at(x, ms.t_min)
    s_norm = np.linalg.norm(jet.comp_score, axis=-1)
    terms = (s_norm**2 + np.trace(jet.cov_inv, axis1=-2, axis2=-1)) * s_norm
    _assert_close_to_largest(jet.block_traces(fam), _looped_block_traces(jet, fam),
                             floor=terms.max())


def _e_i_sum(jet, family, delta, d):
    """The exact sum over the standard basis, sum_i d_r d_s f(x + r e_i + s D e_i)."""
    total = 0.0
    for e in np.eye(d):
        ei = np.broadcast_to(e, delta.shape[:1] + (d,))
        total = total + jet.mixed(ei, apply_spectral(family, delta, ei))
    return total


@pytest.mark.parametrize("family_kind", ["dct", "pca"])
def test_block_trace_estimates_equal_the_standard_basis_sum(family_kind):
    rng, gm, ms = _dct_setup(19)
    if family_kind == "pca":
        fam = build_pca_projectors(rng.standard_normal((64, 16)) * np.linspace(0.5, 2, 16), 5)
        ms = MatrixSchedule(fam, ms.per_subspace)
    fam, n, d = ms.family, 6, 16
    x = rng.standard_normal((n, d))
    t = rng.uniform(0.3, 3.0, size=n)
    g, _ = eval_M(ms, t)
    jac = eval_M_dtheta(ms, t)
    cfg = EstimatorConfig("exact-sum")
    flow_field = OracleFlowField(gm, ms)
    score_field = OracleScoreField(gm, ms)
    for p in (0, ms.n_params - 1):
        delta = jac[:, :, p]
        jet = score_field.at(x, t)
        want = 0.5 * _e_i_sum(jet, fam, delta, d)
        want = want + jet.directional(apply_spectral(fam, delta, jet.value()))
        got = estimate_dtheta_score(score_field, ms, x, t, p, cfg)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

        jet = flow_field.at(x, t)
        flow = jet.value()
        want = 0.5 * _e_i_sum(jet, fam, delta, d)
        want = want + jet.directional(apply_spectral(fam, delta / np.sqrt(g), flow))
        want = want + 0.5 * apply_spectral(fam, delta / g, flow)
        got = estimate_dtheta_flow(flow_field, ms, x, t, p, cfg)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_oracle_flow_jet_evaluates_the_schedule_once(monkeypatch):
    rng = np.random.default_rng(20)
    gm = two_component_gmm()
    ms = random_ms(rng)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return eval_M(*args, **kwargs)

    monkeypatch.setattr(schedule_mod, "eval_M", counted)
    OracleFlowField(gm, ms).at(rng.standard_normal((4, 2)), 1.3).value()
    assert len(calls) == 1
