import numpy as np
import pytest

from anisodiff import fields as fields_mod
from anisodiff import flow_model
from anisodiff import gmm as gmm_mod
from anisodiff.fields import OracleFlowField, OracleScoreField, ScoreFromFlow
from anisodiff.flow_model import FlowModel
from anisodiff.gmm import (
    GaussianMixture,
    dtheta_score_oracle,
    score,
    score_directional,
    score_mixed_directional,
    single_gaussian,
)
from anisodiff.loss import draw_loss_samples, loss_sample, perturbed_point
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
    default_estimator_config,
    estimate_dtheta_flow,
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
)


def two_component_gmm():
    mu = np.array([[1.2, 0.4], [-0.8, -0.9]])
    covs = np.stack([np.diag([0.5, 0.8]), np.diag([0.9, 0.3])])
    return GaussianMixture(np.array([0.45, 0.55]), mu, covs)


def random_ms(rng, d=2, horizon=4.0, n_knots=5):
    fam = axis_family(d, 1)
    ms = matrix_schedule_for_family(fam, horizon, n_knots=n_knots)
    return ms.with_theta_vector(rng.standard_normal(ms.n_params))


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


def test_stochastic_probe_error_scales_like_inverse_sqrt():
    rng = np.random.default_rng(4)
    gm = two_component_gmm()
    ms = random_ms(rng)
    field = OracleScoreField(gm, ms)
    t, x, p = 1.4, np.array([0.8, 0.2]), 1
    exact = estimate_dtheta_score(field, ms, x, t, p, EstimatorConfig("exact-sum"))
    ms_list = [8, 64, 512]
    errs = []
    for m in ms_list:
        errors = []
        for seed in range(20):
            cfg = EstimatorConfig("stochastic-probe", probes=m, seed=seed)
            est = estimate_dtheta_score(field, ms, x, t, p, cfg)
            errors.append(np.linalg.norm(est - exact))
        errs.append(np.mean(errors))
    slope = np.polyfit(np.log(ms_list), np.log(errs), 1)[0]
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
    np.testing.assert_allclose(ms.family.members[1].apply(term3), 0.0, atol=1e-12)
    assert np.linalg.norm(ms.family.members[0].apply(term3) - term3) < 1e-12


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


def test_outer_gradient_implicit_matches_direct_contraction():
    rng = np.random.default_rng(11)
    gm = two_component_gmm()
    ms = random_ms(rng, n_knots=4)
    field = OracleFlowField(gm, ms)
    batch = draw_loss_samples(gm, ms, 32, rng)
    grad = outer_gradient(ms, field, batch)
    # direct per-parameter evaluation of the implicit term
    value = loss_sample(ms, field, batch)
    x_t = perturbed_point(ms, batch)
    implicit = np.zeros(ms.n_params)
    for p in range(ms.n_params):
        dflow = estimate_dtheta_flow(field, ms, x_t, batch.t, p)
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
    x_t = perturbed_point(ms, batch)
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


def test_default_config_switches_mode():
    assert default_estimator_config(4).mode == "exact-sum"
    assert default_estimator_config(64).mode == "stochastic-probe"
    with pytest.raises(ValueError):
        EstimatorConfig(mode="bogus")
    with pytest.raises(ValueError):
        EstimatorConfig(mode="stochastic-probe", probes=0)


def test_estimate_H_is_batch_mean_loss():
    rng = np.random.default_rng(13)
    gm = two_component_gmm()
    ms = random_ms(rng)
    field = OracleFlowField(gm, ms)
    batch = draw_loss_samples(gm, ms, 20, rng)
    assert estimate_H(ms, field, batch) == pytest.approx(
        float(np.mean(loss_sample(ms, field, batch).loss))
    )


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
# stacked tangents and the block-trace exact sum
# ---------------------------------------------------------------------------

def _dct16_setup(seed):
    """Mixture, schedule and batch on the d=16 DCT family (J=2, non-axis basis)."""
    rng = np.random.default_rng(seed)
    fam = build_dct_projectors(4, low_side=2)
    ms = matrix_schedule_for_family(fam, horizon=4.0, n_knots=4)
    ms = ms.with_theta_vector(0.5 * rng.standard_normal(ms.n_params))
    d, k = fam.ambient_dim, 3
    rot = np.linalg.qr(rng.standard_normal((k, d, d)))[0]
    covs = np.einsum("kij,kj,klj->kil", rot, rng.uniform(0.1, 1.0, (k, d)), rot)
    gm = GaussianMixture(np.full(k, 1.0 / k), rng.standard_normal((k, d)), covs)
    return rng, gm, ms


@pytest.mark.parametrize("kind", ["score-shared-t", "flow-per-sample-t", "model"])
@pytest.mark.parametrize("same", [False, True])
def test_stacked_mixed_matches_a_loop(kind, same, monkeypatch):
    rng = np.random.default_rng(17)
    gm = two_component_gmm()
    ms = random_ms(rng)
    n, m = 7, 5
    x = rng.standard_normal((n, 2))
    t = rng.uniform(0.2, 3.0, size=n)
    if kind == "score-shared-t":
        jet = OracleScoreField(gm, ms).at(x, 1.3)
    elif kind == "flow-per-sample-t":
        jet = OracleFlowField(gm, ms).at(x, t)
    else:
        # passes of 2, 2 and 1 tangent pairs
        monkeypatch.setattr(flow_model, "MIXED_PASS_ROWS", 2 * n)
        jet = FlowModel.create(2, ms.horizon, widths=(8, 8), seed=3, zero_head=False).at(x, t)
    u = rng.standard_normal((m, n, 2))
    v = u if same else rng.standard_normal((m, n, 2))
    stacked = jet.mixed(u, v)
    assert stacked.shape == (m, n, 2)
    for i in range(m):
        np.testing.assert_allclose(stacked[i], jet.mixed(u[i], v[i]), rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("kind", ["oracle", "model"])
def test_exact_sum_outer_gradient_makes_one_mixed_call(kind, monkeypatch):
    rng, gm, ms = _dct16_setup(18)
    batch = draw_loss_samples(gm, ms, 8, rng)
    if kind == "oracle":
        field, jet_cls = OracleFlowField(gm, ms), gmm_mod._NoisyMixture
    else:
        field = FlowModel.create(16, ms.horizon, widths=(8, 8), seed=3, zero_head=False)
        jet_cls = flow_model.FlowModelJet
    calls = _count_calls(monkeypatch, jet_cls, "mixed")
    outer_gradient(ms, field, batch, EstimatorConfig("exact-sum"))
    assert len(calls) == 1


def _e_i_sum(jet, family, delta, d):
    """The exact sum over the standard basis, sum_i d_r d_s f(x + r e_i + s D e_i)."""
    total = 0.0
    for e in np.eye(d):
        ei = np.broadcast_to(e, delta.shape[:1] + (d,))
        total = total + jet.mixed(ei, apply_spectral(family, delta, ei))
    return total


@pytest.mark.parametrize("family_kind", ["dct", "pca"])
def test_block_trace_estimates_equal_the_standard_basis_sum(family_kind):
    rng, gm, ms = _dct16_setup(19)
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

    monkeypatch.setattr(fields_mod, "eval_M", counted)
    monkeypatch.setattr(gmm_mod, "eval_M", counted)
    OracleFlowField(gm, ms).at(rng.standard_normal((4, 2)), 1.3).value()
    assert len(calls) == 1
