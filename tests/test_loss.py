import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import fractional_matrix_power

from test_schedule_grad import _count_calls

from anisodiff import gmm as gmm_mod
from anisodiff import loss as loss_mod
from anisodiff import schedule as schedule_mod
from anisodiff.fields import OracleFlowField
from anisodiff.gmm import (
    GaussianMixture,
    perturb,
    posterior_sample,
    single_gaussian,
)
from anisodiff.loss import (
    LossSample,
    _velocity_scalars,
    draw_loss_samples,
    loss_equivalence_check,
    loss_sample,
    velocity_learned,
    velocity_proxy,
    weight_theta_derivative,
    weight_values,
)
from anisodiff.schedule import (
    MatrixSchedule,
    eval_M,
    isotropic_matrix_schedule,
    matrix_schedule_for_family,
)
from anisodiff.subspaces import ProjectorFamily, apply_spectral, axis_family


class ConstantField:
    """Flow field stub returning a fixed vector (broadcast over the batch)."""

    def __init__(self, value):
        self.value = np.asarray(value, dtype=float)

    def __call__(self, x, t):
        x = np.asarray(x)
        if x.ndim == 1:
            return self.value.copy()
        return np.broadcast_to(self.value, x.shape).copy()


def random_ms(rng, d=2, horizon=4.0, n_knots=6):
    fam = axis_family(d, 1)
    ms = matrix_schedule_for_family(fam, horizon, n_knots=n_knots)
    return ms.with_theta_vector(rng.standard_normal(ms.n_params))


def two_component_gmm():
    mu = np.array([[1.0, 0.5], [-1.0, -0.5]])
    covs = np.stack([np.diag([0.4, 0.9]), np.diag([0.7, 0.2])])
    return GaussianMixture(np.array([0.5, 0.5]), mu, covs)


def velocity_ideal(gm, ms, x, t):
    """Variance-preserving drift with the exact mixture score."""
    _, a, b = _velocity_scalars(ms, t)
    s = gmm_mod.score(gm, x, ms, t)
    return apply_spectral(ms.family, a, s) + apply_spectral(ms.family, b, x)


# ---------------------------------------------------------------------------
# weight operator
# ---------------------------------------------------------------------------

def test_weight_scalar_formula():
    rng = np.random.default_rng(0)
    ms = random_ms(rng)
    t = 1.7
    g, dg = eval_M(ms, t)
    w = weight_values(ms, t)
    np.testing.assert_allclose(w * np.sqrt(1.0 + g) * np.sqrt(g), dg, rtol=1e-12)


def test_weight_matches_dense_matrix():
    rng = np.random.default_rng(1)
    fam = axis_family(4, 2)
    ms = matrix_schedule_for_family(fam, horizon=3.0)
    ms = ms.with_theta_vector(rng.standard_normal(ms.n_params))
    t = 2.1
    g, dg = eval_M(ms, t)
    m_dense = fam.dense(g)
    dm_dense = fam.dense(dg)
    dense_w = (
        fractional_matrix_power(np.eye(4) + m_dense, -0.5)
        @ dm_dense
        @ fractional_matrix_power(m_dense, -0.5)
    ).real
    x = rng.standard_normal(4)
    np.testing.assert_allclose(apply_spectral(ms.family, weight_values(ms, t), x), dense_w @ x,
                               atol=1e-10)


def test_weight_commutes_with_M():
    rng = np.random.default_rng(2)
    ms = random_ms(rng)
    t = 0.9
    g, _ = eval_M(ms, t)
    w = weight_values(ms, t)
    x = rng.standard_normal(2)
    a = apply_spectral(ms.family, w, apply_spectral(ms.family, g, x))
    b = apply_spectral(ms.family, g, apply_spectral(ms.family, w, x))
    np.testing.assert_allclose(a, b, atol=1e-10)


def test_weight_rejects_below_floor():
    rng = np.random.default_rng(3)
    ms = random_ms(rng)
    with pytest.raises(ValueError):
        weight_values(ms, ms.t_min / 10)


def test_isotropic_weight_reduction():
    ms = isotropic_matrix_schedule(3, horizon=2.0)
    t = 1.3
    g, dg = eval_M(ms, t)
    w = weight_values(ms, t)
    assert w.shape == (1,)
    assert w[0] == pytest.approx(dg[0] / (np.sqrt(1 + g[0]) * np.sqrt(g[0])), rel=1e-14)


def test_weight_theta_derivative_matches_fd():
    rng = np.random.default_rng(4)
    ms = random_ms(rng, n_knots=5)
    t = 1.9
    deriv = weight_theta_derivative(ms.at(t))
    theta0 = ms.theta_vector()
    h = 1e-5
    for p in range(ms.n_params):
        up, dn = theta0.copy(), theta0.copy()
        up[p] += h
        dn[p] -= h
        wp = weight_values(ms.with_theta_vector(up), t)
        wm = weight_values(ms.with_theta_vector(dn), t)
        np.testing.assert_allclose(deriv[:, p], (wp - wm) / (2 * h), rtol=1e-4, atol=1e-9)


# ---------------------------------------------------------------------------
# loss evaluation
# ---------------------------------------------------------------------------

def test_loss_zero_when_flow_cancels_noise():
    rng = np.random.default_rng(5)
    ms = random_ms(rng)
    eps = rng.standard_normal(2)
    sample = LossSample(x0=rng.standard_normal(2), eps=eps, t=1.5)
    value = loss_sample(ms, ConstantField(-eps), sample)
    assert value.loss == pytest.approx(0.0, abs=1e-24)
    np.testing.assert_allclose(value.residual, 0.0, atol=1e-12)


def test_loss_equals_residual_norm():
    rng = np.random.default_rng(6)
    gm = two_component_gmm()
    ms = random_ms(rng)
    field = OracleFlowField(gm, ms)
    batch = draw_loss_samples(gm, ms, 32, rng)
    value = loss_sample(ms, field, batch)
    np.testing.assert_allclose(value.loss, np.sum(value.residual**2, axis=1), atol=1e-12)


def test_loss_invariant_to_subspace_relabeling():
    rng = np.random.default_rng(7)
    fam = axis_family(2, 1)
    ms = matrix_schedule_for_family(fam, horizon=3.0)
    theta = rng.standard_normal(ms.n_params)
    ms = ms.with_theta_vector(theta)
    # swap the two subspaces together with their schedules
    fam_swapped = ProjectorFamily(fam.basis, 1 - fam.labels)
    ms_swapped = MatrixSchedule(fam_swapped, (ms.per_subspace[1], ms.per_subspace[0]))
    gm = two_component_gmm()
    sample = draw_loss_samples(gm, ms, 16, rng)
    v1 = loss_sample(ms, OracleFlowField(gm, ms), sample)
    v2 = loss_sample(ms_swapped, OracleFlowField(gm, ms_swapped), sample)
    np.testing.assert_allclose(v1.loss, v2.loss, rtol=1e-10)


def test_gaussian_expected_loss_closed_form():
    # p0 = N(0, I): per axis E||resid||^2 = w_j^2 / (1 + g_j) at fixed t
    rng = np.random.default_rng(8)
    gm = single_gaussian(np.zeros(2), np.eye(2))
    ms = random_ms(rng)
    field = OracleFlowField(gm, ms)
    t = 1.7
    g, _ = eval_M(ms, t)
    w = weight_values(ms, t)
    expected = np.sum(w**2 / (1.0 + g))
    n = 40_000
    x0 = rng.standard_normal((n, 2))
    eps = rng.standard_normal((n, 2))
    value = loss_sample(ms, field, LossSample(x0=x0, eps=eps, t=np.full(n, t)))
    se = value.loss.std() / np.sqrt(n)
    assert abs(value.loss.mean() - expected) < 3 * se


def test_cotangent_is_loss_gradient():
    rng = np.random.default_rng(9)
    gm = two_component_gmm()
    ms = random_ms(rng)
    field = OracleFlowField(gm, ms)
    sample = draw_loss_samples(gm, ms, 4, rng)
    value = loss_sample(ms, field, sample)
    # finite difference in the flow output direction
    h = 1e-6
    rngd = np.random.default_rng(10)
    for _ in range(3):
        direction = rngd.standard_normal((4, 2))

        class Shifted:
            def __init__(self, base, shift):
                self.base, self.shift = base, shift

            def __call__(self, x, t):
                return self.base(x, t) + self.shift

        vp = loss_sample(ms, Shifted(field, h * direction), sample)
        vm = loss_sample(ms, Shifted(field, -h * direction), sample)
        fd = (vp.loss - vm.loss) / (2 * h)
        chain = np.sum(value.cotangent * direction, axis=1)
        np.testing.assert_allclose(chain, fd, rtol=1e-5, atol=1e-8)


# ---------------------------------------------------------------------------
# velocities
# ---------------------------------------------------------------------------

def test_oracle_flow_gives_ideal_velocity():
    rng = np.random.default_rng(11)
    gm = two_component_gmm()
    ms = random_ms(rng)
    field = OracleFlowField(gm, ms)
    for _ in range(10):
        x = rng.standard_normal(2) * 2
        t = rng.uniform(0.5, 3.5)
        v = velocity_ideal(gm, ms, x, t)
        v_bar = velocity_learned(ms, field(x, t), x, t)
        np.testing.assert_allclose(v_bar, v, atol=1e-10)


def test_proxy_velocity_posterior_mean_identity():
    rng = np.random.default_rng(12)
    gm = two_component_gmm()
    ms = random_ms(rng)
    t = 1.1
    x_t = np.array([0.6, -0.3])
    n = 60_000
    draws = posterior_sample(gm, np.tile(x_t, (n, 1)), ms, t, rng)
    proxies = velocity_proxy(ms, np.tile(x_t, (n, 1)), draws, np.full(n, t))
    target = velocity_ideal(gm, ms, x_t, t)
    se = proxies.std(axis=0) / np.sqrt(n)
    assert np.all(np.abs(proxies.mean(axis=0) - target) < 3 * se + 1e-12)


def test_velocity_hand_formula_single_gaussian_1d():
    sigma2 = 0.8
    gm = single_gaussian(np.zeros(1), np.array([[sigma2]]))
    ms = isotropic_matrix_schedule(1, horizon=2.0)
    t = 1.4
    g, dg = eval_M(ms, t)
    x = np.array([0.9])
    s = -x / (sigma2 + g[0])
    expected = -0.5 * dg[0] / np.sqrt(1 + g[0]) * s - 0.5 * dg[0] / (1 + g[0]) ** 1.5 * x
    np.testing.assert_allclose(velocity_ideal(gm, ms, x, t), expected, rtol=1e-12)


# ---------------------------------------------------------------------------
# loss-form equivalence
# ---------------------------------------------------------------------------

def test_loss_form_equivalence_random():
    rng = np.random.default_rng(13)
    gm = two_component_gmm()
    for _ in range(5):
        ms = random_ms(rng)
        field = OracleFlowField(gm, ms)
        batch = draw_loss_samples(gm, ms, 200, rng)
        lhs, rhs, gap = loss_equivalence_check(ms, field, batch)
        assert np.all(gap < 1e-10 * (1.0 + lhs))


def test_loss_form_equivalence_nontrivial_value():
    rng = np.random.default_rng(14)
    gm = two_component_gmm()
    ms = random_ms(rng)
    field = OracleFlowField(gm, ms)
    sample = draw_loss_samples(gm, ms, 1, rng)
    lhs, rhs, gap = loss_equivalence_check(ms, field, sample)
    assert lhs[0] > 0
    assert rhs[0] == pytest.approx(lhs[0], rel=1e-10)


def test_equivalence_zero_case():
    rng = np.random.default_rng(15)
    ms = random_ms(rng)
    x0 = rng.standard_normal(2)
    sample = LossSample(x0=x0, eps=np.zeros(2), t=1.9)
    lhs, rhs, gap = loss_equivalence_check(ms, ConstantField(np.zeros(2)), sample)
    assert lhs == pytest.approx(0.0, abs=1e-20)
    assert rhs == pytest.approx(0.0, abs=1e-20)


def test_loss_equivalence_check_makes_one_field_call_per_batch(monkeypatch):
    """One schedule evaluation, one x_t and one oracle factorization per batch:
    `eval_M` runs for the batch's `ScheduleEval`, the oracle's own `ms.at(t)` and
    the two velocity helpers, and the right side is the loss `loss_sample` gives."""
    rng = np.random.default_rng(19)
    gm = two_component_gmm()
    ms = random_ms(rng)
    batch = draw_loss_samples(gm, ms, 8, rng)
    want = loss_sample(ms, OracleFlowField(gm, ms), batch).loss
    factored = _count_calls(monkeypatch, gmm_mod._NoisyCovariances, "__init__")
    evals = [_count_calls(monkeypatch, module, "eval_M") for module in (schedule_mod, loss_mod)]
    _, rhs, _ = loss_equivalence_check(ms, OracleFlowField(gm, ms), batch)
    assert len(factored) == 1
    assert [len(e) for e in evals] == [2, 2]
    assert np.array_equal(rhs, want)


# ---------------------------------------------------------------------------
# one class boundary: the loss takes a plain schedule
# ---------------------------------------------------------------------------

def test_loss_sample_carries_no_class_label():
    assert [f.name for f in dataclasses.fields(LossSample)] == ["x0", "eps", "t"]
    with pytest.raises(TypeError):
        LossSample(np.zeros(2), np.zeros(2), 1.0, "a")


def test_loss_functions_reject_a_class_conditional_schedule():
    """A label riding on the sample is not read: the caller resolves the class."""
    rng = np.random.default_rng(20)
    gm = two_component_gmm()
    base = random_ms(rng)
    ms = MatrixSchedule(base.family, base.per_subspace, class_table={"a": base.per_subspace})
    batch = draw_loss_samples(gm, base, 4, rng)
    labeled = SimpleNamespace(x0=batch.x0, eps=batch.eps, t=batch.t, class_label="a")
    field = OracleFlowField(gm, ms, "a")
    with pytest.raises(KeyError, match="requires a class label"):
        loss_sample(ms, field, labeled)
    with pytest.raises(KeyError, match="requires a class label"):
        loss_equivalence_check(ms, field, labeled)
    got = loss_sample(ms.for_class("a"), field, batch).loss
    assert np.array_equal(got, loss_sample(base, OracleFlowField(gm, base), batch).loss)


# ---------------------------------------------------------------------------
# optimality and path-mismatch sanity
# ---------------------------------------------------------------------------

def test_conditional_cotangent_vanishes_at_oracle():
    rng = np.random.default_rng(16)
    gm = two_component_gmm()
    ms = random_ms(rng)
    field = OracleFlowField(gm, ms)
    t = 1.3
    x_t = np.array([0.4, 0.7])
    n = 60_000
    x0 = posterior_sample(gm, np.tile(x_t, (n, 1)), ms, t, rng)
    g, _ = eval_M(ms, t)
    from anisodiff.subspaces import apply_spectral

    eps = apply_spectral(ms.family, 1.0 / np.sqrt(g), np.tile(x_t, (n, 1)) - x0)
    flow = field(x_t, t)
    w = weight_values(ms, t)
    cot = 2.0 * apply_spectral(ms.family, w * w, flow[None, :] + eps)
    se = cot.std(axis=0) / np.sqrt(n)
    assert np.all(np.abs(cot.mean(axis=0)) < 3 * se + 1e-12)


def test_velocity_mismatch_nonnegative_and_discriminates():
    rng = np.random.default_rng(17)
    gm = two_component_gmm()
    ms_a = random_ms(rng)
    ms_b = ms_a.with_theta_vector(ms_a.theta_vector() + np.linspace(-0.8, 0.8, ms_a.n_params))
    ts = np.linspace(ms_a.t_min * 5, ms_a.horizon * 0.95, 8)
    xs = rng.standard_normal((64, 2))

    def mismatch(m1, m2):
        total = 0.0
        for t in ts:
            va = velocity_ideal(gm, m1, xs, t)
            vb = velocity_ideal(gm, m2, xs, t)
            total += np.mean(np.sum((va - vb) ** 2, axis=1))
        return total

    assert mismatch(ms_a, ms_a) == 0.0
    assert mismatch(ms_a, ms_b) > 0.0


def test_perturbed_point_matches_gmm_perturb():
    rng = np.random.default_rng(18)
    gm = two_component_gmm()
    ms = random_ms(rng)
    batch = draw_loss_samples(gm, ms, 8, rng)
    from anisodiff.loss import perturbed_point

    np.testing.assert_array_equal(
        perturbed_point(ms.at(batch.t), batch), perturb(batch.x0, batch.eps, ms.at(batch.t))
    )
