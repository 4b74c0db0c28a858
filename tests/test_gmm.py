import numpy as np
import pytest

from anisodiff.gmm import (
    GaussianMixture,
    dtheta_score_direction,
    dtheta_score_fd,
    dtheta_score_oracle,
    log_density,
    perturb,
    posterior_mean,
    posterior_sample,
    sample_p0,
    score,
    score_directional,
    score_hessian,
    score_mixed_directional,
    single_gaussian,
)
from anisodiff.schedule import (
    KnotSchedule,
    eval_M,
    isotropic_matrix_schedule,
    matrix_schedule_for_family,
    uniform_nodes,
)
from anisodiff.subspaces import axis_family, build_dct_projectors


def two_component_gmm():
    mu = np.array([[1.5, 0.0], [-1.5, 0.0]])
    covs = np.stack([np.diag([0.5, 1.2]), np.diag([0.8, 0.3])])
    return GaussianMixture(np.array([0.4, 0.6]), mu, covs)


def random_ms(rng, d=2, horizon=4.0):
    fam = axis_family(d, 1)
    ms = matrix_schedule_for_family(fam, horizon, n_knots=6)
    return ms.with_theta_vector(rng.standard_normal(ms.n_params))


# ---------------------------------------------------------------------------
# construction and sampling
# ---------------------------------------------------------------------------

def test_mixture_validation():
    with pytest.raises(ValueError):
        GaussianMixture(np.array([0.6, 0.6]), np.zeros((2, 2)), np.stack([np.eye(2)] * 2))
    with pytest.raises(ValueError):
        GaussianMixture(
            np.array([1.0]), np.zeros((1, 2)), np.array([[[1.0, 0.5], [0.2, 1.0]]])
        )


def test_mixture_rejects_indefinite_covariance():
    # two negative eigenvalues give a positive determinant
    with pytest.raises(ValueError, match="positive semidefinite"):
        single_gaussian(np.zeros(3), np.diag([-1.0, -1.0, 1.0]))
    # a singular covariance is still a distribution
    single_gaussian(np.zeros(3), np.diag([0.0, 1.0, 1.0]))


@pytest.mark.parametrize("t", [1.0, np.array([1.0, 2.0])])
def test_noisy_mixture_rejects_non_positive_definite_covariance(t):
    rng = np.random.default_rng(3)
    ms = random_ms(rng)
    gm = two_component_gmm()
    # bypass the mixture's own check to reach the factorization
    object.__setattr__(gm, "covs", np.stack([np.diag([-50.0, 1.0])] * 2))
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite") as info:
        score(gm, np.zeros((2, 2)), ms, t)
    assert "\n" not in str(info.value)


def test_sample_p0_mean_clt():
    gm = single_gaussian(np.zeros(2), np.eye(2))
    pts = sample_p0(gm, 100_000, rng_seed=0)
    assert np.all(np.abs(pts.mean(axis=0)) < 0.02)


def test_sample_p0_degenerate_weight():
    gm = GaussianMixture(
        np.array([1.0, 0.0]),
        np.array([[5.0, 5.0], [-5.0, -5.0]]),
        np.stack([0.01 * np.eye(2)] * 2),
    )
    pts = sample_p0(gm, 500, rng_seed=1)
    assert np.all(np.linalg.norm(pts - 5.0, axis=1) < 2.0)


def test_sample_p0_deterministic():
    gm = two_component_gmm()
    a = sample_p0(gm, 64, rng_seed=42)
    b = sample_p0(gm, 64, rng_seed=42)
    np.testing.assert_array_equal(a, b)
    with pytest.raises(ValueError):
        sample_p0(gm, 0, rng_seed=0)


def test_perturb_zero_noise():
    rng = np.random.default_rng(2)
    ms = random_ms(rng)
    x0 = rng.standard_normal(2)
    np.testing.assert_array_equal(perturb(x0, np.zeros(2), ms, 1.0), x0)


def test_perturb_scalar_sqrt():
    # schedule value g(t*) = 4 => M^{1/2} eps = 2 eps
    horizon = 8.0
    s = KnotSchedule(np.zeros(3), uniform_nodes(horizon, 4), floor=2.0, horizon=horizon)
    fam = axis_family(2, 1)
    from anisodiff.schedule import MatrixSchedule

    ms = MatrixSchedule(fam, (s, s))
    # log-linear from 2 to 8 over [0,8]: g(t) = 2 * 4^(t/8); g(4) = 4
    g, _ = eval_M(ms, 4.0)
    np.testing.assert_allclose(g, 4.0, rtol=1e-12)
    x0 = np.array([1.0, -1.0])
    out = perturb(x0, np.array([1.0, 0.0]), ms, 4.0)
    np.testing.assert_allclose(out, x0 + np.array([2.0, 0.0]), rtol=1e-12)


def test_perturb_covariance_matches_M():
    rng = np.random.default_rng(3)
    ms = random_ms(rng)
    t = 2.5
    g, _ = eval_M(ms, t)
    eps = rng.standard_normal((100_000, 2))
    deltas = perturb(np.zeros(2), eps, ms, t)
    cov = deltas.T @ deltas / deltas.shape[0]
    target = ms.family.dense(g)
    evals_est = np.linalg.eigvalsh(cov)
    evals_true = np.linalg.eigvalsh(target)
    assert np.all(np.abs(evals_est - evals_true) / evals_true < 0.05)


# ---------------------------------------------------------------------------
# score and posterior mean
# ---------------------------------------------------------------------------

def test_gaussian_score_closed_form():
    gm = single_gaussian(np.zeros(2), np.eye(2))
    # g(1) = 1 for floor 0.5, horizon 2 (g = 0.5 * 2^t), so M_1 = 1*I = t*I
    horizon = 2.0
    s = KnotSchedule(np.zeros(3), uniform_nodes(horizon, 4), floor=0.5, horizon=horizon)
    from anisodiff.schedule import MatrixSchedule

    ms = MatrixSchedule(axis_family(2, 1), (s, s))
    g, _ = eval_M(ms, 1.0)
    np.testing.assert_allclose(g, 1.0, rtol=1e-12)
    x = np.array([0.7, -2.0])
    np.testing.assert_allclose(score(gm, x, ms, 1.0), -x / 2.0, rtol=1e-12)


def test_symmetric_mixture_score_zero_at_origin():
    mu = np.array([[2.0, 1.0], [-2.0, -1.0]])
    covs = np.stack([np.diag([0.5, 0.7])] * 2)
    gm = GaussianMixture(np.array([0.5, 0.5]), mu, covs)
    rng = np.random.default_rng(4)
    ms = random_ms(rng)
    np.testing.assert_allclose(score(gm, np.zeros(2), ms, 1.3), 0.0, atol=1e-12)


def test_score_matches_log_density_fd():
    rng = np.random.default_rng(5)
    gm = two_component_gmm()
    ms = random_ms(rng)
    h = 1e-5
    for _ in range(10):
        t = rng.uniform(0.3, 3.5)
        x = rng.standard_normal(2) * 2
        s = score(gm, x, ms, t)
        fd = np.zeros(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd[i] = (log_density(gm, x + e, ms, t) - log_density(gm, x - e, ms, t)) / (2 * h)
        np.testing.assert_allclose(s, fd, rtol=1e-5, atol=1e-8)


def test_posterior_mean_prior_dominates_at_large_noise():
    gm = two_component_gmm()
    rng = np.random.default_rng(6)
    fam = axis_family(2, 1)
    ms = matrix_schedule_for_family(fam, horizon=5000.0)
    x = rng.standard_normal(2)
    pm = posterior_mean(gm, x, ms, 5000.0)
    np.testing.assert_allclose(pm, gm.mean, atol=0.01)


def test_posterior_mean_single_component_formula():
    cov = np.array([[1.5, 0.4], [0.4, 0.8]])
    gm = single_gaussian(np.zeros(2), cov)
    rng = np.random.default_rng(7)
    ms = random_ms(rng)
    t = 1.9
    g, _ = eval_M(ms, t)
    m_dense = ms.family.dense(g)
    x = np.array([1.2, -0.4])
    expected = cov @ np.linalg.solve(cov + m_dense, x)
    np.testing.assert_allclose(posterior_mean(gm, x, ms, t), expected, rtol=1e-10)


def test_score_posterior_identity():
    rng = np.random.default_rng(8)
    gm = two_component_gmm()
    ms = random_ms(rng)
    from anisodiff.schedule import apply_M

    for _ in range(100):
        t = rng.uniform(0.1, 4.0)
        x = rng.standard_normal(2) * 3
        lhs = apply_M(ms, t, score(gm, x, ms, t)) + x - posterior_mean(gm, x, ms, t)
        assert np.linalg.norm(lhs) < 1e-9


def test_batched_matches_scalar_calls():
    rng = np.random.default_rng(9)
    gm = two_component_gmm()
    ms = random_ms(rng)
    xs = rng.standard_normal((6, 2))
    ts = rng.uniform(0.5, 3.5, size=6)
    s_batch = score(gm, xs, ms, ts)
    pm_batch = posterior_mean(gm, xs, ms, ts)
    for i in range(6):
        np.testing.assert_allclose(s_batch[i], score(gm, xs[i], ms, float(ts[i])), rtol=1e-12)
        np.testing.assert_allclose(
            pm_batch[i], posterior_mean(gm, xs[i], ms, float(ts[i])), rtol=1e-12
        )


# ---------------------------------------------------------------------------
# directional derivatives
# ---------------------------------------------------------------------------

def test_gaussian_mixed_directional_vanishes():
    gm = single_gaussian(np.zeros(2), np.diag([2.0, 0.5]))
    rng = np.random.default_rng(10)
    ms = random_ms(rng)
    u, v = rng.standard_normal(2), rng.standard_normal(2)
    mixed = score_mixed_directional(gm, rng.standard_normal(2), ms, 1.1, u, v)
    np.testing.assert_allclose(mixed, 0.0, atol=1e-12)


def test_directional_matches_fd():
    rng = np.random.default_rng(11)
    gm = two_component_gmm()
    ms = random_ms(rng)
    h = 1e-5
    for _ in range(10):
        t = rng.uniform(0.3, 3.5)
        x = rng.standard_normal(2)
        v = rng.standard_normal(2)
        d = score_directional(gm, x, ms, t, v)
        fd = (score(gm, x + h * v, ms, t) - score(gm, x - h * v, ms, t)) / (2 * h)
        np.testing.assert_allclose(d, fd, rtol=1e-5, atol=1e-8)


def test_mixed_matches_nested_fd():
    rng = np.random.default_rng(12)
    gm = two_component_gmm()
    ms = random_ms(rng)
    h = 1e-4
    for _ in range(10):
        t = rng.uniform(0.3, 3.5)
        x = rng.standard_normal(2)
        u, v = rng.standard_normal(2), rng.standard_normal(2)
        mixed = score_mixed_directional(gm, x, ms, t, u, v)
        fd = (
            score(gm, x + h * u + h * v, ms, t)
            - score(gm, x + h * u - h * v, ms, t)
            - score(gm, x - h * u + h * v, ms, t)
            + score(gm, x - h * u - h * v, ms, t)
        ) / (4 * h * h)
        np.testing.assert_allclose(mixed, fd, rtol=1e-4, atol=1e-6)


def test_mixed_symmetry_and_zero_directions():
    rng = np.random.default_rng(13)
    gm = two_component_gmm()
    ms = random_ms(rng)
    x = rng.standard_normal(2)
    u, v = rng.standard_normal(2), rng.standard_normal(2)
    muv = score_mixed_directional(gm, x, ms, 1.0, u, v)
    mvu = score_mixed_directional(gm, x, ms, 1.0, v, u)
    np.testing.assert_allclose(muv, mvu, atol=1e-10)
    np.testing.assert_allclose(
        score_mixed_directional(gm, x, ms, 1.0, np.zeros(2), np.zeros(2)), 0.0, atol=1e-14
    )


# ---------------------------------------------------------------------------
# theta-derivative oracle
# ---------------------------------------------------------------------------

def test_dtheta_direction_single_gaussian_closed_form():
    cov = np.diag([1.0, 1.0])
    gm = single_gaussian(np.zeros(2), cov)
    rng = np.random.default_rng(14)
    ms = random_ms(rng)
    t = 1.7
    g, _ = eval_M(ms, t)
    c = cov + ms.family.dense(g)
    d_mat = np.diag([0.9, 0.2])
    x = np.array([0.5, -1.5])
    expected = np.linalg.solve(c, d_mat @ np.linalg.solve(c, x))
    got = dtheta_score_direction(gm, x, ms, t, d_mat)
    np.testing.assert_allclose(got, expected, rtol=1e-10)


def test_dtheta_oracle_matches_theta_fd():
    rng = np.random.default_rng(15)
    gm = two_component_gmm()
    ms = random_ms(rng)
    for _ in range(5):
        t = rng.uniform(0.4, 3.2)
        x = rng.standard_normal(2)
        for p in range(ms.n_params):
            analytic = dtheta_score_oracle(gm, x, ms, t, p)
            fd = dtheta_score_fd(gm, x, ms, t, p)
            np.testing.assert_allclose(analytic, fd, rtol=1e-4, atol=1e-8)


def test_dtheta_componentwise_when_responsibilities_frozen():
    # same covariances, means differing only along axis 0, direction on axis 1:
    # responsibilities do not react to the perturbation
    cov = np.diag([0.6, 1.1])
    gm = GaussianMixture(
        np.array([0.5, 0.5]),
        np.array([[1.0, 0.0], [-1.0, 0.0]]),
        np.stack([cov, cov]),
    )
    rng = np.random.default_rng(16)
    ms = random_ms(rng)
    t = 1.2
    g, _ = eval_M(ms, t)
    c = cov + ms.family.dense(g)
    d_mat = np.outer([0.0, 1.0], [0.0, 1.0])
    x = np.array([0.3, 0.8])
    got = dtheta_score_direction(gm, x, ms, t, d_mat)
    # responsibility-weighted sum of per-component Gaussian formulas
    from anisodiff.gmm import _NoisyMixture

    noisy = _NoisyMixture(gm, x, ms, t)
    expected = np.zeros(2)
    for k in range(2):
        s_k = noisy.comp_score[0, k]
        expected += noisy.resp[0, k] * (-np.linalg.solve(c, d_mat @ s_k))
    np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-14)


# ---------------------------------------------------------------------------
# analytic invariants
# ---------------------------------------------------------------------------

def test_heat_equation_residual():
    rng = np.random.default_rng(17)
    gm = two_component_gmm()
    ms = random_ms(rng)
    h = 1e-5
    for _ in range(10):
        t = rng.uniform(0.5, 3.0)
        x = rng.standard_normal(2)
        dlogp_dt = (log_density(gm, x, ms, t + h) - log_density(gm, x, ms, t - h)) / (2 * h)
        _, dg = eval_M(ms, t)
        dm = ms.family.dense(dg)
        s = score(gm, x, ms, t)
        hess = score_hessian(gm, x, ms, t)
        rhs = 0.5 * np.trace(dm @ hess) + 0.5 * s @ dm @ s
        assert dlogp_dt == pytest.approx(rhs, rel=1e-3)


def test_posterior_sample_mean_matches_posterior_mean():
    rng = np.random.default_rng(18)
    gm = two_component_gmm()
    ms = random_ms(rng)
    t = 1.4
    x = np.array([0.4, -0.9])
    draws = posterior_sample(gm, np.tile(x, (40_000, 1)), ms, t, rng)
    mc = draws.mean(axis=0)
    se = draws.std(axis=0) / np.sqrt(draws.shape[0])
    pm = posterior_mean(gm, x, ms, t)
    assert np.all(np.abs(mc - pm) < 3 * se + 1e-12)


def test_dct_family_oracle_runs_in_higher_dim():
    rng = np.random.default_rng(19)
    fam = build_dct_projectors(2, 1)
    ms = matrix_schedule_for_family(fam, horizon=3.0)
    mu = rng.standard_normal((2, 4))
    gm = GaussianMixture(
        np.array([0.5, 0.5]), mu, np.stack([np.eye(4), 0.5 * np.eye(4)])
    )
    x = rng.standard_normal(4)
    s = score(gm, x, ms, 1.0)
    assert s.shape == (4,)
    lhs = ms.family.dense(eval_M(ms, 1.0)[0]) @ s + x - posterior_mean(gm, x, ms, 1.0)
    assert np.linalg.norm(lhs) < 1e-9


def test_isotropic_schedule_path():
    gm = single_gaussian(np.zeros(3), np.eye(3))
    ms = isotropic_matrix_schedule(3, horizon=2.0)
    x = np.array([1.0, 2.0, -1.0])
    g, _ = eval_M(ms, 1.0)
    np.testing.assert_allclose(score(gm, x, ms, 1.0), -x / (1 + g[0]), rtol=1e-12)
