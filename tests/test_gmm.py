import tracemalloc

import numpy as np
import pytest

from anisodiff import gmm as gmm_mod
from anisodiff.fields import OracleFlowField, OracleScoreField, coordinate_view
from anisodiff.gmm import (
    GaussianMixture,
    dtheta_score_direction,
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
    matrix_schedule_for_family,
    uniform_nodes,
)
from anisodiff.subspaces import apply_spectral, axis_family, build_dct_projectors, isotropic_family


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


def test_mixture_keeps_read_only_copies():
    weights, means, covs = np.array([0.4, 0.6]), np.zeros((2, 2)), np.stack([np.eye(2)] * 2)
    gm = GaussianMixture(weights, means, covs)
    for given, kept in ((weights, gm.weights), (means, gm.means), (covs, gm.covs)):
        given[0] = 0.5  # the caller's arrays stay writable and are not the kept ones
        assert kept[0].flat[0] != 0.5
        with pytest.raises(ValueError, match="read-only"):
            kept[0] = 0.0


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


def random_mixture(rng, k, d):
    rot = np.linalg.qr(rng.standard_normal((k, d, d)))[0]
    covs = np.einsum("kij,kj,klj->kil", rot, rng.uniform(0.1, 1.0, (k, d)), rot)
    covs = 0.5 * (covs + np.swapaxes(covs, 1, 2))
    return GaussianMixture(np.full(k, 1.0 / k), rng.standard_normal((k, d)), covs)


@pytest.mark.parametrize("shape", [(3, 4, 4), (8, 3, 16, 16), (2, 5, 5)])
def test_factor_inverse_is_symmetric_and_matches_lu(shape):
    rng = np.random.default_rng(4)
    a = rng.standard_normal(shape)
    cov = a @ np.swapaxes(a, -1, -2) / shape[-1] + 0.1 * np.eye(shape[-1])
    logdet, inv = gmm_mod._factor(cov)
    assert np.array_equal(inv, np.swapaxes(inv, -1, -2))
    want = np.linalg.inv(cov)
    assert np.abs(inv - want).max() <= 1e-13 * np.abs(want).max()
    np.testing.assert_allclose(logdet, np.linalg.slogdet(cov)[1], rtol=1e-13, atol=1e-13)
    cov[..., 0, 0] = -1.0
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite") as info:
        gmm_mod._factor(cov)
    assert "\n" not in str(info.value)


def _factor_reference(cov):
    """One `dtrtri` call per Cholesky factor, and X^T @ X of the stacked inverses."""
    from scipy.linalg.lapack import dtrtri

    chol = np.linalg.cholesky(cov)
    factors = chol.reshape((-1,) + chol.shape[-2:])
    chol_inv = np.empty_like(factors)
    for i, factor in enumerate(factors):
        chol_inv[i], info = dtrtri(factor, lower=1)
        assert info == 0
    chol_inv = chol_inv.reshape(chol.shape)
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
    return logdet, np.swapaxes(chol_inv, -1, -2) @ chol_inv


FACTOR_SHAPES = [(4, 1, 1), (4, 5, 5), (3, 16, 16), (6, 2, 1, 1), (6, 3, 5, 5),
                 (32, 4, 16, 16), (4, 64, 64), (2, 3, 3), (4, 3, 17, 17), (2, 65, 65)]


def _well_conditioned(shape):
    a = np.random.default_rng(sum(shape)).standard_normal(shape)
    return a @ np.swapaxes(a, -1, -2) / shape[-1] + 0.1 * np.eye(shape[-1])


@pytest.mark.parametrize("shape", FACTOR_SHAPES)
def test_factor_is_bit_identical_to_the_per_factor_loop(shape):
    # batching is exact: the stack factors bit for bit as each matrix does alone
    cov = _well_conditioned(shape)
    before = cov.copy()
    logdet, inv = gmm_mod._factor(cov)
    assert np.array_equal(cov, before)
    d = shape[-1]
    for c, want_logdet, want_inv in zip(cov.reshape(-1, d, d), logdet.reshape(-1),
                                        inv.reshape(-1, d, d)):
        one_logdet, one_inv = gmm_mod._factor(c)
        assert np.array_equal(one_logdet, want_logdet) and np.array_equal(one_inv, want_inv)
    assert np.array_equal(inv, np.swapaxes(inv, -1, -2))
    assert inv.shape == shape and inv.flags.c_contiguous


@pytest.mark.parametrize("shape", FACTOR_SHAPES)
def test_factor_matches_the_dtrtri_reference(shape):
    cov = _well_conditioned(shape)
    logdet, inv = gmm_mod._factor(cov)
    want_logdet, want_inv = _factor_reference(cov)
    assert np.array_equal(logdet, want_logdet)
    assert np.abs(inv - want_inv).max() <= 1e-14 * np.abs(want_inv).max()


@pytest.mark.parametrize("d", [5, 16, 64])
def test_factor_residual_at_condition_1e10_is_within_twice_the_reference(d):
    rng = np.random.default_rng(d)
    q = np.linalg.qr(rng.standard_normal((4, d, d)))[0]
    cov = (q * np.logspace(0, -10, d)) @ np.swapaxes(q, -1, -2)
    cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    eye = np.eye(d)
    residual = np.abs(cov @ gmm_mod._factor(cov)[1] - eye).max()
    assert residual <= 2.0 * np.abs(cov @ _factor_reference(cov)[1] - eye).max()


@pytest.mark.parametrize("d", [5, 16, 17, 64, 65])
def test_factor_residual_is_within_the_rounding_bound_at_any_size(d):
    # max |C C^{-1} - I| <= d u cond(C), with u the unit roundoff, across seeds and conditions
    for seed in range(3):
        q = np.linalg.qr(np.random.default_rng([d, seed]).standard_normal((4, d, d)))[0]
        for cond in (1e6, 1e10, 1e13):
            cov = (q * np.logspace(0, -np.log10(cond), d)) @ np.swapaxes(q, -1, -2)
            cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))
            residual = np.abs(cov @ gmm_mod._factor(cov)[1] - np.eye(d)).max()
            assert residual <= d * 2.0**-53 * cond


@pytest.mark.parametrize("n", [2, 3, 5, 6, 7, 12, 17, 33])
def test_upper_inverse_splits_the_last_block_unevenly(n):
    # the same factors padded with an identity block to a power of two have only full blocks
    u = np.swapaxes(np.linalg.cholesky(_well_conditioned((3, n, n))), -1, -2).copy()
    p = 1 << (n - 1).bit_length()
    padded = np.zeros((3, p, p))
    padded[:, :n, :n] = u
    padded[:, n:, n:] = np.eye(p - n)
    factor = u.copy()
    gmm_mod._upper_inverse(u)
    gmm_mod._upper_inverse(padded)
    assert not np.any(np.tril(u, -1))
    assert np.abs(u - padded[:, :n, :n]).max() <= 1e-14 * np.abs(u).max()
    assert np.abs(factor @ u - np.eye(n)).max() <= 1e-14


@pytest.mark.parametrize("d", [5, 16])  # a split last block, and a power of two
def test_factor_rejects_a_non_positive_definite_matrix_in_one_line(d):
    cov = _well_conditioned((2, 3, d, d))
    cov[1, 2, d - 1, d - 1] = -1.0  # the last matrix of the stack, at its last pivot
    before = cov.copy()
    with pytest.raises(np.linalg.LinAlgError) as info:
        gmm_mod._factor(cov)
    assert str(info.value) == gmm_mod.NOT_POSITIVE_DEFINITE
    assert np.array_equal(cov, before)


def test_sample_p0_factors_the_covariances_once(monkeypatch):
    rng = np.random.default_rng(5)
    gm = random_mixture(rng, 3, 4)
    draw = np.random.default_rng(6)
    comps = draw.choice(3, size=50, p=gm.weights)
    z = draw.standard_normal((50, 4))
    chols = np.linalg.cholesky(gm.covs + 1e-15 * np.eye(4))
    want = gm.means[comps] + np.einsum("nij,nj->ni", chols[comps], z)
    calls = []
    original = np.linalg.cholesky

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    assert np.array_equal(sample_p0(gm, 50, 6), want)
    assert np.array_equal(sample_p0(gm, 50, 6), want)
    assert len(calls) == 1


@pytest.mark.parametrize("k, d, n", [(1, 1, 1), (2, 3, 7), (5, 16, 64), (9, 64, 257)])
def test_sample_p0_per_component_matches_the_gather_of_factors(k, d, n):
    gm = random_mixture(np.random.default_rng(d), k, d)
    draw = np.random.default_rng(11)
    comps = draw.choice(k, size=n, p=gm.weights)
    z = draw.standard_normal((n, d))
    want = gm.means[comps] + np.einsum("nij,nj->ni", gm._sampling_factors[comps], z)
    assert np.array_equal(sample_p0(gm, n, 11), want)


def test_sample_p0_does_not_gather_a_factor_per_point():
    """Drawing n points keeps O(n d) memory, not the (n, d, d) stack of per-point factors."""
    rng = np.random.default_rng(12)
    n, k, d = 256, 4, 64
    gm = random_mixture(rng, k, d)
    sample_p0(gm, 1, 0)  # forms the cached factors; not part of the call under test
    tracemalloc.start()
    try:
        sample_p0(gm, n, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * d * 8


def test_shared_t_mixed_does_not_copy_the_inverse():
    """A shared-t jet holds C_k^{-1} once; `mixed` must not expand it to (n, K, d, d)."""
    rng = np.random.default_rng(7)
    n, k, d = 128, 4, 32
    gm = random_mixture(rng, k, d)
    ms = matrix_schedule_for_family(axis_family(d, 8), 4.0)
    jet = OracleScoreField(gm, ms).at(rng.standard_normal((n, d)), 1.0)
    jet.hessian()  # cached; not part of the call under test
    u, v = rng.standard_normal((2, n, d))
    tracemalloc.start()
    try:
        jet.mixed(u, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * k * d * d * 8


def test_shared_t_view_call_keeps_one_stack_of_solves():
    """On a kept slice, one oracle view call holds no (K, n, d) array besides `y`."""
    rng = np.random.default_rng(8)
    n, k = 256, 4
    family = build_dct_projectors(8, low_side=4)
    d = family.ambient_dim
    field = OracleFlowField(random_mixture(rng, k, d), matrix_schedule_for_family(family, 4.0))
    _, view, c, _ = coordinate_view(field, family, rng.standard_normal((n, d)), times=(1.0,))
    view(c, 1.0)  # factors and keeps the slice at t = 1
    tracemalloc.start()
    try:
        view(c, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (k + 3) * n * d * 8


def test_shared_t_oracle_is_translation_exact():
    """Shifting dyadic points and means by 2^14 leaves x - mu exact, so nothing may move.

    Forming C_k^{-1} x - C_k^{-1} mu_k instead of C_k^{-1} (x - mu_k) loses digits in
    proportion to |mu| / sigma and fails this.
    """
    rng = np.random.default_rng(9)
    n, k, d = 32, 3, 8
    gm = random_mixture(rng, k, d)
    ms = matrix_schedule_for_family(axis_family(d, 4), 4.0)
    x = np.round(rng.standard_normal((n, d)) * 2.0**20) / 2.0**20
    means = np.round(gm.means * 2.0**20) / 2.0**20
    jets = [OracleScoreField(GaussianMixture(gm.weights, means + shift, gm.covs), ms)
            .at(x + shift, 1.0) for shift in (0.0, 2.0**14)]
    assert np.array_equal(jets[0].value(), jets[1].value())
    assert np.array_equal(jets[0].log_density(), jets[1].log_density())


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
    np.testing.assert_array_equal(perturb(x0, np.zeros(2), ms.at(1.0)), x0)


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
    out = perturb(x0, np.array([1.0, 0.0]), ms.at(4.0))
    np.testing.assert_allclose(out, x0 + np.array([2.0, 0.0]), rtol=1e-12)


def test_perturb_covariance_matches_M():
    rng = np.random.default_rng(3)
    ms = random_ms(rng)
    t = 2.5
    g, _ = eval_M(ms, t)
    eps = rng.standard_normal((100_000, 2))
    deltas = perturb(np.zeros(2), eps, ms.at(t))
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
    for _ in range(100):
        t = rng.uniform(0.1, 4.0)
        x = rng.standard_normal(2) * 3
        lhs = (apply_spectral(ms.family, eval_M(ms, t)[0], score(gm, x, ms, t)) + x
               - posterior_mean(gm, x, ms, t))
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


def dct_mixture_case(seed, n):
    """The generator, a K=4 mixture on the d=16 DCT family, a schedule on it and n points."""
    rng = np.random.default_rng(seed)
    family = build_dct_projectors(4, low_side=2)
    d = family.ambient_dim
    gm = random_mixture(rng, 4, d)
    ms = matrix_schedule_for_family(family, 4.0)
    ms = ms.with_theta_vector(0.3 * rng.standard_normal(ms.n_params))
    return rng, gm, ms, rng.standard_normal((n, d))


@pytest.mark.parametrize("scalar", [False, True], ids=["batch", "scalar-x"])
def test_shared_and_per_sample_t_jets_agree(scalar):
    """`ms.at(t)` and `ms.at(np.full(n, t))` give the same jet on every quantity."""
    rng, gm, ms, xs = dct_mixture_case(20, 24)
    x = xs[0] if scalar else xs
    n, d = 1 if scalar else len(xs), xs.shape[1]
    t = 3.0
    field = OracleScoreField(gm, ms)
    shared, per_sample = field.at(x, t), field.at(x, np.full(n, t))
    assert per_sample.inv.shape == (n, 4, d, d)  # the per-sample path, factored n times
    u, v = rng.standard_normal((2,) + x.shape)
    v_one = rng.standard_normal(d)
    direction = rng.standard_normal((d, d))
    direction += direction.T

    def quantities(jet):
        return {"value": jet.value(), "log_density": jet.log_density(),
                "hessian": jet.hessian(), "posterior_mean": jet.posterior_mean(),
                "directional": jet.directional(v), "directional (d,)": jet.directional(v_one),
                "mixed": jet.mixed(u, v), "block_traces": jet.block_traces(ms.family),
                "dtheta_score": jet.dtheta_score(direction)}

    want, got = quantities(shared), quantities(per_sample)
    for name, ref in want.items():
        assert got[name].shape == ref.shape, name
        # entries that cancel to ~1e-5 of the largest keep only its absolute rounding
        np.testing.assert_allclose(got[name], ref, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(ref)), err_msg=name)


def einsum_jet(jet, v):
    """y, resp, score, Hessian and Hessian @ v of a jet by the per-point einsum contractions."""
    gm, x, inv = jet.gm, jet.x, jet.cov_inv
    diff = x[:, None, :] - gm.means[None, :, :]
    y = np.einsum("nkij,nkj->nki", inv, diff)
    maha = np.einsum("nki,nki->nk", diff, y)
    log_norm = gm.dim * np.log(2 * np.pi) - np.linalg.slogdet(inv)[1]  # + log det C_k
    log_comp = np.log(gm.weights)[None, :] - 0.5 * (log_norm + maha)
    comp = np.exp(log_comp - log_comp.max(axis=1, keepdims=True))
    resp = comp / comp.sum(axis=1, keepdims=True)
    s = -y
    s_bar = np.einsum("nk,nki->ni", resp, s)
    hess = (-np.einsum("nk,nkij->nij", resp, inv)
            + np.einsum("nk,nki,nkj->nij", resp, s, s)
            - np.einsum("ni,nj->nij", s_bar, s_bar))
    return {"y": y, "resp": resp, "score": s_bar, "hessian": hess,
            "directional": np.einsum("nij,nj->ni", hess, np.broadcast_to(v, x.shape))}


@pytest.mark.parametrize("per_sample", [False, True], ids=["shared-t", "per-sample-t"])
@pytest.mark.parametrize("tangent", ["batch", "single"])
def test_jet_contractions_equal_their_einsum_forms(per_sample, tangent):
    """The BLAS contractions of a jet equal the einsum forms they replace, on both paths."""
    rng, gm, ms, x = dct_mixture_case(21, 32)
    n, d = x.shape
    jet = OracleScoreField(gm, ms).at(x, np.full(n, 3.0) if per_sample else 3.0)
    v = rng.standard_normal((n, d) if tangent == "batch" else d)
    want = einsum_jet(jet, v)
    got = {"y": jet.y, "resp": jet.resp, "score": jet.value(), "hessian": jet.hessian(),
           "directional": jet.directional(v)}
    for name, ref in want.items():
        assert np.max(np.abs(got[name] - ref)) <= 1e-13 * np.max(np.abs(ref)), name


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


def dtheta_score_fd(gm, x, ms, t, theta_index: int, h: float = 1e-6):
    """Central finite difference of the score over theta_j."""
    theta = ms.theta_vector()
    up, dn = theta.copy(), theta.copy()
    up[theta_index] += h
    dn[theta_index] -= h
    s_up = score(gm, x, ms.with_theta_vector(up), t)
    s_dn = score(gm, x, ms.with_theta_vector(dn), t)
    return (s_up - s_dn) / (2 * h)


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
    from anisodiff.gmm import _NoisyCovariances, _NoisyMixture

    noisy = _NoisyMixture(_NoisyCovariances(gm, ms.at(t)), x)
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
    ms = matrix_schedule_for_family(isotropic_family(3), horizon=2.0)
    x = np.array([1.0, 2.0, -1.0])
    g, _ = eval_M(ms, 1.0)
    np.testing.assert_allclose(score(gm, x, ms, 1.0), -x / (1 + g[0]), rtol=1e-12)
