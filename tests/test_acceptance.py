"""Acceptance gate: one test per criterion, each at its pinned tolerance.

Every test finishes by printing a PASS line with the measured values
(visible with `pytest -s` or on failure); a failing criterion raises
before the print.  Large-scale image benchmarks are out of scope by
design and are substituted by this property suite (see the first test).
"""

import time

import numpy as np
import pytest
from scipy import stats

from anisodiff.fields import OracleFlowField
from anisodiff.flow_model import FlowModel
from anisodiff.gmm import (
    GaussianMixture,
    perturb,
    sample_p0,
    score_mixed_directional,
    single_gaussian,
)
from anisodiff.loss import draw_loss_samples
from anisodiff.sampler import SamplerConfig, sample_trajectory, time_grid
from anisodiff.schedule import (
    KnotSchedule,
    MatrixSchedule,
    eval_M,
    eval_M_dtheta,
    matrix_schedule_for_family,
    sinh_squared_schedule,
    uniform_nodes,
)
from anisodiff.schedule_grad import (
    estimate_H,
    fd_outer_gradient,
    outer_gradient,
)
from anisodiff.subspaces import ProjectorFamily, apply_spectral, isotropic_family
from anisodiff.training import TrainConfig, evaluate_generation, gaussian_w2, train_bilevel
from anisodiff.verify import (
    check_estimator_gaussian_exact,
    check_estimator_vs_oracle,
    check_knot_gradients,
    check_loss_equivalence,
    check_score_identity,
    check_solver_orders,
    check_weight_map,
    run_check,
)


def two_point_dct_family():
    """Frequency split of R^2: constant vector vs difference vector."""
    v1 = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    v2 = np.array([[1.0], [-1.0]]) / np.sqrt(2.0)
    return ProjectorFamily(np.hstack((v1, v2)), np.array([0, 1]))


def anisotropic_gaussian(family):
    q0, q1 = (family.basis[:, family.labels == j] for j in (0, 1))
    cov = 4.0 * (q0 @ q0.T)
    cov += 0.25 * (q1 @ q1.T)
    return single_gaussian(np.zeros(2), cov)


def report(name, detail=""):
    print(f"PASS: {name}" + (f" ({detail})" if detail else ""))


# ---------------------------------------------------------------------------

def test_criterion_01_image_scale_out_of_scope():
    # Image-benchmark FID tables need full-scale training runs and are out
    # of scope at desk scale; this suite substitutes exact-oracle property
    # checks (criteria 2-12 below) as the acceptance gate.
    report("full-scale image benchmarks out of scope; property suite substitutes")


def test_criterion_02_score_identity():
    start = time.perf_counter()
    (result,) = run_check(check_score_identity, cases=100)
    elapsed = time.perf_counter() - start
    assert result.passed, result.line()
    assert result.threshold == 1e-9
    assert elapsed < 5.0
    report("score identity", f"max residual {result.value:.2e} < 1e-9, {elapsed:.1f}s")


def test_criterion_03_plugin_estimator():
    start = time.perf_counter()
    (gmm_check,) = run_check(check_estimator_vs_oracle)
    assert gmm_check.passed, gmm_check.line()
    assert gmm_check.threshold == 1e-5
    (gauss_check,) = run_check(check_estimator_gaussian_exact)
    assert gauss_check.passed, gauss_check.line()
    assert gauss_check.threshold == 1e-12
    # vanishing mixed-derivative term in the Gaussian case
    rng = np.random.default_rng(3)
    gm = single_gaussian(np.zeros(2), np.diag([1.2, 0.7]))
    fam = two_point_dct_family()
    ms = matrix_schedule_for_family(fam, horizon=4.0, n_knots=5)
    ms = ms.with_theta_vector(rng.standard_normal(ms.n_params))
    worst_term1 = 0.0
    for _ in range(10):
        t = rng.uniform(0.4, 3.6)
        x = rng.standard_normal(2)
        jac = eval_M_dtheta(ms, t)
        for p in range(ms.n_params):
            direction = apply_spectral(fam, jac[:, p], np.eye(2))
            for i in range(2):
                m = score_mixed_directional(gm, x, ms, t, np.eye(2)[i], direction[i])
                worst_term1 = np.maximum(worst_term1, np.max(np.abs(m)))  # carries a NaN
    assert worst_term1 < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(
        "schedule-gradient estimator",
        f"gmm rel {gmm_check.value:.2e} < 1e-5, gaussian {gauss_check.value:.2e} < 1e-12, "
        f"term1 {worst_term1:.1e}, {elapsed:.1f}s",
    )


def test_criterion_04_outer_gradient_fd():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    mu = np.array([[1.2, 0.4], [-0.8, -0.9]])
    covs = np.stack([np.diag([0.5, 0.8]), np.diag([0.9, 0.3])])
    gm = GaussianMixture(np.array([0.45, 0.55]), mu, covs)
    # two live parameters: isotropic schedule with three knots
    ms = matrix_schedule_for_family(isotropic_family(2), horizon=4.0, n_knots=3)
    ms = ms.with_theta_vector(np.array([0.5, -0.2]))
    batch = draw_loss_samples(gm, ms, 4096, rng)
    grad = outer_gradient(ms, OracleFlowField(gm, ms), batch)
    fd = fd_outer_gradient(lambda m: OracleFlowField(gm, m), ms, batch, h=1e-4)
    rel = np.abs(grad.total - fd) / np.maximum(np.abs(fd), 1e-12)
    elapsed = time.perf_counter() - start
    assert np.all(rel < 2e-3), f"rel errors {rel}"
    assert elapsed < 120.0
    report(
        "outer gradient vs common-random-number FD",
        f"max rel {rel.max():.2e} < 2e-3 on theta dim 2, batch 4096, {elapsed:.1f}s",
    )


def test_criterion_05_loss_form_equivalence():
    start = time.perf_counter()
    (result,) = run_check(check_loss_equivalence)
    elapsed = time.perf_counter() - start
    assert result.passed, result.line()
    assert result.threshold == 1e-10
    assert elapsed < 10.0
    report("loss-form equivalence", f"max rel gap {result.value:.2e} < 1e-10, {elapsed:.1f}s")


def test_criterion_06_solver_orders():
    start = time.perf_counter()
    results = run_check(check_solver_orders, ks=(8, 16, 32, 64, 128), ref_steps=4096)
    elapsed = time.perf_counter() - start
    for r in results:
        assert r.passed, r.line()
    assert [r.threshold for r in results] == [0.2] * 3  # slope within 0.2 of its target
    assert elapsed < 120.0
    detail = ", ".join(r.detail.split()[0] for r in results)
    report("solver convergence orders", f"{detail}, {elapsed:.1f}s")


def test_criterion_07_scalar_reduction_and_nfe():
    # independent scalar VE-Heun implementation, written against the
    # sigma = sqrt(g) variable only
    sigma2 = 1.7
    gm = single_gaussian(np.zeros(1), np.array([[sigma2]]))
    ms = matrix_schedule_for_family(isotropic_family(1), horizon=25.0)
    field = OracleFlowField(gm, ms)
    steps = 32
    cfg = SamplerConfig(steps=steps, solver="heun", secondary="endpoint")
    res = sample_trajectory(ms, field, cfg, rng=11)
    grid = time_grid(ms, cfg)
    sigmas = np.array([np.sqrt(eval_M(ms, float(t))[0][0]) for t in grid])

    def scalar_flow(x, k):
        g = sigmas[k] ** 2
        return np.sqrt(g) * (-x / (sigma2 + g))

    x = res.states[0].copy()
    ref_states = [x.copy()]
    carried = None
    for k in range(steps, 0, -1):
        ds = sigmas[k] - sigmas[k - 1]
        f_k = carried if (k == 1 and carried is not None) else scalar_flow(x, k)
        f_hat = scalar_flow(x + ds * f_k, k - 1)
        x = x + ds * 0.5 * (f_k + f_hat)
        if k == 2:
            carried = f_hat
        ref_states.append(x.copy())
    worst = 0.0
    for mine, theirs in zip(res.states, ref_states):
        worst = np.maximum(worst, np.max(np.abs(mine - theirs)))  # carries a NaN
    assert worst < 1e-12
    assert res.nfe == 2 * steps - 1
    report(
        "scalar VE reduction + NFE accounting",
        f"max per-step gap {worst:.1e} < 1e-12 over K=32, NFE={res.nfe}=2K-1",
    )


def test_criterion_08_end_to_end_generation():
    start = time.perf_counter()
    fam = two_point_dct_family()
    gm = anisotropic_gaussian(fam)
    horizon = 400.0
    s1 = KnotSchedule(np.zeros(5), uniform_nodes(horizon, 6), 1e-4, horizon)
    s2 = KnotSchedule(np.zeros(5), uniform_nodes(horizon, 6), 1e-2, horizon)
    ms = MatrixSchedule(fam, (s1, s2))
    field = OracleFlowField(gm, ms)
    n = 16384
    res = sample_trajectory(
        ms, field, SamplerConfig(steps=64, solver="heun", secondary="endpoint"), n=n, rng=5
    )
    w2 = gaussian_w2(
        res.final.mean(axis=0), np.cov(res.final, rowvar=False),
        np.zeros(2), gm.covs[0],
    )
    assert w2 < 0.05, f"moment W2 {w2}"

    # energy distance to fresh oracle samples shrinks as K grows
    ref = sample_p0(gm, n, 999)
    xi = np.random.default_rng(31).standard_normal((n, 2))
    g_top, _ = eval_M(ms, horizon)
    x_init = apply_spectral(fam, np.sqrt(g_top), xi)
    energies = []
    for steps in (8, 32, 128):
        r = sample_trajectory(
            ms, field, SamplerConfig(steps=steps, solver="heun"), x_init=x_init
        )
        energies.append(evaluate_generation(r.final, ref).energy_distance)
    assert energies[0] > energies[1] > energies[2], f"energies {energies}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(
        "end-to-end generation",
        f"W2 {w2:.4f} < 0.05 at K=64; energy distance {energies[0]:.2e} > "
        f"{energies[1]:.2e} > {energies[2]:.2e}, {elapsed:.1f}s",
    )


def test_criterion_09_schedule_learning_descends():
    start = time.perf_counter()
    fam = two_point_dct_family()
    gm = anisotropic_gaussian(fam)
    horizon = 20.0
    before, after, mid_log_ratios = [], [], []
    for seed in range(20):
        ms = matrix_schedule_for_family(fam, horizon, n_knots=8)
        cfg = TrainConfig(
            batch_size=256, total_images=256 * 50, warmup_images=256 * 5,
            lr_model=0.5, train_model=False, seed=seed, log_every=25,
        )
        result = train_bilevel(gm, ms, None, cfg)
        probe = draw_loss_samples(gm, ms, 4096, np.random.default_rng(10_000 + seed))
        before.append(estimate_H(ms, OracleFlowField(gm, ms), probe))
        after.append(estimate_H(result.ms, OracleFlowField(gm, result.ms), probe))
        g_mid, _ = eval_M(result.ms, horizon / 2)
        mid_log_ratios.append(np.log(g_mid[0] / g_mid[1]))
    t_test = stats.ttest_rel(before, after, alternative="greater")
    assert t_test.pvalue < 0.01, f"H descent not significant: p={t_test.pvalue}"

    # direction of the learned anisotropy against the decoupled variational
    # optimum: for each subspace minimize int g'^2 rho(g) dt with
    # rho = s2/((1+g) g (s2+g)), whose solution has g' sqrt(rho) constant
    def geodesic_mid(sigma2):
        gs = np.geomspace(1e-4, horizon, 20001)
        rho = sigma2 / ((1.0 + gs) * gs * (sigma2 + gs))
        phi = np.concatenate(
            ([0.0], np.cumsum(np.diff(gs) * 0.5 * (np.sqrt(rho)[1:] + np.sqrt(rho)[:-1])))
        )
        ts = horizon * phi / phi[-1]
        return np.interp(horizon / 2, ts, gs)

    predicted = np.log(geodesic_mid(4.0) / geodesic_mid(0.25))
    mean_ratio = float(np.mean(mid_log_ratios))
    se_ratio = float(np.std(mid_log_ratios) / np.sqrt(len(mid_log_ratios)))
    assert abs(mean_ratio) > 3 * se_ratio, "ratio did not move away from 1"
    assert np.sign(mean_ratio) == np.sign(predicted), (
        f"learned log-ratio {mean_ratio:.3f} contradicts variational prediction "
        f"{predicted:.3f}"
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(
        "schedule learning",
        f"paired p={t_test.pvalue:.2e} < 0.01 over 20 seeds; mid-horizon log ratio "
        f"{mean_ratio:.2f} (predicted sign {np.sign(predicted):+.0f}), {elapsed:.1f}s",
    )


def test_criterion_10_weight_to_schedule():
    results = run_check(check_weight_map)
    for r in results:
        assert r.passed, r.line()
    assert [r.threshold for r in results] == [1e-8, 1e-4]
    report(
        "weight-to-schedule construction",
        f"closed form {results[0].value:.2e} < 1e-8, identity {results[1].value:.2e} < 1e-4",
    )


def test_criterion_11_knot_schedule():
    results = run_check(check_knot_gradients)
    for r in results:
        assert r.passed, r.line()
    assert [r.threshold for r in results] == [0.0, 1e-4]  # endpoints exact
    report(
        "knot schedule",
        f"endpoints exact; worst FD rel {results[1].value:.2e} < 1e-4 over 100 configs",
    )


def test_criterion_12_model_mode_training():
    start = time.perf_counter()
    gm = single_gaussian(np.zeros(2), np.eye(2))
    fam = two_point_dct_family()
    horizon = 10.0
    s = sinh_squared_schedule(horizon, floor=0.01, n_knots=16)
    ms = MatrixSchedule(fam, (s, s))
    oracle = OracleFlowField(gm, ms)

    model = FlowModel.create(2, horizon, widths=(64, 64), seed=0)
    phase1 = TrainConfig(
        batch_size=512, total_images=6_000_000, warmup_images=50_000,
        lr_model=5e-3, ema_half_life_images=800_000, midpoint_decay=0.1,
        train_model=True, train_schedule=False, seed=0, log_every=2000,
    )
    res1 = train_bilevel(gm, ms, model, phase1)
    phase2 = TrainConfig(
        batch_size=1024, total_images=5_000_000, warmup_images=1,
        lr_model=1e-3, ema_half_life_images=1_000_000, midpoint_decay=0.1,
        train_model=True, train_schedule=False, seed=1, log_every=2000,
    )
    res2 = train_bilevel(gm, ms, res1.ema_model, phase2)

    rng = np.random.default_rng(424242)
    num, den = 0.0, 0.0
    for t in np.geomspace(0.05, horizon, 12):
        x0 = rng.standard_normal((300, 2))
        eps = rng.standard_normal((300, 2))
        x_t = perturb(x0, eps, ms.at(float(t)))
        o = oracle(x_t, float(t))
        m = res2.ema_model(x_t, float(t))
        num += np.sum((m - o) ** 2)
        den += np.sum(o**2)
    rel = float(np.sqrt(num / den))
    elapsed = time.perf_counter() - start
    assert rel < 0.05, f"flow-vs-oracle relative error {rel}"
    assert elapsed < 600.0
    report(
        "model-mode training",
        f"held-out flow error {rel:.4f} < 0.05 after {phase1.total_images + phase2.total_images} "
        f"images, {elapsed:.0f}s",
    )
