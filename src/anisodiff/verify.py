"""Self-contained invariant suite behind the `verify` CLI command.

Each check measures a quantity, compares it to its pinned threshold, and
reports pass/fail; the command exits nonzero if anything fails.  The
checks mirror the package's core identities: the score/posterior-mean
identity, the plug-in schedule-gradient estimator against the analytic
mixture derivative, the per-sample loss-form equivalence, solver
convergence orders and reductions, knot-schedule gradients, and the
weight-to-schedule integral identity.
"""

import time
from dataclasses import dataclass

import numpy as np

from .fields import OracleFlowField, OracleScoreField
from .gmm import (
    GaussianMixture,
    dtheta_score_oracle,
    posterior_mean,
    score,
    single_gaussian,
)
from .loss import draw_loss_samples, loss_equivalence_check
from .sampler import (
    SamplerConfig,
    heun_step,
    sample_trajectory,
    time_grid,
)
from .schedule import (
    KnotSchedule,
    MatrixSchedule,
    eval_M,
    eval_M_dtheta,
    isotropic_matrix_schedule,
    matrix_schedule_for_family,
    uniform_nodes,
    weight_to_schedule,
)
from .schedule_grad import estimate_dtheta_score
from .subspaces import (
    ProjectorFamily,
    apply_spectral,
    axis_family,
    isotropic_family,
)

Array = np.ndarray


@dataclass(frozen=True)
class CheckResult:
    group: str
    name: str
    passed: bool
    value: float
    threshold: float
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.group}/{self.name}: value={self.value:.3e} "
            f"threshold={self.threshold:.3e} ({self.detail}) [{self.seconds:.2f}s]"
        )


def _result(group, name, value, threshold, detail, start):
    return CheckResult(
        group=group,
        name=name,
        passed=bool(value <= threshold),
        value=float(value),
        threshold=float(threshold),
        detail=detail,
        seconds=time.perf_counter() - start,
    )


def _test_gmm(rng, d=2, n_components=3):
    means = rng.standard_normal((n_components, d)) * 1.5
    covs = []
    for _ in range(n_components):
        a = rng.standard_normal((d, d)) * 0.4
        covs.append(a @ a.T + 0.3 * np.eye(d))
    w = rng.uniform(0.5, 1.5, size=n_components)
    return GaussianMixture(w / w.sum(), means, np.stack(covs))


def _rotated_family(rng, d=2):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return ProjectorFamily(q, np.repeat([0, 1], [1, d - 1]))


def _three_families(rng, d=2):
    return [isotropic_family(d), axis_family(d, 1), _rotated_family(rng, d)]


def _randomized_ms(rng, family, horizon=4.0, n_knots=6):
    ms = matrix_schedule_for_family(family, horizon, n_knots=n_knots)
    return ms.with_theta_vector(0.8 * rng.standard_normal(ms.n_params))


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def check_score_identity(seed=0, cases=100, tol=1e-9):
    """M_t score + x - posterior_mean == 0 across schedule families."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    gm = _test_gmm(rng)
    worst = 0.0
    for family in _three_families(rng):
        ms = _randomized_ms(rng, family)
        for _ in range(cases):
            t = rng.uniform(ms.t_min * 10, ms.horizon)
            x = rng.standard_normal(2) * 2.0
            g, _ = eval_M(ms, t)
            resid = (
                apply_spectral(ms.family, g, score(gm, x, ms, t))
                + x
                - posterior_mean(gm, x, ms, t)
            )
            worst = max(worst, float(np.linalg.norm(resid)))
    return _result(
        "score", "identity", worst, tol,
        f"max residual over {cases} draws x 3 families", start,
    )


def check_estimator_vs_oracle(seed=1, cases=100, tol=1e-5):
    """Plug-in estimator (exact sum, oracle derivatives) vs analytic d score."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    gm = _test_gmm(rng)
    ms = _randomized_ms(rng, axis_family(2, 1))
    field = OracleScoreField(gm, ms)
    worst = 0.0
    for _ in range(cases):
        t = rng.uniform(ms.t_min * 10, ms.horizon)
        x = rng.standard_normal(2) * 1.5
        p = int(rng.integers(ms.n_params))
        est = estimate_dtheta_score(field, ms, x, t, p)
        ref = dtheta_score_oracle(gm, x, ms, t, p)
        rel = np.linalg.norm(est - ref) / (np.linalg.norm(ref) + 1e-12)
        worst = max(worst, float(rel))
    return _result(
        "estimator", "gmm-vs-analytic", worst, tol,
        f"max relative error over {cases} cases", start,
    )


def check_estimator_gaussian_exact(seed=2, tol=1e-12):
    """Gaussian special case: vanishing mixed term, exact total."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    gm = single_gaussian(np.zeros(2), np.diag([1.3, 0.6]))
    ms = _randomized_ms(rng, axis_family(2, 1))
    field = OracleScoreField(gm, ms)
    worst = 0.0
    for _ in range(20):
        t = rng.uniform(ms.t_min * 10, ms.horizon)
        x = rng.standard_normal(2)
        g, _ = eval_M(ms, t)
        jac = eval_M_dtheta(ms, t)
        c = np.diag([1.3, 0.6]) + ms.family.dense(g)
        for p in range(ms.n_params):
            est = estimate_dtheta_score(field, ms, x, t, p)
            expected = np.linalg.solve(c, ms.family.dense(jac[:, p]) @ np.linalg.solve(c, x))
            worst = max(worst, float(np.max(np.abs(est - expected))))
    return _result("estimator", "gaussian-exact", worst, tol, "max abs deviation", start)


def check_loss_equivalence(seed=3, samples=1000, schedules=5, tol=1e-10):
    """4 ||v_learned - v_proxy||^2 == ||W (flow + eps)||^2 per sample."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    gm = _test_gmm(rng)
    worst = 0.0
    for i in range(schedules):
        family = _three_families(rng)[i % 3]
        ms = _randomized_ms(rng, family)
        field = OracleFlowField(gm, ms)
        batch = draw_loss_samples(gm, ms, samples, rng)
        lhs, _, gap = loss_equivalence_check(ms, field, batch)
        worst = max(worst, float(np.max(gap / (1.0 + lhs))))
    return _result(
        "loss", "form-equivalence", worst, tol,
        f"max relative gap over {samples} x {schedules} draws", start,
    )


def convergence_slope(ms, field, x_init, ks, ref_steps, solver, secondary="endpoint"):
    """Log-log slope of terminal error vs step count, against a fine reference."""
    ref = sample_trajectory(
        ms, field,
        SamplerConfig(steps=ref_steps, solver="heun", secondary="midpoint"),
        x_init=x_init,
    ).final
    errs = []
    for k in ks:
        final = sample_trajectory(
            ms, field,
            SamplerConfig(steps=int(k), solver=solver, secondary=secondary),
            x_init=x_init,
        ).final
        errs.append(float(np.mean(np.linalg.norm(np.atleast_2d(final - ref), axis=1))))
    slope = -np.polyfit(np.log(np.asarray(ks, dtype=float)), np.log(errs), 1)[0]
    return float(slope), errs


def smooth_anisotropic_ms(horizon=20.0, floors=(1e-4, 1e-2)):
    """Two log-linear (kink-free) subspace schedules with different floors.

    Randomized knot values put C^1 kinks at the interior nodes; the local
    quadrature error then depends on where grid intervals straddle the
    kinks, which makes order-fit ratios oscillate.  Order measurements
    use these smooth instances; anisotropy comes from the floors.
    """
    fam = axis_family(2, 1)
    per = tuple(
        KnotSchedule(np.zeros(5), uniform_nodes(horizon, 6), f, horizon) for f in floors
    )
    return MatrixSchedule(fam, per)


def _order_setup(seed):
    rng = np.random.default_rng(seed)
    gm = _test_gmm(rng)
    ms = smooth_anisotropic_ms()
    field = OracleFlowField(gm, ms)
    xi = np.random.default_rng(seed + 1).standard_normal((8, 2))
    g, _ = eval_M(ms, ms.horizon)
    x_init = apply_spectral(ms.family, np.sqrt(g), xi)
    return ms, field, x_init


def check_solver_orders(seed=4, ks=(8, 16, 32, 64, 128), ref_steps=4096):
    """Euler slope 1 +- 0.2; Heun slope 2 +- 0.2 for both secondary rules."""
    results = []
    ms, field, x_init = _order_setup(seed)
    for solver, secondary, target in (
        ("euler", "endpoint", 1.0),
        ("heun", "endpoint", 2.0),
        ("heun", "midpoint", 2.0),
    ):
        start = time.perf_counter()
        slope, _ = convergence_slope(ms, field, x_init, ks, ref_steps, solver, secondary)
        results.append(
            _result(
                "solver", f"order-{solver}-{secondary}", abs(slope - target), 0.2,
                f"slope={slope:.3f} target={target}", start,
            )
        )
    return results


def check_heun_reductions(seed=5):
    """Endpoint trapezoid identity and the scalar VE reduction."""
    out = []
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    gm = _test_gmm(rng)
    ms = _randomized_ms(rng, axis_family(2, 1), horizon=10.0)
    field = OracleFlowField(gm, ms)
    grid = time_grid(ms, SamplerConfig(steps=6))
    worst = 0.0
    for k in (1, 3, 6):
        x = rng.standard_normal(2)
        u = ms.at(grid[[k, k - 1]]).sqrt_g  # rows at t_k and t_{k-1}, also the secondary time
        new_x, f_k, f_hat = heun_step(ms.family, field, x, grid[k], *u, grid[k - 1], u[1])
        trap = x + apply_spectral(ms.family, u[0] - u[1], 0.5 * (f_k + f_hat))
        worst = max(worst, float(np.max(np.abs(new_x - trap))))
    out.append(_result("solver", "heun-endpoint-trapezoid", worst, 1e-12, "max abs gap", start))

    # scalar reduction: isotropic run against an inline scalar VE-Heun
    start = time.perf_counter()
    sigma2 = 1.1
    gm1 = single_gaussian(np.zeros(1), np.array([[sigma2]]))
    ms1 = isotropic_matrix_schedule(1, horizon=25.0)
    field1 = OracleFlowField(gm1, ms1)
    steps = 32
    cfg = SamplerConfig(steps=steps, solver="heun", secondary="endpoint")
    res = sample_trajectory(ms1, field1, cfg, rng=13)
    grid1 = time_grid(ms1, cfg)
    sigmas = np.array([np.sqrt(eval_M(ms1, t)[0][0]) for t in grid1])

    def flow_1d(x, k):
        g = sigmas[k] ** 2
        return np.sqrt(g) * (-x / (sigma2 + g))

    x = res.states[0].copy()
    worst = 0.0
    carried = None
    ref_states = [x]
    for k in range(steps, 0, -1):
        ds = sigmas[k] - sigmas[k - 1]
        f_k = carried if (k == 1 and carried is not None) else flow_1d(x, k)
        f_hat = flow_1d(x + ds * f_k, k - 1)
        x = x + ds * 0.5 * (f_k + f_hat)
        if k == 2:
            carried = f_hat
        ref_states.append(x)
    for mine, theirs in zip(res.states, ref_states):
        worst = max(worst, float(np.max(np.abs(mine - theirs))))
    out.append(_result("solver", "scalar-ve-reduction", worst, 1e-12, "max per-step gap", start))

    start = time.perf_counter()
    nfe_err = abs(res.nfe - (2 * steps - 1))
    out.append(_result("solver", "heun-endpoint-nfe", nfe_err, 0.0, f"nfe={res.nfe} steps={steps}", start))
    return out


def check_knot_gradients(seed=6, cases=100, tol=1e-4):
    """Endpoint pinning plus FD agreement of g, dg/dt and the theta gradient."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst_pin, worst_fd = 0.0, 0.0
    for _ in range(cases):
        n_knots = int(rng.integers(3, 10))
        horizon = float(rng.uniform(1.0, 30.0))
        floor = float(10 ** rng.uniform(-6, -1))
        s = KnotSchedule(
            rng.standard_normal(n_knots - 1), uniform_nodes(horizon, n_knots), floor, horizon
        )
        g0, _ = s.eval(0.0)
        gT, _ = s.eval(horizon)
        worst_pin = max(worst_pin, abs(g0 - floor), abs(gT - horizon))
        t = float(rng.uniform(0.05, 0.95)) * horizon
        g, dg = s.eval(t)
        h = 1e-6 * horizon
        fd_dg = (s.eval(t + h)[0] - s.eval(t - h)[0]) / (2 * h)
        worst_fd = max(worst_fd, abs(dg - fd_dg) / (abs(fd_dg) + 1e-12))
        grad = s.eval_dtheta(t)
        h2 = 1e-5
        for p in range(s.n_params):
            up, dn = s.theta.copy(), s.theta.copy()
            up[p] += h2
            dn[p] -= h2
            fd = (s.with_theta(up).eval(t)[0] - s.with_theta(dn).eval(t)[0]) / (2 * h2)
            denom = max(abs(fd), 1e-8 * max(abs(g), 1.0))
            worst_fd = max(worst_fd, abs(grad[p] - fd) / denom)
    pin = _result("knots", "endpoint-pinning", worst_pin, 0.0, f"{cases} random configs", start)
    fd_res = _result("knots", "gradient-fd", worst_fd, tol, f"{cases} random configs", start)
    return [pin, fd_res]


def check_weight_map():
    """Closed-form constant-w inversion and the change-of-variables identity."""
    out = []
    start = time.perf_counter()
    horizon = 5.0
    tab = weight_to_schedule(lambda t: np.full_like(np.asarray(t, dtype=float), 0.7), horizon)
    ts = np.linspace(0, horizon, 200)
    g, _ = tab.eval(ts)
    expected = (1.0 + horizon) ** (ts / horizon) - 1.0
    out.append(
        _result(
            "weight-map", "constant-w-closed-form",
            float(np.max(np.abs(g - expected))), 1e-8, "max abs error", start,
        )
    )
    start = time.perf_counter()
    worst = 0.0
    weights = [
        lambda t: np.full_like(np.asarray(t, dtype=float), 0.7),
        lambda t: 1.0 + np.asarray(t, dtype=float),
        lambda t: 2.0 + np.sin(np.asarray(t, dtype=float)),
    ]
    hs = [lambda t: t, lambda t: np.asarray(t) ** 2]
    for w in weights:
        tab = weight_to_schedule(w, 4.0, quad_points=10_001)
        ts = np.linspace(0, 4.0, 10_001)
        g, dg = tab.eval(ts)
        for h_fn in hs:
            lhs = np.trapezoid(dg**2 / (1.0 + g) * h_fn(g), ts)
            rhs = tab.c * np.trapezoid(np.asarray(w(ts), dtype=float) * h_fn(ts), ts)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    out.append(
        _result(
            "weight-map", "integral-identity", worst, 1e-4,
            "3 weights x 2 test functions", start,
        )
    )
    return out


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------

def _solver_group(quick: bool) -> list:
    # quick mode keeps every step count: without k=128 the pre-asymptotic
    # k=8 point dominates the fit and the endpoint-Heun slope leaves 2 +- 0.2
    orders = check_solver_orders(ref_steps=1024) if quick else check_solver_orders()
    return orders + check_heun_reductions()


CHECK_GROUPS = (
    ("score", lambda quick: [check_score_identity()]),
    ("estimator", lambda quick: [check_estimator_vs_oracle(), check_estimator_gaussian_exact()]),
    ("loss", lambda quick: [check_loss_equivalence()]),
    ("solver", _solver_group),
    ("knots", lambda quick: check_knot_gradients()),
    ("weight-map", lambda quick: check_weight_map()),
)


def run_checks(name_filter: str | None = None, quick: bool = False) -> list:
    """Run the invariant suite; `name_filter` selects matching groups only.

    A filter that matches no group is a ValueError, so a mistyped filter
    does not read as a pass.
    """
    groups = [(group, fn) for group, fn in CHECK_GROUPS
              if not name_filter or name_filter in group]
    if not groups:
        names = ", ".join(group for group, _ in CHECK_GROUPS)
        raise ValueError(f"no check group matches {name_filter!r}; groups: {names}")
    return [check for _, fn in groups for check in fn(quick)]
