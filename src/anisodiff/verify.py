"""Self-contained invariant suite behind the `verify` CLI command.

Each check measures a quantity, compares it to its pinned threshold, and
reports pass/fail; the command exits nonzero if anything fails.  The
checks mirror the package's core identities: the score/posterior-mean
identity, the plug-in schedule-gradient estimator against the analytic
mixture derivative, the per-sample loss-form equivalence, solver
convergence orders and reductions, knot-schedule gradients, the
weight-to-schedule integral identity, and the whole outer gradient against
finite differences.  A NaN case, or a numerical fault raised inside a
check, fails that check.
"""

import time
from dataclasses import dataclass

import numpy as np

from .fields import OracleFlowField, OracleScoreField
from .gmm import GaussianMixture, dtheta_score_oracle, single_gaussian
from .loss import draw_loss_samples, loss_equivalence_check
from .sampler import (
    SamplerConfig,
    heun_step,
    sample_trajectory,
    step_rows,
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
from .schedule_grad import estimate_dtheta_score, fd_outer_gradient, outer_gradient
from .subspaces import (
    ProjectorFamily,
    apply_spectral,
    axis_family,
    build_dct_projectors,
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


def _result(group, name, errors, threshold, detail, start):
    """The row of a check with per-case `errors`: their `np.max`, which keeps a NaN
    (Python's `max` drops it), against the threshold, which a NaN fails."""
    value = float(np.max(errors))
    return CheckResult(group, name, bool(value <= threshold), value, float(threshold), detail,
                       time.perf_counter() - start)


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
    errors = []
    for family in _three_families(rng):
        ms = _randomized_ms(rng, family)
        field = OracleScoreField(gm, ms)
        for _ in range(cases):
            t = rng.uniform(ms.t_min * 10, ms.horizon)
            x = rng.standard_normal(2) * 2.0
            g, _ = eval_M(ms, t)
            jet = field.at(x, t)  # one factorization for the score and the posterior mean
            resid = apply_spectral(ms.family, g, jet.score()) + x - jet.posterior_mean()
            errors.append(np.linalg.norm(resid))
    return _result(
        "score", "identity", errors, tol,
        f"max residual over {cases} draws x 3 families", start,
    )


def check_estimator_vs_oracle(seed=1, cases=100, tol=1e-5):
    """Plug-in estimator (exact sum, oracle derivatives) vs analytic d score."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    gm = _test_gmm(rng)
    ms = _randomized_ms(rng, axis_family(2, 1))
    field = OracleScoreField(gm, ms)
    errors = []
    for _ in range(cases):
        t = rng.uniform(ms.t_min * 10, ms.horizon)
        x = rng.standard_normal(2) * 1.5
        p = int(rng.integers(ms.n_params))
        est = estimate_dtheta_score(field, ms, x, t, p)
        ref = dtheta_score_oracle(gm, x, ms, t, p)
        errors.append(np.linalg.norm(est - ref) / (np.linalg.norm(ref) + 1e-12))
    return _result(
        "estimator", "gmm-vs-analytic", errors, tol,
        f"max relative error over {cases} cases", start,
    )


def check_estimator_gaussian_exact(seed=2, tol=1e-12):
    """Gaussian special case: vanishing mixed term, exact total."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    gm = single_gaussian(np.zeros(2), np.diag([1.3, 0.6]))
    ms = _randomized_ms(rng, axis_family(2, 1))
    field = OracleScoreField(gm, ms)
    errors = []
    for _ in range(20):
        t = rng.uniform(ms.t_min * 10, ms.horizon)
        x = rng.standard_normal(2)
        g, _ = eval_M(ms, t)
        jac = eval_M_dtheta(ms, t)
        c = np.diag([1.3, 0.6]) + ms.family.dense(g)
        for p in range(ms.n_params):
            est = estimate_dtheta_score(field, ms, x, t, p)
            expected = np.linalg.solve(c, ms.family.dense(jac[:, p]) @ np.linalg.solve(c, x))
            errors.append(np.abs(est - expected))
    return _result("estimator", "gaussian-exact", errors, tol, "max abs deviation", start)


def check_loss_equivalence(seed=3, samples=1000, schedules=5, tol=1e-10):
    """4 ||v_learned - v_proxy||^2 == ||W (flow + eps)||^2 per sample."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    gm = _test_gmm(rng)
    errors = []
    for i in range(schedules):
        family = _three_families(rng)[i % 3]
        ms = _randomized_ms(rng, family)
        field = OracleFlowField(gm, ms)
        batch = draw_loss_samples(gm, ms, samples, rng)
        lhs, _, gap = loss_equivalence_check(ms, field, batch)
        errors.append(gap / (1.0 + lhs))
    return _result(
        "loss", "form-equivalence", errors, tol,
        f"max relative gap over {samples} x {schedules} draws", start,
    )


def convergence_slope(ms, field, x_init, ks, ref, solver, secondary="endpoint"):
    """Log-log slope of terminal error vs step count against `ref`, the final state
    of a fine reference trajectory from the same start `x_init`."""
    if np.shape(ref) != np.shape(x_init):
        raise ValueError(f"reference shape {np.shape(ref)} is not the start's {np.shape(x_init)}")
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
    start = time.perf_counter()  # the first row is charged with the shared reference
    cfg = SamplerConfig(steps=ref_steps, solver="heun", secondary="midpoint")
    ref = sample_trajectory(ms, field, cfg, x_init=x_init).final
    for solver, secondary, target in (
        ("euler", "endpoint", 1.0),
        ("heun", "endpoint", 2.0),
        ("heun", "midpoint", 2.0),
    ):
        slope, _ = convergence_slope(ms, field, x_init, ks, ref, solver, secondary)
        results.append(_result("solver", f"order-{solver}-{secondary}", abs(slope - target),
                               0.2, f"slope={slope:.3f} target={target}", start))
        start = time.perf_counter()
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
    errors = []
    for k in (1, 3, 6):
        x = rng.standard_normal(2)
        u = ms.at(grid[[k, k - 1]]).sqrt_g  # rows at t_k and t_{k-1}, also the secondary time
        du, _, coef = step_rows(*u, u[1])  # the endpoint predictor is the Euler update
        new_x, f_k, f_hat = heun_step(ms.family, field, x, grid[k], du, grid[k - 1], coef=coef)
        trap = x + apply_spectral(ms.family, u[0] - u[1], 0.5 * (f_k + f_hat))
        errors.append(np.abs(new_x - trap))
    out.append(_result("solver", "heun-endpoint-trapezoid", errors, 1e-12, "max abs gap", start))

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
    errors = [np.max(np.abs(mine - theirs)) for mine, theirs in zip(res.states, ref_states)]
    out.append(_result("solver", "scalar-ve-reduction", errors, 1e-12, "max per-step gap", start))

    start = time.perf_counter()
    nfe_err = abs(res.nfe - (2 * steps - 1))
    out.append(_result("solver", "heun-endpoint-nfe", nfe_err, 0.0, f"nfe={res.nfe} steps={steps}", start))
    return out


def check_knot_gradients(seed=6, cases=100, tol=1e-4):
    """Endpoint pinning plus FD agreement of g, dg/dt and the theta gradient."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    pin_errors, fd_errors = [], []
    for _ in range(cases):
        n_knots = int(rng.integers(3, 10))
        horizon = float(rng.uniform(1.0, 30.0))
        floor = float(10 ** rng.uniform(-6, -1))
        s = KnotSchedule(
            rng.standard_normal(n_knots - 1), uniform_nodes(horizon, n_knots), floor, horizon
        )
        g0, _ = s.eval(0.0)
        gT, _ = s.eval(horizon)
        pin_errors += [abs(g0 - floor), abs(gT - horizon)]
        t = float(rng.uniform(0.05, 0.95)) * horizon
        g, dg = s.eval(t)
        h = 1e-6 * horizon
        fd_dg = (s.eval(t + h)[0] - s.eval(t - h)[0]) / (2 * h)
        fd_errors.append(abs(dg - fd_dg) / (abs(fd_dg) + 1e-12))
        grad = s.eval_dtheta(t)
        h2 = 1e-5
        for p in range(s.n_params):
            up, dn = s.theta.copy(), s.theta.copy()
            up[p] += h2
            dn[p] -= h2
            fd = (s.with_theta(up).eval(t)[0] - s.with_theta(dn).eval(t)[0]) / (2 * h2)
            denom = max(abs(fd), 1e-8 * max(abs(g), 1.0))
            fd_errors.append(abs(grad[p] - fd) / denom)
    pin = _result("knots", "endpoint-pinning", pin_errors, 0.0, f"{cases} random configs", start)
    fd_res = _result("knots", "gradient-fd", fd_errors, tol, f"{cases} random configs", start)
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
    out.append(_result("weight-map", "constant-w-closed-form", np.abs(g - expected), 1e-8,
                       "max abs error", start))
    start = time.perf_counter()
    errors = []
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
            errors.append(abs(lhs - rhs) / abs(rhs))
    out.append(_result("weight-map", "integral-identity", errors, 1e-4,
                       "3 weights x 2 test functions", start))
    return out


def check_outer_gradient_fd(seed=7, n=1024, tol=1e-5):
    """The whole outer gradient (explicit + implicit) on the exact oracle, per-sample t,
    against central finite differences of the outer objective."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    errors = []
    for family, gm in (
        (build_dct_projectors(4, 2), _test_gmm(rng, d=16, n_components=4)),
        (_rotated_family(rng), _test_gmm(rng)),
    ):
        ms = _randomized_ms(rng, family, n_knots=4)
        batch = draw_loss_samples(gm, ms, n, rng)
        total = outer_gradient(ms, OracleFlowField(gm, ms), batch).total
        fd = fd_outer_gradient(lambda m: OracleFlowField(gm, m), ms, batch)
        errors.append(np.max(np.abs(total - fd)) / np.max(np.abs(fd)))
    return _result(
        "gradient", "outer-vs-fd", errors, tol,
        f"max gap over the largest FD entry, {n} draws x 2 families", start,
    )


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------

# (group, check, its keyword arguments under --quick); quick mode keeps every
# step count: without k=128 the pre-asymptotic k=8 point dominates the fit and
# the endpoint-Heun slope leaves 2 +- 0.2
CHECKS = (
    ("score", check_score_identity, {}),
    ("estimator", check_estimator_vs_oracle, {}),
    ("estimator", check_estimator_gaussian_exact, {}),
    ("loss", check_loss_equivalence, {}),
    ("solver", check_solver_orders, {"ref_steps": 1024}),
    ("solver", check_heun_reductions, {}),
    ("knots", check_knot_gradients, {}),
    ("weight-map", check_weight_map, {}),
    ("gradient", check_outer_gradient_fd, {"n": 256}),
)


def _rows(group, check, kwargs) -> list:
    """The check's report rows; a numerical fault raised inside it is one FAIL row naming it."""
    start = time.perf_counter()
    try:
        rows = check(**kwargs)
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        rows = _result(group, check.__name__, np.nan, np.nan, f"{type(exc).__name__}: {exc}",
                       start)
    return rows if isinstance(rows, list) else [rows]


def run_checks(name_filter: str | None = None, quick: bool = False) -> list:
    """Run the invariant suite; `name_filter` selects matching groups only.

    A filter that matches no group is a ValueError, so a mistyped filter
    does not read as a pass.
    """
    selected = [(group, check, kwargs if quick else {}) for group, check, kwargs in CHECKS
                if not name_filter or name_filter in group]
    if not selected:
        names = ", ".join(dict.fromkeys(group for group, _, _ in CHECKS))
        raise ValueError(f"no check group matches {name_filter!r}; groups: {names}")
    return [row for entry in selected for row in _rows(*entry)]
