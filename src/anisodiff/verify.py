"""Self-contained invariant suite behind the `verify` CLI command.

Each check measures a quantity, compares it to its pinned threshold, and
reports pass/fail; the command exits nonzero if anything fails.  The
checks mirror the package's core identities: the score/posterior-mean
identity, the oracle against a dense per-point formula, the plug-in
schedule-gradient estimator against the analytic mixture derivative, the
per-sample loss-form equivalence, solver convergence orders and
reductions, knot-schedule gradients, the weight-to-schedule integral
identity, and the whole outer gradient against finite differences.  A NaN
case, or a numerical fault raised inside a check, fails that check.

A check is a generator with its seeds fixed inside: it yields one
`(row name, per-case errors, detail)` per report row.  `CHECKS` is the one
table of gates: each check's group and the threshold of each of its rows.
`run_check` times each row, reduces its errors and judges it.
"""

import time
from dataclasses import dataclass

import numpy as np

from .fields import OracleFlowField, OracleScoreField, coordinate_view
from .gmm import GaussianMixture, dtheta_score_oracle, perturb, sample_p0, single_gaussian
from .loss import draw_loss_samples, loss_equivalence_check
from .sampler import (
    SamplerConfig,
    heun_step,
    init_state,
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

def check_score_identity(cases=100):
    """M_t score + x - posterior_mean == 0 across schedule families."""
    rng = np.random.default_rng(0)
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
    yield "identity", errors, f"max residual over {cases} draws x 3 families"


def _direct_oracle(gm, family, g, x):
    """log p_t, score and posterior mean at points x (n, d) with schedule rows g (n, J), from a
    `slogdet` and a `solve` of Sigma_k + M_t per point and component."""
    cov = gm.covs + family.dense(g)[:, None]  # (n, K, d, d)
    diff = x[:, None, :] - gm.means
    y = np.linalg.solve(cov, diff[..., None])[..., 0]  # C_k^{-1}(x - mu_k)
    log_norm = gm.dim * np.log(2 * np.pi) + np.linalg.slogdet(cov)[1]  # log det(2 pi C_k)
    log_comp = np.log(gm.weights) - 0.5 * (log_norm + np.sum(diff * y, axis=-1))  # log w_k N_k
    log_p = np.logaddexp.reduce(log_comp, axis=1)
    resp = np.exp(log_comp - log_p[:, None])
    mean_k = gm.means + np.einsum("kij,nkj->nki", gm.covs, y)  # E[x_0 | x_t, component k]
    return log_p, -np.einsum("nk,nki->ni", resp, y), np.einsum("nk,nki->ni", resp, mean_k)


def check_oracle_vs_direct():
    """The oracle's log density, score and posterior mean at unequal weights against
    `_direct_oracle`, at shared times across the horizon and at per-sample times; and the
    sampler's rotated oracle against the rotated field."""
    rng = np.random.default_rng(8)
    family = build_dct_projectors(4, 2)
    base = _test_gmm(rng, d=16, n_components=4)
    gm = GaussianMixture(np.array([0.1, 0.2, 0.3, 0.4]), base.means, base.covs)
    ms = _randomized_ms(rng, family, horizon=80.0)
    field = OracleFlowField(gm, ms)
    n = 64
    x0, eps = sample_p0(gm, n, rng), rng.standard_normal((n, gm.dim))
    _, view, _, _ = coordinate_view(field, family, family.forward(x0))
    errors = []
    for t in (0.05, 3.0, 79.0, rng.uniform(ms.t_min, ms.horizon, n)):
        ev = ms.at(t)
        x = perturb(x0, eps, ev)
        jet = OracleScoreField(gm, ms).at(x, t)
        pairs = zip(
            (jet.log_density(), jet.score(), jet.posterior_mean(), view(family.forward(x), t)),
            (*_direct_oracle(gm, family, np.broadcast_to(ev.g, (n, family.n_subspaces)), x),
             family.forward(field(x, t))),
        )
        errors += [np.max(np.abs(mine - ref)) / np.max(np.abs(ref)) for mine, ref in pairs]
    yield "oracle-vs-direct", errors, f"max gap over the largest entry, {n} points x 4 times"


def check_estimator_vs_oracle():
    """Plug-in estimator (exact sum, oracle derivatives) vs analytic d score."""
    rng = np.random.default_rng(1)
    gm = _test_gmm(rng)
    ms = _randomized_ms(rng, axis_family(2, 1))
    field = OracleScoreField(gm, ms)
    errors = []
    for _ in range(100):
        t = rng.uniform(ms.t_min * 10, ms.horizon)
        x = rng.standard_normal(2) * 1.5
        p = int(rng.integers(ms.n_params))
        est = estimate_dtheta_score(field, ms, x, t, p)
        ref = dtheta_score_oracle(gm, x, ms, t, p)
        errors.append(np.linalg.norm(est - ref) / (np.linalg.norm(ref) + 1e-12))
    yield "gmm-vs-analytic", errors, "max relative error over 100 cases"


def check_estimator_gaussian_exact():
    """Gaussian special case: vanishing mixed term, exact total."""
    rng = np.random.default_rng(2)
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
    yield "gaussian-exact", errors, "max abs deviation"


def check_loss_equivalence():
    """4 ||v_learned - v_proxy||^2 == ||W (flow + eps)||^2 per sample."""
    rng = np.random.default_rng(3)
    gm = _test_gmm(rng)
    errors = []
    for i in range(5):
        family = _three_families(rng)[i % 3]
        ms = _randomized_ms(rng, family)
        field = OracleFlowField(gm, ms)
        batch = draw_loss_samples(gm, ms, 1000, rng)
        lhs, _, gap = loss_equivalence_check(ms, field, batch)
        errors.append(gap / (1.0 + lhs))
    yield "form-equivalence", errors, "max relative gap over 1000 x 5 draws"


def convergence_slope(ms, field, x_init, ks, ref, solver, secondary="endpoint"):
    """Log-log slope of terminal error vs step count against `ref`, the final state
    of a fine reference trajectory from the same start `x_init`."""
    if np.shape(ref) != np.shape(x_init):
        raise ValueError(f"reference shape {np.shape(ref)} is not the start's {np.shape(x_init)}")
    errs = []
    for k in ks:
        cfg = SamplerConfig(steps=int(k), solver=solver, secondary=secondary)
        final = sample_trajectory(ms, field, cfg, x_init=x_init).final
        errs.append(float(np.mean(np.linalg.norm(np.atleast_2d(final - ref), axis=1))))
    return float(-np.polyfit(np.log(np.asarray(ks, dtype=float)), np.log(errs), 1)[0])


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
    gm = _test_gmm(np.random.default_rng(seed))
    ms = smooth_anisotropic_ms()
    return ms, OracleFlowField(gm, ms), init_state(ms, seed + 1, 8)


def check_solver_orders(ks=(8, 16, 32, 64, 128), ref_steps=4096):
    """Log-log slopes of the terminal error: Euler 1, Heun 2 for both secondary rules."""
    ms, field, x_init = _order_setup(4)
    cfg = SamplerConfig(steps=ref_steps, solver="heun", secondary="midpoint")
    ref = sample_trajectory(ms, field, cfg, x_init=x_init).final  # charged to the first row
    for solver, secondary, target in (
        ("euler", "endpoint", 1.0),
        ("heun", "endpoint", 2.0),
        ("heun", "midpoint", 2.0),
    ):
        slope = convergence_slope(ms, field, x_init, ks, ref, solver, secondary)
        detail = f"slope={slope:.3f} target={target}"
        yield f"order-{solver}-{secondary}", abs(slope - target), detail


def check_heun_reductions():
    """Endpoint trapezoid identity and the scalar VE reduction."""
    rng = np.random.default_rng(5)
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
    yield "heun-endpoint-trapezoid", errors, "max abs gap"

    # scalar reduction: isotropic run against an inline scalar VE-Heun
    sigma2 = 1.1
    gm1 = single_gaussian(np.zeros(1), np.array([[sigma2]]))
    ms1 = isotropic_matrix_schedule(1, horizon=25.0)
    field1 = OracleFlowField(gm1, ms1)
    steps = 32
    cfg = SamplerConfig(steps=steps, solver="heun", secondary="endpoint")
    res = sample_trajectory(ms1, field1, cfg, rng=13)
    sigmas = ms1.at(time_grid(ms1, cfg)).sqrt_g[:, 0]

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
    yield "scalar-ve-reduction", errors, "max per-step gap"
    yield "heun-endpoint-nfe", abs(res.nfe - (2 * steps - 1)), f"nfe={res.nfe} steps={steps}"


def check_knot_gradients():
    """Endpoint pinning plus FD agreement of g, dg/dt and the theta gradient."""
    rng = np.random.default_rng(6)
    pin_errors, fd_errors = [], []
    for _ in range(100):
        n_knots = int(rng.integers(3, 10))
        horizon = float(rng.uniform(1.0, 30.0))
        floor = float(10 ** rng.uniform(-6, -1))
        s = KnotSchedule(
            rng.standard_normal(n_knots - 1), uniform_nodes(horizon, n_knots), floor, horizon
        )
        pin_errors += [abs(s.eval(0.0)[0] - floor), abs(s.eval(horizon)[0] - horizon)]
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
    yield "endpoint-pinning", pin_errors, "100 random configs"
    yield "gradient-fd", fd_errors, "100 random configs"


def check_weight_map():
    """Closed-form constant-w inversion and the change-of-variables identity."""
    horizon = 5.0
    tab = weight_to_schedule(lambda t: np.full_like(np.asarray(t, dtype=float), 0.7), horizon)
    ts = np.linspace(0, horizon, 200)
    g, _ = tab.eval(ts)
    expected = (1.0 + horizon) ** (ts / horizon) - 1.0
    yield "constant-w-closed-form", np.abs(g - expected), "max abs error"
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
    yield "integral-identity", errors, "3 weights x 2 test functions"


def check_outer_gradient_fd(n=1024):
    """The whole outer gradient (explicit + implicit) on the exact oracle, per-sample t,
    against central finite differences of the outer objective."""
    rng = np.random.default_rng(7)
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
    yield "outer-vs-fd", errors, f"max gap over the largest FD entry, {n} draws x 2 families"


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------

# (group, check, {row name: threshold}, its keyword arguments under --quick); quick mode keeps
# every step count: without k=128 the pre-asymptotic k=8 point dominates the fit and the
# endpoint-Heun slope leaves 2 +- 0.2
CHECKS = (
    ("score", check_score_identity, {"identity": 1e-9}, {}),
    ("score", check_oracle_vs_direct, {"oracle-vs-direct": 1e-10}, {}),
    ("estimator", check_estimator_vs_oracle, {"gmm-vs-analytic": 1e-5}, {}),
    ("estimator", check_estimator_gaussian_exact, {"gaussian-exact": 1e-12}, {}),
    ("loss", check_loss_equivalence, {"form-equivalence": 1e-10}, {}),
    ("solver", check_solver_orders,
     dict.fromkeys(["order-euler-endpoint", "order-heun-endpoint", "order-heun-midpoint"], 0.2),
     {"ref_steps": 1024}),
    ("solver", check_heun_reductions,
     {"heun-endpoint-trapezoid": 1e-12, "scalar-ve-reduction": 1e-12, "heun-endpoint-nfe": 0.0},
     {}),
    ("knots", check_knot_gradients, {"endpoint-pinning": 0.0, "gradient-fd": 1e-4}, {}),
    ("weight-map", check_weight_map, {"constant-w-closed-form": 1e-8, "integral-identity": 1e-4},
     {}),
    ("gradient", check_outer_gradient_fd, {"outer-vs-fd": 1e-5}, {"n": 256}),
)


def run_check(check, **kwargs) -> list:
    """The report rows of `check(**kwargs)`, judged against its thresholds in `CHECKS`.

    A row is timed from the end of the previous one (the first from the call), and its value
    is the `np.max` of its per-case errors, which keeps a NaN (Python's `max` drops it) that
    then fails the threshold.  A numerical fault raised inside the check is its one FAIL row,
    named after the function.
    """
    group, thresholds = next((g, th) for g, c, th, _ in CHECKS if c is check)
    rows = []
    began = start = time.perf_counter()
    try:
        for name, errors, detail in check(**kwargs):
            value, threshold, end = float(np.max(errors)), thresholds[name], time.perf_counter()
            rows.append(CheckResult(group, name, bool(value <= threshold), value, threshold, detail,
                                    end - start))
            start = end
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        return [CheckResult(group, check.__name__, False, np.nan, np.nan,
                            f"{type(exc).__name__}: {exc}", time.perf_counter() - began)]
    return rows


def run_checks(name_filter: str | None = None, quick: bool = False) -> list:
    """Run the invariant suite; `name_filter` selects matching groups only.

    A filter that matches no group is a ValueError, so a mistyped filter
    does not read as a pass.
    """
    selected = [(check, kwargs if quick else {}) for group, check, _, kwargs in CHECKS
                if not name_filter or name_filter in group]
    if not selected:
        names = ", ".join(dict.fromkeys(group for group, *_ in CHECKS))
        raise ValueError(f"no check group matches {name_filter!r}; groups: {names}")
    return [row for check, kwargs in selected for row in run_check(check, **kwargs)]
