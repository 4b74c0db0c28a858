import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anisodiff import fields, sampler
from anisodiff import schedule as schedule_mod
from anisodiff.fields import OracleFlowField, coordinate_view
from anisodiff.flow_model import FlowModel, layer_views
from anisodiff.gmm import GaussianMixture, single_gaussian
from anisodiff.sampler import (
    SamplerConfig,
    expected_nfe,
    heun_step,
    init_state,
    sample_trajectory,
    step_rows,
    time_grid,
)
from anisodiff.schedule import (
    KnotSchedule,
    MatrixSchedule,
    eval_M,
    matrix_schedule_for_family,
    uniform_nodes,
)
from anisodiff.subspaces import (
    apply_spectral,
    axis_family,
    build_dct_projectors,
    build_pca_projectors,
    isotropic_family,
)


# --- independent scalar VE reference (variance-exploding, sigma = sqrt(g)) ---

def scalar_ve_euler(sigmas, flow_1d, x):
    """Plain scalar Euler in the sigma variable, high index -> low."""
    xs = [x]
    for k in range(len(sigmas) - 1, 0, -1):
        x = x + (sigmas[k] - sigmas[k - 1]) * flow_1d(x, k)
        xs.append(x)
    return xs


def scalar_ve_heun_endpoint(sigmas, flow_1d, x):
    """Scalar Heun (trapezoid) with the same final-step reuse economy."""
    xs = [x]
    carried = None
    for k in range(len(sigmas) - 1, 0, -1):
        ds = sigmas[k] - sigmas[k - 1]
        f_k = carried if (k == 1 and carried is not None) else flow_1d(x, k)
        x_hat = x + ds * f_k
        f_hat = flow_1d(x_hat, k - 1)
        x = x + ds * 0.5 * (f_k + f_hat)
        if k == 2:
            carried = f_hat
        xs.append(x)
    return xs


def anisotropic_gmm():
    mu = np.array([[1.4, 0.6], [-1.0, -0.8]])
    covs = np.stack([np.diag([0.5, 0.9]), np.diag([0.8, 0.4])])
    return GaussianMixture(np.array([0.5, 0.5]), mu, covs)


def random_ms(rng, horizon=20.0, n_knots=6):
    fam = axis_family(2, 1)
    ms = matrix_schedule_for_family(fam, horizon, n_knots=n_knots)
    return ms.with_theta_vector(0.5 * rng.standard_normal(ms.n_params))


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_init_state_covariance():
    ms = matrix_schedule_for_family(isotropic_family(2), horizon=9.0)
    draws = init_state(ms, rng=np.random.default_rng(0), n=100_000)
    cov = draws.T @ draws / draws.shape[0]
    np.testing.assert_allclose(np.linalg.eigvalsh(cov), 9.0, rtol=0.05)


def test_init_state_deterministic():
    ms = matrix_schedule_for_family(isotropic_family(3), horizon=4.0)
    a = init_state(ms, rng=7, n=5)
    b = init_state(ms, rng=7, n=5)
    np.testing.assert_array_equal(a, b)


def test_sample_trajectory_default_seed_is_zero():
    ms = random_ms(np.random.default_rng(4))
    field = OracleFlowField(anisotropic_gmm(), ms)
    cfg = SamplerConfig(steps=4)
    default = sample_trajectory(ms, field, cfg, n=3)
    seeded = sample_trajectory(ms, field, cfg, n=3, rng=0)
    for got, ref in zip(default.states, seeded.states):
        assert np.array_equal(got, ref)


def test_init_state_zero_noise():
    # xi = 0 injected through the same spectral path init_state uses
    ms = matrix_schedule_for_family(isotropic_family(2), horizon=4.0)
    from anisodiff.subspaces import apply_spectral

    g, _ = eval_M(ms, ms.horizon)
    out = apply_spectral(ms.family, np.sqrt(g), np.zeros(2))
    np.testing.assert_array_equal(out, np.zeros(2))


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def ambient_step(ms, field, x, grid, k, secondary=None, flow_k=None):
    """One step from grid[k] to grid[k-1] on `ms.family`, evaluating its own sqrt(g) rows.

    Without a secondary rule this is the Euler step; "endpoint" or "midpoint"
    picks the Heun secondary time as `sample_trajectory` does.  Returns
    `heun_step`'s (new_x, f_k, f_hat).
    """
    t_k, t_prev = grid[k], grid[k - 1]
    if secondary is None:
        u_k, u_prev = ms.at(np.array([t_k, t_prev])).sqrt_g
        return heun_step(ms.family, field, x, t_k, u_k - u_prev, flow_k=flow_k)
    t_hat = t_prev if secondary == "endpoint" else 0.5 * (t_prev + t_k)
    du, lift, coef = step_rows(*ms.at(np.array([t_k, t_prev, t_hat])).sqrt_g)
    lift = None if secondary == "endpoint" else lift  # the endpoint predictor is the Euler update
    return heun_step(ms.family, field, x, t_k, du, t_hat, lift, coef, flow_k)


def test_euler_zero_flow_is_identity():
    rng = np.random.default_rng(1)
    ms = random_ms(rng)
    grid = time_grid(ms, SamplerConfig(steps=8))

    class Zero:
        def __call__(self, x, t):
            return np.zeros_like(x)

    x = rng.standard_normal(2)
    new_x, _, _ = ambient_step(ms, Zero(), x, grid, 5)
    np.testing.assert_array_equal(new_x, x)


def test_euler_first_order_on_gaussian():
    # global error over a fixed interval halves when steps double
    gm = single_gaussian(np.zeros(2), np.diag([1.0, 1.0]))
    rng = np.random.default_rng(2)
    ms = matrix_schedule_for_family(isotropic_family(2), horizon=20.0)
    field = OracleFlowField(gm, ms)
    x0 = np.array([1.3, -0.7])

    def exact_final(x_start):
        g_lo, _ = eval_M(ms, ms.t_min)
        g_hi, _ = eval_M(ms, ms.horizon)
        factor = np.sqrt((1.0 + g_lo[0]) / (1.0 + g_hi[0]))
        return x_start * factor

    errs = []
    for steps in (16, 32):
        res = sample_trajectory(
            ms, field, SamplerConfig(steps=steps, solver="euler"), x_init=x0
        )
        errs.append(np.linalg.norm(res.final - exact_final(x0)))
    assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.4)


def test_heun_endpoint_reduces_to_trapezoid():
    rng = np.random.default_rng(3)
    gm = anisotropic_gmm()
    ms = random_ms(rng)
    field = OracleFlowField(gm, ms)
    grid = time_grid(ms, SamplerConfig(steps=6))
    x = rng.standard_normal(2)
    k = 4
    new_x, f_k, f_hat = ambient_step(ms, field, x, grid, k, "endpoint")
    du = ms.at(grid[k]).sqrt_g - ms.at(grid[k - 1]).sqrt_g
    trapezoid = x + apply_spectral(ms.family, du, 0.5 * (f_k + f_hat))
    np.testing.assert_allclose(new_x, trapezoid, atol=1e-12)


def test_heun_exact_on_nilpotent_affine_flow():
    # flow(x) = A x + b with A^2 = 0: the U-variable linear ODE truncates,
    # so a single Heun step reproduces the closed-form solution exactly
    ms = matrix_schedule_for_family(isotropic_family(2), horizon=5.0)
    a_mat = np.array([[0.0, 0.8], [0.0, 0.0]])
    b_vec = np.array([0.3, -0.5])

    class Affine:
        def __call__(self, x, t):
            return x @ a_mat.T + b_vec if x.ndim > 1 else a_mat @ x + b_vec

    grid = time_grid(ms, SamplerConfig(steps=4))
    x = np.array([0.7, 1.1])
    for secondary in ("endpoint", "midpoint"):
        for k in (1, 2, 4):
            du = (ms.at(grid[k]).sqrt_g - ms.at(grid[k - 1]).sqrt_g)[0]
            f0 = a_mat @ x + b_vec
            exact = x + du * f0 + 0.5 * du**2 * (a_mat @ b_vec)
            new_x, *_ = ambient_step(ms, Affine(), x, grid, k, secondary)
            np.testing.assert_allclose(new_x, exact, atol=1e-10)


def test_heun_exact_on_sqrt_affine_time_flow():
    # flow depending on t only, affine in each subspace's sqrt(g):
    # the interpolation model is exact for both secondary choices
    rng = np.random.default_rng(4)
    ms = random_ms(rng, horizon=10.0)
    c = np.array([0.4, -0.2])
    beta = np.array([0.15, 0.3])

    class SqrtAffine:
        def __call__(self, x, t):
            u = ms.at(t).sqrt_g
            vals = c + beta * u
            out = np.zeros_like(x)
            out[..., 0] = vals[0]
            out[..., 1] = vals[1]
            return out

    grid = time_grid(ms, SamplerConfig(steps=5))
    x = rng.standard_normal(2)
    for secondary in ("endpoint", "midpoint"):
        for k in (1, 3, 5):
            u_hi = ms.at(grid[k]).sqrt_g
            u_lo = ms.at(grid[k - 1]).sqrt_g
            exact = x + c * (u_hi - u_lo) + 0.5 * beta * (u_hi**2 - u_lo**2)
            new_x, *_ = ambient_step(ms, SqrtAffine(), x, grid, k, secondary)
            np.testing.assert_allclose(new_x, exact, atol=1e-10)


def test_heun_flat_subspace_falls_back_to_euler():
    # subspace 2 uses a fully pinned single-interval schedule over a tiny
    # log gap, so its sqrt-increment can be below tolerance on fine grids
    from anisodiff.schedule import KnotSchedule, uniform_nodes

    horizon = 5.0
    fam = axis_family(2, 1)
    s1 = KnotSchedule(np.zeros(4), uniform_nodes(horizon, 5), 1e-4, horizon)
    s2 = KnotSchedule(np.zeros(4), uniform_nodes(horizon, 5), horizon * (1 - 1e-14), horizon)
    ms = MatrixSchedule(fam, (s1, s2))
    gm = anisotropic_gmm()
    field = OracleFlowField(gm, ms)
    cfg = SamplerConfig(steps=16, solver="heun", secondary="midpoint")
    res = sample_trajectory(ms, field, cfg, rng=0)
    assert np.all(np.isfinite(res.final))


# ---------------------------------------------------------------------------
# trajectories: NFE accounting and reductions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("steps", [1, 2, 5, 32])
def test_nfe_euler(steps):
    rng = np.random.default_rng(5)
    ms = random_ms(rng)
    field = OracleFlowField(anisotropic_gmm(), ms)
    cfg = SamplerConfig(steps=steps, solver="euler")
    res = sample_trajectory(ms, field, cfg, rng=0)
    assert res.nfe == steps == expected_nfe(cfg)


@pytest.mark.parametrize("steps,expected", [(1, 2), (2, 3), (5, 9), (32, 63)])
def test_nfe_heun_endpoint(steps, expected):
    rng = np.random.default_rng(6)
    ms = random_ms(rng)
    field = OracleFlowField(anisotropic_gmm(), ms)
    cfg = SamplerConfig(steps=steps, solver="heun", secondary="endpoint")
    res = sample_trajectory(ms, field, cfg, rng=0)
    assert res.nfe == expected == expected_nfe(cfg)


@pytest.mark.parametrize("steps", [1, 4])
def test_nfe_heun_midpoint(steps):
    rng = np.random.default_rng(7)
    ms = random_ms(rng)
    field = OracleFlowField(anisotropic_gmm(), ms)
    cfg = SamplerConfig(steps=steps, solver="heun", secondary="midpoint")
    res = sample_trajectory(ms, field, cfg, rng=0)
    assert res.nfe == 2 * steps == expected_nfe(cfg)


@pytest.mark.parametrize("solver", ["euler", "heun"])
def test_one_eval_M_per_step(monkeypatch, solver):
    ms = matrix_schedule_for_family(axis_family(3, 1), 10.0)
    calls = []

    def counting_eval_M(*args, **kwargs):
        calls.append(args[1])
        return eval_M(*args, **kwargs)

    monkeypatch.setattr(schedule_mod, "eval_M", counting_eval_M)
    cfg = SamplerConfig(steps=8, solver=solver, secondary="endpoint")
    sample_trajectory(ms, lambda x, t: -x, cfg, n=4)
    assert len(calls) == 1  # the trajectory's sqrt(g) table, which holds the start's row


@pytest.mark.parametrize("solver, secondary, per_step", [
    ("euler", "endpoint", 1), ("heun", "endpoint", 2), ("heun", "midpoint", 3),
])
def test_spectral_applications_per_trajectory(monkeypatch, solver, secondary, per_step):
    # the endpoint predictor is the corrector's Euler update, so it costs nothing extra
    ms = matrix_schedule_for_family(axis_family(3, 1), 10.0)
    calls = []

    def counting_apply_spectral(*args):
        calls.append(args)
        return apply_spectral(*args)

    step_times = []

    def counting_heun_step(*args, **kwargs):
        step_times.append(args[3])
        return heun_step(*args, **kwargs)

    monkeypatch.setattr(sampler, "apply_spectral", counting_apply_spectral)
    monkeypatch.setattr(sampler, "heun_step", counting_heun_step)
    steps = 5
    cfg = SamplerConfig(steps=steps, solver=solver, secondary=secondary)
    sample_trajectory(ms, lambda x, t: -x, cfg, n=4, rng=1)
    assert len(calls) == per_step * steps  # the steps; the start is scaled in the coordinates
    # one `heun_step` per step, from t_K down to t_1, through the module global
    assert np.array_equal(step_times, time_grid(ms, cfg)[:0:-1])


@pytest.mark.parametrize("steps", [1, 8])
@pytest.mark.parametrize("solver, secondary", [
    ("euler", "endpoint"), ("heun", "endpoint"), ("heun", "midpoint"),
])
def test_step_rows_are_formed_once_per_trajectory(monkeypatch, solver, secondary, steps):
    ms = matrix_schedule_for_family(axis_family(3, 1), 10.0)
    shapes = []

    def counting_step_rows(*rows):
        shapes.append([row.shape for row in rows])
        return step_rows(*rows)

    monkeypatch.setattr(sampler, "step_rows", counting_step_rows)
    cfg = SamplerConfig(steps=steps, solver=solver, secondary=secondary)
    sample_trajectory(ms, lambda x, t: -x, cfg, n=4, rng=1)
    assert shapes == [[(steps, 2)] * 3]  # one call, every step's rows at once


def test_a_trajectory_writes_into_nothing_it_is_handed():
    # the steps add into `apply_spectral`'s results only: never into a state, a field's
    # output or the start, which a read-only array would refuse and a copy would show
    rng = np.random.default_rng(7)
    ms = matrix_schedule_for_family(build_pca_projectors(rng.standard_normal((40, 5)), 2), 8.0)
    seen = []  # (array, a copy of it when it was handed over or returned)

    def field(x, t):
        seen.append((x, x.copy()))
        out = np.tanh(x[..., ::-1]) / (1.0 + t) - 0.5 * x
        out.flags.writeable = False
        seen.append((out, out.copy()))
        return out

    x_init = rng.standard_normal((3, 5))
    x_init.flags.writeable = False
    seen.append((x_init, x_init.copy()))
    for solver, secondary in [("euler", "endpoint"), ("heun", "endpoint"), ("heun", "midpoint")]:
        cfg = SamplerConfig(steps=4, solver=solver, secondary=secondary)
        res = sample_trajectory(ms, field, cfg, x_init=x_init)
        assert res.states[0] is x_init
        grid = time_grid(ms, cfg)
        x = res.states[1].copy()
        x.flags.writeable = False
        seen.append((x, x.copy()))
        ambient_step(ms, field, x, grid, 3, None if solver == "euler" else secondary)
    assert len(seen) > 20
    for array, copy in seen:
        assert np.array_equal(array, copy)


def three_application_heun_step(ms, field, x, grid, k, secondary):
    """Matrix Heun step with its own predictor, the formula before the Euler update was shared."""
    t_k, t_prev = grid[k], grid[k - 1]
    t_hat = t_prev if secondary == "endpoint" else 0.5 * (t_prev + t_k)
    u_k, u_prev, u_hat = np.sqrt(eval_M(ms, np.array([t_k, t_prev, t_hat]))[0])
    du = u_k - u_prev
    f_k = field(x, t_k)
    f_hat = field(x + apply_spectral(ms.family, u_k - u_hat, f_k), t_hat)
    gap = u_hat - u_k
    coef = np.where(np.abs(gap) < sampler.FLAT_INCREMENT_TOL, 0.0,
                    -0.5 * du**2 / np.where(gap == 0, 1.0, gap))
    return x + apply_spectral(ms.family, du, f_k) + apply_spectral(ms.family, coef, f_hat - f_k)


SPECTRAL_FAMILIES = {
    "axis": axis_family(6, 2),
    "dct-4": build_dct_projectors(4),
    "separable-dct-16": build_dct_projectors(16),
}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), name=st.sampled_from(sorted(SPECTRAL_FAMILIES)),
       secondary=st.sampled_from(["endpoint", "midpoint"]), steps=st.integers(1, 6),
       horizon=st.floats(1.0, 100.0), flat=st.booleans())
def test_heun_step_equals_the_three_application_formula(seed, name, secondary, steps, horizon,
                                                        flat):
    rng = np.random.default_rng(seed)
    fam = SPECTRAL_FAMILIES[name]
    knots = [KnotSchedule(rng.standard_normal(4), uniform_nodes(horizon, 5), 1e-4 * horizon,
                          horizon) for _ in range(2)]
    if flat:  # a pinned schedule over a tiny log gap: its sqrt(g) increments are below tol
        knots[1] = KnotSchedule(np.zeros(4), uniform_nodes(horizon, 5), horizon * (1 - 1e-14),
                                horizon)
    ms = MatrixSchedule(fam, tuple(knots))
    grid = time_grid(ms, SamplerConfig(steps=steps))
    k = int(rng.integers(1, steps + 1))
    if flat:
        u = np.sqrt(eval_M(ms, np.array([grid[k - 1], grid[k]]))[0])
        assert abs(u[0, 1] - u[1, 1]) < sampler.FLAT_INCREMENT_TOL
    x = rng.standard_normal((3, fam.ambient_dim))

    def field(x, t):
        return np.tanh(x[:, ::-1]) / (1.0 + t) - 0.5 * x

    new_x, _, _ = ambient_step(ms, field, x, grid, k, secondary)
    assert np.array_equal(new_x, three_application_heun_step(ms, field, x, grid, k, secondary))


def step_loop(ms, field, cfg, x):
    """sample_trajectory's integration as a loop of ambient steps, each evaluating its own rows."""
    grid = time_grid(ms, cfg)
    states, carried = [x], None
    for k in range(cfg.steps, 0, -1):
        if cfg.solver == "euler":
            x, _, _ = ambient_step(ms, field, x, grid, k)
        else:
            reuse = carried if (cfg.secondary == "endpoint" and k == 1) else None
            x, _, f_hat = ambient_step(ms, field, x, grid, k, cfg.secondary, flow_k=reuse)
            if cfg.secondary == "endpoint" and k == 2:
                carried = f_hat
        states.append(x)
    return states


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 8),
       horizon=st.floats(1.0, 1e3),
       rule=st.sampled_from([("euler", "endpoint"), ("heun", "endpoint"), ("heun", "midpoint")]),
       conditional=st.booleans())
def test_trajectory_equals_the_step_loop(seed, steps, horizon, rule, conditional):
    # the one sqrt(g) table per trajectory gives the bits of per-step evaluations
    rng = np.random.default_rng(seed)

    def row():
        return tuple(KnotSchedule(rng.standard_normal(4), uniform_nodes(horizon, 5),
                                  1e-4 * horizon, horizon) for _ in range(2))

    fam = axis_family(2, 1)
    if conditional:
        ms, label = MatrixSchedule(fam, row(), class_table={"a": row(), "b": row()}), "a"
    else:
        ms, label = MatrixSchedule(fam, row()), None
    cfg = SamplerConfig(steps=steps, solver=rule[0], secondary=rule[1])
    res = sample_trajectory(ms.for_class(label), OracleFlowField(anisotropic_gmm(), ms, label),
                            cfg, n=3, rng=seed % 1000)
    want = step_loop(ms.for_class(label), OracleFlowField(anisotropic_gmm(), ms, label), cfg,
                     res.states[0])
    assert len(res.states) == len(want) == steps + 1
    for got, ref in zip(res.states, want):
        assert np.array_equal(got, ref)
    assert np.array_equal(res.final, want[-1])
    assert res.nfe == expected_nfe(cfg)


COORDINATE_FAMILIES = {
    "dct-4": build_dct_projectors(4),
    "separable-dct-16": build_dct_projectors(16),
    "pca-6": build_pca_projectors(np.random.default_rng(0).standard_normal((40, 6)), 2),
}


def random_gmm(d, rng):
    covs = []
    for _ in range(2):
        a = rng.standard_normal((d, d)) / np.sqrt(d)
        covs.append(a @ a.T + 0.1 * np.eye(d))
    return GaussianMixture(np.array([0.4, 0.6]), rng.standard_normal((2, d)), np.stack(covs))


def random_knots(rng, horizon):
    return tuple(KnotSchedule(rng.standard_normal(4), uniform_nodes(horizon, 5), 1e-4 * horizon,
                              horizon) for _ in range(2))


def biased_model(d, horizon, widths, rng):
    """A random `FlowModel` with nonzero biases, so the head's bias is carried too."""
    model = FlowModel.create(d, horizon, widths, seed=int(rng.integers(2**31)), zero_head=False)
    return model.with_params(model.params + 0.1 * rng.standard_normal(model.params.size))


def random_field(kind, ms, rng):
    """A field of the given kind on `ms`, and the plain schedule the sampler runs on."""
    d = ms.family.ambient_dim
    if kind == "oracle":
        return OracleFlowField(random_gmm(d, rng), ms), ms
    if kind == "conditional-oracle":
        cond = MatrixSchedule(ms.family, ms.per_subspace,
                              class_table={"a": random_knots(rng, ms.horizon),
                                           "b": random_knots(rng, ms.horizon)})
        return OracleFlowField(random_gmm(d, rng), cond, "b"), cond.for_class("b")
    if kind == "model":
        widths = [(), (8,), (8, 8)][rng.integers(3)]  # () : the first layer is the head
        return biased_model(d, ms.horizon, widths, rng), ms
    return (lambda x, t: np.tanh(x[:, ::-1]) / (1.0 + t) - 0.5 * x), ms


RULES = [("euler", "endpoint"), ("heun", "endpoint"), ("heun", "midpoint")]
FIELD_KINDS = ["oracle", "conditional-oracle", "model", "lambda"]


def assert_close(got, ref):
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), name=st.sampled_from(sorted(COORDINATE_FAMILIES)),
       kind=st.sampled_from(FIELD_KINDS), rule=st.sampled_from(RULES), steps=st.integers(1, 5),
       horizon=st.floats(1.0, 1e3))
# three oracle cases whose ambient reference moved past the bound by the rotation's rounding
@example(seed=2950, name="separable-dct-16", kind="conditional-oracle", rule=("heun", "endpoint"),
         steps=1, horizon=325.0)
@example(seed=840811, name="separable-dct-16", kind="conditional-oracle",
         rule=("euler", "endpoint"), steps=2, horizon=388.5)
@example(seed=434040, name="separable-dct-16", kind="oracle", rule=("heun", "midpoint"), steps=3,
         horizon=722.0)
def test_coordinate_trajectory_equals_the_step_loop(seed, name, kind, rule, steps, horizon):
    # sample_trajectory integrates in the family's coordinates.  A model or a lambda is checked
    # against ambient steps.  An oracle is stepped as its rotated mixture, whose rounding the
    # problem can amplify past the bound at large horizons (the rotation itself is checked in
    # test_fields), so its reference steps that same rotated oracle on the coordinates
    rng = np.random.default_rng(seed)
    ms = MatrixSchedule(COORDINATE_FAMILIES[name], random_knots(rng, horizon))
    field, plain = random_field(kind, ms, rng)
    cfg = SamplerConfig(steps=steps, solver=rule[0], secondary=rule[1])
    res = sample_trajectory(plain, field, cfg, n=3, rng=seed % 1000)
    if isinstance(field, OracleFlowField):
        # the trajectory's start in coordinates, forward(xi) sqrt(g_T): forward(states[0]) differs
        # from it by rounding, which the problem can amplify as well
        fam = ms.family
        xi = np.random.default_rng(seed % 1000).standard_normal((3, fam.ambient_dim))
        c_T = fam.forward(xi) * plain.at(plain.horizon).sqrt_g[fam.labels]
        assert np.array_equal(fam.inverse(c_T), res.states[0])
        _, view, c, back = coordinate_view(field, fam, c_T)
        want = [res.states[0], *map(back, step_loop(view.ms, view, cfg, c)[1:])]
    else:
        want = step_loop(plain, field, cfg, res.states[0])
    assert len(res.states) == len(want) == steps + 1
    for got, ref in zip(res.states, want):
        assert_close(got, ref)
    assert_close(res.final, want[-1])
    assert res.nfe == expected_nfe(cfg)


@pytest.mark.parametrize("name", ["dct-4", "separable-dct-16"])
@pytest.mark.parametrize("kind", ["oracle", "model"])
def test_basis_transforms_per_trajectory_do_not_grow_with_steps(monkeypatch, name, kind):
    fam = COORDINATE_FAMILIES[name]
    cls = type(fam)
    calls = []
    for method in ("forward", "inverse"):
        def counting(self, x, _original=getattr(cls, method), _method=method):
            calls.append(_method)
            return _original(self, x)

        monkeypatch.setattr(cls, method, counting)
    ms = matrix_schedule_for_family(fam, 10.0)
    field, plain = random_field(kind, ms, np.random.default_rng(1))
    sample_trajectory(plain, field, SamplerConfig(steps=1), n=2)  # builds a model's kept view
    counts = []
    for steps in (2, 8):
        calls.clear()
        sample_trajectory(plain, field, SamplerConfig(steps=steps), n=2)
        counts.append(len(calls))
    assert counts[0] == counts[1]
    assert set(calls) == {"forward", "inverse"}


@pytest.mark.parametrize("rule", RULES)
def test_states_are_mapped_back_once_on_first_access(monkeypatch, rule):
    cfg = SamplerConfig(steps=6, solver=rule[0], secondary=rule[1])
    for name in ("dct-4", "separable-dct-16"):  # the default view (m = 26 >= d = 16), the latent
        fam = COORDINATE_FAMILIES[name]
        ms = matrix_schedule_for_family(fam, 10.0)
        field = biased_model(fam.ambient_dim, 10.0, (8, 8), np.random.default_rng(2))
        params = field.params.copy()
        x_init = np.random.default_rng(3).standard_normal((4, fam.ambient_dim))
        calls = []

        def counting_inverse(self, coords, _original=type(fam).inverse, _calls=calls):
            _calls.append(coords.shape)
            return _original(self, coords)

        monkeypatch.setattr(type(fam), "inverse", counting_inverse)
        res = sample_trajectory(ms, field, cfg, x_init=x_init)
        assert calls == [(4, fam.ambient_dim)]  # `final`
        assert np.array_equal(field.params, params)  # the views are built on copies
        calls.clear()
        states = res.states
        assert calls == [(cfg.steps - 1, 4, fam.ambient_dim)]  # one batched map of the inner states
        assert res.states is states
        assert np.array_equal(states[0], x_init)
        assert states[-1] is res.final
        for got, ref in zip(states, step_loop(ms, field, cfg, x_init)):
            assert_close(got, ref)


@pytest.mark.parametrize("name", ["dct-4", "separable-dct-16"], ids=["default", "latent"])
@pytest.mark.parametrize("n", [None, 3])
def test_a_drawn_start_is_init_state(name, n):
    # the start is formed in the family's coordinates with the sqrt(g) table's horizon row, and
    # states[0] maps it back
    fam = COORDINATE_FAMILIES[name]
    ms = matrix_schedule_for_family(fam, 10.0)
    model = biased_model(fam.ambient_dim, 10.0, (8, 8), np.random.default_rng(5))
    cfg = SamplerConfig(steps=3)
    assert np.array_equal(ms.at(time_grid(ms, cfg)).sqrt_g[-1], ms.at(ms.horizon).sqrt_g)
    res = sample_trajectory(ms, model, cfg, n=n, rng=11)
    assert np.array_equal(res.states[0], init_state(ms, 11, n))
    # given as x_init, the same start is taken to the coordinates again: equal to rounding
    assert_close(sample_trajectory(ms, model, cfg, x_init=res.states[0]).final, res.final)


LATENT_FAMILIES = {
    "separable-dct-16": COORDINATE_FAMILIES["separable-dct-16"],
    "pca-256": build_pca_projectors(np.random.default_rng(1).standard_normal((300, 256)), 2),
}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), name=st.sampled_from(sorted(LATENT_FAMILIES)),
       widths=st.sampled_from([(8,), (8, 8), (16, 4)]), rule=st.sampled_from(RULES),
       steps=st.integers(1, 5), horizon=st.floats(1.0, 1e3), batched=st.booleans())
def test_latent_trajectory_equals_the_step_loop(seed, name, widths, rule, steps, horizon, batched):
    # a model with m = h_1 + J (h_L + 1) < d is sampled in latent coordinates
    rng = np.random.default_rng(seed)
    fam = LATENT_FAMILIES[name]
    ms = MatrixSchedule(fam, random_knots(rng, horizon))
    model = biased_model(fam.ambient_dim, horizon, widths, rng)
    x_init = init_state(ms, rng, n=3 if batched else None)
    assert coordinate_view(model, fam, fam.forward(x_init))[0].ambient_dim < fam.ambient_dim
    cfg = SamplerConfig(steps=steps, solver=rule[0], secondary=rule[1])
    res = sample_trajectory(ms, model, cfg, x_init=x_init)
    want = step_loop(ms, model, cfg, x_init)
    assert len(res.states) == len(want) == steps + 1
    for got, ref in zip(res.states, want):
        assert_close(got, ref)
    assert_close(res.final, want[-1])
    assert res.nfe == expected_nfe(cfg)


@pytest.mark.parametrize("name, widths, scale, latent", [
    ("separable-dct-16", (8, 8), 1.0, True),
    ("separable-dct-16", (), 1.0, False),  # a linear model has no hidden layer
    ("dct-4", (8, 8), 1.0, False),  # m = 8 + 2 (8 + 1) = 26 >= d = 16
    ("separable-dct-16", (8, 8), 1e160, False),  # W_x R^T overflows; the rotation does not
])
def test_the_latent_view_is_taken_when_smaller_and_finite(name, widths, scale, latent):
    fam = COORDINATE_FAMILIES[name]
    d = fam.ambient_dim
    rng = np.random.default_rng(4)
    model = biased_model(d, 10.0, widths, rng)
    if scale != 1.0:
        params = model.params.copy()
        (w_in, _), *_, (w_head, _) = layer_views(params, d, widths)
        w_in[:, :d] *= scale
        w_head *= scale
        model = model.with_params(params)
    x = rng.standard_normal((2, d))
    with np.errstate(over="ignore", invalid="ignore"):
        coords, view, start, back = coordinate_view(model, fam, fam.forward(x))
    assert isinstance(view, FlowModel)
    if latent:
        assert coords.ambient_dim == view.dim == 26 and start.shape == (2, 26)
        np.testing.assert_allclose(back(start), x, atol=1e-12)  # a zero latent tail is the start
    else:
        assert coords is fam.coordinates and view.dim == d
        assert np.array_equal(start, fam.forward(x))


def counting_builds(monkeypatch):
    """Record the family of every view model `coordinate_view` builds from here on."""
    builds = []

    def counting(model, family, _original=fields._rotated):
        builds.append(family)
        return _original(model, family)

    monkeypatch.setattr(fields, "_rotated", counting)
    return builds


@pytest.mark.parametrize("name, widths", [
    ("separable-dct-16", (8, 8)), ("dct-4", (8, 8)), ("separable-dct-16", ()),
], ids=["latent", "default", "linear"])
def test_a_model_view_is_built_once_per_model_and_family(monkeypatch, name, widths):
    fam = COORDINATE_FAMILIES[name]
    ms = matrix_schedule_for_family(fam, 10.0)
    rng = np.random.default_rng(6)
    model = biased_model(fam.ambient_dim, 10.0, widths, rng)
    params = model.params.copy()
    x_a, x_b = rng.standard_normal((2, 3, fam.ambient_dim))
    cfg = SamplerConfig(steps=4)
    builds = counting_builds(monkeypatch)
    first = sample_trajectory(ms, model, cfg, x_init=x_a)
    hit = sample_trajectory(ms, model, cfg, x_init=x_b)
    assert builds == [fam]
    cold = sample_trajectory(ms, FlowModel(model.dim, 10.0, widths, params), cfg, x_init=x_b)
    assert builds == [fam, fam]  # a model with equal parameters is another key
    assert np.array_equal(hit.final, cold.final)
    assert np.array_equal(model.params, params)
    assert_close(first.final, step_loop(ms, model, cfg, x_a)[-1])


def test_a_new_model_or_family_never_reads_a_kept_view(monkeypatch):
    rng = np.random.default_rng(7)
    families = [LATENT_FAMILIES["separable-dct-16"], LATENT_FAMILIES["pca-256"]]
    model = biased_model(256, 10.0, (8, 8), rng)
    retrained = model.with_params(model.params + 0.1 * rng.standard_normal(model.params.size))
    x = rng.standard_normal((3, 256))
    cfg = SamplerConfig(steps=3)
    builds = counting_builds(monkeypatch)
    for field, fam in [(model, families[0]), (model, families[1]), (retrained, families[0]),
                       (model, families[0])]:
        ms = matrix_schedule_for_family(fam, 10.0)
        assert_close(sample_trajectory(ms, field, cfg, x_init=x).final,
                     step_loop(ms, field, cfg, x)[-1])
    assert builds == [families[0], families[1], families[0]]  # the last is a hit


@pytest.mark.parametrize("scale", [None, 1e308], ids=["kept", "overflow-fallback"])
def test_a_dropped_model_releases_its_view(scale):
    fam = COORDINATE_FAMILIES["separable-dct-16"]
    ms = matrix_schedule_for_family(fam, 10.0)
    model = biased_model(fam.ambient_dim, 10.0, (8, 8), np.random.default_rng(8))
    if scale is not None:  # the fallback composition closes over the model
        model = model.with_params(scale * np.sign(model.params))
    with np.errstate(over="ignore", invalid="ignore"):
        assert (fields._rotated(model, fam) is None) == (scale is not None)
        sample_trajectory(ms, model, SamplerConfig(steps=2), n=2)
    assert len(fields._VIEWS[model]) == (scale is None)
    ref = weakref.ref(model)
    del model
    gc.collect()
    assert ref() is None


def test_scalar_reduction_euler():
    # isotropic anisotropic run == scalar VE sampler, step by step
    gm = single_gaussian(np.zeros(1), np.array([[0.8]]))
    ms = matrix_schedule_for_family(isotropic_family(1), horizon=15.0)
    field = OracleFlowField(gm, ms)
    cfg = SamplerConfig(steps=12, solver="euler")
    res = sample_trajectory(ms, field, cfg, rng=3)
    grid = time_grid(ms, cfg)
    sigmas = np.array([np.sqrt(eval_M(ms, t)[0][0]) for t in grid])

    def flow_1d(x, k):
        t = grid[k]
        g = sigmas[k] ** 2
        return np.sqrt(g) * (-x / (0.8 + g))

    ref = scalar_ve_euler(sigmas, flow_1d, res.states[0].copy())
    for mine, theirs in zip(res.states, ref):
        np.testing.assert_allclose(mine, theirs, atol=1e-12)


def test_scalar_reduction_heun_endpoint_full_trajectory():
    gm = single_gaussian(np.zeros(1), np.array([[1.7]]))
    ms = matrix_schedule_for_family(isotropic_family(1), horizon=25.0)
    field = OracleFlowField(gm, ms)
    cfg = SamplerConfig(steps=32, solver="heun", secondary="endpoint")
    res = sample_trajectory(ms, field, cfg, rng=11)
    grid = time_grid(ms, cfg)
    sigmas = np.array([np.sqrt(eval_M(ms, t)[0][0]) for t in grid])

    def flow_1d(x, k):
        g = sigmas[k] ** 2
        return np.sqrt(g) * (-x / (1.7 + g))

    ref = scalar_ve_heun_endpoint(sigmas, flow_1d, res.states[0].copy())
    assert len(ref) == len(res.states)
    for mine, theirs in zip(res.states, ref):
        np.testing.assert_allclose(mine, theirs, atol=1e-12)
    assert res.nfe == 2 * 32 - 1


def test_subspace_decoupling():
    # product Gaussian + axis-aligned family: each coordinate's trajectory
    # equals the corresponding 1-D isotropic run
    rng = np.random.default_rng(8)
    fam = axis_family(2, 1)
    ms2 = matrix_schedule_for_family(fam, horizon=12.0, n_knots=5)
    ms2 = ms2.with_theta_vector(rng.standard_normal(ms2.n_params))
    sigma2 = np.array([2.5, 0.4])
    gm2 = single_gaussian(np.zeros(2), np.diag(sigma2))
    field2 = OracleFlowField(gm2, ms2)
    cfg = SamplerConfig(steps=10, solver="heun", secondary="midpoint")
    xi = np.random.default_rng(42).standard_normal(2)
    from anisodiff.subspaces import apply_spectral, isotropic_family

    g_top, _ = eval_M(ms2, ms2.horizon)
    x_init = apply_spectral(fam, np.sqrt(g_top), xi)
    res2 = sample_trajectory(ms2, field2, cfg, x_init=x_init)
    for axis in range(2):
        fam1 = isotropic_family(1)
        ms1 = MatrixSchedule(fam1, (ms2.per_subspace[axis],))
        gm1 = single_gaussian(np.zeros(1), np.array([[sigma2[axis]]]))
        field1 = OracleFlowField(gm1, ms1)
        res1 = sample_trajectory(ms1, field1, cfg, x_init=x_init[axis : axis + 1])
        for s2, s1 in zip(res2.states, res1.states):
            np.testing.assert_allclose(s2[axis], s1[0], atol=1e-10)


def test_gaussian_terminal_covariance_and_heun_order():
    # exact per-axis flow map: x(t_min) = sqrt((s^2+g_lo)/(s^2+g_hi)) x(T)
    gm = single_gaussian(np.zeros(2), np.diag([4.0, 0.25]))
    fam = axis_family(2, 1)
    ms = matrix_schedule_for_family(fam, horizon=400.0)
    field = OracleFlowField(gm, ms)
    rng = np.random.default_rng(9)
    n = 512
    xi = rng.standard_normal((n, 2))
    from anisodiff.subspaces import apply_spectral

    g_hi, _ = eval_M(ms, ms.horizon)
    x_init = apply_spectral(ms.family, np.sqrt(g_hi), xi)
    g_lo, _ = eval_M(ms, ms.t_min)
    factor = np.sqrt((np.array([4.0, 0.25]) + g_lo) / (np.array([4.0, 0.25]) + g_hi))
    exact = x_init * factor
    errs = []
    for steps in (16, 32):
        res = sample_trajectory(
            ms, field, SamplerConfig(steps=steps, solver="heun"), x_init=x_init
        )
        errs.append(np.sqrt(np.mean(np.sum((res.final - exact) ** 2, axis=1))))
    # second order: doubling K divides the error by ~4
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.5)


def test_convergence_orders_on_gmm():
    gm = anisotropic_gmm()
    rng = np.random.default_rng(10)
    ms = random_ms(rng, horizon=20.0)
    field = OracleFlowField(gm, ms)
    n = 8
    xi = np.random.default_rng(123).standard_normal((n, 2))
    from anisodiff.subspaces import apply_spectral

    g_hi, _ = eval_M(ms, ms.horizon)
    x_init = apply_spectral(ms.family, np.sqrt(g_hi), xi)
    ref = sample_trajectory(
        ms, field, SamplerConfig(steps=2048, solver="heun", secondary="midpoint"),
        x_init=x_init,
    ).final
    ks = np.array([8, 16, 32, 64])

    def slope(solver, secondary):
        errs = []
        for k in ks:
            res = sample_trajectory(
                ms, field, SamplerConfig(steps=int(k), solver=solver, secondary=secondary),
                x_init=x_init,
            )
            errs.append(np.mean(np.linalg.norm(res.final - ref, axis=1)))
        return -np.polyfit(np.log(ks), np.log(errs), 1)[0]

    assert slope("euler", "endpoint") == pytest.approx(1.0, abs=0.2)
    assert slope("heun", "endpoint") == pytest.approx(2.0, abs=0.2)
    assert slope("heun", "midpoint") == pytest.approx(2.0, abs=0.2)


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(steps=0)
    with pytest.raises(ValueError):
        SamplerConfig(steps=4, solver="rk4")
    with pytest.raises(ValueError):
        SamplerConfig(steps=4, secondary="thirds")
    for steps in (2.5, 4.0, True, "4", None):
        with pytest.raises(ValueError, match="steps"):
            SamplerConfig(steps=steps)
    assert SamplerConfig(steps=np.int64(4)).steps == 4  # numpy integers are integers
