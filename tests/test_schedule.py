import numpy as np
import pytest

from anisodiff.schedule import (
    KnotSchedule,
    MatrixSchedule,
    eval_M,
    eval_M_dt_dtheta,
    eval_M_dtheta,
    inverse_softplus,
    isotropic_matrix_schedule,
    log_linear_schedule,
    matrix_schedule_for_family,
    softplus,
    uniform_nodes,
    weight_to_schedule,
)
from anisodiff.subspaces import apply_spectral, axis_family, build_dct_projectors


def random_schedule(rng, horizon=5.0, n_knots=8, floor=1e-4):
    theta = rng.standard_normal(n_knots - 1)
    return KnotSchedule(theta, uniform_nodes(horizon, n_knots), floor, horizon)


def fd_grad(f, theta, h=1e-5):
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (f(up) - f(dn)) / (2 * h)
    return grad


# ---------------------------------------------------------------------------
# knot schedule values
# ---------------------------------------------------------------------------

def test_endpoints_pinned_exactly():
    rng = np.random.default_rng(0)
    for _ in range(10):
        s = random_schedule(rng, horizon=7.0)
        g0, _ = s.eval(0.0)
        gT, _ = s.eval(7.0)
        assert g0 == s.floor
        assert gT == 7.0


def test_log_linear_midpoint():
    horizon = float(np.exp(2.0))
    s = KnotSchedule(np.zeros(5), uniform_nodes(horizon, 6), floor=1.0, horizon=horizon)
    g, _ = s.eval(horizon / 2)
    assert g == pytest.approx(np.e, rel=1e-12)


def test_softplus_increments_positive_and_monotone():
    rng = np.random.default_rng(1)
    s = random_schedule(rng)
    ts = np.linspace(0, s.horizon, 200)
    g, dg = s.eval(ts)
    assert np.all(np.diff(g) > 0)
    assert np.all(dg > 0)


def test_dg_dt_matches_finite_difference():
    rng = np.random.default_rng(2)
    for _ in range(20):
        s = random_schedule(rng)
        t = rng.uniform(0.05, 0.95) * s.horizon
        h = 1e-6 * s.horizon
        _, dg = s.eval(t)
        gp, _ = s.eval(t + h)
        gm, _ = s.eval(t - h)
        fd = (gp - gm) / (2 * h)
        assert dg == pytest.approx(fd, rel=1e-4)


def test_eval_rejects_out_of_range():
    s = log_linear_schedule(3.0)
    with pytest.raises(ValueError):
        s.eval(-0.1)
    with pytest.raises(ValueError):
        s.eval(3.5)


@pytest.mark.parametrize("t", [np.nan, np.array([1.0, np.nan, 2.0])], ids=["scalar", "array"])
def test_nan_time_is_rejected(t):
    from anisodiff.loss import weight_values

    ms = matrix_schedule_for_family(axis_family(2, 1), 3.0, n_knots=5)
    tab = weight_to_schedule(lambda x: 1.0 + np.asarray(x), 3.0, quad_points=101)
    for call in (lambda: ms.per_subspace[0].eval(t),
                 lambda: ms.per_subspace[0].eval_dtheta(t),
                 lambda: ms.at(np.atleast_1d(t)).jac,
                 lambda: weight_values(ms, t),
                 lambda: tab.eval(t)):
        with pytest.raises(ValueError, match="t outside"):
            call()


def test_interior_node_uses_right_interval():
    rng = np.random.default_rng(3)
    s = random_schedule(rng, n_knots=5)
    node = s.nodes[2]
    _, dg_node = s.eval(node)
    _, dg_right = s.eval(node + 1e-9)
    assert dg_node == pytest.approx(dg_right, rel=1e-6)


# ---------------------------------------------------------------------------
# theta gradients
# ---------------------------------------------------------------------------

def test_theta_gradient_zero_at_endpoints():
    rng = np.random.default_rng(4)
    s = random_schedule(rng)
    np.testing.assert_allclose(s.eval_dtheta(0.0), 0.0, atol=1e-14)
    np.testing.assert_allclose(s.eval_dtheta(s.horizon), 0.0, atol=1e-12)


def test_pinned_endpoint_gradient_is_exactly_zero():
    # g(T) = T whatever theta is, so the last log-node row and d g(T) / d theta
    # must be exactly 0; a pairwise np.sum total left ulp-sized rows on ~20%
    horizon = 80.0
    for seed in range(200):
        s = random_schedule(np.random.default_rng(seed), horizon=horizon, n_knots=16)
        assert np.all(s._log_node_grads[-1] == 0.0)
        assert np.all(s.eval_dtheta(horizon) == 0.0)


def test_theta_gradient_matches_fd():
    rng = np.random.default_rng(5)
    for _ in range(20):
        s = random_schedule(rng)
        t = rng.uniform(0.05, 0.95) * s.horizon
        grad = s.eval_dtheta(t)
        fd = fd_grad(lambda th: s.with_theta(th).eval(t)[0], s.theta.copy())
        np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-10)


def test_dgdt_theta_gradient_matches_fd():
    rng = np.random.default_rng(6)
    for _ in range(10):
        s = random_schedule(rng)
        t = rng.uniform(0.05, 0.95) * s.horizon
        grad = s.eval_dt_dtheta(t)
        fd = fd_grad(lambda th: s.with_theta(th).eval(t)[1], s.theta.copy())
        np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-9)


def test_single_interval_schedule_is_fully_pinned():
    s = KnotSchedule(np.array([0.3]), np.array([0.0, 2.0]), 1e-3, 2.0)
    for t in np.linspace(0, 2.0, 7):
        np.testing.assert_allclose(s.eval_dtheta(t), 0.0, atol=1e-14)
    # value matches a different theta exactly
    s2 = s.with_theta(np.array([-1.2]))
    ts = np.linspace(0, 2.0, 7)
    np.testing.assert_allclose(s.eval(ts)[0], s2.eval(ts)[0], rtol=1e-14)


def test_theta_is_a_read_only_copy():
    theta = np.array([0.3, -0.2, 0.5])
    s = KnotSchedule(theta, uniform_nodes(2.0, 4), 1e-3, 2.0)
    before = s.eval(np.array([0.5, 1.7]))[0]
    theta[:] = 5.0  # the caller's array is not the schedule's
    np.testing.assert_array_equal(s.eval(np.array([0.5, 1.7]))[0], before)
    with pytest.raises(ValueError):
        s.theta[0] = 1.0


def test_nodes_are_a_read_only_copy():
    nodes = uniform_nodes(2.0, 4)
    s = KnotSchedule(np.array([0.3, -0.2, 0.5]), nodes, 1e-3, 2.0)
    before = s.eval(np.array([0.5, 1.7]))[0]
    nodes[2] = 100.0  # would undo the strictly-increasing check if it reached the schedule
    np.testing.assert_array_equal(s.eval(np.array([0.5, 1.7]))[0], before)
    with pytest.raises(ValueError, match="read-only"):
        s.nodes[1] = 0.1


def test_batched_eval_matches_scalar():
    rng = np.random.default_rng(7)
    s = random_schedule(rng)
    ts = rng.uniform(0, s.horizon, size=9)
    g, dg = s.eval(ts)
    grads = s.eval_dtheta(ts)
    for i, t in enumerate(ts):
        gi, dgi = s.eval(float(t))
        assert g[i] == pytest.approx(gi, rel=1e-14)
        assert dg[i] == pytest.approx(dgi, rel=1e-14)
        np.testing.assert_allclose(grads[i], s.eval_dtheta(float(t)), rtol=1e-13)


def test_inverse_softplus_roundtrip():
    x = np.array([-3.0, -0.5, 0.0, 2.0])
    np.testing.assert_allclose(inverse_softplus(softplus(x)), x, atol=1e-10)


# ---------------------------------------------------------------------------
# matrix schedule
# ---------------------------------------------------------------------------

def test_isotropic_reduces_to_scalar():
    ms = isotropic_matrix_schedule(3, horizon=4.0)
    g, dg = eval_M(ms, 1.7)
    gs, dgs = ms.per_subspace[0].eval(1.7)
    assert g.shape == (1,)
    assert g[0] == pytest.approx(gs)
    assert dg[0] == pytest.approx(dgs)


def test_terminal_matrix_is_horizon_times_identity():
    fam = build_dct_projectors(2, 1)
    ms = matrix_schedule_for_family(fam, horizon=6.0)
    g, _ = eval_M(ms, 6.0)
    np.testing.assert_allclose(g, 6.0)
    x = np.arange(4.0)
    np.testing.assert_allclose(apply_spectral(ms.family, g, x), 6.0 * x, atol=1e-12)


def test_matrix_inverse_roundtrip():
    rng = np.random.default_rng(8)
    fam = axis_family(5, 2)
    ms = matrix_schedule_for_family(fam, horizon=3.0)
    for _ in range(10):
        t = rng.uniform(0.2, 3.0)
        x = rng.standard_normal(5)
        g, _ = eval_M(ms, t)
        back = apply_spectral(ms.family, g**-1.0, apply_spectral(ms.family, g, x))
        np.testing.assert_allclose(back, x, atol=1e-9)


def test_commutation_of_M_and_dM():
    rng = np.random.default_rng(9)
    fam = build_dct_projectors(2, 1)
    ms = matrix_schedule_for_family(fam, horizon=2.0)
    ms = ms.with_theta_vector(rng.standard_normal(ms.n_params))
    for _ in range(10):
        t = rng.uniform(0.1, 2.0)
        g, dg = eval_M(ms, t)
        x = rng.standard_normal(4)
        ab = apply_spectral(fam, dg, apply_spectral(fam, g, x))
        ba = apply_spectral(fam, g, apply_spectral(fam, dg, x))
        np.testing.assert_allclose(ab, ba, atol=1e-10)


def test_eval_M_dtheta_block_structure():
    rng = np.random.default_rng(10)
    fam = axis_family(4, 2)
    ms = matrix_schedule_for_family(fam, horizon=2.0, n_knots=5)
    ms = ms.with_theta_vector(rng.standard_normal(ms.n_params))
    jac = eval_M_dtheta(ms, 0.9)
    slices = ms.param_slices()
    # parameters of subspace 0 do not move subspace 1 values
    np.testing.assert_array_equal(jac[1, slices[0]], 0.0)
    np.testing.assert_array_equal(jac[0, slices[1]], 0.0)


def test_eval_M_dtheta_matches_fd():
    rng = np.random.default_rng(11)
    fam = axis_family(4, 1)
    ms = matrix_schedule_for_family(fam, horizon=2.0, n_knots=6)
    ms = ms.with_theta_vector(rng.standard_normal(ms.n_params))
    t = 1.3
    jac = eval_M_dtheta(ms, t)
    theta0 = ms.theta_vector()
    h = 1e-5
    for p in range(ms.n_params):
        up, dn = theta0.copy(), theta0.copy()
        up[p] += h
        dn[p] -= h
        gp, _ = eval_M(ms.with_theta_vector(up), t)
        gm, _ = eval_M(ms.with_theta_vector(dn), t)
        np.testing.assert_allclose(jac[:, p], (gp - gm) / (2 * h), rtol=1e-4, atol=1e-10)


def test_class_conditional_independence():
    rng = np.random.default_rng(12)
    fam = axis_family(2, 1)
    base = matrix_schedule_for_family(fam, horizon=2.0, n_knots=4)
    table = {
        "a": base.per_subspace,
        "b": tuple(s.with_theta(rng.standard_normal(s.n_params)) for s in base.per_subspace),
    }
    ms = MatrixSchedule(fam, base.per_subspace, class_table=table)
    g_b_before, _ = eval_M(ms.for_class("b"), 1.0)
    # non-uniform shift: a constant shift would be absorbed by the normalizer
    new_theta = ms.theta_vector("a") + np.linspace(-1.0, 1.0, ms.n_params)
    ms2 = ms.with_theta_vector(new_theta, "a")
    g_b_after, _ = eval_M(ms2.for_class("b"), 1.0)
    np.testing.assert_array_equal(g_b_before, g_b_after)
    g_a_before, _ = eval_M(ms.for_class("a"), 1.0)
    g_a_after, _ = eval_M(ms2.for_class("a"), 1.0)
    assert not np.allclose(g_a_before, g_a_after)
    with pytest.raises(KeyError):
        ms.for_class("zebra")
    with pytest.raises(KeyError):
        eval_M(ms, 1.0)


def test_the_class_table_is_read_only():
    rng = np.random.default_rng(13)
    fam = axis_family(2, 1)
    base = matrix_schedule_for_family(fam, horizon=2.0, n_knots=4)
    other = tuple(s.with_theta(rng.standard_normal(s.n_params)) for s in base.per_subspace)
    table = {"a": base.per_subspace}
    ms = MatrixSchedule(fam, base.per_subspace, class_table=table)
    table["a"] = other  # the caller's dict is not the schedule's
    view = ms.for_class("a")
    with pytest.raises(TypeError):  # the cached class view and the table cannot disagree
        ms.class_table["a"] = other
    assert ms.class_table["a"] == base.per_subspace and ms.for_class("a") is view
    np.testing.assert_array_equal(ms.theta_vector("a"), base.theta_vector())


@pytest.mark.parametrize("fraction", [0.0, 1.0, -1e-4])
def test_t_floor_fraction_must_lie_in_the_unit_interval(fraction):
    base = matrix_schedule_for_family(axis_family(2, 1), horizon=5.0, n_knots=4)
    with pytest.raises(ValueError, match="t_floor_fraction"):
        MatrixSchedule(base.family, base.per_subspace, t_floor_fraction=fraction)


def test_for_class_resolves_one_view_per_label():
    rng = np.random.default_rng(21)
    fam = axis_family(3, 1)
    base = matrix_schedule_for_family(fam, horizon=6.0, n_knots=5)
    table = {label: tuple(s.with_theta(rng.standard_normal(s.n_params))
                          for s in base.per_subspace) for label in ("a", "b")}
    ms = MatrixSchedule(fam, base.per_subspace, class_table=table)
    assert ms.for_class("a") is ms.for_class("a")
    assert ms.for_class("a") is not ms.for_class("b")
    assert base.for_class() is base
    t = np.array([0.0, ms.t_min, 1.3, 4.5, 6.0])
    for label in ("a", "b"):
        view, want = ms.for_class(label), MatrixSchedule(fam, table[label])
        assert view.class_table is None
        ev, ref = view.at(t), want.at(t)
        for name in ("g", "dg", "sqrt_g", "jac", "dt_jac"):
            assert np.array_equal(getattr(ev, name), getattr(ref, name))
        assert np.array_equal(ms.theta_vector(label), want.theta_vector())
    with pytest.raises(KeyError, match="requires a class label"):
        ms.for_class()
    with pytest.raises(KeyError, match="not class-conditional"):
        base.for_class("a")
    with pytest.raises(KeyError, match="unknown class"):
        ms.for_class("zebra")


def test_value_objects_compare_and_hash_by_identity():
    from anisodiff.flow_model import FlowModel
    from anisodiff.gmm import single_gaussian

    made = [
        lambda: axis_family(4, 2),
        lambda: log_linear_schedule(5.0),
        lambda: matrix_schedule_for_family(axis_family(4, 2), 5.0),
        lambda: single_gaussian(np.zeros(2), np.eye(2)),
        lambda: FlowModel.create(2, 5.0, widths=(4,)),
    ]
    for make in made:
        a, b = make(), make()
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert len({a, b}) == 2


# ---------------------------------------------------------------------------
# theta-Jacobian of dg/dt
# ---------------------------------------------------------------------------

def test_dgdt_jacobian_matches_fd_through_matrix():
    rng = np.random.default_rng(15)
    fam = axis_family(2, 1)
    ms = matrix_schedule_for_family(fam, horizon=3.0, n_knots=6)
    ms = ms.with_theta_vector(rng.standard_normal(ms.n_params))
    t = 2.2
    jac = eval_M_dt_dtheta(ms, t)
    theta0 = ms.theta_vector()
    h = 1e-5
    for p in range(ms.n_params):
        up, dn = theta0.copy(), theta0.copy()
        up[p] += h
        dn[p] -= h
        _, dgp = eval_M(ms.with_theta_vector(up), t)
        _, dgm = eval_M(ms.with_theta_vector(dn), t)
        np.testing.assert_allclose(jac[:, p], (dgp - dgm) / (2 * h), rtol=1e-4, atol=1e-9)


# ---------------------------------------------------------------------------
# weight -> schedule construction
# ---------------------------------------------------------------------------

def test_constant_weight_closed_form():
    horizon = 5.0
    tab = weight_to_schedule(lambda t: np.full_like(np.asarray(t, dtype=float), 0.7), horizon)
    ts = np.linspace(0, horizon, 50)
    g, _ = tab.eval(ts)
    expected = (1.0 + horizon) ** (ts / horizon) - 1.0
    np.testing.assert_allclose(g, expected, atol=1e-8)


def test_weight_schedule_endpoints():
    horizon = 3.0
    tab = weight_to_schedule(lambda t: 1.0 + np.asarray(t) ** 2, horizon)
    g0, _ = tab.eval(0.0)
    gT, _ = tab.eval(horizon)
    assert abs(g0) < 1e-12
    assert abs(gT - horizon) < 1e-8


@pytest.mark.parametrize(
    "w",
    [
        lambda t: np.full_like(np.asarray(t, dtype=float), 0.7),
        lambda t: 1.0 + np.asarray(t),
        lambda t: 2.0 + np.sin(np.asarray(t)),
    ],
)
@pytest.mark.parametrize("h", [lambda t: t, lambda t: t**2])
def test_weight_integral_identity(w, h):
    horizon = 4.0
    tab = weight_to_schedule(w, horizon, quad_points=10_001)
    ts = np.linspace(0, horizon, 10_001)
    g, dg = tab.eval(ts)
    lhs = np.trapezoid(dg**2 / (1.0 + g) * h(g), ts)
    rhs = tab.c * np.trapezoid(np.asarray(w(ts), dtype=float) * h(ts), ts)
    assert lhs == pytest.approx(rhs, rel=1e-4)


def test_weight_rejects_nonpositive():
    with pytest.raises(ValueError):
        weight_to_schedule(lambda t: np.asarray(t) - 1.0, 3.0)
