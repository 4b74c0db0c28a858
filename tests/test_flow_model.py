import numpy as np
import pytest

from flow_views import ScoreFromFlow

from anisodiff import flow_model
from anisodiff.fields import OracleFlowField
from anisodiff.flow_model import FlowModel, n_params
from anisodiff.gmm import perturb, sample_p0, score, single_gaussian
from anisodiff.schedule import eval_M, isotropic_matrix_schedule
from anisodiff.subspaces import (
    apply_spectral,
    build_dct_projectors,
    build_pca_projectors,
    isotropic_family,
)


def small_model(seed=0, zero_head=False):
    m = FlowModel.create(2, horizon=4.0, widths=(8, 8), seed=seed, zero_head=zero_head)
    if not zero_head:
        # randomize the head so derivatives are nontrivial
        rng = np.random.default_rng(seed + 100)
        params = m.params.copy()
        params[-(2 * 8 + 2):] = 0.1 * rng.standard_normal(2 * 8 + 2)
        m = m.with_params(params)
    return m


def test_parameters_are_a_read_only_copy():
    params = small_model(seed=3).params.copy()
    m = FlowModel(2, 4.0, (8, 8), params)
    params[0] += 1.0
    assert m.params[0] == params[0] - 1.0
    w, b = m.layers()[1]
    for view, index in ((m.params, 0), (w, (0, 0)), (b, 0)):
        with pytest.raises(ValueError, match="read-only"):
            view[index] = 0.0


def test_zero_head_gives_zero_flow():
    m = FlowModel.create(2, horizon=4.0, widths=(8, 8), seed=1, zero_head=True)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 2))
    np.testing.assert_array_equal(m(x, 1.0), np.zeros((5, 2)))


def test_deterministic_forward():
    m = small_model()
    x = np.array([0.3, -1.2])
    a = m(x, 0.7)
    b = m(x, 0.7)
    np.testing.assert_array_equal(a, b)


def test_param_count_and_validation():
    assert n_params(2, (8, 8)) == (4 * 8 + 8) + (8 * 8 + 8) + (8 * 2 + 2)
    with pytest.raises(ValueError):
        FlowModel(dim=2, horizon=1.0, widths=(8,), params=np.zeros(3))
    with pytest.raises(ValueError):
        FlowModel(dim=2, horizon=1.0, widths=(8,), params=np.full(n_params(2, (8,)), np.nan))


def test_hidden_widths_must_be_positive():
    with pytest.raises(ValueError, match="widths"):
        FlowModel.create(2, horizon=1.0, widths=(8, 0))
    assert FlowModel.create(2, horizon=1.0, widths=()).widths == ()  # a linear model


def test_rejects_nonpositive_time():
    m = small_model()
    with pytest.raises(ValueError):
        m(np.zeros(2), 0.0)
    # a non-finite t, scalar or one entry of an array t, is rejected the same way
    for t in (-1.0, float("nan"), float("inf"), np.array(np.nan), np.array([1.0, np.nan, 2.0])):
        with pytest.raises(ValueError, match="t must be positive and finite"):
            m(np.zeros((3, 2)), t)


def test_layers_are_built_once_per_model():
    m = small_model(seed=1)
    assert m.layers() is m.layers()
    other = m.with_params(m.params)
    assert other.layers() is not m.layers()
    assert all(np.array_equal(w, w_other) and np.array_equal(b, b_other)
               for (w, b), (w_other, b_other) in zip(m.layers(), other.layers()))


def test_kept_weight_transposes_are_read_only_c_ordered_copies_built_once():
    m = small_model(seed=2)
    assert m.weights_t is m.weights_t
    assert m.at(np.zeros(2), 1.0).weights_t is m.weights_t
    for (w, _), w_t in zip(m.layers(), m.weights_t):
        assert w_t.flags.c_contiguous and not w_t.flags.writeable
        assert not np.shares_memory(w_t, m.params)
        np.testing.assert_array_equal(w_t, w.T)
        with pytest.raises(ValueError, match="read-only"):
            w_t[0, 0] = 0.0


def reference_jet(model, x, t, u, v, family, cot):
    """The jet's outputs from the `@ w.T` expressions on the layer views, with no kept W^T."""
    single, d = x.ndim == 1, model.dim
    x, t = np.atleast_2d(x), np.asarray(t, dtype=float)
    layers = model.layers()
    w, b = layers[0]
    feats = model._features(np.broadcast_to(t, x.shape[:1]))
    rows = np.concatenate([x, feats], axis=1)
    if t.ndim == 0:
        z = x @ w[:, :d].T + (w[:, d:] @ model._features(t) + b)
    else:
        z = rows @ w.T + b
    acts = []
    for w, b in layers[1:]:
        acts.append(np.tanh(z))
        z = acts[-1] @ w.T + b
    slopes = [1.0 - a**2 for a in acts]
    curvs = [-2.0 * a * s1 for a, s1 in zip(acts, slopes)]
    w_x = layers[0][0][:, :d]

    def tangent(vec):
        return np.broadcast_to(vec, x.shape) @ w_x.T

    def directional(vec):
        dz = tangent(vec)
        for (w, _), s1 in zip(layers[1:], slopes):
            dz = (s1 * dz) @ w.T
        return dz

    def mixed(a, c):
        if not acts:
            return np.zeros(x.shape)
        za, zc = tangent(a), tangent(c)
        duv = curvs[0] * za * zc
        for (w, _), s1_in, s1, s2 in zip(layers[1:], slopes, slopes[1:], curvs[1:]):
            za, zc, zac = (s1_in * za) @ w.T, (s1_in * zc) @ w.T, duv @ w.T
            duv = s2 * za * zc + s1 * zac
        return duv @ layers[-1][0].T

    delta, grads = np.atleast_2d(cot), []
    for li in range(len(layers) - 1, -1, -1):
        grads[:0] = [(delta.T @ [rows, *acts][li]).reshape(-1), delta.sum(axis=0)]
        if li > 0:
            delta = (delta @ layers[li][0]) * slopes[li - 1]
    per_column = np.stack([mixed(q, q) for q in family.basis.T])
    traces = np.stack([per_column[family.labels == j].sum(axis=0)
                       for j in range(family.n_subspaces)])
    out = {"value": z, "directional": directional(v), "mixed": mixed(u, v),
           "block_traces": traces, "param_grad": np.concatenate(grads)}
    if single:
        out = {k: val if k == "param_grad" else val[..., 0, :] for k, val in out.items()}
    return out


@pytest.mark.parametrize("widths", [(), (8,), (64, 64)])
@pytest.mark.parametrize("t_kind", ["scalar-t", "array-t"])
@pytest.mark.parametrize("batched", [True, False])
def test_jet_products_equal_their_untransposed_weight_forms(widths, t_kind, batched):
    """Every product by a kept C-ordered W^T equals the same product by the view `w.T`."""
    rng = np.random.default_rng(29)
    family = build_dct_projectors(4, low_side=2)
    d, n = family.ambient_dim, 40  # 40 rows cross one block_traces pass edge at d=16
    model = FlowModel.create(d, horizon=5.0, widths=widths, seed=30, zero_head=False)
    model = model.with_params(model.params + 0.1 * rng.standard_normal(model.params.size))
    x, u, v, cot = rng.standard_normal((4, n, d))
    t = rng.uniform(0.3, 4.0, size=n)
    if not batched:
        x, u, v, cot, t = x[0], u[0], v[0], cot[0], t[:1]
    if t_kind == "scalar-t":
        t = 1.7
    jet = model.at(x, t)
    got = {"value": jet.value(), "directional": jet.directional(v), "mixed": jet.mixed(u, v),
           "block_traces": jet.block_traces(family), "param_grad": jet.param_grad(cot)}
    for name, ref in reference_jet(model, x, t, u, v, family, cot).items():
        assert got[name].shape == ref.shape, name
        assert np.max(np.abs(got[name] - ref)) <= 1e-13 * np.max(np.abs(ref)), name


@pytest.mark.parametrize("widths", [(8,), (8, 8)])
@pytest.mark.parametrize("batched", [True, False])
def test_a_scalar_t_jet_agrees_with_an_array_t_jet(widths, batched):
    # a scalar t folds the time features into the first-layer bias; an array t concatenates
    # them onto x.  The two sum in different orders, so they agree to rounding
    d, n = 6, 4
    rng = np.random.default_rng(17)
    model = FlowModel.create(d, horizon=5.0, widths=widths, seed=18, zero_head=False)
    model = model.with_params(model.params + 0.1 * rng.standard_normal(model.params.size))
    x, u, v = rng.standard_normal((3, n, d)) if batched else rng.standard_normal((3, d))
    cot = rng.standard_normal(x.shape)
    t = 1.7
    family = build_pca_projectors(rng.standard_normal((50, d)), 2)  # a rotated basis
    jets = model.at(x, t), model.at(x, np.full(n if batched else 1, t))
    got, want = ([jet.value(), jet.directional(v), jet.mixed(u, v), jet.block_traces(family),
                  jet.param_grad(cot)] for jet in jets)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))


BLOCK_FAMILIES = {
    "dct": lambda rng: build_dct_projectors(4, low_side=2),
    "pca": lambda rng: build_pca_projectors(
        rng.standard_normal((64, 16)) * np.linspace(0.5, 2, 16), 5),
    "isotropic": lambda rng: isotropic_family(16),
    "coordinates": lambda rng: build_dct_projectors(4, low_side=2).coordinates,
    "separable-dct": lambda rng: build_dct_projectors(16, low_side=8),  # d=256, no stored basis
}


@pytest.mark.parametrize("widths", [(), (8,), (8, 8), (16, 8, 12)])
@pytest.mark.parametrize("family_kind", sorted(BLOCK_FAMILIES))
@pytest.mark.parametrize("t_kind", ["scalar-t", "per-sample-t", "1-D x"])
def test_block_traces_equal_the_stacked_mixed_pass(widths, family_kind, t_kind, monkeypatch):
    rng = np.random.default_rng(23)
    family = BLOCK_FAMILIES[family_kind](rng)
    d, n = family.ambient_dim, 7
    # passes of 3 batch rows (3 d tangent rows), so n=7 crosses two pass edges
    monkeypatch.setattr(flow_model, "MIXED_PASS_ROWS", 3 * d)
    model = FlowModel.create(d, horizon=5.0, widths=widths, seed=24, zero_head=False)
    model = model.with_params(model.params + 0.1 * rng.standard_normal(model.params.size))
    x = rng.standard_normal((n, d))
    t = 1.7 if t_kind == "scalar-t" else rng.uniform(0.3, 4.0, size=n)
    if t_kind == "1-D x":
        x, t, n = x[0], float(t[0]), 1
    jet = model.at(x, t)
    # reference: one `mixed(q_i, q_i)` call per basis column q_i, summed per block
    per_column = np.stack([jet.mixed(q, q) for q in family.basis.T])
    want = np.stack([per_column[family.labels == j].sum(axis=0)
                     for j in range(family.n_subspaces)])
    got = jet.block_traces(family)
    assert got.shape == want.shape == ((family.n_subspaces,) + np.shape(x))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert (np.max(np.abs(want)) > 0) == bool(widths)  # only an affine model has no curvature


def test_param_grad_matches_fd():
    m = small_model(seed=3)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 2))
    t = rng.uniform(0.5, 3.0, size=3)
    cot = rng.standard_normal((3, 2))
    grad = m.param_grad(x, t, cot)
    h = 1e-6
    idx = rng.choice(m.params.size, size=40, replace=False)
    for i in idx:
        up, dn = m.params.copy(), m.params.copy()
        up[i] += h
        dn[i] -= h
        fp = np.sum(cot * m.with_params(up)(x, t))
        fm = np.sum(cot * m.with_params(dn)(x, t))
        assert grad[i] == pytest.approx((fp - fm) / (2 * h), rel=1e-4, abs=1e-8)


def test_param_grad_zero_cotangent_and_linearity():
    m = small_model(seed=5)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((4, 2))
    t = 1.1
    np.testing.assert_array_equal(m.param_grad(x, t, np.zeros((4, 2))), 0.0)
    c1, c2 = rng.standard_normal((4, 2)), rng.standard_normal((4, 2))
    combo = m.param_grad(x, t, 2.0 * c1 - 3.0 * c2)
    parts = 2.0 * m.param_grad(x, t, c1) - 3.0 * m.param_grad(x, t, c2)
    np.testing.assert_allclose(combo, parts, atol=1e-10)


def test_directional_matches_fd():
    m = small_model(seed=7)
    rng = np.random.default_rng(8)
    for _ in range(50):
        x = rng.standard_normal(2)
        t = rng.uniform(0.4, 3.5)
        v = rng.standard_normal(2)
        d = m.directional(x, t, v)
        h = 1e-5
        fd = (m(x + h * v, t) - m(x - h * v, t)) / (2 * h)
        np.testing.assert_allclose(d, fd, rtol=1e-6, atol=1e-9)


def test_mixed_matches_nested_fd_and_symmetry():
    m = small_model(seed=9)
    rng = np.random.default_rng(10)
    for _ in range(20):
        x = rng.standard_normal(2)
        t = rng.uniform(0.4, 3.5)
        u, v = rng.standard_normal(2), rng.standard_normal(2)
        mix = m.mixed(x, t, u, v)
        np.testing.assert_allclose(mix, m.mixed(x, t, v, u), atol=1e-10)
        h = 1e-4
        fd = (
            m(x + h * u + h * v, t)
            - m(x + h * u - h * v, t)
            - m(x - h * u + h * v, t)
            + m(x - h * u - h * v, t)
        ) / (4 * h * h)
        np.testing.assert_allclose(mix, fd, rtol=1e-3, atol=1e-6)


def test_affine_model_has_zero_mixed_derivative():
    # no hidden layers: flow = W [x, feats] + b is affine in x
    m = FlowModel.create(2, horizon=2.0, widths=(), seed=11, zero_head=False)
    rng = np.random.default_rng(12)
    x, u, v = rng.standard_normal((3, 2))
    np.testing.assert_allclose(m.mixed(x, 1.0, u, v), 0.0, atol=1e-14)
    d = m.directional(x, 1.0, v)
    w, _ = m.layers()[0]
    np.testing.assert_allclose(d, w[:, :2] @ v, atol=1e-12)


def test_batched_derivatives_match_scalar():
    m = small_model(seed=13)
    rng = np.random.default_rng(14)
    xs = rng.standard_normal((5, 2))
    ts = rng.uniform(0.5, 3.0, size=5)
    us = rng.standard_normal((5, 2))
    vs = rng.standard_normal((5, 2))
    d_batch = m.directional(xs, ts, vs)
    m_batch = m.mixed(xs, ts, us, vs)
    for i in range(5):
        np.testing.assert_allclose(
            d_batch[i], m.directional(xs[i], float(ts[i]), vs[i]), atol=1e-12
        )
        np.testing.assert_allclose(
            m_batch[i], m.mixed(xs[i], float(ts[i]), us[i], vs[i]), atol=1e-12
        )


def test_oracle_flow_field_consistency():
    gm = single_gaussian(np.zeros(2), np.diag([2.0, 0.5]))
    ms = isotropic_matrix_schedule(2, horizon=3.0)
    field = OracleFlowField(gm, ms)
    rng = np.random.default_rng(15)
    x = rng.standard_normal(2)
    t = 1.2
    g, _ = eval_M(ms, t)
    expected = apply_spectral(ms.family, np.sqrt(g), score(gm, x, ms, t))
    np.testing.assert_allclose(field(x, t), expected, rtol=1e-12)
    # score view undoes the sqrt factor
    back = ScoreFromFlow(field, ms)
    np.testing.assert_allclose(back(x, t), score(gm, x, ms, t), rtol=1e-10)


def test_oracle_field_directional_matches_fd():
    gm = single_gaussian(np.zeros(2), np.diag([1.0, 0.25]))
    ms = isotropic_matrix_schedule(2, horizon=3.0)
    field = OracleFlowField(gm, ms)
    rng = np.random.default_rng(16)
    x, v = rng.standard_normal(2), rng.standard_normal(2)
    t = 0.9
    h = 1e-5
    fd = (field(x + h * v, t) - field(x - h * v, t)) / (2 * h)
    np.testing.assert_allclose(field.directional(x, t, v), fd, rtol=1e-6, atol=1e-9)


def scale_diagnostic(flow_field, ms, gm, n_per_t: int = 256, n_times: int = 12, seed: int = 0):
    """Spread (max/min over t) of mean |flow| versus mean |net|.

    The flow parameterization exists because |net| scales like
    |M_t^{-1/2}|, which varies wildly across noise levels; this measures
    both spreads on points drawn from p_t.  Returns (flow_spread, net_spread).
    """
    rng = np.random.default_rng(seed)
    ts = np.geomspace(max(ms.t_min, 1e-3 * ms.horizon), ms.horizon, n_times)
    flow_norms, net_norms = [], []
    for t in ts:
        x0 = sample_p0(gm, n_per_t, rng)
        eps = rng.standard_normal((n_per_t, gm.dim))
        ev = ms.at(float(t))
        x_t = perturb(x0, eps, ev)
        flow = flow_field(x_t, float(t))
        net = apply_spectral(ms.family, 1.0 / ev.sqrt_g, flow)
        flow_norms.append(float(np.mean(np.linalg.norm(flow, axis=1))))
        net_norms.append(float(np.mean(np.linalg.norm(net, axis=1))))
    # np.max/np.min/np.maximum carry a NaN at any one time; Python's max/min drop it
    flow_spread = np.max(flow_norms) / np.maximum(np.min(flow_norms), 1e-300)
    net_spread = np.max(net_norms) / np.maximum(np.min(net_norms), 1e-300)
    return float(flow_spread), float(net_spread)


def test_scale_diagnostic_logged():
    # diagnostic, not assertion-hard on exact numbers: for concentrated
    # data (variance at the schedule floor, the image-like regime) the
    # flow scale varies far less across noise levels than the score-view
    # scale, which behaves like |M^{-1/2}|
    gm = single_gaussian(np.zeros(2), np.diag([1.0, 1e-4]))
    ms = isotropic_matrix_schedule(2, horizon=10.0)
    field = OracleFlowField(gm, ms)
    flow_spread, net_spread = scale_diagnostic(field, ms, gm, seed=3)
    print(f"scale diagnostic: flow spread {flow_spread:.2f}x, net spread {net_spread:.2f}x")
    assert flow_spread < 10.0
    assert net_spread > flow_spread


def test_scale_diagnostic_is_nan_when_the_field_is_nan_at_one_time():
    gm = single_gaussian(np.zeros(2), np.diag([1.0, 1e-4]))
    ms = isotropic_matrix_schedule(2, horizon=10.0)
    field = OracleFlowField(gm, ms)
    ts = np.geomspace(1e-3 * ms.horizon, ms.horizon, 12)

    def nan_at_fifth_time(x, t):
        flow = field(x, t)
        return np.full_like(flow, np.nan) if t == ts[4] else flow

    flow_spread, net_spread = scale_diagnostic(nan_at_fifth_time, ms, gm, seed=3)
    assert np.isnan(flow_spread) and np.isnan(net_spread)
