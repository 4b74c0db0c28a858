import tracemalloc

import numpy as np
import pytest

from anisodiff.flow_model import FlowModel
from anisodiff.sampler import SamplerConfig, sample_trajectory
from anisodiff.schedule import matrix_schedule_for_family
from anisodiff.subspaces import (
    GRAM_TOL,
    CoordinateFamily,
    ProjectorFamily,
    SeparableDCTFamily,
    apply_spectral,
    axis_family,
    build_dct_basis,
    build_dct_projectors,
    build_pca_projectors,
    classical_mds,
    dct_mode_order,
    isotropic_family,
    mds_stress,
    projector_distance,
)


def random_family(rng, d, dims):
    """Random orthogonal family with the given subspace dimensions."""
    assert sum(dims) == d
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return ProjectorFamily(q, np.repeat(np.arange(len(dims)), dims))


def blocks(fam):
    """The basis columns Q_j of each block j."""
    return [fam.basis[:, fam.labels == j] for j in range(fam.n_subspaces)]


def project(q, x):
    """Q Q^T x for x of shape (d,) or (..., d)."""
    return (x @ q) @ q.T


# ---------------------------------------------------------------------------
# DCT basis
# ---------------------------------------------------------------------------

def test_dct_h1_single_vector():
    basis = build_dct_basis(1)
    assert basis.shape == (1, 1)
    assert basis[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_dct_h2_constant_mode():
    basis = build_dct_basis(2)
    assert dct_mode_order(2)[0] == (0, 0)
    np.testing.assert_allclose(basis[0], np.full(4, 0.5), atol=1e-15)


def test_dct_h4_gram_identity():
    basis = build_dct_basis(4)
    gram = basis @ basis.T
    np.testing.assert_allclose(gram, np.eye(16), atol=1e-12)


def test_dct_rejects_zero_side():
    with pytest.raises(ValueError):
        build_dct_basis(0)


def test_dct_constant_image_energy_in_lowest_mode():
    basis = build_dct_basis(4)
    flat = np.ones(16)
    coeffs = basis @ flat
    ratio = coeffs[0] ** 2 / np.sum(coeffs**2)
    assert ratio > 1 - 1e-12


def _dct_basis_loop(side):
    """The per-mode reference: one weighted outer product per basis image."""
    grid = np.arange(side)
    cos_table = np.cos((2 * grid[None, :] + 1) * grid[:, None] * np.pi / (2 * side))
    gamma = np.full(side, np.sqrt(2.0 / side))
    gamma[0] = np.sqrt(1.0 / side)
    vectors = np.empty((side * side, side * side))
    for i, (p, q) in enumerate(dct_mode_order(side)):
        image = gamma[p] * gamma[q] * np.outer(cos_table[p], cos_table[q])
        vectors[i] = image.reshape(-1)
    return vectors


@pytest.mark.parametrize("side", range(1, 9))
def test_dct_basis_equals_the_mode_loop(side):
    assert np.array_equal(build_dct_basis(side), _dct_basis_loop(side))


@pytest.mark.parametrize("side, low_side", [(2, 1), (8, 3), (15, 14)])
def test_dct_projectors_equal_the_mode_loop(side, low_side):
    modes = dct_mode_order(side)
    is_high = np.array([p >= low_side or q >= low_side for p, q in modes])
    order = np.argsort(is_high, kind="stable")
    fam = build_dct_projectors(side, low_side)
    assert np.array_equal(fam.basis, _dct_basis_loop(side)[order].T)
    assert np.array_equal(fam.labels, is_high[order].astype(int))
    assert fam.basis.flags.c_contiguous


def test_separable_dct_basis_is_the_mode_loop_in_grid_order():
    side, low_side = 32, 16
    fam = build_dct_projectors(side, low_side)
    grid_order = np.empty((side * side, side * side))
    grid_order[[p * side + q for p, q in dct_mode_order(side)]] = _dct_basis_loop(side)
    np.testing.assert_allclose(fam.basis, grid_order.T, rtol=0, atol=1e-15)
    p, q = np.divmod(np.arange(side * side), side)
    assert np.array_equal(fam.labels, ((p >= low_side) | (q >= low_side)).astype(int))


def test_separable_dct_family_holds_no_dense_matrix():
    tracemalloc.start()
    try:
        fam = build_dct_projectors(64)
        assert fam.dims == (32 * 32, 64 * 64 - 32 * 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert all(np.size(v) <= fam.ambient_dim for v in vars(fam).values())


def test_dct_projector_dims():
    fam = build_dct_projectors(2, 1)
    assert fam.dims == (1, 3)
    fam = build_dct_projectors(4, 2)
    assert fam.dims == (4, 12)
    with pytest.raises(ValueError):
        build_dct_projectors(4, 4)


def test_dct_projector_completeness():
    rng = np.random.default_rng(0)
    fam = build_dct_projectors(4)
    x = rng.standard_normal(16)
    q0, q1 = blocks(fam)
    recon = project(q0, x) + project(q1, x)
    np.testing.assert_allclose(recon, x, atol=1e-10)


# ---------------------------------------------------------------------------
# PCA projectors
# ---------------------------------------------------------------------------

def test_pca_axis_concentration():
    rng = np.random.default_rng(1)
    samples = np.zeros((50, 2))
    samples[:, 0] = rng.standard_normal(50)
    fam = build_pca_projectors(samples, 1)
    top = blocks(fam)[0][:, 0]
    np.testing.assert_allclose(np.abs(top), [1.0, 0.0], atol=1e-12)


def test_pca_isotropic_ties_still_valid_family():
    rng = np.random.default_rng(2)
    samples = rng.standard_normal((200, 3))
    fam = build_pca_projectors(samples, 1)
    assert fam.dims == (1, 2)
    x = rng.standard_normal(3)
    q0, q1 = blocks(fam)
    np.testing.assert_allclose(project(q0, x) + project(q1, x), x, atol=1e-10)


def test_pca_recovers_top_direction():
    rng = np.random.default_rng(3)
    evals = np.array([4.0, 1.0, 0.25])
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    cov_half = q @ np.diag(np.sqrt(evals)) @ q.T
    samples = rng.standard_normal((100_000, 3)) @ cov_half
    fam = build_pca_projectors(samples, 1)
    top = blocks(fam)[0][:, 0]
    cosine = abs(top @ q[:, 0])
    assert cosine > np.cos(np.deg2rad(3.0))


def test_pca_tie_flag_on_exact_degeneracy():
    # the samples +-(2 e1, e2, e3) have covariance diag(1.6, 0.4, 0.4): an exact tie
    points = np.diag([2.0, 1.0, 1.0])
    samples = np.concatenate([points, -points])
    assert build_pca_projectors(samples, 1).meta["tie_at_cut"] is False
    fam = build_pca_projectors(samples, 2)
    assert fam.meta["tie_at_cut"] is True
    np.testing.assert_allclose(fam.meta["eigenvalues"], [1.6, 0.4, 0.4], rtol=1e-15)
    # the tied columns in lexicographic order: e3 = (0, 0, 1) before e2 = (0, 1, 0)
    np.testing.assert_array_equal(fam.basis, np.eye(3)[:, [0, 2, 1]])


def test_pca_sign_determinism():
    rng = np.random.default_rng(5)
    samples = rng.standard_normal((300, 4)) @ np.diag([3.0, 2.0, 1.0, 0.5])
    fam1 = build_pca_projectors(samples, 2)
    fam2 = build_pca_projectors(samples.copy(), 2)
    np.testing.assert_array_equal(blocks(fam1)[0], blocks(fam2)[0])
    for q in blocks(fam1):
        for col in q.T:
            lead = col[np.nonzero(np.abs(col) > 1e-12)[0][0]]
            assert lead > 0


def test_pca_input_validation():
    with pytest.raises(ValueError):
        build_pca_projectors(np.zeros((1, 3)), 1)
    with pytest.raises(ValueError):
        build_pca_projectors(np.zeros((10, 3)), 3)


# ---------------------------------------------------------------------------
# apply_spectral and family invariants
# ---------------------------------------------------------------------------

def test_apply_spectral_scalar_case():
    fam = isotropic_family(3)
    x = np.array([1.0, -2.0, 3.0])
    np.testing.assert_allclose(apply_spectral(fam, [4.0], x), 4.0 * x, atol=1e-14)


def test_apply_spectral_identity_values():
    rng = np.random.default_rng(6)
    fam = random_family(rng, 7, (2, 4, 1))
    x = rng.standard_normal(7)
    np.testing.assert_allclose(apply_spectral(fam, np.ones(3), x), x, atol=1e-12)


def test_apply_spectral_composition():
    rng = np.random.default_rng(7)
    fam = random_family(rng, 6, (3, 3))
    values = np.array([2.5, 0.3])
    x = rng.standard_normal(6)
    once = apply_spectral(fam, values, x)
    twice = apply_spectral(fam, np.sqrt(values), apply_spectral(fam, np.sqrt(values), x))
    np.testing.assert_allclose(twice, once, atol=1e-10)


def test_apply_spectral_inverse_roundtrip():
    rng = np.random.default_rng(8)
    fam = random_family(rng, 5, (2, 3))
    values = np.array([0.01, 7.0])
    for _ in range(20):
        x = rng.standard_normal(5)
        back = apply_spectral(fam, 1.0 / values, apply_spectral(fam, values, x))
        np.testing.assert_allclose(back, x, atol=1e-9)


def test_apply_spectral_batched_values():
    rng = np.random.default_rng(9)
    fam = random_family(rng, 4, (1, 3))
    xs = rng.standard_normal((5, 4))
    vals = rng.uniform(0.5, 2.0, size=(5, 2))
    batched = apply_spectral(fam, vals, xs)
    for i in range(5):
        np.testing.assert_allclose(
            batched[i], apply_spectral(fam, vals[i], xs[i]), atol=1e-12
        )


def _member_reference(fam, values, x):
    """sum_j v_j Q_j Q_j^T x, one block at a time."""
    return sum(values[..., j, None] * project(q, x) for j, q in enumerate(blocks(fam)))


FAMILIES = {
    "dct16": lambda rng: build_dct_projectors(16, 5),
    "dct32": lambda rng: build_dct_projectors(32),
    "pca": lambda rng: build_pca_projectors(rng.standard_normal((40, 6)) * [3, 2, 1, 1, 0.5, 0.2], 2),
    "axis": lambda rng: axis_family(5, 2),
    "explicit": lambda rng: random_family(rng, 7, (2, 4, 1)),
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_apply_spectral_matches_member_reference(name):
    rng = np.random.default_rng(12)
    fam = FAMILIES[name](rng)
    assert isinstance(fam, SeparableDCTFamily) == name.startswith("dct")
    d, n = fam.ambient_dim, 3
    xs = rng.standard_normal((n, d))
    shared = rng.uniform(0.1, 3.0, fam.n_subspaces)
    per_row = rng.uniform(0.1, 3.0, (n, fam.n_subspaces))
    cases = [(shared, xs[0]), (shared, xs), (per_row, xs)]
    for values, x in cases:
        want = _member_reference(fam, values, x)
        got = apply_spectral(fam, values, x)
        assert got.shape == x.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))
    for values in (shared, per_row):
        want = _member_reference(fam, values[..., None, :], np.eye(d))
        np.testing.assert_allclose(fam.dense(values), want, rtol=0, atol=1e-12)
    for x in (xs[0], xs):
        want = np.stack([np.sum((x @ q) ** 2, axis=-1) for q in blocks(fam)], axis=-1)
        np.testing.assert_allclose(fam.block_energies(x), want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_coordinate_family_dense_is_the_diagonal_of_the_block_values(name):
    rng = np.random.default_rng(14)
    coords = FAMILIES[name](rng).coordinates
    shared = rng.uniform(0.1, 3.0, coords.n_subspaces)
    per_row = rng.uniform(0.1, 3.0, (3, coords.n_subspaces))
    assert np.array_equal(coords.dense(shared), np.diag(shared[coords.labels]))
    assert np.array_equal(coords.dense(per_row),
                          np.stack([np.diag(row[coords.labels]) for row in per_row]))


def test_apply_spectral_length_mismatch():
    fam = axis_family(4, 2)
    with pytest.raises(ValueError):
        apply_spectral(fam, [1.0, 2.0, 3.0], np.zeros(4))


def test_family_idempotence_orthogonality_completeness():
    rng = np.random.default_rng(10)
    fam = random_family(rng, 8, (3, 2, 3))
    for _ in range(100):
        x = rng.standard_normal(8)
        total = np.zeros(8)
        for i, q in enumerate(blocks(fam)):
            px = project(q, x)
            assert np.linalg.norm(project(q, px) - px) < 1e-10
            for j, other in enumerate(blocks(fam)):
                if i != j:
                    assert np.linalg.norm(project(other, px)) < 1e-10
            total += px
        assert np.linalg.norm(total - x) < 1e-10


def test_spectral_vector_roundtrip():
    rng = np.random.default_rng(11)
    fam = random_family(rng, 6, (2, 2, 2))
    x = rng.standard_normal(6)
    np.testing.assert_allclose(fam.inverse(fam.forward(x)), x, atol=1e-10)


def test_family_rejects_bad_blocks():
    eye = np.eye(3)
    with pytest.raises(ValueError, match="sum to 2, expected 3"):
        ProjectorFamily(eye[:, :2], np.zeros(2, dtype=int))  # incomplete
    with pytest.raises(ValueError, match="block labels"):
        ProjectorFamily(eye, np.zeros(2, dtype=int))
    skew = np.array([[1.0, 0.6, 0.0], [0.0, 0.8, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="not orthonormal"):
        ProjectorFamily(skew, np.array([0, 0, 1]))


def test_a_write_into_the_passed_basis_changes_neither_the_family_nor_its_kept_view():
    rng = np.random.default_rng(12)
    q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    fam = ProjectorFamily(q, np.repeat([0, 1], [2, 4]))
    ms = matrix_schedule_for_family(fam, 10.0)
    model = FlowModel.create(6, 10.0, widths=(8, 8), seed=1, zero_head=False)
    x_init = rng.standard_normal((3, 6))
    cfg = SamplerConfig(steps=4)
    first = sample_trajectory(ms, model, cfg, x_init=x_init).final
    q[:] = np.linalg.qr(rng.standard_normal((6, 6)))[0]  # new columns in the caller's array
    assert not np.array_equal(fam.basis, q)
    assert np.array_equal(sample_trajectory(ms, model, cfg, x_init=x_init).final, first)
    with pytest.raises(ValueError, match="read-only"):
        fam.basis[0, 0] = 0.0


@pytest.mark.parametrize("name", ["dct16", "random16"])
def test_the_kept_transpose_gives_the_products_of_the_basis_view(name):
    rng = np.random.default_rng(13)
    fam = (build_dct_projectors(4) if name == "dct16"
           else random_family(rng, 16, (3, 5, 8)))
    assert isinstance(fam, ProjectorFamily)
    assert fam.basis_t.flags.c_contiguous and not fam.basis_t.flags.writeable
    assert not np.shares_memory(fam.basis_t, fam.basis)
    with pytest.raises(ValueError, match="read-only"):
        fam.basis_t[0, 0] = 0.0
    q = fam.basis
    for shape in ((2, 16), (7, 16), (256, 16), (3, 5, 16)):  # a GEMM: bit for bit
        coords = rng.standard_normal(shape)
        assert np.array_equal(fam.inverse(coords), coords @ q.T)
    n_blocks = fam.n_subspaces
    for values in (rng.uniform(0.1, 3.0, n_blocks), rng.uniform(0.1, 3.0, (5, n_blocks))):
        assert np.array_equal(fam.dense(values), (q * values[..., None, fam.labels]) @ q.T)
    # one row is a matrix-vector product, whose summation order follows the layout
    for coords in (rng.standard_normal(16), rng.standard_normal((1, 16))):
        want = coords @ q.T
        np.testing.assert_allclose(fam.inverse(coords), want, rtol=0,
                                   atol=4 * np.finfo(float).eps * np.max(np.abs(want)))


@pytest.mark.parametrize("make", [lambda labels: ProjectorFamily(np.eye(4), labels),
                                  CoordinateFamily], ids=["projector", "coordinate"])
def test_a_write_into_the_passed_labels_changes_no_block(make):
    labels = np.array([0, 0, 1, 1])
    fam = make(labels)
    labels[:] = 0  # before `dims` is first read
    assert fam.dims == (2, 2) and fam.n_subspaces == 2
    with pytest.raises(ValueError, match="read-only"):
        fam.labels[0] = 1


def test_a_separable_dct_family_hands_out_read_only_arrays():
    fam = build_dct_projectors(16, 8)
    for array in (fam.labels, fam.dct_matrix):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    assert fam.dims == (64, 192) and fam.coordinates.dims == (64, 192)


def _perturbed(d, i, j, eps):
    """A basis R whose Gram matrix R^T R is I with eps at (i, j) and (j, i)."""
    gram = np.eye(d)
    gram[i, j] = gram[j, i] = eps
    return np.linalg.cholesky(gram).T


GRAM_EDGES = {
    # a diagonal entry off by ~1e-5 passes through allclose's default rtol
    "diag-1.0e-5": (np.diag([1.0, 1 + 5e-6, 1.0, 1.0]), True),
    "diag-1.2e-5": (np.diag([1.0, 1 + 6e-6, 1.0, 1.0]), False),
    "diag-nan": (np.diag([1.0, np.nan, 1.0, 1.0]), False),
    "inside-0.5e-10": (_perturbed(4, 0, 1, 0.5 * GRAM_TOL), True),
    "inside-2e-10": (_perturbed(4, 0, 1, 2 * GRAM_TOL), False),
    "across-0.5e-10": (_perturbed(4, 1, 2, 0.5 * GRAM_TOL), True),
    "across-2e-10": (_perturbed(4, 1, 2, 2 * GRAM_TOL), False),
}


@pytest.mark.parametrize("name", sorted(GRAM_EDGES))
def test_gram_check_edges(name):
    basis, accepted = GRAM_EDGES[name]
    labels = np.array([0, 0, 1, 1])  # "inside" perturbs block 0, "across" blocks 0 and 1
    assert np.allclose(basis.T @ basis, np.eye(4), atol=GRAM_TOL) == accepted  # the reference
    if accepted:
        ProjectorFamily(basis, labels)
    else:
        with pytest.raises(ValueError, match="not orthonormal"):
            ProjectorFamily(basis, labels)


# ---------------------------------------------------------------------------
# projector distance
# ---------------------------------------------------------------------------

def test_projector_distance_identical():
    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(rng.standard_normal((5, 2)))
    assert projector_distance(q, q) == pytest.approx(0.0, abs=1e-12)


def test_projector_distance_orthogonal_axes():
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    assert projector_distance(e1, e2) == pytest.approx(1.0, abs=1e-12)


def test_projector_distance_matches_dense():
    rng = np.random.default_rng(13)
    for _ in range(10):
        qa, _ = np.linalg.qr(rng.standard_normal((7, 3)))
        qb, _ = np.linalg.qr(rng.standard_normal((7, 3)))
        dense = np.linalg.norm(qa @ qa.T - qb @ qb.T, "fro") / np.sqrt(2 * 3)
        assert projector_distance(qa, qb) == pytest.approx(dense, abs=1e-10)


def test_projector_distance_symmetry_and_triangle():
    rng = np.random.default_rng(14)
    for _ in range(20):
        qs = [np.linalg.qr(rng.standard_normal((6, 2)))[0] for _ in range(3)]
        dab = projector_distance(qs[0], qs[1])
        dba = projector_distance(qs[1], qs[0])
        assert dab == pytest.approx(dba, abs=1e-12)
        dac = projector_distance(qs[0], qs[2])
        dbc = projector_distance(qs[1], qs[2])
        assert dac <= dab + dbc + 1e-12


def test_projector_distance_shape_mismatch():
    with pytest.raises(ValueError):
        projector_distance(np.eye(3)[:, :1], np.eye(3)[:, :2])


# ---------------------------------------------------------------------------
# classical MDS
# ---------------------------------------------------------------------------

def test_mds_equilateral_triangle():
    dist = np.ones((3, 3)) - np.eye(3)
    emb = classical_mds(dist, 2)
    for i in range(3):
        for j in range(i + 1, 3):
            d = np.linalg.norm(emb.points[i] - emb.points[j])
            assert d == pytest.approx(1.0, abs=1e-8)


def test_mds_recovers_planar_points():
    rng = np.random.default_rng(15)
    pts = rng.standard_normal((8, 2)) * 3.0
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.sum(diff**2, axis=-1))
    emb = classical_mds(dist, 2)
    rediff = emb.points[:, None, :] - emb.points[None, :, :]
    redist = np.sqrt(np.sum(rediff**2, axis=-1))
    np.testing.assert_allclose(redist, dist, atol=1e-8)
    assert mds_stress(dist, emb.points) < 1e-8


def test_mds_single_point():
    emb = classical_mds(np.zeros((1, 1)), 2)
    np.testing.assert_allclose(emb.points, np.zeros((1, 2)))


def test_mds_pads_and_flags():
    # 2 points can only fill one dimension; second coordinate padded with 0
    dist = np.array([[0.0, 1.0], [1.0, 0.0]])
    emb = classical_mds(dist, 2)
    assert emb.padded
    np.testing.assert_allclose(emb.points[:, 1], 0.0, atol=1e-12)
    assert abs(np.linalg.norm(emb.points[0] - emb.points[1]) - 1.0) < 1e-10


def test_mds_input_validation():
    with pytest.raises(ValueError):
        classical_mds(np.array([[0.0, 1.0], [2.0, 0.0]]), 1)  # asymmetric
    with pytest.raises(ValueError):
        classical_mds(np.array([[1.0]]), 1)  # nonzero diagonal
