"""Orthogonal projector families, DCT/PCA bases, and subspace geometry.

A family is an orthogonal transform pair, `forward` to the family's own
coordinates and `inverse` back, and the block label j of each of those
coordinates; the coordinates labelled j span the subspace of P_j.  Every
matrix function sum_j f(g_j) P_j of a family goes through
:func:`apply_spectral`, which maps x to the coordinates, scales each
coordinate by the value of its block and maps back.  A generic family
stores an orthonormal d x d basis Q and its coordinates are x Q, so a
call costs O(n d^2).  A DCT family on side x side images with side >= 16
stores only the side x side 1-D DCT matrix D and uses the separable 2-D
transform D X D^T, which costs O(n d^1.5).  Subspace geometry
(:func:`projector_distance`) takes raw (d, k) arrays of basis columns.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

Array = np.ndarray

GRAM_TOL = 1e-10
TIE_TOL = 1e-9


def _read_only(a) -> Array:
    """A read-only C-ordered copy: nothing keyed by a family (a sampling view) can go stale."""
    a = np.array(a, order="C")
    a.flags.writeable = False
    return a


def _as_basis(obj) -> Array:
    """A raw (d, k) array of basis columns, as float."""
    basis = np.asarray(obj, dtype=float)
    if basis.ndim != 2:
        raise ValueError(f"basis must be 2-D (d, k), got shape {basis.shape}")
    return basis


class _BlockFamily:
    """Mutually orthogonal projectors {P_j} with sum P_j = I on R^d.

    A subclass supplies `labels`, the block index of each coordinate
    that `forward` returns, the orthogonal pair `forward`/`inverse` on
    (..., d) arrays, and `basis`, the d x d matrix Q with forward(x) = x Q.
    P_j = Q_j Q_j^T with Q_j = Q[:, labels == j].
    """

    @property
    def ambient_dim(self) -> int:
        return self.labels.shape[0]

    @cached_property
    def dims(self) -> tuple:
        """Dimension of each block, (dim P_1, ..., dim P_J)."""
        return tuple(int(k) for k in np.bincount(self.labels))

    @property
    def n_subspaces(self) -> int:
        return len(self.dims)

    def block_energies(self, x: Array) -> Array:
        """Squared block norms ||P_j x||^2, shape (..., J)."""
        coords = self.forward(x)
        sq = coords * coords
        return np.stack(
            [np.sum(sq[..., self.labels == j], axis=-1) for j in range(self.n_subspaces)], axis=-1
        )

    def dense(self, values) -> Array:
        """Dense matrix sum_j values[..., j] P_j, shape (..., d, d).  Small-d oracle use only."""
        values = np.asarray(values, dtype=float)
        q = self.basis
        return (q * values[..., None, self.labels]) @ q.T

    @cached_property
    def coordinates(self) -> "CoordinateFamily":
        """The same blocks in this family's own coordinates, where every P_j is diagonal."""
        return CoordinateFamily(self.labels)


@dataclass(frozen=True, eq=False)
class CoordinateFamily(_BlockFamily):
    """A family in its own coordinates: identity transforms, basis I, block `labels`."""

    labels: Array  # (d,), block index j of each coordinate
    basis = property(lambda self: np.eye(self.ambient_dim))

    def __post_init__(self):
        object.__setattr__(self, "labels", _read_only(self.labels))

    def forward(self, x: Array) -> Array:
        return x

    inverse = forward

    def dense(self, values) -> Array:
        return np.asarray(values, dtype=float)[..., self.labels, None] * np.eye(self.ambient_dim)


@dataclass(frozen=True, eq=False)
class ProjectorFamily(_BlockFamily):
    """A family stored as one orthonormal d x d basis Q and the block
    index of each of its columns; its coordinates are x Q.

    It also keeps `basis_t`, a read-only C-ordered copy of Q^T, which
    `inverse` and `dense` multiply by: `a @ Q.T` on the C-ordered Q runs as
    a transposed (NT) BLAS GEMM, which at d=16 under one OpenBLAS thread
    takes 9.4 us for 256 rows against 5.0 us for the NN product, with the
    same bits (a single row is a matrix-vector product and may differ in
    its last bit).
    """

    basis: Array  # (d, d), orthonormal columns
    labels: Array  # (d,), block index j of each column of basis
    meta: dict = field(default_factory=dict, compare=False)
    basis_t: Array = field(init=False, repr=False)  # (d, d), C-ordered Q^T

    def __post_init__(self):
        basis, labels = _read_only(_as_basis(self.basis)), _read_only(self.labels)
        d = basis.shape[0]
        if basis.shape[1] != d:
            raise ValueError(f"subspace dimensions sum to {basis.shape[1]}, expected {d}")
        if labels.shape != (d,):
            raise ValueError(f"expected {d} block labels, got shape {labels.shape}")
        if not np.allclose(basis.T @ basis, np.eye(d), atol=GRAM_TOL):
            raise ValueError("family basis columns are not orthonormal")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "basis_t", _read_only(basis.T))

    def forward(self, x: Array) -> Array:
        """Coordinates of x in the family's basis, x Q."""
        return x @ self.basis

    def inverse(self, coords: Array) -> Array:
        """Vector with the given coordinates, coords Q^T."""
        return coords @ self.basis_t

    def dense(self, values) -> Array:
        values = np.asarray(values, dtype=float)
        return (self.basis * values[..., None, self.labels]) @ self.basis_t


def apply_spectral(family: ProjectorFamily, values, x: Array) -> Array:
    """Apply sum_j f(g_j) P_j to x without forming any d x d matrix.

    Parameters
    ----------
    family : ProjectorFamily or SeparableDCTFamily
    values : array_like
        Per-subspace scalars, shape (J,) for a shared matrix or (..., J)
        with one row of scalars per row of x.  x may carry extra leading
        stack dimensions, which share those rows.
    x : array_like
        Vector (d,) or batch (..., d).
    """
    x = np.asarray(x, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.shape[-1] != family.n_subspaces:
        raise ValueError(
            f"expected {family.n_subspaces} spectral values, got {values.shape[-1]}"
        )
    batch = values.shape[:-1]
    if batch and x.shape[:-1][-len(batch):] != batch:
        raise ValueError("batched values must match the batch shape of x")
    return family.inverse(family.forward(x) * values[..., family.labels])


def isotropic_family(d: int) -> ProjectorFamily:
    """J=1 family with P_1 = I (the scalar-schedule special case)."""
    if d < 1:
        raise ValueError(f"dim must be >= 1, got {d}")
    return ProjectorFamily(np.eye(d), np.zeros(d, dtype=int), meta={"kind": "isotropic", "dim": d})


def axis_family(d: int, split: int) -> ProjectorFamily:
    """Two coordinate-aligned subspaces: first `split` axes vs the rest."""
    if not 1 <= split < d:
        raise ValueError("split must satisfy 1 <= split < d")
    labels = (np.arange(d) >= split).astype(int)
    return ProjectorFamily(np.eye(d), labels, meta={"kind": "axis", "dim": d, "split": split})


# ---------------------------------------------------------------------------
# 2-D DCT basis
# ---------------------------------------------------------------------------

def dct_mode_order(side: int):
    """(p, q) mode pairs ordered by (p + q) ascending, ties by p ascending."""
    modes = [(p, q) for p in range(side) for q in range(side)]
    modes.sort(key=lambda pq: (pq[0] + pq[1], pq[0]))
    return modes


def _dct_factors(side: int):
    """cos((2x+1) p pi / (2H)) as a (p, x) table, and the weights gamma_p."""
    grid = np.arange(side)
    cos_table = np.cos((2 * grid[None, :] + 1) * grid[:, None] * np.pi / (2 * side))
    gamma = np.full(side, np.sqrt(2.0 / side))
    gamma[0] = np.sqrt(1.0 / side)
    return cos_table, gamma


def build_dct_basis(side: int) -> Array:
    """Orthonormal 2-D DCT (type II) basis of R^(side^2).

    Returns an array of shape (side^2, side^2) whose rows are the
    vectorized (row-major) basis images, ordered by :func:`dct_mode_order`.
    Each basis image is

        gamma_p * gamma_q * cos((2x+1) p pi / (2H)) * cos((2y+1) q pi / (2H))

    with gamma_0 = H^{-1/2} and gamma_p = sqrt(2) H^{-1/2} for p > 0,
    formed as (gamma_p gamma_q) (cos[p, x] cos[q, y]), bit-identical to a
    per-mode loop.  The result is the transpose of a C-ordered array whose
    columns are the images.
    """
    if side < 1:
        raise ValueError("side length must be >= 1")
    cos_table, gamma = _dct_factors(side)
    p, q = np.array(dct_mode_order(side)).T
    images = cos_table[p].T[:, None, :] * cos_table[q].T[None, :, :]
    return ((gamma[p] * gamma[q]) * images.reshape(side * side, side * side)).T


SEPARABLE_DCT_MIN_SIDE = 16


@dataclass(frozen=True)
class SeparableDCTFamily(_BlockFamily):
    """Two-block DCT family whose coordinates are the 2-D DCT-II image.

    With D the orthonormal 1-D DCT-II matrix, the coordinates of a
    row-major side x side image X are C = D X D^T and X = D^T C D, both
    flattened row-major: coordinate p * side + q is C[p, q], and it
    belongs to the low block iff p < low_side and q < low_side.  The
    family stores only D; `basis` is formed on each use.
    """

    side: int
    low_side: int
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        dct = self.dct_matrix
        if not np.allclose(dct @ dct.T, np.eye(self.side), atol=GRAM_TOL):
            raise ValueError("DCT matrix rows are not orthonormal")

    @cached_property
    def dct_matrix(self) -> Array:
        """D[p, x] = gamma_p cos((2x+1) p pi / (2H)), shape (side, side)."""
        cos_table, gamma = _dct_factors(self.side)
        return _read_only(gamma[:, None] * cos_table)

    @cached_property
    def _dct_matrix_t(self) -> Array:
        # a C-ordered copy: batched matmul with it is faster than with the view .T
        return _read_only(self.dct_matrix.T)

    @cached_property
    def labels(self) -> Array:
        """Block index of each coordinate, shape (side^2,)."""
        high = np.arange(self.side) >= self.low_side
        return _read_only((high[:, None] | high[None, :]).astype(int).reshape(-1))

    @property
    def basis(self) -> Array:
        """Q = forward(I), whose column p * side + q is the basis image (p, q).

        Formed on each use (d x d), for the small-d and reference paths only.
        """
        return self.forward(np.eye(self.ambient_dim))

    def forward(self, x: Array) -> Array:
        image = x.reshape(x.shape[:-1] + (self.side, self.side))
        return (self.dct_matrix @ image @ self._dct_matrix_t).reshape(x.shape)

    def inverse(self, coords: Array) -> Array:
        image = coords.reshape(coords.shape[:-1] + (self.side, self.side))
        return (self._dct_matrix_t @ image @ self.dct_matrix).reshape(coords.shape)


def build_dct_projectors(side: int,
                         low_side: int | None = None) -> ProjectorFamily | SeparableDCTFamily:
    """Two-subspace DCT family: low-frequency block vs its complement.

    The low subspace spans the modes {(p, q) : p < low_side, q < low_side};
    `low_side` defaults to side // 2.

    For side >= SEPARABLE_DCT_MIN_SIDE the family is a
    :class:`SeparableDCTFamily`, which stores only the 1-D DCT matrix and
    orders its coordinates row-major in (p, q).  Below it, the family is a
    :class:`ProjectorFamily` whose basis columns are the basis images of
    :func:`build_dct_basis`, low block first and in zigzag order within
    each block, applied through the dense rotation Q.  The cut comes from
    the time of one `apply_spectral` call, one BLAS thread, 2-core x86
    machine (per-subspace loop of the earlier code in brackets):

    - side 4 (n = 64 and 256): rotation 0.011-0.030 ms, separable
      0.036-0.13 ms (0.025-0.053 ms);
    - side 8 (n = 256): both 0.13-0.17 ms (0.18-0.24 ms);
    - side 16 (n = 32): rotation 0.34 ms, separable 0.08 ms (0.37 ms);
    - side 32 (n = 32): rotation 3.9-5.4 ms, separable 0.24-0.37 ms
      (4.1-6.7 ms).
    """
    if low_side is None:
        low_side = side // 2
    if not 1 <= low_side < side:
        raise ValueError("low_side must satisfy 1 <= low_side < side")
    meta = {"kind": "dct", "side": side, "low_side": low_side}
    if side >= SEPARABLE_DCT_MIN_SIDE:
        return SeparableDCTFamily(side, low_side, meta)
    modes = np.array(dct_mode_order(side))
    is_high = np.any(modes >= low_side, axis=1)
    order = np.argsort(is_high, kind="stable")  # low block first, zigzag order within
    return ProjectorFamily(build_dct_basis(side).T[:, order], is_high[order].astype(int), meta)


# ---------------------------------------------------------------------------
# PCA projectors
# ---------------------------------------------------------------------------

def _fix_signs(vectors: Array) -> Array:
    """Flip each column so its first coordinate of magnitude > 1e-12 is positive."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nonzero = np.nonzero(np.abs(col) > 1e-12)[0]
        if nonzero.size and col[nonzero[0]] < 0:
            out[:, j] = -col
    return out


def build_pca_projectors(samples: Array, k: int) -> ProjectorFamily:
    """Top-k principal subspace vs residual, from the sample covariance.

    Eigenvalues are sorted descending; eigenvector signs follow the
    first-nonzero-positive convention, and ties (within relative 1e-9)
    are broken coordinate-lexicographically.  A tie straddling the k-cut
    is flagged in the family metadata.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise ValueError("need at least 2 samples of shape (n, d)")
    d = samples.shape[1]
    if not 1 <= k < d:
        raise ValueError("k must satisfy 1 <= k < d")
    centered = samples - samples.mean(axis=0)
    cov = centered.T @ centered / (samples.shape[0] - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(-evals, kind="stable")
    evals = evals[order]
    evecs = _fix_signs(evecs[:, order])
    # lexicographic tie-break inside groups of equal eigenvalues
    scale = max(abs(evals[0]), 1.0)
    start = 0
    while start < d:
        stop = start + 1
        while stop < d and abs(evals[stop] - evals[start]) <= TIE_TOL * scale:
            stop += 1
        if stop - start > 1:
            keys = [tuple(np.round(evecs[:, j], 12)) for j in range(start, stop)]
            sub = sorted(range(start, stop), key=lambda j: keys[j - start])
            evecs[:, start:stop] = evecs[:, sub]
        start = stop
    tie_at_cut = abs(evals[k - 1] - evals[k]) <= TIE_TOL * scale
    return ProjectorFamily(
        evecs,
        np.repeat([0, 1], [k, d - k]),
        meta={"kind": "pca", "eigenvalues": evals.tolist(), "tie_at_cut": bool(tie_at_cut)},
    )


# ---------------------------------------------------------------------------
# Subspace geometry
# ---------------------------------------------------------------------------

def projector_distance(a, b) -> float:
    """Normalized Frobenius distance between two k-dim subspaces.

    d(Q1, Q2) = ||Q1 Q1^T - Q2 Q2^T||_F / sqrt(2k), which reduces to the
    cross-Gram identity ||P1 - P2||_F^2 = 2k - 2 ||Q1^T Q2||_F^2.  That
    difference cancels catastrophically for nearby subspaces, so the
    equivalent residual form ||(I - P2) Q1||_F^2 + ||(I - P1) Q2||_F^2 is
    accumulated instead; no dense d x d product is formed either way.
    The value lies in [0, 1].
    """
    qa, qb = _as_basis(a), _as_basis(b)
    if qa.shape != qb.shape:
        raise ValueError(f"basis shapes differ: {qa.shape} vs {qb.shape}")
    k = qa.shape[1]
    cross = qa.T @ qb  # (k, k)
    res_a = qa - qb @ cross.T
    res_b = qb - qa @ cross
    sq = (np.sum(res_a * res_a) + np.sum(res_b * res_b)) / (2 * k)
    return float(np.sqrt(min(max(sq, 0.0), 1.0)))


@dataclass(frozen=True)
class MDSEmbedding:
    points: Array  # (n, out_dim)
    eigenvalues: Array  # (n,), descending
    padded: bool  # True when fewer than out_dim nonnegative eigenvalues


def classical_mds(distances: Array, out_dim: int = 2) -> MDSEmbedding:
    """Classical (Torgerson) multidimensional scaling.

    Double-centers the squared distance matrix, eigendecomposes the Gram
    matrix, and returns the top `out_dim` nonnegative eigen-directions
    scaled by sqrt(eigenvalue).  Missing nonnegative directions are padded
    with zero coordinates and flagged.
    """
    dist = np.asarray(distances, dtype=float)
    n = dist.shape[0]
    if dist.shape != (n, n):
        raise ValueError("distance matrix must be square")
    if not np.allclose(dist, dist.T, atol=1e-12):
        raise ValueError("distance matrix must be symmetric")
    if np.any(np.abs(np.diag(dist)) > 1e-12):
        raise ValueError("distance matrix must have zero diagonal")
    if np.any(dist < 0):
        raise ValueError("distances must be nonnegative")
    center = np.eye(n) - np.ones((n, n)) / n
    gram = -0.5 * center @ (dist**2) @ center
    evals, evecs = np.linalg.eigh(gram)
    order = np.argsort(-evals, kind="stable")
    evals = evals[order]
    evecs = _fix_signs(evecs[:, order])
    points = np.zeros((n, out_dim))
    usable = min(out_dim, int(np.sum(evals > 0)))
    for j in range(usable):
        points[:, j] = evecs[:, j] * np.sqrt(evals[j])
    return MDSEmbedding(points=points, eigenvalues=evals, padded=usable < out_dim)


def mds_stress(distances: Array, points: Array) -> float:
    """Root relative residual between input distances and embedded distances."""
    dist = np.asarray(distances, dtype=float)
    diff = points[:, None, :] - points[None, :, :]
    emb = np.sqrt(np.sum(diff * diff, axis=-1))
    denom = np.sum(dist**2)
    if denom == 0:
        return 0.0
    return float(np.sqrt(np.sum((dist - emb) ** 2) / denom))
