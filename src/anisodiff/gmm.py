"""Exact Gaussian-mixture oracle for the perturbed marginals p_t.

The data distribution p_0 is a Gaussian mixture, so p_t = p_0 * N(0, M_t)
is again a mixture with component covariances Sigma_k + M_t.  Everything
needed by the verification suite is available in closed form: log density,
score, posterior mean, score Hessian, mixed directional derivatives of the
score, and the derivative of the score along a perturbation of M_t.

Component covariances need not commute with M_t, so this module uses dense
symmetric linear algebra throughout; it is meant for small d (<= 64).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .schedule import ScheduleEval
from .subspaces import apply_spectral

Array = np.ndarray

PROB_FLOOR = 1e-300
# Smallest covariance eigenvalue accepted, relative to the largest magnitude
# (at least 1): eigvalsh's own rounding error is of order 1e-16 of it.
PSD_TOL = 1e-12
NOT_POSITIVE_DEFINITE = "noisy covariance Sigma_k + M_t is not positive definite"


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """Mixture sum_k w_k N(mu_k, Sigma_k) with positive weights summing to 1."""

    weights: Array  # (K,)
    means: Array  # (K, d)
    covs: Array  # (K, d, d)

    def __post_init__(self):
        # read-only copies, so nothing keyed by the mixture (the sampler's views) can go stale
        w, mu, cov = (np.array(a, dtype=float) for a in (self.weights, self.means, self.covs))
        if mu.ndim != 2:
            raise ValueError("means must have shape (K, d)")
        k, d = mu.shape
        if w.shape != (k,) or cov.shape != (k, d, d):
            raise ValueError("inconsistent mixture shapes")
        if not all(np.all(np.isfinite(a)) for a in (w, mu, cov)):
            raise ValueError("mixture weights, means and covariances must be finite")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        if np.max(np.abs(cov - np.transpose(cov, (0, 2, 1)))) > 1e-12:
            raise ValueError("covariances must be symmetric")
        evals = np.linalg.eigvalsh(cov)  # (K, d), ascending
        if np.any(evals[:, 0] < -PSD_TOL * max(1.0, np.max(np.abs(evals)))):
            raise ValueError("covariances must be positive semidefinite")
        for name, a in (("weights", w), ("means", mu), ("covs", cov)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def mean(self) -> Array:
        return self.weights @ self.means

    @cached_property
    def _sampling_factors(self) -> Array:
        """Cholesky factors of Sigma_k + 1e-15 I, (K, d, d); formed on first use."""
        return np.linalg.cholesky(self.covs + 1e-15 * np.eye(self.dim))


def single_gaussian(mean, cov) -> GaussianMixture:
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    return GaussianMixture(np.array([1.0]), mean[None, :], cov[None, :, :])


def sample_p0(gm: GaussianMixture, n: int, rng_seed) -> Array:
    """Draw n points from the mixture; deterministic given the seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(rng_seed)
    comps = rng.choice(gm.n_components, size=n, p=gm.weights)
    z = rng.standard_normal((n, gm.dim))
    out = np.empty((n, gm.dim))
    for k, (mu, factor) in enumerate(zip(gm.means, gm._sampling_factors)):
        rows = comps == k  # one component at a time: no per-point (n, d, d) factor stack
        out[rows] = mu + np.einsum("ij,nj->ni", factor, z[rows])
    return out


def perturb(x0: Array, eps: Array, ev: ScheduleEval) -> Array:
    """x_t = x_0 + M_t^{1/2} eps, via the exact spectral square root; `ev` = ms.at(t)."""
    return np.asarray(x0, dtype=float) + apply_spectral(ev.family, ev.sqrt_g, eps)


# ---------------------------------------------------------------------------
# noisy-mixture internals
# ---------------------------------------------------------------------------

def _factor(cov: Array):
    """Log-determinants and inverses of a stack of noisy covariances.

    The batched Cholesky factor C = L L^T gives log det = 2 sum log diag L
    and rejects a matrix that is not positive definite.  The inverse, which
    the Hessian needs, is C^{-1} = X^T X with X = L^{-1} from LAPACK's
    triangular inverse `dtrtri`, one factor at a time (no condition
    estimate).  Each factor is inverted in place in one batched copy of the
    transposed factors: a C-ordered L^T is a Fortran-ordered L, so f2py
    hands LAPACK the buffer itself instead of copying it per call.  The
    copy then holds X^T, and X^T @ X of one array is evaluated as a
    symmetric rank-k product, so the result is exactly symmetric.  SciPy is
    imported on the first call, so importing the package loads numpy only.
    """
    from scipy.linalg.lapack import dtrtri

    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError(NOT_POSITIVE_DEFINITE) from None
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
    inv_t = np.swapaxes(chol, -1, -2).copy()
    for factor_t in inv_t.reshape((-1,) + chol.shape[-2:]):
        factor = factor_t.T  # L, Fortran-ordered
        out, info = dtrtri(factor, lower=1, overwrite_c=1)
        if info != 0:
            raise np.linalg.LinAlgError(NOT_POSITIVE_DEFINITE)
        if out is not factor:  # f2py copied after all: keep its result
            factor[...] = out
    return logdet, inv_t @ np.swapaxes(inv_t, -1, -2)


class _NoisyCovariances:
    """The part of p_t = p_0 * N(0, M_t) that does not depend on x.

    The noisy covariances C_k = Sigma_k + M_t, factored once by `_factor`:
    K of them for a shared t, n·K for per-sample times.  `ev` is the
    schedule at those times.  `log_norm` = d log 2 pi + log det C_k, the
    Gaussian normalizer, is formed once per factorization, so a kept
    slice pays for it once.
    """

    def __init__(self, gm: GaussianMixture, ev: ScheduleEval):
        self.gm = gm
        self.ev = ev
        m_dense = ev.family.dense(ev.g)
        self.shared = m_dense.ndim == 2
        if self.shared:
            # shared M_t: factor the K component covariances once
            logdet, self.inv = _factor(gm.covs + m_dense[None, :, :])
        else:
            logdet, self.inv = _factor(gm.covs[None, :, :, :] + m_dense[:, None, :, :])
        self.log_norm = gm.dim * np.log(2 * np.pi) + logdet


class _NoisyMixture:
    """Per-sample sufficient statistics of p_t = p_0 * N(0, M_t) at points x.

    Also the score field's local jet at (x, t): `value`, `directional`,
    `mixed` and `block_traces` share one factorization, and the Hessian is
    formed at most once.  `cov` holds the factored noisy covariances at
    the points' times.  For a shared t the points are solved one component
    at a time: x - mu_k is written into one reused (n, d) buffer, one GEMM
    per component puts C_k^{-1}(x - mu_k) into `y`, and `vecdot` gives the
    Mahalanobis terms, so forming the jet makes no (K, n, d) array besides
    `y`.  The score and the Hessian are `matmul` contractions over the
    components; sum_k r_k C_k^{-1} is one batched `matmul` over the
    flattened inverses, and at a shared t those broadcast over the points,
    so no (n, K, d, d) array is formed.  `log_z` is formed only when
    `log_density` asks for it.
    """

    def __init__(self, cov: _NoisyCovariances, x: Array):
        gm = cov.gm
        x = np.asarray(x, dtype=float)
        self.scalar_input = x.ndim == 1
        x = np.atleast_2d(x)
        n, d = x.shape
        if d != gm.dim:
            raise ValueError(f"points have dimension {d}, mixture has {gm.dim}")
        inv = cov.inv
        if cov.shared:
            # one (n, d) @ (d, d) product per component, into a (K, n, d) y
            y, maha = np.empty((gm.n_components, n, d)), np.empty((gm.n_components, n))
            diff = np.empty((n, d))
            for k, (mu_k, inv_k) in enumerate(zip(gm.means, inv)):
                np.subtract(x, mu_k, out=diff)
                np.matmul(diff, inv_k, out=y[k])  # inv is exactly symmetric
                np.vecdot(diff, y[k], out=maha[k])
            y, maha = y.transpose(1, 0, 2), maha.T
        else:
            if inv.shape[0] != n:
                raise ValueError("per-sample t must match the batch size")
            diff = x[:, None, :] - gm.means[None, :, :]  # (n, K, d)
            y = np.matmul(inv, diff[..., None])[..., 0]
            maha = np.vecdot(diff, y)
        self.x = x
        self.gm = gm
        # C_k^{-1}: (K, d, d) for a shared t, (n, K, d, d) per sample; both
        # broadcast against (n, K, ...) operands
        self.inv = inv
        self.y = y  # C^{-1}(x - mu), (n, K, d)
        log_w = np.log(np.maximum(gm.weights, PROB_FLOOR))
        # finite, since the weights are floored: the max shift is safe
        log_comp = log_w[None, :] - 0.5 * (cov.log_norm + maha)
        self._shift = log_comp.max(axis=1)
        comp = np.exp(log_comp - self._shift[:, None])
        self._total = comp.sum(axis=1)
        self.resp = comp / self._total[:, None]  # (n, K)

    @cached_property
    def log_z(self) -> Array:
        """log p_t at each point, (n,)."""
        return self._shift + np.log(self._total)

    @property
    def cov_inv(self) -> Array:
        """C_k^{-1} per point, (n, K, d, d); a broadcast view for a shared t."""
        n, k, d = self.y.shape
        return np.broadcast_to(self.inv, (n, k, d, d))

    @cached_property
    def comp_score(self) -> Array:
        """Per-component score s_k = -C_k^{-1}(x - mu_k), shape (n, K, d)."""
        return -self.y

    def _shape(self, arr: Array) -> Array:
        return arr[0] if self.scalar_input else arr

    def log_density(self) -> Array:
        return self._shape(self.log_z)

    @cached_property
    def _score_batch(self) -> Array:
        # sum_k r_k s_k with s_k = -y_k, negated once at (n, d)
        return -np.matmul(self.resp[:, None, :], self.y)[:, 0]

    def score(self) -> Array:
        return self._shape(self._score_batch)

    value = score  # the jet protocol's name for the field value

    @cached_property
    def _hessian_batch(self) -> Array:
        r, s, s_bar = self.resp, self.comp_score, self._score_batch
        n, k, d = s.shape
        h = np.matmul(np.swapaxes(r[..., None] * s, 1, 2), s)  # sum_k r_k s_k s_k^T
        # sum_k r_k C_k^{-1}; a shared t's (1, K, d*d) inverse broadcasts over n uncopied
        h -= np.matmul(r[:, None, :], self.inv.reshape(-1, k, d * d)).reshape(n, d, d)
        h -= s_bar[:, :, None] * s_bar[:, None, :]
        return h

    def hessian(self) -> Array:
        """Hessian of log p_t at each point, shape (..., d, d)."""
        return self._shape(self._hessian_batch)

    def directional(self, v: Array) -> Array:
        """d/ds score(x + s v) at s=0, i.e. Hessian @ v."""
        hess = self._hessian_batch
        v = np.broadcast_to(np.asarray(v, dtype=float), hess.shape[:2])
        return self._shape(np.matmul(hess, v[..., None])[..., 0])

    def mixed(self, u: Array, v: Array) -> Array:
        """d^2/dr ds score(x + r u + s v) at r=s=0 (third log-density derivative).

        `u` and `v` are one tangent pair at the points, each (n, d) or (d,).
        """
        u = np.atleast_2d(np.asarray(u, dtype=float))
        v = np.atleast_2d(np.asarray(v, dtype=float))
        # H_k = -C_k^{-1}: the products with the (possibly broadcast) inverse
        # are negated, never the inverse itself, which would copy the view
        r, s, ci = self.resp, self.comp_score, self.cov_inv
        a = s - self._score_batch[:, None, :]  # s_k - score
        hess = self._hessian_batch
        au = np.einsum("nki,ni->nk", a, u)
        ci_u = np.einsum("nkij,nj->nki", ci, u)
        av = np.einsum("nki,ni->nk", a, v)
        ci_v = np.einsum("nkij,nj->nki", ci, v)
        hess_u = np.einsum("nij,nj->ni", hess, u)
        # <H_k u - Hess u, v> per component
        cross = (-np.einsum("nki,ni->nk", ci_u, v)
                 - np.einsum("ni,ni->n", hess_u, v)[:, None])
        out = np.einsum("nk,nki->ni", r * (au * av + cross), s)
        out -= np.einsum("nk,nki->ni", r * av, ci_u)
        out -= np.einsum("nk,nki->ni", r * au, ci_v)
        return self._shape(out)

    def block_traces(self, family) -> Array:
        """T_j = sum_{i in block j} d_r d_s score(x + r q_i + s q_i), shape (J, n, d).

        The q_i are the columns of the family's orthonormal basis Q.  Summing
        `mixed` over a block in closed form, with a_k = s_k - score,
        H_k = -C_k^{-1}, c_kj = a_k^T P_j a_k + tr(P_j H_k) and
        c_bar_j = sum_k r_k c_kj (which is tr(P_j Hess)), gives

            T_j = sum_k r_k (c_kj - c_bar_j) s_k + 2 sum_k r_k H_k P_j a_k.

        Both traces and products come from G = C^{-1} Q: tr(P_j C_k^{-1}) is
        the block sum of q_i . G[:, i], and C_k^{-1} P_j a_k is G applied to
        the coordinates of a_k in block j.
        """
        q = family.basis
        onehot = np.eye(family.n_subspaces)[family.labels]  # (d, J)
        r, s = self.resp, self.comp_score
        gq = self.inv @ q  # column i is C_k^{-1} q_i
        aq = (s - self._score_batch[:, None, :]) @ q  # a_k in the family basis, (n, K, d)
        c = aq**2 @ onehot - np.einsum("di,...di->...i", q, gq) @ onehot  # (n, K, J)
        c -= np.einsum("nk,nkj->nj", r, c)[:, None, :]
        inv_pa = gq @ (aq[..., None] * onehot)  # C_k^{-1} P_j a_k, (n, K, d, J)
        out = np.einsum("nkj,nki->jni", r[..., None] * c, s)
        out -= 2.0 * np.einsum("nk,nkij->jni", r, inv_pa)
        return out[:, 0] if self.scalar_input else out

    def posterior_mean(self) -> Array:
        """E[x_0 | x_t = x] by joint-Gaussian conditioning per component."""
        cond = np.einsum("kij,nkj->nki", self.gm.covs, self.y)
        mean_k = self.gm.means[None, :, :] + cond
        return self._shape(np.einsum("nk,nki->ni", self.resp, mean_k))

    def dtheta_score(self, direction: Array) -> Array:
        """d/d eps score at M_t + eps D for a symmetric matrix direction D."""
        d_mat = np.asarray(direction, dtype=float)
        cd = np.einsum("nkij,jl->nkil", self.cov_inv, d_mat)  # C^{-1} D
        trace = np.trace(cd, axis1=2, axis2=3)  # tr(C^{-1} D)
        quad = np.einsum("nki,ij,nkj->nk", self.y, d_mat, self.y)
        a = 0.5 * (quad - trace)  # d/d eps log N_k
        a_bar = np.einsum("nk,nk->n", self.resp, a)
        ds = -np.einsum("nkil,nkl->nki", cd, self.comp_score)  # -C^{-1} D s_k
        out = np.einsum("nk,nk,nki->ni", self.resp, a - a_bar[:, None], self.comp_score)
        out += np.einsum("nk,nki->ni", self.resp, ds)
        return self._shape(out)


# ---------------------------------------------------------------------------
# public oracle surface
# ---------------------------------------------------------------------------

def _noisy(gm, x, ms, t):
    return _NoisyMixture(_NoisyCovariances(gm, ms.at(t)), x)


def log_density(gm, x, ms, t):
    return _noisy(gm, x, ms, t).log_density()


def score(gm, x, ms, t):
    """grad_x log p_t(x); closed form with log-sum-exp stabilized responsibilities."""
    return _noisy(gm, x, ms, t).score()


def posterior_mean(gm, x, ms, t):
    """E[x_0 | x_t = x]; satisfies score = M_t^{-1}(posterior_mean - x)."""
    return _noisy(gm, x, ms, t).posterior_mean()


def score_hessian(gm, x, ms, t):
    return _noisy(gm, x, ms, t).hessian()


def score_directional(gm, x, ms, t, v):
    """First directional derivative of the score along v."""
    return _noisy(gm, x, ms, t).directional(v)


def score_mixed_directional(gm, x, ms, t, u, v):
    """Mixed second directional derivative of the score along (u, v)."""
    return _noisy(gm, x, ms, t).mixed(u, v)


def dtheta_score_direction(gm, x, ms, t, direction):
    """Derivative of the score when M_t is perturbed along a dense matrix D."""
    return _noisy(gm, x, ms, t).dtheta_score(direction)


def dtheta_score_oracle(gm, x, ms, t, theta_index: int):
    """Analytic d score / d theta_j, NOT via the plug-in estimator.

    Differentiates the closed-form mixture score in the matrix direction
    D = d M_t / d theta_j.  Reference value for estimator validation.
    """
    jac = ms.at(t).jac  # (J, P)
    direction = ms.family.dense(jac[:, theta_index])
    return dtheta_score_direction(gm, x, ms, t, direction)


def posterior_sample(gm, x, ms, t, rng):
    """Draw x_0 ~ p(x_0 | x_t = x); used by Monte-Carlo identity checks."""
    noisy = _noisy(gm, x, ms, t)
    x2 = noisy.x
    n, d = x2.shape
    rng = np.random.default_rng(rng)
    cum = np.cumsum(noisy.resp, axis=1)
    picks = np.argmax(cum > rng.uniform(size=(n, 1)), axis=1)
    out = np.empty((n, d))
    z = rng.standard_normal((n, d))
    for k in np.unique(picks):
        idx = np.nonzero(picks == k)[0]
        cov_k = gm.covs[k]
        c_inv = noisy.cov_inv[idx, k]  # (m, d, d)
        gain = np.einsum("ij,mjk->mik", cov_k, c_inv)
        mean = gm.means[k] + np.einsum("mij,mj->mi", gain, x2[idx] - gm.means[k])
        cc = cov_k[None] - np.einsum("mij,jk->mik", gain, cov_k)
        cc = 0.5 * (cc + np.transpose(cc, (0, 2, 1))) + 1e-14 * np.eye(d)
        chol = np.linalg.cholesky(cc)
        out[idx] = mean + np.einsum("mij,mj->mi", chol, z[idx])
    return noisy._shape(out)
