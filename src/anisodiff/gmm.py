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
from scipy.special import logsumexp

from .schedule import MatrixSchedule, eval_M
from .subspaces import apply_spectral

Array = np.ndarray

PROB_FLOOR = 1e-300


@dataclass(frozen=True)
class GaussianMixture:
    """Mixture sum_k w_k N(mu_k, Sigma_k) with positive weights summing to 1."""

    weights: Array  # (K,)
    means: Array  # (K, d)
    covs: Array  # (K, d, d)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        mu = np.asarray(self.means, dtype=float)
        cov = np.asarray(self.covs, dtype=float)
        if mu.ndim != 2:
            raise ValueError("means must have shape (K, d)")
        k, d = mu.shape
        if w.shape != (k,) or cov.shape != (k, d, d):
            raise ValueError("inconsistent mixture shapes")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        if np.max(np.abs(cov - np.transpose(cov, (0, 2, 1)))) > 1e-12:
            raise ValueError("covariances must be symmetric")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "covs", cov)

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def mean(self) -> Array:
        return self.weights @ self.means


def single_gaussian(mean, cov) -> GaussianMixture:
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    return GaussianMixture(np.array([1.0]), mean[None, :], cov[None, :, :])


def sample_p0(gm: GaussianMixture, n: int, rng_seed) -> Array:
    """Draw n points from the mixture; deterministic given the seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    comps = rng.choice(gm.n_components, size=n, p=gm.weights)
    z = rng.standard_normal((n, gm.dim))
    chols = np.linalg.cholesky(gm.covs + 1e-15 * np.eye(gm.dim))
    return gm.means[comps] + np.einsum("nij,nj->ni", chols[comps], z)


def perturb(x0: Array, eps: Array, ms: MatrixSchedule, t, class_label=None) -> Array:
    """x_t = x_0 + M_t^{1/2} eps, via the exact spectral square root."""
    g, _ = eval_M(ms, t, class_label)
    return np.asarray(x0, dtype=float) + apply_spectral(ms.family, np.sqrt(g), eps)


# ---------------------------------------------------------------------------
# noisy-mixture internals
# ---------------------------------------------------------------------------

def _dense_M(ms: MatrixSchedule, t, class_label=None) -> Array:
    """Dense M_t, shape (d, d) for scalar t or (n, d, d) for per-sample t."""
    return ms.family.dense(eval_M(ms, t, class_label)[0])


class _NoisyMixture:
    """Per-sample sufficient statistics of p_t = p_0 * N(0, M_t) at points x.

    Also the score field's local jet at (x, t): `value`, `directional` and
    `mixed` share one factorization, and the Hessian is formed at most once.
    """

    def __init__(self, gm: GaussianMixture, x: Array, ms: MatrixSchedule, t, class_label=None):
        x = np.asarray(x, dtype=float)
        self.scalar_input = x.ndim == 1
        x = np.atleast_2d(x)
        n, d = x.shape
        if d != gm.dim:
            raise ValueError(f"points have dimension {d}, mixture has {gm.dim}")
        m_dense = _dense_M(ms, t, class_label)
        if m_dense.ndim == 2:
            # shared M_t: factor the K component covariances once
            small = gm.covs + m_dense[None, :, :]
            sign, logdet_small = np.linalg.slogdet(small)
            if np.any(sign <= 0):
                raise np.linalg.LinAlgError("singular noisy covariance Sigma_k + M_t")
            inv_small = np.linalg.inv(small)
            cov = np.broadcast_to(small[None], (n, gm.n_components, d, d))
            cov_inv = np.broadcast_to(inv_small[None], (n, gm.n_components, d, d))
            logdet = np.broadcast_to(logdet_small[None], (n, gm.n_components))
        else:
            if m_dense.shape[0] != n:
                raise ValueError("per-sample t must match the batch size")
            cov = gm.covs[None, :, :, :] + m_dense[:, None, :, :]
            sign, logdet = np.linalg.slogdet(cov)
            if np.any(sign <= 0):
                raise np.linalg.LinAlgError("singular noisy covariance Sigma_k + M_t")
            cov_inv = np.linalg.inv(cov)
        self.x = x
        self.gm = gm
        self.cov = cov
        self.cov_inv = cov_inv
        diff = x[:, None, :] - gm.means[None, :, :]  # (n, K, d)
        self.y = np.einsum("nkij,nkj->nki", self.cov_inv, diff)  # C^{-1}(x - mu)
        maha = np.einsum("nki,nki->nk", diff, self.y)
        log_w = np.log(np.maximum(gm.weights, PROB_FLOOR))
        self.log_comp = log_w[None, :] - 0.5 * (d * np.log(2 * np.pi) + logdet + maha)
        self.log_z = logsumexp(self.log_comp, axis=1)
        self.resp = np.exp(self.log_comp - self.log_z[:, None])  # (n, K)

    @property
    def comp_score(self) -> Array:
        """Per-component score s_k = -C_k^{-1}(x - mu_k), shape (n, K, d)."""
        return -self.y

    def _shape(self, arr: Array) -> Array:
        return arr[0] if self.scalar_input else arr

    def log_density(self) -> Array:
        return self._shape(self.log_z)

    def score(self) -> Array:
        return self._shape(np.einsum("nk,nki->ni", self.resp, self.comp_score))

    value = score  # the jet protocol's name for the field value

    @cached_property
    def _hessian_batch(self) -> Array:
        s = self.comp_score
        s_bar = np.einsum("nk,nki->ni", self.resp, s)
        outer = np.einsum("nk,nki,nkj->nij", self.resp, s, s)
        h = -np.einsum("nk,nkij->nij", self.resp, self.cov_inv) + outer
        h -= np.einsum("ni,nj->nij", s_bar, s_bar)
        return h

    def hessian(self) -> Array:
        """Hessian of log p_t at each point, shape (..., d, d)."""
        return self._shape(self._hessian_batch)

    def directional(self, v: Array) -> Array:
        """d/ds score(x + s v) at s=0, i.e. Hessian @ v."""
        v = np.atleast_2d(np.asarray(v, dtype=float))
        return self._shape(np.einsum("nij,nj->ni", self._hessian_batch, v))

    def mixed(self, u: Array, v: Array) -> Array:
        """d^2/dr ds score(x + r u + s v) at r=s=0 (third log-density derivative)."""
        u = np.atleast_2d(np.asarray(u, dtype=float))
        v = np.atleast_2d(np.asarray(v, dtype=float))
        r, s, hk = self.resp, self.comp_score, -self.cov_inv
        s_bar = np.einsum("nk,nki->ni", r, s)
        a = s - s_bar[:, None, :]  # s_k - score
        hess = self._hessian_batch
        au = np.einsum("nki,ni->nk", a, u)
        av = np.einsum("nki,ni->nk", a, v)
        hk_u = np.einsum("nkij,nj->nki", hk, u)
        hk_v = np.einsum("nkij,nj->nki", hk, v)
        hess_u = np.einsum("nij,nj->ni", hess, u)
        # <H_k u - Hess u, v> per component
        cross = np.einsum("nki,ni->nk", hk_u, v) - np.einsum("ni,ni->n", hess_u, v)[:, None]
        out = np.einsum("nk,nk,nk,nki->ni", r, au, av, s)
        out += np.einsum("nk,nk,nki->ni", r, cross, s)
        out += np.einsum("nk,nk,nki->ni", r, av, hk_u)
        out += np.einsum("nk,nk,nki->ni", r, au, hk_v)
        return self._shape(out)

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

def log_density(gm, x, ms, t, class_label=None):
    return _NoisyMixture(gm, x, ms, t, class_label).log_density()


def score(gm, x, ms, t, class_label=None):
    """grad_x log p_t(x); closed form with log-sum-exp stabilized responsibilities."""
    return _NoisyMixture(gm, x, ms, t, class_label).score()


def posterior_mean(gm, x, ms, t, class_label=None):
    """E[x_0 | x_t = x]; satisfies score = M_t^{-1}(posterior_mean - x)."""
    return _NoisyMixture(gm, x, ms, t, class_label).posterior_mean()


def score_hessian(gm, x, ms, t, class_label=None):
    return _NoisyMixture(gm, x, ms, t, class_label).hessian()


def score_directional(gm, x, ms, t, v, class_label=None):
    """First directional derivative of the score along v."""
    return _NoisyMixture(gm, x, ms, t, class_label).directional(v)


def score_mixed_directional(gm, x, ms, t, u, v, class_label=None):
    """Mixed second directional derivative of the score along (u, v)."""
    return _NoisyMixture(gm, x, ms, t, class_label).mixed(u, v)


def dtheta_score_direction(gm, x, ms, t, direction, class_label=None):
    """Derivative of the score when M_t is perturbed along a dense matrix D."""
    return _NoisyMixture(gm, x, ms, t, class_label).dtheta_score(direction)


def dtheta_score_oracle(gm, x, ms, t, theta_index: int, class_label=None):
    """Analytic d score / d theta_j, NOT via the plug-in estimator.

    Differentiates the closed-form mixture score in the matrix direction
    D = d M_t / d theta_j.  Reference value for estimator validation.
    """
    from .schedule import eval_M_dtheta

    jac = eval_M_dtheta(ms, t, class_label)  # (J, P)
    direction = ms.family.dense(jac[:, theta_index])
    return dtheta_score_direction(gm, x, ms, t, direction, class_label)


def dtheta_score_fd(gm, x, ms, t, theta_index: int, class_label=None, h: float = 1e-6):
    """Central finite difference of the score over theta_j (fallback oracle)."""
    theta = ms.theta_vector(class_label)
    up, dn = theta.copy(), theta.copy()
    up[theta_index] += h
    dn[theta_index] -= h
    s_up = score(gm, x, ms.with_theta_vector(up, class_label), t, class_label)
    s_dn = score(gm, x, ms.with_theta_vector(dn, class_label), t, class_label)
    return (s_up - s_dn) / (2 * h)


def posterior_sample(gm, x, ms, t, rng, class_label=None):
    """Draw x_0 ~ p(x_0 | x_t = x); used by Monte-Carlo identity checks."""
    noisy = _NoisyMixture(gm, x, ms, t, class_label)
    x2 = noisy.x
    n, d = x2.shape
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
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
