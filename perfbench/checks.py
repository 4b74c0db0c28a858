"""Output checks.  Each returns ``(name, passed, detail)``; none is timed.

They take outputs as plain arrays so the benchmark's tests can feed them
deliberately wrong values.
"""

import numpy as np

from anisodiff.sampler import FLAT_INCREMENT_TOL, time_grid
from anisodiff.schedule import eval_M
from anisodiff.training import gaussian_w2

# Per-coordinate relative tolerance of acceptance criterion 4.
GRADIENT_RTOL = 2e-3
# Moment W2 of the pooled samples, as a share of the mixture's RMS radius
# sqrt(trace Cov).  Correct Heun-32 samples of the oracle-sample workload
# give 0.07-0.21 over seeds 0-40, so this catches gross degradation only.
W2_RTOL = 0.3
DENSE_RTOL = 1e-9


def finite(name, values):
    values = np.asarray(values, dtype=float)
    bad = int(np.count_nonzero(~np.isfinite(values)))
    return name, bad == 0, f"{bad} non-finite of {values.size}"


def equal(name, got, want):
    return name, got == want, f"got {got}, want {want}"


def gradient_matches_fd(grad, fd, rtol=GRADIENT_RTOL):
    """Outer gradient against central finite differences, per coordinate."""
    grad, fd = np.asarray(grad, dtype=float), np.asarray(fd, dtype=float)
    rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-12)
    return ("outer_gradient vs fd_outer_gradient", bool(np.all(rel < rtol)),
            f"max rel {rel.max():.2e} < {rtol:.0e} over {rel.size} coordinates")


def mixture_moments(gm):
    mean = gm.mean
    second = np.einsum("k,kij->ij", gm.weights, gm.covs + np.einsum("ki,kj->kij", gm.means, gm.means))
    return mean, second - np.outer(mean, mean)


def moment_w2(samples, gm):
    """W2 between the Gaussian fitted to `samples` and the mixture's exact moments."""
    mean, cov = mixture_moments(gm)
    return gaussian_w2(samples.mean(axis=0), np.cov(samples, rowvar=False), mean, cov)


def sample_w2_matches(samples, gm, rtol=W2_RTOL):
    """Moment W2 against the exact moments, relative to the mixture's RMS radius."""
    w2 = moment_w2(samples, gm)
    radius = float(np.sqrt(np.trace(mixture_moments(gm)[1])))
    return ("sample_w2 vs exact mixture moments", bool(w2 <= rtol * radius),
            f"sample_w2 {w2:.4f} <= {rtol} x radius {radius:.4f}")


def dense_heun_reference(ms, field, cfg, x_init):
    """Endpoint-Heun trajectory built from dense `ProjectorFamily.dense` matrices.

    Mirrors the sampler's update, including the reuse of the last
    secondary evaluation as the final step's base evaluation, but applies
    every spectral scaling as a dense d x d matrix.
    """
    if cfg.solver != "heun" or cfg.secondary != "endpoint":
        raise ValueError("the dense reference covers endpoint Heun only")
    family = ms.family
    units = np.eye(family.n_subspaces)
    projectors = [family.dense(units[j]) for j in range(family.n_subspaces)]

    def matrix(values):
        return sum(v * p for v, p in zip(values, projectors))

    def sqrt_g(t):
        return np.sqrt(eval_M(ms, t)[0])

    grid = time_grid(ms, cfg)
    x = np.array(x_init, dtype=float)
    carried = None
    for k in range(cfg.steps, 0, -1):
        u_k, u_prev = sqrt_g(grid[k]), sqrt_g(grid[k - 1])
        du = u_k - u_prev
        f_k = carried if k == 1 and carried is not None else field(x, grid[k])
        f_hat = field(x + f_k @ matrix(du), grid[k - 1])
        gap = -du
        coef = np.where(np.abs(gap) < FLAT_INCREMENT_TOL, 0.0,
                        -0.5 * du**2 / np.where(gap == 0, 1.0, gap))
        x = x + f_k @ matrix(du) + (f_hat - f_k) @ matrix(coef)
        if k == 2:
            carried = f_hat
    return x


def matches_dense_reference(got, want, rtol=DENSE_RTOL):
    err = float(np.max(np.abs(np.asarray(got) - want)) / np.max(np.abs(want)))
    return ("trajectory vs dense-matrix reference", err < rtol,
            f"max rel {err:.2e} < {rtol:.0e}")
