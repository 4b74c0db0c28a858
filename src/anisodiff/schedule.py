"""Scalar knot schedules and the matrix trajectory M_t = sum_j g_j(t) P_j.

A knot schedule is piecewise log-linear between fixed time nodes.  The
trainable parameters are mapped through softplus to strictly positive
log-space increments, then rescaled so the endpoints are pinned exactly:
g(0) = g_floor and g(T) = T.  Monotonicity is therefore structural and
no projection step is ever needed during training.
"""

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .subspaces import ProjectorFamily, apply_spectral, isotropic_family

Array = np.ndarray

DEFAULT_FLOOR = 1e-4
DEFAULT_T_FLOOR_FRACTION = 1e-4
DEFAULT_KNOTS = 16


def softplus(x):
    x = np.asarray(x, dtype=float)
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


def sigmoid(x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def inverse_softplus(s):
    """theta with softplus(theta) = s, for s > 0."""
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0):
        raise ValueError("softplus inverse requires positive values")
    return np.log(np.expm1(s))


@dataclass(frozen=True)
class KnotSchedule:
    """Monotone scalar schedule g(t) pinned to g(0)=floor and g(T)=horizon.

    Parameters
    ----------
    theta : array of K-1 unconstrained reals
    nodes : array of K strictly increasing times, nodes[0]=0, nodes[-1]=horizon
    floor : g(0), strictly positive
    horizon : total time T (also the terminal variance, g(T)=T)
    """

    theta: Array
    nodes: Array
    floor: float = DEFAULT_FLOOR
    horizon: float = 1.0

    def __post_init__(self):
        # a read-only copy, so the cached log-nodes cannot go stale
        theta = np.array(self.theta, dtype=float, ndmin=1)
        theta.flags.writeable = False
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("need at least two nodes")
        if theta.shape != (nodes.size - 1,):
            raise ValueError(
                f"theta must have {nodes.size - 1} entries, got {theta.shape}"
            )
        if nodes[0] != 0.0 or not np.isclose(nodes[-1], self.horizon):
            raise ValueError("nodes must start at 0 and end at the horizon")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if not 0 < self.floor < self.horizon:
            raise ValueError("floor must satisfy 0 < floor < horizon")

    @property
    def n_params(self) -> int:
        return self.theta.size

    def with_theta(self, theta: Array) -> "KnotSchedule":
        return replace(self, theta=np.asarray(theta, dtype=float))

    # -- log-node machinery (cached per instance; theta is read-only) -------

    @cached_property
    def _log_nodes(self):
        """Node log-values ell_j and the increment scale alpha."""
        s = softplus(self.theta)
        gap = np.log(self.horizon) - np.log(self.floor)
        alpha = gap / np.sum(s)
        ell = np.concatenate(([np.log(self.floor)], np.log(self.floor) + alpha * np.cumsum(s)))
        return ell, alpha, s

    @cached_property
    def _log_node_grads(self):
        """d ell_j / d theta_m, shape (K, K-1); endpoints have zero rows."""
        s = softplus(self.theta)
        sp = sigmoid(self.theta)  # derivative of softplus
        total = np.sum(s)
        gap = np.log(self.horizon) - np.log(self.floor)
        cum = np.cumsum(s)  # S_j for j = 1..K-1
        k = self.nodes.size
        grads = np.zeros((k, self.n_params))
        for j in range(1, k):
            sj = cum[j - 1]
            mask = np.arange(self.n_params) < j
            grads[j] = gap * sp * (mask * total - sj) / total**2
        return grads

    def _locate(self, t: Array):
        """Enclosing interval index j (interval [nodes[j-1], nodes[j]])."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0) or np.any(t > self.horizon * (1 + 1e-12)):
            raise ValueError("t outside [0, horizon]")
        # right interval at interior nodes: side='right' puts t == nodes[j]
        # into interval j+1, except the terminal node which stays in the last
        idx = np.searchsorted(self.nodes, t, side="right")
        return np.clip(idx, 1, self.nodes.size - 1)

    # -- evaluation ----------------------------------------------------------

    def eval(self, t):
        """Return (g(t), dg/dt) for scalar or array t."""
        t_arr = np.asarray(t, dtype=float)
        scalar = t_arr.ndim == 0
        t_arr = np.atleast_1d(t_arr)
        ell, _, _ = self._log_nodes
        j = self._locate(t_arr)
        left, right = self.nodes[j - 1], self.nodes[j]
        width = right - left
        p = (t_arr - left) / width
        slope = (ell[j] - ell[j - 1]) / width
        g = np.exp((1 - p) * ell[j - 1] + p * ell[j])
        # pin endpoints exactly (exp(log x) can be off by an ulp)
        g[t_arr == 0.0] = self.floor
        g[t_arr == self.horizon] = self.horizon
        dg = g * slope
        if scalar:
            return float(g[0]), float(dg[0])
        return g, dg

    def eval_dtheta(self, t):
        """Gradient of g(t) w.r.t. theta; shape (..., n_params)."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        scalar = np.asarray(t, dtype=float).ndim == 0
        ell, _, _ = self._log_nodes
        grads = self._log_node_grads
        j = self._locate(t_arr)
        left, right = self.nodes[j - 1], self.nodes[j]
        p = ((t_arr - left) / (right - left))[:, None]
        g = np.exp((1 - p[:, 0]) * ell[j - 1] + p[:, 0] * ell[j])
        dlog = (1 - p) * grads[j - 1] + p * grads[j]
        out = g[:, None] * dlog
        return out[0] if scalar else out

    def eval_dt_dtheta(self, t):
        """Gradient of dg/dt w.r.t. theta; shape (..., n_params)."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        scalar = np.asarray(t, dtype=float).ndim == 0
        ell, _, _ = self._log_nodes
        grads = self._log_node_grads
        j = self._locate(t_arr)
        left, right = self.nodes[j - 1], self.nodes[j]
        width = right - left
        p = (t_arr - left) / width
        g = np.exp((1 - p) * ell[j - 1] + p * ell[j])
        slope = (ell[j] - ell[j - 1]) / width
        dg_dtheta = g[:, None] * ((1 - p)[:, None] * grads[j - 1] + p[:, None] * grads[j])
        dslope = (grads[j] - grads[j - 1]) / width[:, None]
        out = dg_dtheta * slope[:, None] + g[:, None] * dslope
        return out[0] if scalar else out


def uniform_nodes(horizon: float, n_knots: int = DEFAULT_KNOTS) -> Array:
    return np.linspace(0.0, horizon, n_knots)


def log_linear_schedule(
    horizon: float,
    floor: float = DEFAULT_FLOOR,
    n_knots: int = DEFAULT_KNOTS,
) -> KnotSchedule:
    """Neutral schedule: equal increments, i.e. geometric growth of g."""
    return KnotSchedule(
        theta=np.zeros(n_knots - 1),
        nodes=uniform_nodes(horizon, n_knots),
        floor=floor,
        horizon=horizon,
    )


# ---------------------------------------------------------------------------
# Matrix schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixSchedule:
    """Spectral trajectory M_t = sum_j g_j(t) P_j, optionally class-conditional.

    The per-subspace schedules share the family's eigenvectors, so M_t,
    its time derivative and its theta derivatives all commute by
    construction.  `class_table` maps class labels to per-subspace
    schedule lists; when present, every evaluation must name a class.
    """

    family: ProjectorFamily
    per_subspace: tuple
    class_table: dict | None = None
    t_floor_fraction: float = DEFAULT_T_FLOOR_FRACTION

    def __post_init__(self):
        per = tuple(self.per_subspace)
        object.__setattr__(self, "per_subspace", per)
        if len(per) != self.family.n_subspaces:
            raise ValueError("need one scalar schedule per subspace")
        horizons = {s.horizon for s in per}
        if self.class_table is not None:
            table = {k: tuple(v) for k, v in self.class_table.items()}
            object.__setattr__(self, "class_table", table)
            for schedules in table.values():
                if len(schedules) != self.family.n_subspaces:
                    raise ValueError("class table rows must match the family size")
                horizons |= {s.horizon for s in schedules}
        if len(horizons) != 1:
            raise ValueError("all subspace schedules must share one horizon")

    @property
    def horizon(self) -> float:
        return self.per_subspace[0].horizon

    @property
    def t_min(self) -> float:
        return self.t_floor_fraction * self.horizon

    @property
    def n_subspaces(self) -> int:
        return self.family.n_subspaces

    def schedules_for(self, class_label=None) -> tuple:
        if self.class_table is None:
            if class_label is not None:
                raise KeyError("schedule is not class-conditional")
            return self.per_subspace
        if class_label is None:
            raise KeyError("class-conditional schedule requires a class label")
        if class_label not in self.class_table:
            raise KeyError(f"unknown class {class_label!r}")
        return self.class_table[class_label]

    # -- flat parameter vector (per class) -----------------------------------

    def theta_vector(self, class_label=None) -> Array:
        return np.concatenate([s.theta for s in self.schedules_for(class_label)])

    def param_slices(self, class_label=None):
        """Per-subspace slices into the flat theta vector."""
        slices, start = [], 0
        for s in self.schedules_for(class_label):
            slices.append(slice(start, start + s.n_params))
            start += s.n_params
        return slices

    @property
    def n_params(self) -> int:
        return sum(s.n_params for s in self.per_subspace)

    def with_theta_vector(self, theta: Array, class_label=None) -> "MatrixSchedule":
        theta = np.asarray(theta, dtype=float)
        schedules = list(self.schedules_for(class_label))
        for i, sl in enumerate(self.param_slices(class_label)):
            schedules[i] = schedules[i].with_theta(theta[sl])
        if self.class_table is None:
            return replace(self, per_subspace=tuple(schedules))
        table = dict(self.class_table)
        table[class_label] = tuple(schedules)
        return replace(self, class_table=table)


def eval_M(ms: MatrixSchedule, t, class_label=None):
    """Per-subspace values (g_j(t), dg_j/dt); each of shape (..., J)."""
    schedules = ms.schedules_for(class_label)
    pairs = [s.eval(t) for s in schedules]
    g = np.stack([np.atleast_1d(p[0]) for p in pairs], axis=-1)
    dg = np.stack([np.atleast_1d(p[1]) for p in pairs], axis=-1)
    if np.asarray(t).ndim == 0:
        return g[0], dg[0]
    return g, dg


def eval_M_dtheta(ms: MatrixSchedule, t, class_label=None):
    """Jacobian d g_j / d theta_p, shape (..., J, P); block diagonal over j."""
    schedules = ms.schedules_for(class_label)
    slices = ms.param_slices(class_label)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    total = sum(s.n_params for s in schedules)
    out = np.zeros((t_arr.size, len(schedules), total))
    for j, (s, sl) in enumerate(zip(schedules, slices)):
        out[:, j, sl] = s.eval_dtheta(t_arr)
    if np.asarray(t).ndim == 0:
        return out[0]
    return out


def eval_M_dt_dtheta(ms: MatrixSchedule, t, class_label=None):
    """Jacobian d (dg_j/dt) / d theta_p, shape (..., J, P)."""
    schedules = ms.schedules_for(class_label)
    slices = ms.param_slices(class_label)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    total = sum(s.n_params for s in schedules)
    out = np.zeros((t_arr.size, len(schedules), total))
    for j, (s, sl) in enumerate(zip(schedules, slices)):
        out[:, j, sl] = s.eval_dt_dtheta(t_arr)
    if np.asarray(t).ndim == 0:
        return out[0]
    return out


def matrix_function_theta_derivative(ms, t, f_prime, class_label=None):
    """Spectral coefficients of d f(M_t) / d theta = f'(g_j) dg_j/dtheta P_j.

    Valid because the family is spectral with shared eigenvectors.
    `f_prime` maps per-subspace values g_j to f'(g_j).
    """
    g, _ = eval_M(ms, t, class_label)
    jac = eval_M_dtheta(ms, t, class_label)
    fp = np.asarray(f_prime(g), dtype=float)
    if np.any(~np.isfinite(fp)):
        raise ValueError("f' is singular at a schedule value")
    return fp[..., None] * jac


def apply_M(ms: MatrixSchedule, t, x, power: float = 1.0, class_label=None):
    """Spectral application of M_t^power to x (power -1, +-1/2, etc.)."""
    g, _ = eval_M(ms, t, class_label)
    return apply_spectral(ms.family, g**power, x)


def isotropic_matrix_schedule(
    d: int,
    horizon: float,
    floor: float = DEFAULT_FLOOR,
    n_knots: int = DEFAULT_KNOTS,
) -> MatrixSchedule:
    fam = isotropic_family(d)
    return MatrixSchedule(fam, (log_linear_schedule(horizon, floor, n_knots),))


def matrix_schedule_for_family(
    family: ProjectorFamily,
    horizon: float,
    floor: float = DEFAULT_FLOOR,
    n_knots: int = DEFAULT_KNOTS,
) -> MatrixSchedule:
    per = tuple(
        log_linear_schedule(horizon, floor, n_knots)
        for _ in range(family.n_subspaces)
    )
    return MatrixSchedule(family, per)


# ---------------------------------------------------------------------------
# Weight-to-schedule construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TabulatedSchedule:
    """Monotone schedule tabulated on a grid, from a target weight profile.

    Built by accumulating Phi(x) = int_0^x ds / ((1+s) w(s)) with the
    composite trapezoid rule, setting c = Phi(T)/T, and inverting
    g(t) = Phi^{-1}(c t) by monotone interpolation.  The derivative has
    the closed form dg/dt = c (1 + g) w(g).
    """

    grid: Array  # x values in [0, T]
    phi: Array  # Phi(grid)
    c: float
    horizon: float
    weight_fn: object = field(compare=False)

    def eval(self, t):
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0) or np.any(t_arr > self.horizon * (1 + 1e-12)):
            raise ValueError("t outside [0, horizon]")
        g = np.interp(self.c * t_arr, self.phi, self.grid)
        dg = self.c * (1.0 + g) * self.weight_fn(g)
        return g, dg


def fit_knot_schedule(
    g_fn,
    horizon: float,
    floor: float = DEFAULT_FLOOR,
    n_knots: int = DEFAULT_KNOTS,
) -> KnotSchedule:
    """Project a monotone target curve g(t) onto the knot family.

    Node values are floored and re-pinned at the endpoints; the knot
    increments then reproduce the curve's log-node values exactly.
    """
    nodes = uniform_nodes(horizon, n_knots)
    g_nodes = np.asarray(g_fn(nodes), dtype=float)
    g_nodes = np.maximum(g_nodes, floor)
    g_nodes[0] = floor
    g_nodes[-1] = horizon
    inc = np.diff(np.log(g_nodes))
    if np.any(inc <= 0):
        raise ValueError("target curve is not increasing after flooring")
    # alpha renormalizes, so any positive rescaling of the increments works;
    # scale to mean 1 to keep theta well inside softplus's linear range
    s = inc * (n_knots - 1) / (np.log(horizon) - np.log(floor))
    return KnotSchedule(inverse_softplus(s), nodes, floor, horizon)


def constant_weight_schedule(
    horizon: float,
    floor: float = DEFAULT_FLOOR,
    n_knots: int = DEFAULT_KNOTS,
) -> KnotSchedule:
    """Knot schedule tracking g(t) = (1+T)^(t/T) - 1, the curve whose
    squared-speed weight profile is constant in t (uniform supervision
    across the horizon)."""
    return fit_knot_schedule(
        lambda t: (1.0 + horizon) ** (np.asarray(t, dtype=float) / horizon) - 1.0,
        horizon,
        floor,
        n_knots,
    )


def sinh_squared_schedule(
    horizon: float,
    floor: float = DEFAULT_FLOOR,
    n_knots: int = DEFAULT_KNOTS,
) -> KnotSchedule:
    """Knot schedule tracking g(t) = sinh^2(a + b t).

    This is the unique monotone curve (up to endpoint pinning) whose
    flow-form loss weight dg/dt / (sqrt(1+g) sqrt(g)) is constant in t,
    so uniform-t sampling supervises every noise level equally.
    """
    a = np.arcsinh(np.sqrt(floor))
    b = (np.arcsinh(np.sqrt(horizon)) - a) / horizon
    return fit_knot_schedule(
        lambda t: np.sinh(a + b * np.asarray(t, dtype=float)) ** 2,
        horizon,
        floor,
        n_knots,
    )


def weight_to_schedule(w, horizon: float, quad_points: int = 100_001) -> TabulatedSchedule:
    """Construct the schedule whose squared-speed weight profile matches w.

    For any positive weight w(t) there is a monotone g with g(0)=0,
    g(T)=T and a constant c such that

        int_0^T (dg/dt)^2 / (1+g) * h(g) dt  =  c * int_0^T w(t) h(t) dt

    for every h.  Returns the tabulated g together with c.
    """
    grid = np.linspace(0.0, horizon, quad_points)
    wvals = np.asarray(w(grid), dtype=float)
    if wvals.shape != grid.shape:
        wvals = np.broadcast_to(wvals, grid.shape).astype(float)
    if np.any(wvals <= 0):
        raise ValueError("weight function must be strictly positive on [0, T]")
    integrand = 1.0 / ((1.0 + grid) * wvals)
    steps = np.diff(grid) * 0.5 * (integrand[:-1] + integrand[1:])
    phi = np.concatenate(([0.0], np.cumsum(steps)))
    c = phi[-1] / horizon
    return TabulatedSchedule(grid=grid, phi=phi, c=float(c), horizon=horizon, weight_fn=w)
