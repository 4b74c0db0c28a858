"""Scalar knot schedules and the matrix trajectory M_t = sum_j g_j(t) P_j.

A knot schedule is piecewise log-linear between fixed time nodes.  The
trainable parameters are mapped through softplus to strictly positive
log-space increments, then rescaled so the endpoints are pinned exactly:
g(0) = g_floor and g(T) = T.  Monotonicity is therefore structural and
no projection step is ever needed during training.

A class-conditional `MatrixSchedule` is a table of trajectories, one per
label, and `ms.for_class(label)` is one class's plain schedule.
`ms.at(t)` is the schedule at one batch of times: a `ScheduleEval`
holding g and dg/dt from one `eval_M` call, and sqrt(g) and the two
theta-Jacobians, each formed on first use from at most one
`eval_M_dtheta` or `eval_M_dt_dtheta` call.  It locates each knot
schedule's interval once and hands the kept segments to all three calls.
The training path builds one per batch and hands it to every consumer.
"""

from dataclasses import dataclass, field, replace
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .subspaces import ProjectorFamily, isotropic_family

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


@dataclass(frozen=True, eq=False)
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
        # read-only copies, so the cached log-nodes and the checks below cannot go stale
        theta = np.array(self.theta, dtype=float, ndmin=1)
        nodes = np.array(self.nodes, dtype=float)
        theta.flags.writeable = nodes.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("need at least two nodes")
        if theta.shape != (nodes.size - 1,):
            raise ValueError(
                f"theta must have {nodes.size - 1} entries, got {theta.shape}"
            )
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta must be finite")
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
        """Node log-values ell_j: log floor plus the scaled cumulative increments."""
        s = softplus(self.theta)
        alpha = (np.log(self.horizon) - np.log(self.floor)) / np.sum(s)
        return np.concatenate(([np.log(self.floor)], np.log(self.floor) + alpha * np.cumsum(s)))

    @cached_property
    def _log_node_grads(self):
        """d ell_j / d theta_m, shape (K, K-1); endpoints have zero rows."""
        s = softplus(self.theta)
        sp = sigmoid(self.theta)  # derivative of softplus
        gap = np.log(self.horizon) - np.log(self.floor)
        cum = np.cumsum(s)  # S_j for j = 1..K-1
        # the total is cum[-1], not np.sum(s) (pairwise, an ulp away), so the
        # pinned last row is exactly zero
        total = cum[-1]
        # row j: theta_m enters S_j for m < j, and the total always
        mask = np.arange(self.n_params) < np.arange(1, self.nodes.size)[:, None]
        rows = gap * sp * (mask * total - cum[:, None]) / total**2
        return np.concatenate((np.zeros((1, self.n_params)), rows))

    def _locate(self, t: Array):
        """Enclosing interval index j (interval [nodes[j-1], nodes[j]])."""
        t = np.asarray(t, dtype=float)
        if not np.all((t >= 0) & (t <= self.horizon * (1 + 1e-12))):  # NaN fails too
            raise ValueError("t outside [0, horizon]")
        # right interval at interior nodes: side='right' puts t == nodes[j]
        # into interval j+1, except the terminal node which stays in the last
        idx = np.searchsorted(self.nodes, t, side="right")
        return np.clip(idx, 1, self.nodes.size - 1)

    def _segment(self, t: Array):
        """For 1-D t: interval index j, its width, the fraction p of t into
        it, and g(t) = exp((1-p) ell_{j-1} + p ell_j) before endpoint pinning.
        The evaluations below take it as `segment` from a caller that kept it
        (a `ScheduleEval`) and search for it otherwise."""
        j = self._locate(t)
        left = self.nodes[j - 1]
        width = self.nodes[j] - left
        p = (t - left) / width
        ell = self._log_nodes
        return j, width, p, np.exp((1 - p) * ell[j - 1] + p * ell[j])

    # -- evaluation ----------------------------------------------------------

    def eval(self, t, segment=None):
        """Return (g(t), dg/dt) for scalar or array t."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        ell = self._log_nodes
        j, width, _, g = segment or self._segment(t_arr)
        slope = (ell[j] - ell[j - 1]) / width
        # pin endpoints exactly (exp(log x) can be off by an ulp), on a copy:
        # a kept segment's g is shared with the Jacobians
        g = g.copy()
        g[t_arr == 0.0] = self.floor
        g[t_arr == self.horizon] = self.horizon
        dg = g * slope
        if np.ndim(t) == 0:
            return float(g[0]), float(dg[0])
        return g, dg

    def eval_dtheta(self, t, segment=None):
        """Gradient of g(t) w.r.t. theta; shape (..., n_params)."""
        grads = self._log_node_grads
        j, _, p, g = segment or self._segment(np.atleast_1d(np.asarray(t, dtype=float)))
        out = g[:, None] * ((1 - p)[:, None] * grads[j - 1] + p[:, None] * grads[j])
        return out[0] if np.ndim(t) == 0 else out

    def eval_dt_dtheta(self, t, segment=None):
        """Gradient of dg/dt w.r.t. theta; shape (..., n_params)."""
        ell = self._log_nodes
        grads = self._log_node_grads
        j, width, p, g = segment or self._segment(np.atleast_1d(np.asarray(t, dtype=float)))
        slope = (ell[j] - ell[j - 1]) / width
        dg_dtheta = g[:, None] * ((1 - p)[:, None] * grads[j - 1] + p[:, None] * grads[j])
        dslope = (grads[j] - grads[j - 1]) / width[:, None]
        out = dg_dtheta * slope[:, None] + g[:, None] * dslope
        return out[0] if np.ndim(t) == 0 else out


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

@dataclass(frozen=True, eq=False)
class MatrixSchedule:
    """Spectral trajectory M_t = sum_j g_j(t) P_j, optionally class-conditional.

    The per-subspace schedules share the family's eigenvectors, so M_t,
    its time derivative and its theta derivatives all commute by
    construction.  `class_table` maps class labels to per-subspace
    schedule lists (kept as a read-only mapping of tuples, so the cached
    class views cannot go stale); when present, the schedule is evaluated
    through `for_class(label)`, and evaluating it directly raises `KeyError`.
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
            table = MappingProxyType({k: tuple(v) for k, v in self.class_table.items()})
            object.__setattr__(self, "class_table", table)
            for schedules in table.values():
                if len(schedules) != self.family.n_subspaces:
                    raise ValueError("class table rows must match the family size")
                horizons |= {s.horizon for s in schedules}
        if len(horizons) != 1:
            raise ValueError("all subspace schedules must share one horizon")
        if not 0 < self.t_floor_fraction < 1:
            raise ValueError("t_floor_fraction must lie in (0, 1)")

    @property
    def horizon(self) -> float:
        return self.per_subspace[0].horizon

    @property
    def t_min(self) -> float:
        return self.t_floor_fraction * self.horizon

    @property
    def n_subspaces(self) -> int:
        return self.family.n_subspaces

    @cached_property
    def _class_views(self) -> dict:
        return {label: MatrixSchedule(self.family, row, None, self.t_floor_fraction)
                for label, row in self.class_table.items()}

    def for_class(self, class_label=None) -> "MatrixSchedule":
        """The plain schedule of one class, the same object for the same
        label (so identity-keyed caches hold); `self` if not conditional."""
        if self.class_table is None:
            if class_label is not None:
                raise KeyError("schedule is not class-conditional")
            return self
        if class_label is None:
            raise KeyError("class-conditional schedule requires a class label")
        if class_label not in self.class_table:
            raise KeyError(f"unknown class {class_label!r}")
        return self._class_views[class_label]

    # -- flat parameter vector (per class) -----------------------------------

    def theta_vector(self, class_label=None) -> Array:
        return np.concatenate([s.theta for s in self.for_class(class_label).per_subspace])

    def param_slices(self):
        """Per-subspace slices into the flat theta vector."""
        slices, start = [], 0
        for s in self.per_subspace:
            slices.append(slice(start, start + s.n_params))
            start += s.n_params
        return slices

    @property
    def n_params(self) -> int:
        return sum(s.n_params for s in self.per_subspace)

    def at(self, t) -> "ScheduleEval":
        """The schedule at the times t (scalar or (n,)), evaluated once."""
        return ScheduleEval(self, t)

    def with_theta_vector(self, theta: Array, class_label=None) -> "MatrixSchedule":
        theta = np.asarray(theta, dtype=float)
        view = self.for_class(class_label)
        schedules = tuple(s.with_theta(theta[sl])
                          for s, sl in zip(view.per_subspace, view.param_slices()))
        if self.class_table is None:
            return replace(self, per_subspace=schedules)
        return replace(self, class_table={**self.class_table, class_label: schedules})


class ScheduleEval:
    """M_t at one batch of times t, for a plain (not class-conditional) schedule.

    Each knot schedule's interval is located once, when the evaluation is
    built, and the kept segments are passed to every schedule function
    below.  `g` and `dg` (g_j(t) and dg_j/dt, shape (..., J)) come from one
    `eval_M` call; `sqrt_g`, the Jacobian `jac` = d g_j / d theta and
    `dt_jac` = d (dg_j/dt) / d theta (both (..., J, P)) are formed on
    first use, so a caller that reads neither Jacobian pays for neither.
    """

    def __init__(self, ms: MatrixSchedule, t):
        self.ms = ms
        self.family = ms.family
        self.t = t
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        self._segments = [s._segment(t_arr) for s in ms.for_class().per_subspace]
        self.g, self.dg = eval_M(ms, t, self._segments)

    @cached_property
    def sqrt_g(self) -> Array:
        return np.sqrt(self.g)

    @cached_property
    def jac(self) -> Array:
        return eval_M_dtheta(self.ms, self.t, self._segments)

    @cached_property
    def dt_jac(self) -> Array:
        return eval_M_dt_dtheta(self.ms, self.t, self._segments)


def eval_M(ms: MatrixSchedule, t, segments=None):
    """Per-subspace values (g_j(t), dg_j/dt); each of shape (..., J).  Like the
    Jacobians, it takes one kept `KnotSchedule._segment(t)` per subspace."""
    # for_class() is ms itself, or a KeyError for a class-conditional schedule
    schedules = ms.for_class().per_subspace
    segments = segments or [None] * len(schedules)
    pairs = [s.eval(t, seg) for s, seg in zip(schedules, segments)]
    g = np.stack([np.atleast_1d(p[0]) for p in pairs], axis=-1)
    dg = np.stack([np.atleast_1d(p[1]) for p in pairs], axis=-1)
    if np.asarray(t).ndim == 0:
        return g[0], dg[0]
    return g, dg


def _block_jacobian(ms: MatrixSchedule, t, method: str, segments=None):
    """Stack each knot schedule's `method` Jacobian into its block, shape (..., J, P).

    The method is looked up on each schedule at call time, so a wrapper
    bound to the `KnotSchedule` class sees every call.
    """
    schedules = ms.for_class().per_subspace
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    segments = segments or [None] * len(schedules)
    out = np.zeros((t_arr.size, len(schedules), ms.n_params))
    for j, (s, sl, seg) in enumerate(zip(schedules, ms.param_slices(), segments)):
        out[:, j, sl] = getattr(s, method)(t_arr, seg)
    if np.asarray(t).ndim == 0:
        return out[0]
    return out


def eval_M_dtheta(ms: MatrixSchedule, t, segments=None):
    """Jacobian d g_j / d theta_p, shape (..., J, P); block diagonal over j."""
    return _block_jacobian(ms, t, "eval_dtheta", segments)


def eval_M_dt_dtheta(ms: MatrixSchedule, t, segments=None):
    """Jacobian d (dg_j/dt) / d theta_p, shape (..., J, P)."""
    return _block_jacobian(ms, t, "eval_dt_dtheta", segments)


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


def isotropic_matrix_schedule(
    d: int,
    horizon: float,
    floor: float = DEFAULT_FLOOR,
    n_knots: int = DEFAULT_KNOTS,
) -> MatrixSchedule:
    return matrix_schedule_for_family(isotropic_family(d), horizon, floor, n_knots)


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
        if not np.all((t_arr >= 0) & (t_arr <= self.horizon * (1 + 1e-12))):  # NaN fails too
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
    if not 0.0 < floor < horizon:  # NaN fails too
        raise ValueError(f"floor must satisfy 0 < floor < horizon, got {floor}")
    if n_knots < 2:
        raise ValueError(f"n_knots must be >= 2, got {n_knots}")
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
    if not 0.0 < horizon < np.inf:  # NaN fails too
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    if quad_points < 2:
        raise ValueError(f"quad_points must be >= 2, got {quad_points}")
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
