"""Anisotropic reverse-ODE integration in the M_t^{1/2} increment variable.

Under a commuting spectral family the reverse ODE reads
dx = -d(M_t^{1/2}) flow(x, t) dt, so the natural step size is the
per-subspace increment of sqrt(g_j).  Euler and a matrix Heun method are
provided; Heun interpolates the flow affinely in M^{1/2} between the
step endpoints and integrates that model exactly, which needs only
subspace-wise scalings and pseudoinverses.

Sign convention: the update direction is +flow (the corrector below
simultaneously satisfies the Euler step, the endpoint trapezoid
reduction, and the exact integral of the affine interpolant).  The
endpoint predictor is the corrector's Euler term, so an endpoint Heun
step makes two `apply_spectral` calls and a midpoint step three.

`heun_step` is the one step function: given a step's per-subspace rows
it takes the Euler step, or the matrix Heun step when it is given a
secondary time, on whatever family it is passed.  It adds into the
arrays `apply_spectral` returns and never writes into its state, a
field's output or the start.  `sample_trajectory` evaluates the schedule
once per trajectory: one `eval_M` call gives sqrt(g) at every grid time
(and every midpoint, for the midpoint secondary), and one `step_rows`
call turns that table into every step's rows, each (steps, J); it then
calls `heun_step` once per step with that step's rows and secondary
time.  A drawn start is formed once, in the family's coordinates, as
forward(xi) sqrt(g_T) with the table's horizon row (`init_state` is its
ambient form); a given `x_init` is taken there by `forward`.  It steps
in the coordinate view that `fields.coordinate_view` gives for the
start, where each update is a per-coordinate scaling, and maps `final`
back once; `states` are mapped back on first access.  Only the start and
the map back are formed per trajectory: a `FlowModel`'s view model, or
an oracle's rotated mixture with its noisy covariances factored at the
grid's times, is built on its first trajectory on a family (and grid)
and reused by later ones; fields and families are frozen, so it is never
rebuilt.  The default view is the family's coordinates c = forward(x).
A `FlowModel` with a hidden layer is linear in its last activation a_L,
so every state is c_T + sum_j P_j [A b_L] l_j for latent vectors l_j of
size h_L + 1; when m = h_1 + J (h_L + 1) < d it is stepped on those m
coordinates instead.
"""

import numbers
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import coordinate_view
from .schedule import MatrixSchedule
from .subspaces import apply_spectral

Array = np.ndarray

FLAT_INCREMENT_TOL = 1e-12


@dataclass(frozen=True)
class SamplerConfig:
    steps: int
    solver: str = "heun"  # "euler" | "heun"
    secondary: str = "endpoint"  # "endpoint" | "midpoint"

    def __post_init__(self):
        if isinstance(self.steps, bool) or not isinstance(self.steps, numbers.Integral):
            raise ValueError(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 1:
            raise ValueError("need at least one step")
        if self.solver not in ("euler", "heun"):
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.secondary not in ("endpoint", "midpoint"):
            raise ValueError(f"unknown secondary rule {self.secondary!r}")


def time_grid(ms: MatrixSchedule, cfg: SamplerConfig) -> Array:
    """Strictly increasing grid t_0 = ms.t_min < ... < t_K = horizon."""
    return np.linspace(ms.t_min, ms.horizon, cfg.steps + 1)


def _noise(ms: MatrixSchedule, rng, n: int | None) -> Array:
    """xi ~ N(0, I), shape (d,) or (n, d)."""
    d = ms.family.ambient_dim
    return np.random.default_rng(rng).standard_normal(d if n is None else (n, d))


def init_state(ms: MatrixSchedule, rng, n: int | None = None) -> Array:
    """Initial noise x_T = M_T^{1/2} xi with xi ~ N(0, I)."""
    return apply_spectral(ms.family, ms.at(ms.horizon).sqrt_g, _noise(ms, rng, n))


def step_rows(u_k, u_prev, u_hat):
    """Every step's per-subspace rows (du, lift, coef) from its sqrt(g) rows, elementwise.

    du = u_k - u_prev is the Euler increment, lift = u_k - u_hat the
    predictor's increment to the secondary time, and
    coef = -1/2 du^2 / (u_hat - u_k) the corrector's coefficient, 0 on any
    subspace whose secondary increment is below FLAT_INCREMENT_TOL.  Rows
    may be (J,) for one step or (steps, J) for a trajectory.
    """
    du = u_k - u_prev
    gap = u_hat - u_k
    flat = np.abs(gap) < FLAT_INCREMENT_TOL
    return du, u_k - u_hat, np.where(flat, 0.0, -0.5 * du**2 / np.where(gap == 0, 1.0, gap))


def heun_step(family, flow_field, x, t_k, du, t_hat=None, lift=None, coef=None, flow_k=None):
    """One reverse step from t_k to t_{k-1} given its `step_rows`.

    Euler: x + Delta U f_k with Delta U = du.  With a secondary time t_hat
    (and the corrector's `coef`) this is the matrix Heun step.  Predictor:
    x + lift f_k, or with lift=None (the endpoint rule, whose lift is du)
    the Euler update itself, reused.  Corrector:
    x + Delta U f_k - 1/2 (Delta U)^2 (U_hat - U_k)^+ (f_hat - f_k),
    formed as the Euler update plus coef (f_hat - f_k), where the
    pseudoinverse drops the correction on any flat subspace (plain Euler
    there).  With the endpoint choice this is exactly the trapezoid update.
    Each sum is added into the array `apply_spectral` returns; x and the
    field's outputs are never written.

    Returns (new_x, f_k, f_hat); f_hat is None for Euler.
    """
    f_k = flow_field(x, t_k) if flow_k is None else flow_k
    euler = apply_spectral(family, du, f_k)
    euler += x
    if t_hat is None:
        return euler, f_k, None
    if lift is None:
        x_hat = euler
    else:
        x_hat = apply_spectral(family, lift, f_k)
        x_hat += x
    f_hat = flow_field(x_hat, t_hat)
    new = apply_spectral(family, coef, f_hat - f_k)
    new += euler
    return new, f_k, f_hat


@dataclass(frozen=True)
class TrajectoryResult:
    times: Array  # grid, increasing
    final: Array  # state at t_min
    nfe: int  # flow-field evaluations per trajectory
    wall_time: float
    _back: object  # the coordinate view's map back to ambient states
    _coords: list  # the states in the view's coordinates, the start first
    _x_init: Array | None  # the start as given, if it was

    @cached_property
    def states(self) -> list:  # x at times[K], ..., times[0]; one batched back-map of the inner
        start, *inner, _ = self._coords
        start = self._back(start) if self._x_init is None else self._x_init
        return [start, *(self._back(np.stack(inner)) if inner else ()), self.final]


def sample_trajectory(ms: MatrixSchedule, flow_field, cfg: SamplerConfig,
                      n: int | None = None, rng=0,
                      x_init: Array | None = None) -> TrajectoryResult:
    """Integrate from t = horizon down to ms.t_min in the family's coordinates.

    `rng` (a seed, 0 by default, or a Generator) draws x_T unless `x_init` is given.

    The schedule is evaluated once: sqrt(g) at every grid time, and at the
    midpoints when the Heun secondary is the midpoint, in one `eval_M`
    call, and `step_rows` forms every step's rows from it at once; each
    step reads its own.  Heun with the endpoint secondary
    reuses the last step's secondary evaluation (already at t_{k-1}) as the
    base evaluation of the final step, giving exactly 2K-1 evaluations for
    K >= 2 steps.
    """
    grid = time_grid(ms, cfg)
    family = ms.family
    if x_init is None:
        xi = _noise(ms, rng, n)
    else:
        x_init = np.asarray(x_init, dtype=float)
    start = time.perf_counter()
    heun = cfg.solver == "heun"
    midpoint = heun and cfg.secondary == "midpoint"
    t_hats = 0.5 * (grid[:-1] + grid[1:]) if midpoint else grid[:-1]
    times = np.concatenate((grid, t_hats)) if midpoint else grid
    table = ms.at(times).sqrt_g
    u = table[:grid.size]
    du, lift, coef = step_rows(u[1:], u[:-1], table[grid.size:] if midpoint else u[:-1])
    if not midpoint:
        lift = (None,) * cfg.steps  # the endpoint predictor is the Euler update
    if not heun:
        t_hats = (None,) * cfg.steps
    # the start in the family's coordinates; init_state's is inverse(forward(xi) sqrt(g_T))
    c = family.forward(xi) * u[-1][family.labels] if x_init is None else family.forward(x_init)
    coords, view, c, back = coordinate_view(flow_field, family, c, times)
    states = [c]
    nfe = 0
    carried_flow = None
    for k in range(cfg.steps, 0, -1):
        reuse = carried_flow if k == 1 else None
        i = k - 1  # the step from grid[k] to grid[k - 1]
        c, _, f_hat = heun_step(coords, view, c, grid[k], du[i], t_hats[i], lift[i], coef[i],
                                reuse)
        nfe += (reuse is None) + (f_hat is not None)
        if heun and not midpoint and k == 2:
            carried_flow = f_hat  # evaluated at t_1; reused by the final step
        states.append(c)
    return TrajectoryResult(
        times=grid,
        final=back(c),
        nfe=nfe,
        wall_time=time.perf_counter() - start,
        _back=back,
        _coords=states,
        _x_init=x_init,
    )


def expected_nfe(cfg: SamplerConfig) -> int:
    if cfg.solver == "euler":
        return cfg.steps
    if cfg.secondary == "endpoint":
        return 2 if cfg.steps == 1 else 2 * cfg.steps - 1
    return 2 * cfg.steps
