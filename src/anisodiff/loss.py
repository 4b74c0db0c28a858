"""Trajectory-level score-matching loss in flow form.

Per sample: perturb x_t = x_0 + M_t^{1/2} eps, evaluate the flow field,
and weight the residual (flow + eps) by

    W_t = (I + M_t)^{-1/2} (d/dt M_t) M_t^{-1/2},

which acts per subspace as dg_j / (sqrt(1+g_j) sqrt(g_j)).  The same
quantity equals 4 ||v_learned - v_proxy||^2, the mismatch between the
learned variance-preserving velocity and its single-sample proxy; the
equivalence check below verifies that identity sample by sample.

Every function here takes a plain (not class-conditional) schedule; a
class-conditional one raises `KeyError`, and its callers resolve a class
with `ms.for_class(label)`.  The batch functions (`perturbed_point`,
`loss_from_flow`, `weight_theta_derivative`) take the schedule as one
`ScheduleEval` at the batch's times (`ms.at(t)`), so a training step
evaluates the schedule once however many of them it calls.
"""

from dataclasses import dataclass

import numpy as np

from . import gmm as gmm_mod
from .schedule import MatrixSchedule, ScheduleEval, eval_M
from .subspaces import apply_spectral

Array = np.ndarray


@dataclass(frozen=True)
class LossSample:
    """One (or a batch of) training draw(s): data point, noise, time."""

    x0: Array  # (..., d)
    eps: Array  # (..., d)
    t: Array  # scalar or (...,)

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float)
        eps = np.asarray(self.eps, dtype=float)
        if x0.shape != eps.shape:
            raise ValueError("x0 and eps must have matching shapes")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "eps", eps)


@dataclass(frozen=True)
class LossValue:
    loss: Array  # scalar or (n,)
    residual: Array  # (..., d)
    cotangent: Array  # (..., d), gradient of loss w.r.t. the flow output
    weights: Array  # (..., J), the per-subspace scalars of W_t


def draw_loss_samples(gm, ms: MatrixSchedule, n: int, rng) -> LossSample:
    """n independent draws (x0, eps, t) with t uniform on [t_min, T]."""
    rng = np.random.default_rng(rng)
    x0 = gmm_mod.sample_p0(gm, n, rng)
    eps = rng.standard_normal((n, gm.dim))
    t = rng.uniform(ms.t_min, ms.horizon, size=n)
    return LossSample(x0=x0, eps=eps, t=t)


def _weights(ev: ScheduleEval):
    """Per-subspace scalars of W_t at an evaluation; its t must be >= t_min."""
    t_min = ev.ms.t_min
    if np.any(np.asarray(ev.t, dtype=float) < t_min * (1 - 1e-12)):
        raise ValueError(f"t below the schedule floor t_min={t_min}")
    return ev.dg / (np.sqrt(1.0 + ev.g) * ev.sqrt_g)


def weight_values(ms: MatrixSchedule, t):
    """Per-subspace scalars of W_t; shape (..., J)."""
    return _weights(ms.at(t))


def weight_theta_derivative(ev: ScheduleEval):
    """d w_j / d theta_p for the weight scalars w_j = dg_j f(g_j); shape (..., J, P).

    Splits into the dg/dt part and the matrix-function part
    f(g) = (1+g)^{-1/2} g^{-1/2}.  The family is spectral with shared
    eigenvectors, so d f(M_t) / d theta = f'(g_j) dg_j/dtheta P_j, and f' is
    finite on every g a knot schedule takes (g >= its floor > 0).
    """
    f = 1.0 / (np.sqrt(1.0 + ev.g) * ev.sqrt_g)
    fp = -0.5 * (1.0 + 2.0 * ev.g) / ((1.0 + ev.g) ** 1.5 * ev.g**1.5)
    return ev.dg[..., None] * (fp[..., None] * ev.jac) + f[..., None] * ev.dt_jac


def perturbed_point(ev: ScheduleEval, sample: LossSample):
    """x_t of the sample; `ev` is the schedule at the sample's times."""
    return gmm_mod.perturb(sample.x0, sample.eps, ev)


def loss_from_flow(ev: ScheduleEval, sample: LossSample, flow) -> LossValue:
    """Loss, weighted residual, and flow-cotangent given the flow at the sample's x_t."""
    w = _weights(ev)
    residual = apply_spectral(ev.family, w, flow + sample.eps)
    loss = np.sum(residual * residual, axis=-1)
    cotangent = 2.0 * apply_spectral(ev.family, w * w, flow + sample.eps)
    return LossValue(loss=loss, residual=residual, cotangent=cotangent, weights=w)


def loss_sample(ms: MatrixSchedule, flow_field, sample: LossSample) -> LossValue:
    """Loss, weighted residual, and flow-cotangent for one sample or a batch."""
    ev = ms.at(sample.t)
    flow = flow_field(perturbed_point(ev, sample), sample.t)
    return loss_from_flow(ev, sample, flow)


# ---------------------------------------------------------------------------
# velocity fields
# ---------------------------------------------------------------------------

def _velocity_scalars(ms, t):
    g, dg = eval_M(ms, t)
    score_coef = -0.5 * dg / np.sqrt(1.0 + g)
    drift_coef = -0.5 * dg / (1.0 + g) ** 1.5
    return g, score_coef, drift_coef


def velocity_learned(ms: MatrixSchedule, flow, x, t):
    """Variance-preserving drift with the score view M^{-1/2} flow of a flow
    already evaluated at (x, t)."""
    g, a, b = _velocity_scalars(ms, t)
    return apply_spectral(ms.family, a / np.sqrt(g), flow) + apply_spectral(ms.family, b, x)


def velocity_proxy(ms: MatrixSchedule, x_t, x0, t):
    """Single-sample proxy: the score replaced by M^{-1}(x0 - x_t)."""
    g, a, b = _velocity_scalars(ms, t)
    x_t = np.asarray(x_t, dtype=float)
    diff = np.asarray(x0, dtype=float) - x_t
    return apply_spectral(ms.family, a / g, diff) + apply_spectral(ms.family, b, x_t)


def loss_equivalence_check(ms: MatrixSchedule, flow_field, sample: LossSample):
    """Per sample, 4 ||v_learned - v_proxy||^2 against ||W (flow + eps)||^2, both
    from one schedule evaluation and one field call at x_t."""
    ev = ms.at(sample.t)
    x_t = perturbed_point(ev, sample)
    flow = flow_field(x_t, sample.t)
    v_bar = velocity_learned(ms, flow, x_t, sample.t)
    v_tilde = velocity_proxy(ms, x_t, sample.x0, sample.t)
    lhs = 4.0 * np.sum((v_bar - v_tilde) ** 2, axis=-1)
    rhs = loss_from_flow(ev, sample, flow).loss
    return lhs, rhs, np.abs(lhs - rhs)
