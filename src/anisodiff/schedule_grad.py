"""Plug-in estimation of d(score)/d(theta) and the outer schedule gradient.

Changing the schedule parameters changes the whole family of perturbed
marginals, so the derivative of the score (or flow) with respect to a
schedule parameter is needed even though the field itself never sees
theta.  The estimator expresses that derivative through x-directional
derivatives of the field only:

    d_theta score(x) = 1/2 sum_i d_r d_s score(x + r e_i + s D e_i)
                       + d_s score(x + s D score(x)),          D = d_theta M_t,

with a flow-form variant carrying an extra 1/2 M^{-1} D flow term.  The
sum over i is a trace, so any orthonormal basis gives it.  In the
family's own basis q_i, P_j q_i is q_i inside block j and 0 outside it,
so D q_i = delta_j q_i and the sum is sum_j delta_j T_j with the block
traces T_j = sum_{i in block j} d_r d_s score(x + r q_i + s q_i).  They
come from one `jet.block_traces(family)` call, part of the jet protocol
(see `fields`): closed form for the mixture oracle, one forward pass of
per-block second-order sums for `FlowModel`.  The same J traces serve
every D.  The exact sum is the default at every d.  Rademacher probes
(unbiased since E[z z^T] = I) are an explicit opt-in,
`EstimatorConfig("stochastic-probe", probes, seed)`.  Every term is
linear in D, and D = sum_j (d g_j / d theta) P_j, so the estimator's
responses to D = P_j are computed once per batch and every
theta-derivative is those J responses contracted with the knot Jacobian:
`estimate_dtheta_score` for one parameter, `outer_gradient` for all of
them against the loss cotangent.  `outer_gradient`, `estimate_H` and
`fd_outer_gradient` resolve their `class_label` argument, and only it,
with `ms.for_class`; every function below them takes a plain schedule.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .loss import (
    LossSample,
    LossValue,
    loss_from_flow,
    loss_sample,
    perturbed_point,
    weight_theta_derivative,
)
from .schedule import MatrixSchedule
from .subspaces import apply_spectral

Array = np.ndarray


@dataclass(frozen=True)
class EstimatorConfig:
    mode: str = "exact-sum"  # "exact-sum" | "stochastic-probe"
    probes: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("exact-sum", "stochastic-probe"):
            raise ValueError(f"unknown estimator mode {self.mode!r}")
        for name in ("probes", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.mode == "stochastic-probe" and self.probes < 1:
            raise ValueError("need at least one probe")


def _mixed_sums(jet, family, shape, cfg: EstimatorConfig) -> Array:
    """sum_i d_r d_s field(x + r e_i + s P_j e_i) for each block j, shape (J, *shape).

    `jet` is the field's jet at the batch (x, t) and `shape` that of x.
    Exact mode returns the jet's block traces; stochastic mode replaces
    the basis sum by an average of d_r d_s field(x + r z + s P_j z) over
    Rademacher probes z, the same probes for every j.
    """
    if cfg.mode == "exact-sum":
        return jet.block_traces(family)
    rng = np.random.default_rng(cfg.seed)
    total = np.zeros((family.n_subspaces, *shape))
    for _ in range(cfg.probes):
        z = rng.integers(0, 2, size=shape) * 2.0 - 1.0
        for j, unit in enumerate(np.eye(family.n_subspaces)):
            total[j] += jet.mixed(z, apply_spectral(family, unit, z))
    return total / cfg.probes


def _responses(jet, family, v, cfg: EstimatorConfig, scale=1.0) -> Array:
    """Responses to D = P_j for each block j of the field f whose jet is `jet`, (J, n, d):

        1/2 sum_i d_r d_s f(x + r e_i + s D e_i) + d_s f(x + s D scale v);

    the score form at v = score, the flow form's first two terms at v = flow, scale M^{-1/2}.
    """
    out = 0.5 * _mixed_sums(jet, family, v.shape, cfg)
    for j, unit in enumerate(np.eye(family.n_subspaces)):
        out[j] += jet.directional(apply_spectral(family, unit * scale, v))
    return out


def _flow_responses(jet, ev, flow, cfg: EstimatorConfig) -> Array:
    """Flow-form responses to D = P_j for each block j, shape (J, n, d):

        1/2 sum_i d_r d_s flow(x + r e_i + s D e_i)
        + d_s flow(x + s M^{-1/2} D flow) + 1/2 M^{-1} D flow,

    with `jet` the flow field's jet at (x, t), `flow` its value and `ev`
    the schedule at t.
    """
    out = _responses(jet, ev.family, flow, cfg, scale=1.0 / ev.sqrt_g)
    for j, unit in enumerate(np.eye(ev.family.n_subspaces)):
        out[j] += 0.5 * apply_spectral(ev.family, unit / ev.g, flow)
    return out


def estimate_dtheta_score(field, ms: MatrixSchedule, x, t, theta_index: int,
                          cfg: EstimatorConfig = EstimatorConfig()) -> Array:
    """Estimate d(score)/d(theta_j) from x-directional derivatives of `field`.

    `field` must supply at(x, t) (see `fields`); use the exact mixture
    oracle or the score view of a flow model.
    """
    jet = field.at(x, t)
    responses = _responses(jet, ms.family, jet.value(), cfg)
    # sum_j coef_j R_j: the derivative along D = sum_j coef_j P_j
    return np.einsum("...j,j...d->...d", ms.at(t).jac[..., theta_index], responses)


# ---------------------------------------------------------------------------
# outer gradient of H(theta) = min_phi L(theta, phi)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OuterGradient:
    explicit: Array  # (P,) mean d L / d theta with the field held fixed
    implicit: Array  # (P,) mean <cotangent, d flow / d theta>
    total: Array  # explicit + implicit
    value: LossValue  # the loss on the batch that was differentiated


def _pullback(cot, coef, responses) -> Array:
    """Per point, sum_j coef[:, j] <cot, R_j>: shape (n, P) from (n, J, P) and J (n, d)."""
    out = np.zeros((cot.shape[0], coef.shape[2]))
    for j, response in enumerate(responses):
        out += coef[:, j, :] * np.einsum("nd,nd->n", cot, response)[:, None]
    return out


def outer_gradient(ms: MatrixSchedule, flow_field, batch: LossSample,
                   cfg: EstimatorConfig = EstimatorConfig(), class_label=None) -> OuterGradient:
    """Batch-mean gradient of the outer objective over the schedule parameters.

    Explicit part: differentiate the per-sample loss holding the field
    fixed — through the weight operator and through x_t = x_0 + M^{1/2} eps.
    Implicit part: the field tracks the schedule-dependent optimum, so it
    moves by d(flow)/d(theta); estimated by the plug-in identity with
    `flow_field` standing in for the optimal field.  The loss itself comes
    from the same field evaluation and is returned as `value`.  The
    schedule of `class_label` is resolved once and evaluated once, as `ms.at(t)`.
    """
    x0 = np.atleast_2d(batch.x0)
    eps = np.atleast_2d(batch.eps)
    t = np.broadcast_to(np.asarray(batch.t, dtype=float), (x0.shape[0],))
    ms = ms.for_class(class_label)

    sample = LossSample(x0=x0, eps=eps, t=t)
    ev = ms.at(t)
    jac = ev.jac  # (n, J, P)
    x_t = perturbed_point(ev, sample)
    jet = flow_field.at(x_t, t)
    flow = jet.value()
    value = loss_from_flow(ev, sample, flow)
    w, cot = value.weights, value.cotangent  # (n, J), (n, d)

    # explicit, weight part: 2 sum_j w_j dw_j ||P_j (flow+eps)||^2
    dw = weight_theta_derivative(ev)  # (n, J, P)
    energies = ms.family.block_energies(flow + eps)  # (n, J)
    explicit_w = 2.0 * np.einsum("nj,njp,nj->np", w, dw, energies)

    # explicit, x_t part: x_t moves by sum_j d sqrt(g_j)/d theta P_j eps
    units = np.eye(ms.family.n_subspaces)
    x_responses = [jet.directional(apply_spectral(ms.family, unit, eps)) for unit in units]
    explicit_x = _pullback(cot, jac / (2.0 * ev.sqrt_g[..., None]), x_responses)

    # implicit part through the optimal field: every estimator term is linear
    # in D, so the responses to D = P_j are contracted against the knot Jacobian
    implicit = _pullback(cot, jac, _flow_responses(jet, ev, flow, cfg))

    explicit = (explicit_w + explicit_x).mean(axis=0)
    implicit_mean = implicit.mean(axis=0)
    return OuterGradient(
        explicit=explicit, implicit=implicit_mean, total=explicit + implicit_mean,
        value=value,
    )


def estimate_H(ms: MatrixSchedule, flow_field, batch: LossSample, class_label=None) -> float:
    """Monte-Carlo value of the outer objective on a fixed batch."""
    return float(np.mean(loss_sample(ms.for_class(class_label), flow_field, batch).loss))


def fd_outer_gradient(make_field, ms: MatrixSchedule, batch: LossSample,
                      h: float = 1e-4, class_label=None) -> Array:
    """Central finite differences of H over theta with common random numbers.

    `make_field` maps a schedule to its optimal field (for the mixture
    oracle this is exact), so the FD sees the full theta dependence:
    weights, perturbed points, and the field itself.
    """
    theta0 = ms.theta_vector(class_label)
    grad = np.zeros_like(theta0)
    for p in range(theta0.size):
        up, dn = theta0.copy(), theta0.copy()
        up[p] += h
        dn[p] -= h
        ms_up = ms.with_theta_vector(up, class_label)
        ms_dn = ms.with_theta_vector(dn, class_label)
        h_up = estimate_H(ms_up, make_field(ms_up), batch, class_label)
        h_dn = estimate_H(ms_dn, make_field(ms_dn), batch, class_label)
        grad[p] = (h_up - h_dn) / (2 * h)
    return grad
