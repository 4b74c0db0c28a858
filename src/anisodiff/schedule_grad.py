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
traces T_j = sum_{i in block j} d_r d_s score(x + r q_i + s q_i).  All d
tangents q_i go through the field's jet as one stacked `mixed` call, and
the same J traces serve every D.  The exact sum can be replaced by
Rademacher probes (unbiased since E[z z^T] = I).  Every term is linear
in D, so for spectral schedules the estimator is evaluated once per
subspace and contracted against the knot-parameter Jacobian.
"""

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
from .schedule import MatrixSchedule, eval_M, eval_M_dtheta
from .subspaces import apply_spectral

Array = np.ndarray

EXACT_SUM_MAX_DIM = 16


@dataclass(frozen=True)
class EstimatorConfig:
    mode: str = "exact-sum"  # "exact-sum" | "stochastic-probe"
    probes: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("exact-sum", "stochastic-probe"):
            raise ValueError(f"unknown estimator mode {self.mode!r}")
        if self.mode == "stochastic-probe" and self.probes < 1:
            raise ValueError("need at least one probe")


def default_estimator_config(dim: int, seed: int = 0) -> EstimatorConfig:
    if dim <= EXACT_SUM_MAX_DIM:
        return EstimatorConfig(mode="exact-sum", seed=seed)
    return EstimatorConfig(mode="stochastic-probe", probes=32, seed=seed)


def _as_batch(x) -> tuple:
    x = np.asarray(x, dtype=float)
    return (np.atleast_2d(x), x.ndim == 1)


def _block_traces(jet, family, n: int) -> Array:
    """T_j = sum_{i in block j} d_r d_s field(x + r q_i + s q_i), shape (J, n, d).

    The q_i are the columns of the family's orthonormal basis.  P_j q_i is
    q_i inside block j and 0 outside it, so for any D = sum_j delta_j P_j
    the exact sum, a trace that any orthonormal basis gives, is
    sum_j delta_j T_j.  All d tangents go through the jet as one stack.
    """
    q = family.basis
    d = q.shape[0]
    tangents = np.broadcast_to(q.T[:, None, :], (d, n, d))  # tangents[i] = q_i
    # the same stack in both slots lets a jet do the tangent work once
    per_column = jet.mixed(tangents, tangents)  # (d, n, d)
    return np.stack([per_column[family.labels == j].sum(axis=0)
                     for j in range(family.n_subspaces)])


def _mixed_sums(jet, family, deltas: Array, cfg: EstimatorConfig) -> Array:
    """sum_i d_r d_s field(x + r e_i + s D_k e_i) for each D_k, shape (k, n, d).

    `jet` is the field's jet at the batch (x, t); `deltas` (k, n, J) holds
    the per-point block scalars of each D_k = sum_j deltas[k, :, j] P_j.
    Exact mode contracts the block traces; stochastic mode replaces the
    basis sum by an average of d_r d_s field(x + r z + s D_k z) over
    Rademacher probes z, the same probes for every k.
    """
    n = deltas.shape[1]
    if cfg.mode == "exact-sum":
        return np.einsum("knj,jnd->knd", deltas, _block_traces(jet, family, n))
    d = family.ambient_dim
    rng = np.random.default_rng(cfg.seed)
    total = np.zeros(deltas.shape[:2] + (d,))
    for _ in range(cfg.probes):
        z = rng.integers(0, 2, size=(n, d)) * 2.0 - 1.0
        for k, delta in enumerate(deltas):
            total[k] += jet.mixed(z, apply_spectral(family, delta, z))
    return total / cfg.probes


def estimate_dtheta_score(field, ms: MatrixSchedule, x, t, theta_index: int,
                          cfg: EstimatorConfig | None = None, class_label=None) -> Array:
    """Estimate d(score)/d(theta_j) from x-directional derivatives of `field`.

    `field` must supply at(x, t) (see `fields`); use the exact mixture
    oracle or the score view of a flow model.
    """
    x, scalar = _as_batch(x)
    if cfg is None:
        cfg = default_estimator_config(x.shape[1])
    jac = eval_M_dtheta(ms, t, class_label)
    if jac.ndim == 2:  # scalar t
        delta = np.broadcast_to(jac[:, theta_index], (x.shape[0], ms.family.n_subspaces))
    else:
        delta = jac[:, :, theta_index]

    jet = field.at(x, t)
    term1 = 0.5 * _mixed_sums(jet, ms.family, delta[None], cfg)[0]
    term2 = jet.directional(apply_spectral(ms.family, delta, jet.value()))
    out = term1 + term2
    return out[0] if scalar else out


def estimate_dtheta_flow(flow_field, ms: MatrixSchedule, x, t, theta_index: int,
                         cfg: EstimatorConfig | None = None, class_label=None) -> Array:
    """Flow-form estimate of d(flow)/d(theta_j) (three-term identity)."""
    x, scalar = _as_batch(x)
    if cfg is None:
        cfg = default_estimator_config(x.shape[1])
    g, _ = eval_M(ms, t, class_label)
    jac = eval_M_dtheta(ms, t, class_label)
    if jac.ndim == 2:  # scalar t
        g = np.broadcast_to(g, (x.shape[0], ms.family.n_subspaces))
        delta = np.broadcast_to(jac[:, theta_index], (x.shape[0], ms.family.n_subspaces))
    else:
        delta = jac[:, :, theta_index]

    jet = flow_field.at(x, t)
    term1 = 0.5 * _mixed_sums(jet, ms.family, delta[None], cfg)[0]
    flow = jet.value()
    term2 = jet.directional(apply_spectral(ms.family, delta / np.sqrt(g), flow))
    term3 = 0.5 * apply_spectral(ms.family, delta / g, flow)
    out = term1 + term2 + term3
    return out[0] if scalar else out


# ---------------------------------------------------------------------------
# outer gradient of H(theta) = min_phi L(theta, phi)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OuterGradient:
    explicit: Array  # (P,) mean d L / d theta with the field held fixed
    implicit: Array  # (P,) mean <cotangent, d flow / d theta>
    total: Array  # explicit + implicit
    value: LossValue  # the loss on the batch that was differentiated


def _per_subspace_flow_grads(jet, ms, x, flow, g, cfg):
    """d(flow)/d(theta) responses to D = P_j, one (n, d) array per subspace.

    `jet` is the flow field's jet at (x, t) and `flow` its value.  All
    estimator terms are linear in D, so these J basis responses are
    contracted against the knot Jacobian instead of re-running the
    estimator once per parameter.
    """
    n = x.shape[0]
    nsub = ms.family.n_subspaces
    units = np.broadcast_to(np.eye(nsub)[:, None, :], (nsub, n, nsub))
    term1 = 0.5 * _mixed_sums(jet, ms.family, units, cfg)
    grads = []
    for j, unit_rows in enumerate(units):
        term2 = jet.directional(apply_spectral(ms.family, unit_rows / np.sqrt(g), flow))
        term3 = 0.5 * apply_spectral(ms.family, unit_rows / g, flow)
        grads.append(term1[j] + term2 + term3)
    return grads


def outer_gradient(ms: MatrixSchedule, flow_field, batch: LossSample,
                   cfg: EstimatorConfig | None = None, class_label=None) -> OuterGradient:
    """Batch-mean gradient of the outer objective over the schedule parameters.

    Explicit part: differentiate the per-sample loss holding the field
    fixed — through the weight operator and through x_t = x_0 + M^{1/2} eps.
    Implicit part: the field tracks the schedule-dependent optimum, so it
    moves by d(flow)/d(theta); estimated by the plug-in identity with
    `flow_field` standing in for the optimal field.  The loss itself comes
    from the same field evaluation and is returned as `value`.
    """
    x0 = np.atleast_2d(batch.x0)
    eps = np.atleast_2d(batch.eps)
    t = np.broadcast_to(np.asarray(batch.t, dtype=float), (x0.shape[0],))
    if cfg is None:
        cfg = default_estimator_config(x0.shape[1])
    label = class_label if class_label is not None else batch.class_label

    n = x0.shape[0]
    sample = LossSample(x0=x0, eps=eps, t=t, class_label=label)
    g, _ = eval_M(ms, t, label)  # (n, J)
    jac = eval_M_dtheta(ms, t, label)  # (n, J, P)
    x_t = perturbed_point(ms, sample)
    jet = flow_field.at(x_t, t)
    flow = jet.value()
    value = loss_from_flow(ms, sample, flow)
    w, cot = value.weights, value.cotangent  # (n, J), (n, d)

    # explicit, weight part: 2 sum_j w_j dw_j ||P_j (flow+eps)||^2
    dw = weight_theta_derivative(ms, t, label)  # (n, J, P)
    energies = ms.family.block_energies(flow + eps)  # (n, J)
    explicit_w = 2.0 * np.einsum("nj,njp,nj->np", w, dw, energies)

    # explicit, x_t part: cot . directional(x_t, d(M^{1/2})/dtheta eps)
    dsqrt = jac / (2.0 * np.sqrt(g)[..., None])  # (n, J, P)
    explicit_x = np.zeros((n, jac.shape[2]))
    for j in range(ms.family.n_subspaces):
        unit = np.zeros(ms.family.n_subspaces)
        unit[j] = 1.0
        v_j = apply_spectral(ms.family, np.broadcast_to(unit, (n, ms.family.n_subspaces)), eps)
        response = jet.directional(v_j)  # (n, d)
        explicit_x += dsqrt[:, j, :] * np.einsum("nd,nd->n", cot, response)[:, None]

    # implicit part through the optimal field
    basis_grads = _per_subspace_flow_grads(jet, ms, x_t, flow, g, cfg)
    implicit = np.zeros((n, jac.shape[2]))
    for j, grad_j in enumerate(basis_grads):
        implicit += jac[:, j, :] * np.einsum("nd,nd->n", cot, grad_j)[:, None]

    explicit = (explicit_w + explicit_x).mean(axis=0)
    implicit_mean = implicit.mean(axis=0)
    return OuterGradient(
        explicit=explicit, implicit=implicit_mean, total=explicit + implicit_mean,
        value=value,
    )


def estimate_H(ms: MatrixSchedule, flow_field, batch: LossSample, class_label=None) -> float:
    """Monte-Carlo value of the outer objective on a fixed batch."""
    label = class_label if class_label is not None else batch.class_label
    value = loss_sample(ms, flow_field, LossSample(batch.x0, batch.eps, batch.t, label))
    return float(np.mean(value.loss))


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
