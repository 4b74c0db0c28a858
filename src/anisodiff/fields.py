"""Flow-field views shared by the loss, estimator, sampler, and trainer.

A flow field has `__call__(x, t)`, `directional(x, t, v)`, `mixed(x, t,
u, v)` and `at(x, t)`.  `at` returns the field's local *jet* at one
batch (x, t): an object with `value()`, `directional(v)`, `mixed(u, v)`
and `block_traces(family)` that share one cached computation (the
noisy-mixture factorization and its Hessian for the oracle, the primal
activations for `FlowModel`).  `block_traces(family)` returns, shape
(J, n, d), the sums T_j = sum_{i in block j} mixed(q_i, q_i) over the
columns q_i of the family's orthonormal basis; the oracle has them in
closed form, `FlowModel` takes them from one stacked `mixed` call.  The
three direct methods are `at(x, t)` followed by one jet call, so callers
that need several quantities at the same (x, t), such as the
schedule-gradient estimator, build one jet and ask it repeatedly.
A jet's cache goes when the caller drops the jet.  The one thing cached
on a field is `OracleFlowField`'s time slice: the factored noisy
covariances of the last scalar t, which do not depend on x and are
reused while t, `gm`, `ms` and `class_label` stay the same, so a
sampler's two calls at each grid time factor once.  An array t is never
kept.

`FlowModel` satisfies this protocol directly; the classes here adapt the
exact mixture oracle and convert between the flow view (M^{1/2} score)
and the score view.
"""

import numpy as np

from . import gmm as gmm_mod
from .schedule import MatrixSchedule
from .subspaces import apply_spectral


class SpectralJet:
    """Jet of a field left-multiplied by a spectral matrix that is constant in x.

    The matrix commutes with x-derivatives, so every jet quantity is the
    matrix (per-subspace scalars `values`) applied to the inner one; a
    stacked `mixed` result (..., n, d) is scaled row by row like an
    unstacked one.
    """

    def __init__(self, inner, family, values):
        self.inner = inner
        self.family = family
        self.values = values

    def value(self):
        return apply_spectral(self.family, self.values, self.inner.value())

    def directional(self, v):
        return apply_spectral(self.family, self.values, self.inner.directional(v))

    def mixed(self, u, v):
        return apply_spectral(self.family, self.values, self.inner.mixed(u, v))

    def block_traces(self, family):
        return apply_spectral(self.family, self.values, self.inner.block_traces(family))


class OracleFlowField:
    """Exact flow field M_t^{1/2} grad log p_t for a Gaussian mixture.

    The spectral square root is constant in x, so directional derivatives
    are M^{1/2} times the corresponding score derivatives.
    """

    def __init__(self, gm, ms: MatrixSchedule, class_label=None):
        self.gm = gm
        self.ms = ms
        self.class_label = class_label
        self._last = None  # the noisy covariances at the last scalar t

    def _covariances(self, t):
        """Noisy covariances at t; those of the last scalar t are kept for reuse.

        The kept slice is reused only while t, `gm`, `ms` and `class_label`
        all match it, so reassigning an attribute never serves a stale one.
        An array t is factored afresh and leaves the slice alone.
        """
        if np.ndim(t) != 0:
            return gmm_mod._NoisyCovariances(self.gm, self.ms.at(t, self.class_label))
        last = self._last
        if (last is None or last.ev.t != t or last.gm is not self.gm
                or last.ev.ms is not self.ms or last.ev.class_label != self.class_label):
            last = self._last = gmm_mod._NoisyCovariances(
                self.gm, self.ms.at(t, self.class_label))
        return last

    def at(self, x, t):
        cov = self._covariances(t)
        ev = cov.ev
        return SpectralJet(gmm_mod._NoisyMixture(cov, x), ev.family, ev.sqrt_g)

    def __call__(self, x, t):
        return self.at(x, t).value()

    def directional(self, x, t, v):
        return self.at(x, t).directional(v)

    def mixed(self, x, t, u, v):
        return self.at(x, t).mixed(u, v)


class OracleScoreField:
    """Exact score field grad log p_t with its directional derivatives."""

    def __init__(self, gm, ms: MatrixSchedule, class_label=None):
        self.gm = gm
        self.ms = ms
        self.class_label = class_label

    def at(self, x, t):
        return gmm_mod._noisy(self.gm, x, self.ms, t, self.class_label)

    def __call__(self, x, t):
        return self.at(x, t).value()

    def directional(self, x, t, v):
        return self.at(x, t).directional(v)

    def mixed(self, x, t, u, v):
        return self.at(x, t).mixed(u, v)


def scale_diagnostic(flow_field, ms: MatrixSchedule, gm, n_per_t: int = 256,
                     n_times: int = 12, seed: int = 0, class_label=None):
    """Spread (max/min over t) of mean |flow| versus mean |net|.

    The flow parameterization exists because |net| scales like
    |M_t^{-1/2}|, which varies wildly across noise levels; this measures
    both spreads on points drawn from p_t so the variance-reduction
    motivation can be logged and eyeballed.  Returns
    (flow_spread, net_spread).
    """
    rng = np.random.default_rng(seed)
    ts = np.geomspace(max(ms.t_min, 1e-3 * ms.horizon), ms.horizon, n_times)
    flow_norms, net_norms = [], []
    for t in ts:
        x0 = gmm_mod.sample_p0(gm, n_per_t, rng)
        eps = rng.standard_normal((n_per_t, gm.dim))
        ev = ms.at(float(t), class_label)
        x_t = gmm_mod.perturb(x0, eps, ev)
        flow = flow_field(x_t, float(t))
        net = apply_spectral(ms.family, 1.0 / ev.sqrt_g, flow)
        flow_norms.append(float(np.mean(np.linalg.norm(flow, axis=1))))
        net_norms.append(float(np.mean(np.linalg.norm(net, axis=1))))
    flow_spread = max(flow_norms) / max(min(flow_norms), 1e-300)
    net_spread = max(net_norms) / max(min(net_norms), 1e-300)
    return flow_spread, net_spread


class ScoreFromFlow:
    """Score view net = M_t^{-1/2} flow of a flow field."""

    def __init__(self, flow_field, ms: MatrixSchedule, class_label=None):
        self.flow_field = flow_field
        self.ms = ms
        self.class_label = class_label

    def at(self, x, t):
        ev = self.ms.at(t, self.class_label)
        return SpectralJet(self.flow_field.at(x, t), ev.family, 1.0 / ev.sqrt_g)

    def __call__(self, x, t):
        return self.at(x, t).value()

    def directional(self, x, t, v):
        return self.at(x, t).directional(v)

    def mixed(self, x, t, u, v):
        return self.at(x, t).mixed(u, v)
