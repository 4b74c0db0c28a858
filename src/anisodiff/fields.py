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
A jet's cache goes when the caller drops the jet.  Two things outlive a
call.  `OracleFlowField` keeps its time slice: the factored noisy
covariances of the last scalar t, which do not depend on x and are
reused while t, `gm` and the class's schedule `ms.for_class(class_label)`
stay the same, so a sampler's two calls at each grid time factor once.
An array t is never kept.  And a `FlowModel`'s sampling view on a family
(below) is built once and kept, outside the model, for as long as both
the model and the family live.

`FlowModel` satisfies this protocol directly; `OracleFlowField` adapts
the exact mixture oracle.  `OracleScoreField`, the oracle's score, has
only `at`: the schedule-gradient estimator reads nothing else.
`coordinate_view(field, family, x)` is the sampler's view of a field from
a start x: the coordinates it steps in, the field there, the start and the
map back to ambient states.  The default view is the family's own
coordinates; a `FlowModel` with a hidden layer is stepped on its latent
coordinates instead whenever there are fewer of them than d.  Only the
start and the map back depend on x: a `FlowModel`'s view model is built
once per (model, family), which a model's read-only parameters keep
valid, while an oracle's view is built per call.
"""

import weakref
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from . import gmm as gmm_mod
from .flow_model import FlowModel, layer_views, n_params
from .schedule import MatrixSchedule
from .subspaces import CoordinateFamily, apply_spectral


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

        The kept slice is reused only while t, `gm` and the class's schedule
        (`ms.for_class(class_label)`, one object per label) all match it, so
        reassigning an attribute never serves a stale one.  An array t is
        factored afresh and leaves the slice alone.
        """
        ms = self.ms.for_class(self.class_label)
        if np.ndim(t) != 0:
            return gmm_mod._NoisyCovariances(self.gm, ms.at(t))
        last = self._last
        if last is None or last.ev.t != t or last.gm is not self.gm or last.ev.ms is not ms:
            last = self._last = gmm_mod._NoisyCovariances(self.gm, ms.at(t))
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
    """Exact score field grad log p_t, read through its jet `at(x, t)` only."""

    def __init__(self, gm, ms: MatrixSchedule):
        self.gm = gm
        self.ms = ms

    def at(self, x, t):
        return gmm_mod._noisy(self.gm, x, self.ms, t)


def _in_coordinates(field, family):
    """c, t -> forward(field(inverse(c), t)): an oracle on `family` as the rotated mixture's on
    `family.coordinates`, or else the composition itself."""
    if isinstance(field, OracleFlowField) and field.ms.family is family:
        covs = family.forward(np.swapaxes(family.forward(field.gm.covs), -1, -2))  # Q^T Sigma Q
        gm = gmm_mod.GaussianMixture(field.gm.weights, family.forward(field.gm.means),
                                     0.5 * (covs + np.swapaxes(covs, -1, -2)))
        return OracleFlowField(gm, replace(field.ms, family=family.coordinates), field.class_label)
    return lambda c, t: family.forward(field(family.inverse(c), t))


def coordinate_view(field, family, x):
    """The sampler's view of `field` from the start x: (coords_family, field_view, c_start, back).

    Steps on `coords_family` with `field_view` from `c_start` give states that `back` maps to
    ambient ones.  The default view is the family's coordinates c = forward(x), with the field
    c, t -> forward(field(inverse(c), t)) and back = `inverse`; a `FlowModel` there is the
    model with its input x-columns and head rotated (see `_in_coordinates` for other fields).

    The latent view: a rotated `FlowModel` with a hidden layer is linear in its last activation,
    f = A a_L + b_L, so every state of a trajectory is c_T + l R, where R stacks the rows
    [A^T; b_L] masked to block j, one (h_L + 1, d) slice per block, and l holds one latent
    vector per block.  The view is a plain `FlowModel` of dim m = h_1 + J (h_L + 1) on
    (c_T W_x^T, l): its first layer [I | W_x R^T | W_t] recovers W_x c from the constant first
    h_1 coordinates, its hidden layers are the model's, and its head outputs 0 there and
    (a_L, 1) on each block's h_L + 1 coordinates.  It is taken exactly when m < d and its
    parameters are finite; back(l) = inverse(c_T + l[..., h_1:] R).

    Only c, the start and `back` depend on x.  A `FlowModel`'s view model (and W_x and R) is
    built once per (model, family) and kept while both live; if the rotated parameters
    overflow, the composition is used and nothing is kept.
    """
    c = family.forward(x)
    view = _model_view(field, family) if isinstance(field, FlowModel) else None
    if view is None:
        return family.coordinates, _in_coordinates(field, family), c, family.inverse
    if not isinstance(view, _LatentView):
        return family.coordinates, view, c, family.inverse
    coords, model, w_x, r = view
    h_1 = w_x.shape[0]
    start = np.zeros(c.shape[:-1] + (model.dim,))
    start[..., :h_1] = c @ w_x.T
    return coords, model, start, lambda latent: family.inverse(c + latent[..., h_1:] @ r)


class _LatentView(NamedTuple):
    """The x-independent part of a latent view (see `coordinate_view`)."""

    coords: CoordinateFamily
    model: FlowModel  # dim m
    w_x: np.ndarray  # (h_1, d), the rotated W_x: the start is [c W_x^T, 0]
    r: np.ndarray  # (J (h_L + 1), d): back(l) = inverse(c + l[..., h_1:] R)


# model -> family -> its rotated model or `_LatentView`.  Both levels hold their keys weakly and
# no value refers to a key, so an entry goes with its model or its family.  A model compares by
# identity and its parameters are read-only, and families that compare equal (a separable DCT
# family by its sides) have the same transforms, so an entry cannot go stale.
_MODEL_VIEWS = weakref.WeakKeyDictionary()


def _model_view(model, family):
    """`model`'s x-independent view on `family`, memoized; None if the rotation overflows."""
    views = _MODEL_VIEWS.get(model)
    if views is None:
        views = _MODEL_VIEWS[model] = weakref.WeakKeyDictionary()
    view = views.get(family)
    if view is None:
        rotated = _rotated(model, family)
        if rotated is None:
            return None
        latent = _latent_view(rotated, family) if rotated.widths else None
        view = views[family] = latent or rotated
    return view


def _rotated(model, family):
    """`model` with its input x-columns and head rotated, so that it computes
    c, t -> forward(model(inverse(c), t)); None if the rotated parameters overflow."""
    params = model.params.copy()
    layers = layer_views(params, model.dim, model.widths)
    w_in, (w_head, b_head) = layers[0][0], layers[-1]  # one array for a linear model
    w_in[:, :model.dim] = family.forward(w_in[:, :model.dim])
    w_head[:], b_head[:] = family.forward(w_head.T).T, family.forward(b_head)
    return model.with_params(params) if np.all(np.isfinite(params)) else None


def _latent_view(model, family):
    """The `_LatentView` of a rotated model; None if m >= d or it overflows."""
    d, h_1, h_l, n_blocks = model.dim, model.widths[0], model.widths[-1], family.n_subspaces
    m = h_1 + n_blocks * (h_l + 1)
    if m >= d:
        return None
    (w_in, b_in), *hidden, (w_head, b_head) = model.layers()
    w_x = w_in[:, :d]
    masks = family.labels == np.arange(n_blocks)[:, None, None]  # (J, 1, d)
    r = (np.vstack([w_head.T, b_head]) * masks).reshape(-1, d)
    params = np.zeros(n_params(m, model.widths))
    layers = layer_views(params, m, model.widths)
    (w_1, b_1), (w_out, b_out) = layers[0], layers[-1]
    w_1[:, :h_1] = np.eye(h_1)
    w_1[:, h_1:m] = w_x @ r.T
    w_1[:, m:], b_1[:] = w_in[:, d:], b_in
    for (w, b), (w_model, b_model) in zip(layers[1:-1], hidden):
        w[:], b[:] = w_model, b_model
    w_out[h_1:].reshape(n_blocks, h_l + 1, h_l)[:, :h_l] = np.eye(h_l)  # a_L on every block
    b_out[h_1:].reshape(n_blocks, h_l + 1)[:, h_l] = 1.0  # and the constant that carries b_L
    if not np.all(np.isfinite(params)):
        return None
    labels = np.concatenate([np.zeros(h_1, dtype=int), np.repeat(np.arange(n_blocks), h_l + 1)])
    # a copy of W_x, so that the view does not keep the rotated parameter vector alive
    return _LatentView(CoordinateFamily(labels), replace(model, dim=m, params=params),
                       w_x.copy(), r)
