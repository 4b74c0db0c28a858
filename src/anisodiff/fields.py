"""Flow-field views shared by the loss, estimator, sampler, and trainer.

A flow field has `__call__(x, t)`, `directional(x, t, v)`, `mixed(x, t,
u, v)` and `at(x, t)`.  `at` returns the field's local *jet* at one
batch (x, t): an object with `value()`, `directional(v)`, `mixed(u, v)`
and `block_traces(family)` that share one cached computation (the
noisy-mixture factorization and its Hessian for the oracle, the primal
activations for `FlowModel`).  `block_traces(family)` returns, shape
(J, n, d), the sums T_j = sum_{i in block j} mixed(q_i, q_i) over the
columns q_i of the family's orthonormal basis; the oracle has them in
closed form, `FlowModel` from its own forward pass, which carries only
their J block sums through the layers and makes no `mixed` call.  The
three direct methods are `at(x, t)` followed by one jet call, so callers
that need several quantities at the same (x, t), such as the
schedule-gradient estimator, build one jet and ask it repeatedly.
A jet's cache goes when the caller drops the jet; an oracle factors its
noisy covariances afresh on every call.

`FlowModel` satisfies this protocol directly; `OracleFlowField` adapts
the exact mixture oracle.  `OracleScoreField`, the oracle's score, has
only `at`: the schedule-gradient estimator reads nothing else.
`coordinate_view(field, family, c)` is the sampler's view of a field from
a start given in the family's coordinates, c = forward(x): the coordinates
it steps in, the field there, the start and the map back to ambient
states.  The default view is the family's own coordinates; a `FlowModel`
with a hidden layer is stepped on its latent coordinates instead whenever
there are fewer of them than d.  Only the start and the map back depend on
c.  The rest is built once per (field, family) and kept, outside the
field, while both live: a `FlowModel`'s view model or an oracle's rotated
mixture with its noisy covariances factored at the last grid's times.
Fields, mixtures, schedules and families are frozen, so a kept view cannot
go stale.
"""

import weakref
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import gmm as gmm_mod
from .flow_model import FlowModel, layer_views, n_params
from .schedule import MatrixSchedule
from .subspaces import CoordinateFamily, apply_spectral


class SpectralJet:
    """Jet of a field left-multiplied by a spectral matrix that is constant in x.

    The matrix commutes with x-derivatives, so every jet quantity is the
    matrix (per-subspace scalars `values`) applied to the inner one.
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


@dataclass(frozen=True, eq=False)
class OracleFlowField:
    """Exact flow field M_t^{1/2} grad log p_t for a Gaussian mixture.

    The spectral square root is constant in x, so directional derivatives
    are M^{1/2} times the corresponding score derivatives.  `slices` keeps a
    sampling view's noisy covariances at its grid's times (`coordinate_view`).
    """

    gm: gmm_mod.GaussianMixture
    ms: MatrixSchedule
    class_label: object = None
    slices: dict = field(default_factory=dict, init=False, repr=False)

    def at(self, x, t):
        key = float(t) if np.ndim(t) == 0 else None  # an array t is never kept
        cov = self.slices.get(key)
        if cov is None:
            cov = gmm_mod._NoisyCovariances(self.gm, self.ms.for_class(self.class_label).at(t))
            if key in self.slices:
                self.slices[key] = cov
        return SpectralJet(gmm_mod._NoisyMixture(cov, x), cov.ev.family, cov.ev.sqrt_g)

    def __call__(self, x, t):
        return self.at(x, t).value()

    def directional(self, x, t, v):
        return self.at(x, t).directional(v)

    def mixed(self, x, t, u, v):
        return self.at(x, t).mixed(u, v)


@dataclass(frozen=True, eq=False)
class OracleScoreField:
    """Exact score field grad log p_t, read through its jet `at(x, t)` only."""

    gm: gmm_mod.GaussianMixture
    ms: MatrixSchedule

    def at(self, x, t):
        return gmm_mod._noisy(self.gm, x, self.ms, t)


def coordinate_view(field, family, c, times=()):
    """The sampler's view of `field` from the start c = forward(x) in the family's coordinates:
    (coords_family, field_view, c_start, back).

    Steps on `coords_family` with `field_view` from `c_start` give states that `back` maps to
    ambient ones.  The default view is the family's coordinates themselves, c_start = c, with the
    field c, t -> forward(field(inverse(c), t)) and back = `inverse`.  There a `FlowModel` is the
    model with its input x-columns and head rotated, and an `OracleFlowField` on `family` is the
    oracle of its rotated mixture on `family.coordinates`, whose `slices` keep its noisy
    covariances at `times` (the trajectory's distinct times), each factored on its first use, and
    no other t.

    The latent view: a rotated `FlowModel` with a hidden layer is linear in its last activation,
    f = A a_L + b_L, so every state of a trajectory is c_T + l R, where R stacks the rows
    [A^T; b_L] masked to block j, one (h_L + 1, d) slice per block, and l holds one latent
    vector per block.  The view is a plain `FlowModel` of dim m = h_1 + J (h_L + 1) on
    (c_T W_x^T, l): its first layer [I | W_x R^T | W_t] recovers W_x c from the constant first
    h_1 coordinates, its hidden layers are the model's, and its head outputs 0 there and
    (a_L, 1) on each block's h_L + 1 coordinates.  It is taken exactly when m < d and its
    parameters are finite; back(l) = inverse(c_T + l[..., h_1:] R).

    Only the start and `back` depend on c.  The rest, a `FlowModel`'s view model (and W_x
    and R) or an oracle's view, is built once per (field, family) and kept while both live; if
    a model's rotated parameters overflow, the composition is used and nothing is kept.
    """
    view = _view(field, family)
    if view is None:
        def view(y, t):
            return family.forward(field(family.inverse(y), t))
    elif isinstance(view, OracleFlowField) and list(view.slices) != list(times):
        view.slices.clear()  # a new grid: no slice of the last one is read
        view.slices.update(dict.fromkeys(times))
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


# field -> family -> a `FlowModel`'s rotated model or `_LatentView`, or an oracle's view.  Both
# levels hold their keys weakly and no view refers to its field, so an entry goes with its field (a
# model's, which refers to no key, also with its family).  Equal families share transforms.
_VIEWS = weakref.WeakKeyDictionary()


def _view(field, family):
    """`field`'s x-independent view on `family`, built on a miss and kept; None: composition."""
    if isinstance(field, OracleFlowField) and field.ms.family is family:
        build = _oracle_view
    elif isinstance(field, FlowModel):
        build = _rotated
    else:
        return None
    views = _VIEWS.setdefault(field, weakref.WeakKeyDictionary())
    view = views.get(family)
    if view is None:
        view = build(field, family)
        if view is not None:
            views[family] = view
    return view


def _oracle_view(field, family):
    """An oracle of `field`'s mixture rotated to `family.coordinates`: mu Q and Q^T Sigma Q."""
    gm, ms = field.gm, field.ms.for_class(field.class_label)
    covs = family.forward(np.swapaxes(family.forward(gm.covs), -1, -2))  # Q^T Sigma Q
    return OracleFlowField(gmm_mod.GaussianMixture(gm.weights, family.forward(gm.means),
                                                   0.5 * (covs + np.swapaxes(covs, -1, -2))),
                           replace(ms, family=family.coordinates))


def _rotated(model, family):
    """`model`'s view on `family`: its `_LatentView` if it has one, else the model with its input
    x-columns and head rotated, so that it computes c, t -> forward(model(inverse(c), t)); None
    if the rotated parameters overflow."""
    params = model.params.copy()
    layers = layer_views(params, model.dim, model.widths)
    w_in, (w_head, b_head) = layers[0][0], layers[-1]  # one array for a linear model
    w_in[:, :model.dim] = family.forward(w_in[:, :model.dim])
    w_head[:], b_head[:] = family.forward(w_head.T).T, family.forward(b_head)
    if not np.all(np.isfinite(params)):
        return None
    rotated = model.with_params(params)
    return (_latent_view(rotated, family) if model.widths else None) or rotated


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
