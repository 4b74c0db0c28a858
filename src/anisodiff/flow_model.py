"""Small smooth trainable field approximating M_t^{1/2} grad log p_t.

A dense tanh network on (x, time features) with a linear head.  tanh is
C-infinity, so the exact first and mixed-second directional derivatives
required by the schedule-gradient estimator exist everywhere; they are
propagated with forward-mode tangents (hyper-dual style), not finite
differences; a tangent in x enters at W_x, the first layer's x-columns.
The block traces of the schedule-gradient estimator have their own
forward pass, which carries the second-order terms as block sums.
Parameters live in one flat vector so optimizer state and snapshots stay
trivial; a model is frozen, so its per-layer views are built once.  At a
scalar t (the sampler's case) the time features are one row shared by
every point, so they fold into the first layer's bias,
W_t [log t, t/T] + b_1, and the input rows [x, log t, t/T] are formed
only for a parameter gradient; an array t (training) forms them up front.

Every product of a layer's input with its weights multiplies by a kept
C-ordered copy of W^T, `weights_t`, built with the model.  With a
C-ordered (fan_out, fan_in) W, `x @ W.T` runs as a transposed (NT) BLAS
GEMM.  Under one OpenBLAS thread, the NN product with a C-ordered W^T takes
13 us where NT takes 22 us for a (256, 64) batch through a d=16 head,
11 us against 20 us for (32, 194) rows into a width-64 layer, and 57 us
against 95 us for the stacked (16, 32, 64) tangents of `block_traces`;
square 64 x 64 layers cost the same either way.  The parameter gradient's
`delta @ W` is already NN and reads the views of `layers()`.
"""

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

Array = np.ndarray

DEFAULT_WIDTHS = (64, 64)
N_TIME_FEATURES = 2
# Tangent rows per pass of `block_traces`: dim first-order tangents per batch
# row, so 32 batch rows at dim=16 (one row when dim > 512).  Each (dim, rows,
# width) temporary of a pass then holds at most max(MIXED_PASS_ROWS, dim) * width
# floats (256 KB at width 64 and dim <= 512), whatever the batch size.
MIXED_PASS_ROWS = 512
TIME_MESSAGE = "t must be positive and finite (time features use log t)"


def layer_sizes(dim: int, widths) -> list:
    return [dim + N_TIME_FEATURES, *widths, dim]


def _check_widths(widths):
    if any(isinstance(w, bool) or not isinstance(w, (int, np.integer)) for w in widths):
        raise ValueError(f"hidden widths must be integers, got {list(widths)}")
    if any(w < 1 for w in widths):
        raise ValueError(f"hidden widths must be positive, got {list(widths)}")


def n_params(dim: int, widths) -> int:
    sizes = layer_sizes(dim, widths)
    return sum(sizes[i + 1] * sizes[i] + sizes[i + 1] for i in range(len(sizes) - 1))


def layer_views(params: Array, dim: int, widths) -> list:
    """Views (W, b) per layer into a flat parameter vector; writing one writes `params`."""
    sizes = layer_sizes(dim, widths)
    out, offset = [], 0
    for i in range(len(sizes) - 1):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        w = params[offset : offset + fan_out * fan_in].reshape(fan_out, fan_in)
        offset += fan_out * fan_in
        b = params[offset : offset + fan_out]
        offset += fan_out
        out.append((w, b))
    return out


@dataclass(frozen=True, eq=False)
class FlowModel:
    """Flow field f(x, t, phi): input (x, log t, t/T) -> R^d."""

    dim: int
    horizon: float
    widths: tuple = DEFAULT_WIDTHS
    params: Array = None
    # read-only C-ordered W^T per layer, so every forward and tangent product is an NN GEMM
    weights_t: tuple = field(init=False, repr=False)

    def __post_init__(self):
        _check_widths(self.widths)
        # a read-only copy, so nothing keyed by the model (the sampler's views) can go stale
        params = np.array(self.params, dtype=float)
        params.flags.writeable = False
        expected = n_params(self.dim, self.widths)
        if params.shape != (expected,):
            raise ValueError(f"expected {expected} parameters, got {params.shape}")
        if not np.all(np.isfinite(params)):
            raise ValueError("parameters must be finite")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "widths", tuple(self.widths))
        weights_t = tuple(np.ascontiguousarray(w.T) for w, _ in self.layers())
        for w_t in weights_t:
            w_t.flags.writeable = False
        object.__setattr__(self, "weights_t", weights_t)

    @classmethod
    def create(cls, dim, horizon, widths=DEFAULT_WIDTHS, seed=0, zero_head=True):
        """He-style random hidden layers; the output head starts at zero."""
        _check_widths(widths)  # before the layer arrays are allocated
        rng = np.random.default_rng(seed)
        sizes = layer_sizes(dim, widths)
        chunks = []
        for i in range(len(sizes) - 1):
            fan_in, fan_out = sizes[i], sizes[i + 1]
            last = i == len(sizes) - 2
            if last and zero_head:
                w = np.zeros((fan_out, fan_in))
            else:
                w = rng.standard_normal((fan_out, fan_in)) / np.sqrt(fan_in)
            chunks.append(w.reshape(-1))
            chunks.append(np.zeros(fan_out))
        return cls(dim=dim, horizon=horizon, widths=tuple(widths), params=np.concatenate(chunks))

    def with_params(self, params: Array) -> "FlowModel":
        return replace(self, params=params)

    def layers(self) -> tuple:
        """Read-only views (W, b) per layer into the flat parameter vector, built once."""
        return self._layers

    @cached_property
    def _layers(self) -> tuple:
        return tuple(layer_views(self.params, self.dim, self.widths))

    # -- evaluation ----------------------------------------------------------

    def _features(self, t: Array) -> Array:
        """(log t, t / T) along a new last axis of the float array t."""
        if t.ndim == 0:  # the sampler's case: no array reductions
            if not 0.0 < t < np.inf:  # NaN fails too
                raise ValueError(TIME_MESSAGE)
            return np.array([np.log(t), t / self.horizon])
        if not np.all((t > 0) & (t < np.inf)):
            raise ValueError(TIME_MESSAGE)
        return np.stack([np.log(t), t / self.horizon], axis=-1)

    def _inputs(self, x: Array, t: Array) -> Array:
        """Input rows [x, log t, t / T] for 2-D float x and a float t, one value or one per row."""
        feats = self._features(np.broadcast_to(t, x.shape[:1]))
        return np.concatenate([x, feats], axis=1)

    def at(self, x: Array, t) -> "FlowModelJet":
        """Local jet at the batch (x, t): one primal pass for every call on it."""
        return FlowModelJet(self, x, t)

    def __call__(self, x: Array, t) -> Array:
        return self.at(x, t).value()

    def param_grad(self, x: Array, t, cotangent: Array) -> Array:
        """Gradient over phi of sum_i <cotangent_i, flow(x_i, t_i)>."""
        return self.at(x, t).param_grad(cotangent)

    def directional(self, x: Array, t, v: Array) -> Array:
        """d/ds flow(x + s v, t) at s=0, exact forward-mode."""
        return self.at(x, t).directional(v)

    def mixed(self, x: Array, t, u: Array, v: Array) -> Array:
        """d^2/(dr ds) flow(x + r u + s v, t) at r=s=0, exact hyper-dual."""
        return self.at(x, t).mixed(u, v)


class FlowModelJet:
    """Primal activations of a FlowModel at one batch (x, t).

    The value, the parameter gradient and the forward-mode derivatives
    all start from the same activations a_l (and tanh slopes 1 - a_l^2,
    formed on first use), so each call runs only its own output, backward
    or tangent recursion.  A scalar t (a 0-d array included) enters the
    first layer as the bias W_t [log t, t/T] + b_1 on x W_x^T; the input
    rows are then formed only if `param_grad` asks for them.
    """

    def __init__(self, model: FlowModel, x: Array, t):
        self.model = model
        self.dim = model.dim
        self.single = np.asarray(x).ndim == 1
        self.layers = model.layers()
        self.weights_t = model.weights_t
        self.x = np.atleast_2d(np.asarray(x, dtype=float))
        self.t = np.asarray(t, dtype=float)
        self.n = self.x.shape[0]
        w, b = self.layers[0]
        # W_x^T, where a tangent in x enters: it has no time-feature part
        self.w_x_t = self.weights_t[0][:self.dim]
        if self.t.ndim == 0:
            bias = w[:, self.dim:] @ model._features(self.t) + b
            z = self.x @ self.w_x_t + bias
        else:
            z = self._rows @ self.weights_t[0] + b
        self.acts = []  # a_1, ..., a_{L-1}: the hidden layers' tanh activations
        for w_t, (_, b) in zip(self.weights_t[1:], self.layers[1:]):
            self.acts.append(np.tanh(z))
            z = self.acts[-1] @ w_t + b
        self._out = z

    @cached_property
    def _rows(self) -> Array:
        """The input rows [x, log t, t/T], the first layer's input."""
        return self.model._inputs(self.x, self.t)

    def _shape(self, out: Array) -> Array:
        return out[..., 0, :] if self.single else out

    def value(self) -> Array:
        return self._shape(self._out)

    def param_grad(self, cotangent: Array) -> Array:
        """Gradient over phi of sum_i <cotangent_i, flow(x_i, t_i)>."""
        delta = np.atleast_2d(np.asarray(cotangent, dtype=float))
        inputs = [self._rows, *self.acts]
        grads = [None] * len(self.layers)
        for li in range(len(self.layers) - 1, -1, -1):
            w, _ = self.layers[li]
            grads[li] = (delta.T @ inputs[li], delta.sum(axis=0))
            if li > 0:
                delta = (delta @ w) * self._slopes[li - 1]
        return np.concatenate([np.concatenate([gw.reshape(-1), gb]) for gw, gb in grads])

    @cached_property
    def _slopes(self) -> list:
        """tanh'(z) = 1 - a^2 per hidden layer."""
        return [1.0 - a**2 for a in self.acts]

    @cached_property
    def _curvatures(self) -> list:
        """tanh''(z) = -2 a (1 - a^2) per hidden layer."""
        return [-2.0 * a * s1 for a, s1 in zip(self.acts, self._slopes)]

    def _tangent(self, v: Array) -> Array:
        """A tangent (dim,) or (n, dim) broadcast to (n, dim)."""
        return np.broadcast_to(np.asarray(v, dtype=float), (self.n, self.dim))

    def directional(self, v: Array) -> Array:
        """d/ds flow(x + s v, t) at s=0."""
        dz = self._tangent(v) @ self.w_x_t
        for w_t, s1 in zip(self.weights_t[1:], self._slopes):
            dz = (s1 * dz) @ w_t
        return self._shape(dz)

    def mixed(self, u: Array, v: Array) -> Array:
        """d^2/(dr ds) flow(x + r u + s v, t) at r=s=0, one hyper-dual pass.

        `u` and `v` are one tangent pair, each (n, dim) or (dim,).
        """
        if not self.acts:  # an affine model
            return self._shape(np.zeros((self.n, self.dim)))
        zu = self._tangent(u) @ self.w_x_t
        zv = self._tangent(v) @ self.w_x_t
        duv = self._curvatures[0] * zu * zv  # the second-order tangent is 0 into layer 1
        for w_t, s1_in, s1, s2 in zip(self.weights_t[1:], self._slopes, self._slopes[1:],
                                      self._curvatures[1:]):
            zu, zuv = (s1_in * zu) @ w_t, duv @ w_t
            zv = (s1_in * zv) @ w_t
            duv = s2 * zu * zv + s1 * zuv
        return self._shape(duv @ self.weights_t[-1])

    def block_traces(self, family) -> Array:
        """T_j = sum_{i in block j} d_r d_s flow(x + r q_i + s q_i), shape (J, n, dim).

        The q_i are the columns of the family's orthonormal basis.  This is
        its own forward pass, not a `mixed` call.  The first layer's
        tangents q_i W_x^T are the same on every row, so they are one
        (dim, h_1) product, family.forward(W_x)^T, which forms no d x d
        basis.  Later layers carry the dim first-order tangents per row but
        the second-order terms only as their J block sums, which is exact
        because each layer is linear in them.  Rows go in passes of up to
        MIXED_PASS_ROWS tangent rows.
        """
        n_blocks = family.n_subspaces
        out = np.zeros((n_blocks, self.n, self.dim))
        if not self.acts:  # an affine model
            return self._shape(out)
        indicator = (family.labels == np.arange(n_blocks)[:, None]).astype(float)  # (J, dim)
        z1 = family.forward(self.layers[0][0][:, :self.dim]).T  # row i: q_i W_x^T
        sums1 = (indicator @ (z1 * z1))[:, None, :]  # (J, 1, h_1)
        step = max(1, MIXED_PASS_ROWS // self.dim)
        for r in range(0, self.n, step):
            part = slice(r, r + step)
            slopes = [s1[part] for s1 in self._slopes]
            curvatures = [s2[part] for s2 in self._curvatures]
            zu, duv = z1[:, None, :], curvatures[0] * sums1
            for w_t, s1_in, s1, s2 in zip(self.weights_t[1:], slopes, slopes[1:], curvatures[1:]):
                zu = (s1_in * zu) @ w_t  # (dim, rows, h)
                duv = s2 * np.tensordot(indicator, zu * zu, axes=1) + s1 * (duv @ w_t)
            out[:, part] = duv @ self.weights_t[-1]
        return self._shape(out)
