"""Small smooth trainable field approximating M_t^{1/2} grad log p_t.

A dense tanh network on (x, time features) with a linear head.  tanh is
C-infinity, so the exact first and mixed-second directional derivatives
required by the schedule-gradient estimator exist everywhere; they are
propagated with forward-mode tangents (hyper-dual style), not finite
differences.  Parameters live in one flat vector so optimizer state and
snapshots stay trivial.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

Array = np.ndarray

DEFAULT_WIDTHS = (64, 64)
N_TIME_FEATURES = 2
# Rows per hyper-dual pass of a stacked `mixed` call.  A (16, 256) stack at
# widths (64, 64), one BLAS thread, takes 8.6 ms in 512-row passes, 13 ms in
# 1024-row passes and 23 ms as one 4096-row pass, whose temporaries also
# add 11 MB to peak memory (1.2 MB at 512 rows).
MIXED_PASS_ROWS = 512


def layer_sizes(dim: int, widths) -> list:
    return [dim + N_TIME_FEATURES, *widths, dim]


def n_params(dim: int, widths) -> int:
    sizes = layer_sizes(dim, widths)
    return sum(sizes[i + 1] * sizes[i] + sizes[i + 1] for i in range(len(sizes) - 1))


@dataclass(frozen=True)
class FlowModel:
    """Flow field f(x, t, phi): input (x, log t, t/T) -> R^d."""

    dim: int
    horizon: float
    widths: tuple = DEFAULT_WIDTHS
    params: Array = None

    def __post_init__(self):
        params = np.asarray(self.params, dtype=float)
        expected = n_params(self.dim, self.widths)
        if params.shape != (expected,):
            raise ValueError(f"expected {expected} parameters, got {params.shape}")
        if not np.all(np.isfinite(params)):
            raise ValueError("parameters must be finite")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "widths", tuple(self.widths))

    @classmethod
    def create(cls, dim, horizon, widths=DEFAULT_WIDTHS, seed=0, zero_head=True):
        """He-style random hidden layers; the output head starts at zero."""
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
        return replace(self, params=np.asarray(params, dtype=float))

    def layers(self):
        """Views (W, b) per layer into the flat parameter vector."""
        sizes = layer_sizes(self.dim, self.widths)
        out, offset = [], 0
        for i in range(len(sizes) - 1):
            fan_in, fan_out = sizes[i], sizes[i + 1]
            w = self.params[offset : offset + fan_out * fan_in].reshape(fan_out, fan_in)
            offset += fan_out * fan_in
            b = self.params[offset : offset + fan_out]
            offset += fan_out
            out.append((w, b))
        return out

    # -- evaluation ----------------------------------------------------------

    def _inputs(self, x: Array, t) -> Array:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        t_arr = np.broadcast_to(np.asarray(t, dtype=float), (x.shape[0],))
        if np.any(t_arr <= 0):
            raise ValueError("t must be positive (time features use log t)")
        feats = np.stack([np.log(t_arr), t_arr / self.horizon], axis=1)
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
    or tangent recursion.
    """

    def __init__(self, model: FlowModel, x: Array, t):
        self.dim = model.dim
        self.scalar = np.asarray(x).ndim == 1
        self.layers = model.layers()
        a = model._inputs(x, t)
        self.acts = [a]
        for w, b in self.layers[:-1]:
            a = np.tanh(a @ w.T + b)
            self.acts.append(a)

    def _shape(self, out: Array) -> Array:
        return out[..., 0, :] if self.scalar else out

    def value(self) -> Array:
        w, b = self.layers[-1]
        return self._shape(self.acts[-1] @ w.T + b)

    def param_grad(self, cotangent: Array) -> Array:
        """Gradient over phi of sum_i <cotangent_i, flow(x_i, t_i)>."""
        delta = np.atleast_2d(np.asarray(cotangent, dtype=float))
        grads = [None] * len(self.layers)
        for li in range(len(self.layers) - 1, -1, -1):
            w, _ = self.layers[li]
            grads[li] = (delta.T @ self.acts[li], delta.sum(axis=0))
            if li > 0:
                delta = (delta @ w) * self._slopes[li - 1]
        return np.concatenate([np.concatenate([gw.reshape(-1), gb]) for gw, gb in grads])

    @cached_property
    def _slopes(self) -> list:
        """tanh'(z) = 1 - a^2 per hidden layer."""
        return [1.0 - a**2 for a in self.acts[1:]]

    @cached_property
    def _curvatures(self) -> list:
        """tanh''(z) = -2 a (1 - a^2) per hidden layer."""
        return [-2.0 * a * s1 for a, s1 in zip(self.acts[1:], self._slopes)]

    def _pad_tangent(self, v: Array) -> Array:
        """Tangent (..., n, dim) with zero time-feature tangents appended.

        `v` is (dim,), (n, dim) or a stack (..., n, dim) of tangents at the
        batch's points.
        """
        n = self.acts[0].shape[0]
        v = np.atleast_2d(np.asarray(v, dtype=float))
        v = np.broadcast_to(v, v.shape[:-2] + (n, self.dim))
        return np.concatenate([v, np.zeros(v.shape[:-1] + (N_TIME_FEATURES,))], axis=-1)

    def directional(self, v: Array) -> Array:
        """d/ds flow(x + s v, t) at s=0."""
        da = self._pad_tangent(v)
        for (w, _), s1 in zip(self.layers[:-1], self._slopes):
            da = s1 * (da @ w.T)
        return self._shape(da @ self.layers[-1][0].T)

    def mixed(self, u: Array, v: Array) -> Array:
        """d^2/(dr ds) flow(x + r u + s v, t) at r=s=0.

        `u` and `v` may be stacks (..., n, dim) of tangent pairs.  The stack
        runs as hyper-dual passes of up to MIXED_PASS_ROWS rows each (at
        least one tangent pair), so each matmul takes many pairs at once
        while its temporaries stay cache-sized.
        """
        n = self.acts[0].shape[0]
        du = self._pad_tangent(u)
        dv = du if v is u else self._pad_tangent(v)
        stack = du.shape[:-2]
        du = du.reshape((-1,) + du.shape[-2:])
        dv = dv.reshape((-1,) + dv.shape[-2:])
        step = max(1, MIXED_PASS_ROWS // n)
        out = np.concatenate([self._mixed_pass(du[i : i + step], dv[i : i + step], v is u)
                              for i in range(0, du.shape[0], step)])
        return self._shape(out.reshape(stack + (n, self.dim)))

    def _mixed_pass(self, du: Array, dv: Array, same: bool) -> Array:
        duv = np.zeros_like(du)
        for (w, _), s1, s2 in zip(self.layers[:-1], self._slopes, self._curvatures):
            zu, zuv = du @ w.T, duv @ w.T
            zv = zu if same else dv @ w.T
            du = s1 * zu
            dv = du if same else s1 * zv
            duv = s2 * zu * zv + s1 * zuv
        return duv @ self.layers[-1][0].T
