"""The benchmark workloads: seeded inputs, timed units and output checks.

A unit is what one timed call into the library does: a whole sampling
trajectory, or a short `train_bilevel` episode whose steps are the ops.
`train_bilevel` has no step hook, so step boundaries are the calls to
`DivergenceGuard.observe`, which the trainer makes once per step.

Every input (mixture, model initialisation, batches, noise) comes from
the workload seed; the library sees only the generated objects.
"""

import hashlib
import time
from collections import namedtuple

import numpy as np

from anisodiff import sampler, training
from anisodiff.fields import OracleFlowField
from anisodiff.flow_model import FlowModel
from anisodiff.gmm import GaussianMixture
from anisodiff.schedule import matrix_schedule_for_family
from anisodiff.schedule_grad import EstimatorConfig, fd_outer_gradient
from anisodiff.subspaces import build_dct_projectors

import checks

HORIZON = 80.0
# The first this-many trajectories are pooled for the sample-quality check.
W2_POOL_UNITS = 4
DENSE_CHECK_ROWS = 4
# Mean loss over this many final logged steps of the first episode.
LOSS_WINDOW = 8


def unit_seed(seed, k):
    """Independent integer seed for unit k of a run with workload seed `seed`."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def random_mixture(d, k, rng):
    """K full-covariance components with eigenvalues in [0.05, 1] and spread means."""
    means = 1.5 * rng.standard_normal((k, d))
    covs = np.empty((k, d, d))
    for i in range(k):
        q, r = np.linalg.qr(rng.standard_normal((d, d)))
        q *= np.sign(np.diag(r))
        lam = np.exp(rng.uniform(np.log(0.05), 0.0, d))
        c = (q * lam) @ q.T
        covs[i] = 0.5 * (c + c.T)
    weights = rng.uniform(0.5, 1.5, k)
    return GaussianMixture(weights / weights.sum(), means, covs)


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).data)
    return h.hexdigest()


# One timed unit: wall time, per-op times, items and ops done, library output.
Unit = namedtuple("Unit", "duration op_times items ops output")


# ---------------------------------------------------------------------------
# training workloads
# ---------------------------------------------------------------------------

class TrainingWorkload:
    """Bilevel training episodes on the d=16 DCT family (J=2), K=4 mixture."""

    def __init__(self, seed, train_model):
        rng = np.random.default_rng(seed)
        self.seed = seed
        family = build_dct_projectors(4, low_side=2)
        self.ms = matrix_schedule_for_family(family, HORIZON)
        self.gm = random_mixture(family.ambient_dim, 4, rng)
        self.estimator = EstimatorConfig(mode="exact-sum")
        self.train_model = train_model
        if train_model:
            self.model = FlowModel.create(family.ambient_dim, HORIZON, (64, 64),
                                          seed=int(rng.integers(2**31)))
            self.batch, self.steps, self.warm_steps = 256, 64, 8
        else:
            self.model = None
            self.batch, self.steps, self.warm_steps = 64, 4, 1
        self.first_gradient = None
        self.first_logs = None

    def _config(self, k, steps):
        common = dict(batch_size=self.batch, total_images=self.batch * steps,
                      warmup_images=2 * self.batch, seed=unit_seed(self.seed, k),
                      log_every=1, train_schedule=True)
        if self.train_model:
            return training.TrainConfig(lr_model=5e-3, model_steps_per_schedule_step=8,
                                        train_model=True, **common)
        return training.TrainConfig(lr_model=0.5, train_model=False, **common)

    def _episode(self, k, steps):
        stamps = []
        observe = training.DivergenceGuard.observe

        def stamped(guard, loss):
            stamps.append(time.perf_counter())
            return observe(guard, loss)

        training.DivergenceGuard.observe = stamped
        try:
            start = time.perf_counter()
            result = training.train_bilevel(self.gm, self.ms, self.model,
                                            self._config(k, steps), self.estimator)
            duration = time.perf_counter() - start
        finally:
            training.DivergenceGuard.observe = observe
        return Unit(duration, list(np.diff(stamps)), self.batch * steps, len(stamps), result)

    def warm_up(self):
        """One schedule cycle with unit 0's seed; records the first outer gradient."""
        original = training.outer_gradient

        def capture(ms, field, batch, cfg=None, class_label=None):
            grad = original(ms, field, batch, cfg, class_label)
            if self.first_gradient is None:
                self.first_gradient = (ms, batch, class_label, grad.total.copy())
            return grad

        training.outer_gradient = capture
        try:
            self._episode(0, self.warm_steps)
        finally:
            training.outer_gradient = original

    def run_unit(self, k):
        unit = self._episode(k, self.steps)
        if k == 0:
            self.first_logs = unit.output.logs
        return unit

    def fingerprint(self, result):
        parts = [result.ms.theta_vector(), [row["loss_mean"] for row in result.logs]]
        if result.ema_model is not None:
            parts += [result.model.params, result.ema_model.params]
        return _digest(*parts)

    def unit_checks(self, result):
        losses = [row["loss_mean"] for row in result.logs]
        out = [checks.finite("theta finite", result.ms.theta_vector()),
               checks.finite("losses finite", losses)]
        if self.train_model:
            out.append(checks.equal("nonfinite_grads == 0", result.nonfinite_grads, 0))
        return out

    def final_checks(self):
        if self.train_model:
            return []
        ms, batch, label, grad = self.first_gradient
        fd = fd_outer_gradient(lambda m: OracleFlowField(self.gm, m, label), ms, batch,
                               h=1e-4, class_label=label)
        return [checks.gradient_matches_fd(grad, fd)]

    def quality(self):
        """Mean loss over the final logged window of the first episode."""
        losses = [row["loss_mean"] for row in self.first_logs[-LOSS_WINDOW:]]
        return {"train_loss": (float(np.mean(losses)), "1")}


# ---------------------------------------------------------------------------
# sampling workloads
# ---------------------------------------------------------------------------

class SamplingWorkload:
    """Heun-32 endpoint trajectories; one trajectory is one op."""

    def __init__(self, seed, side, low_side, n, oracle):
        rng = np.random.default_rng(seed)
        self.seed = seed
        family = build_dct_projectors(side, low_side=low_side)
        self.ms = matrix_schedule_for_family(family, HORIZON)
        d = family.ambient_dim
        if oracle:
            self.gm = random_mixture(d, 4, rng)
            self.field = OracleFlowField(self.gm, self.ms)
        else:
            self.gm = None
            self.field = FlowModel.create(d, HORIZON, (64, 64),
                                          seed=int(rng.integers(2**31)), zero_head=False)
        self.cfg = sampler.SamplerConfig(steps=32, solver="heun", secondary="endpoint")
        self.n = n
        self.rng = rng
        self.finals = {}

    def warm_up(self):
        self.run_unit(0)

    def run_unit(self, k):
        start = time.perf_counter()
        result = sampler.sample_trajectory(self.ms, self.field, self.cfg, n=self.n,
                                   rng=unit_seed(self.seed, k))
        duration = time.perf_counter() - start
        if k < W2_POOL_UNITS:
            self.finals[k] = result.final
        return Unit(duration, [duration], self.n, 1, result)

    def fingerprint(self, result):
        return _digest(result.final)

    def unit_checks(self, result):
        return [checks.equal("nfe == expected_nfe", result.nfe, sampler.expected_nfe(self.cfg)),
                checks.finite("samples finite", result.final)]

    def _pool(self):
        for k in range(W2_POOL_UNITS):
            if k not in self.finals:
                self.run_unit(k)
        return np.concatenate([self.finals[k] for k in range(W2_POOL_UNITS)])

    def final_checks(self):
        if self.gm is not None:
            return [checks.sample_w2_matches(self._pool(), self.gm)]
        x_init = self.rng.standard_normal((DENSE_CHECK_ROWS, self.ms.family.ambient_dim))
        got = sampler.sample_trajectory(self.ms, self.field, self.cfg, x_init=x_init).final
        want = checks.dense_heun_reference(self.ms, self.field, self.cfg, x_init)
        return [checks.matches_dense_reference(got, want)]

    def quality(self):
        if self.gm is None:
            return {}
        return {"sample_w2": (checks.moment_w2(self._pool(), self.gm), "1")}


WORKLOADS = {
    "oracle-train": lambda seed: TrainingWorkload(seed, train_model=False),
    "model-train": lambda seed: TrainingWorkload(seed, train_model=True),
    "oracle-sample": lambda seed: SamplingWorkload(seed, 8, 4, 256, oracle=True),
    "mlp-sample": lambda seed: SamplingWorkload(seed, 32, 16, 32, oracle=False),
}
