"""Joint optimization of the flow model and the noise schedule.

The outer problem min over theta of H(theta) = min over phi of the
trajectory loss is handled by alternation: R Adam steps on the model
parameters, then one Adam step on the schedule parameters using the
plug-in outer gradient with the EMA model standing in for the inner
optimum.  With the mixture oracle as the field, the phi problem is
already solved exactly and only theta moves.

Everything is single process and bit-deterministic for a fixed seed:
batches are drawn from one generator stream and reductions keep a fixed
order.
"""

import dataclasses
import numbers
from dataclasses import dataclass

import numpy as np

from .fields import OracleFlowField
from .flow_model import FlowModel
from .gmm import GaussianMixture, sample_p0
from .loss import LossSample, loss_from_flow, loss_sample, perturbed_point
from .schedule import MatrixSchedule
from .schedule_grad import EstimatorConfig, outer_gradient

Array = np.ndarray
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class TrainingDiverged(RuntimeError):
    """Raised when the loss stays above the divergence threshold."""


# ---------------------------------------------------------------------------
# optimizer pieces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdamState:
    m: Array
    v: Array
    step: int = 0
    nonfinite_count: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n))


def adam_step(params: Array, grads: Array, state: AdamState, lr: float):
    """One bias-corrected Adam update; non-finite gradients are zeroed and counted."""
    grads = np.asarray(grads, dtype=float)
    bad = ~np.isfinite(grads)
    if np.any(bad):
        grads = np.where(bad, 0.0, grads)
    step = state.step + 1
    m = ADAM_BETA1 * state.m + (1 - ADAM_BETA1) * grads
    v = ADAM_BETA2 * state.v + (1 - ADAM_BETA2) * grads**2
    m_hat = m / (1 - ADAM_BETA1**step)
    v_hat = v / (1 - ADAM_BETA2**step)
    new_params = params - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return new_params, AdamState(
        m=m, v=v, step=step, nonfinite_count=state.nonfinite_count + int(bad.sum())
    )


def ema_update(ema: Array, params: Array, half_life_images: float,
               images_this_step: int, images_seen_total: int | None = None) -> Array:
    """EMA with per-image half-life; optionally ramped by total images seen."""
    half_life = half_life_images
    if images_seen_total is not None:
        half_life = min(half_life, max(float(images_seen_total), 1e-12))
    if half_life <= 0:
        return params.copy()
    decay = 0.5 ** (images_this_step / half_life)
    return params + decay * (ema - params)


class DivergenceGuard:
    """Aborts when the loss exceeds factor x warm-up median for `patience` steps."""

    def __init__(self, warmup_steps: int, factor: float = 1e3, patience: int = 100):
        self.warmup_steps = warmup_steps
        self.factor = factor
        self.patience = patience
        self._warmup_losses = []
        self.reference = None
        self._streak = 0

    def observe(self, loss: float):
        if self.reference is None:
            self._warmup_losses.append(loss)
            if len(self._warmup_losses) >= self.warmup_steps:
                self.reference = float(np.median(self._warmup_losses))
            return
        if loss > self.factor * self.reference:
            self._streak += 1
            if self._streak >= self.patience:
                raise TrainingDiverged(
                    f"loss {loss:.3e} above {self.factor:.0e} x warm-up median "
                    f"{self.reference:.3e} for {self.patience} consecutive steps"
                )
        else:
            self._streak = 0


# ---------------------------------------------------------------------------
# training configuration and loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 128
    lr_model: float = 1e-2
    lr_schedule_scale: float = 0.1  # schedule lr = scale * model lr
    warmup_images: int = 5_000
    ema_half_life_images: float = 20_000.0
    ema_rampup: bool = True
    total_images: int = 200_000
    model_steps_per_schedule_step: int = 8
    midpoint_decay: float = 0.5
    train_model: bool = True
    train_schedule: bool = True
    guard_factor: float = 1e3
    guard_patience: int = 100
    seed: int = 0
    log_every: int = 50

    def __post_init__(self):
        for name in ("batch_size", "warmup_images", "total_images", "model_steps_per_schedule_step",
                     "guard_patience", "seed", "log_every"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in (f.name for f in dataclasses.fields(self) if f.type is float):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.lr_model <= 0 or self.lr_schedule_scale <= 0:
            raise ValueError("learning rates must be positive")
        if self.model_steps_per_schedule_step < 1:
            raise ValueError("need at least one model step per schedule step")
        if self.total_images < 1 or self.log_every < 1:
            raise ValueError("total_images and log_every must be positive")
        if not 0 < self.midpoint_decay <= 1:
            raise ValueError("midpoint_decay must be in (0, 1]")
        if self.warmup_images < 0 or self.ema_half_life_images < 0:
            raise ValueError("warmup_images and ema_half_life_images must not be negative")
        if self.guard_factor <= 0 or self.guard_patience < 1:
            raise ValueError("guard_factor must be positive and guard_patience at least 1")


def effective_lr(cfg: TrainConfig, base_lr: float, images_seen: int) -> float:
    """Linear warm-up over the first warmup_images, then a post-midpoint decay."""
    lr = base_lr * min(1.0, images_seen / cfg.warmup_images) if cfg.warmup_images > 0 else base_lr
    if images_seen > cfg.total_images / 2:
        lr *= cfg.midpoint_decay
    return lr


@dataclass(frozen=True)
class TrainResult:
    model: FlowModel | None
    ema_model: FlowModel | None
    ms: MatrixSchedule
    logs: list  # rows: dict per logged step
    schedule_steps: list  # per theta step: (images_seen, label, theta, explicit, implicit)
    nonfinite_grads: int


def _data_source(data, rng):
    """(mixtures by label, draw): `{None: gm}` for one mixture, the dict for
    labeled mixtures, None for a dataset; `draw(n)` returns (x0, label)."""
    if isinstance(data, GaussianMixture):
        return {None: data}, lambda n: (sample_p0(data, n, rng), None)
    if isinstance(data, dict):
        labels = sorted(data)

        def draw(n):
            label = labels[rng.integers(len(labels))]
            return sample_p0(data[label], n, rng), label

        return data, draw
    points = np.asarray(data, dtype=float)
    if points.ndim != 2:
        raise ValueError("dataset must be a 2-D array of points")
    return None, lambda n: (points[rng.integers(points.shape[0], size=n)], None)


def _model_step(model: FlowModel, ms: MatrixSchedule, batch: LossSample):
    """(loss value, summed parameter gradient) of the model step: one primal pass."""
    ev = ms.at(batch.t)
    jet = model.at(perturbed_point(ev, batch), batch.t)
    value = loss_from_flow(ev, batch, jet.value())
    return value, jet.param_grad(value.cotangent)


def train_bilevel(data, ms: MatrixSchedule, model: FlowModel | None, cfg: TrainConfig,
                  estimator_cfg: EstimatorConfig = EstimatorConfig()) -> TrainResult:
    """Alternating schedule/model training; see the module docstring.

    `data` is a GaussianMixture (oracle mode available), a dict mapping
    class labels to mixtures (class-conditional schedules), or an (n, d)
    dataset array (model mode only; a `FlowModel` has no class input, so
    model mode takes no labeled mixtures).  `estimator_cfg` picks the outer
    gradient's estimator: the exact block-trace sum by default at every d,
    Rademacher probes only when asked for.
    """
    rng = np.random.default_rng(cfg.seed)
    mixtures, draw = _data_source(data, rng)
    if not cfg.train_model and mixtures is None:
        raise ValueError("oracle (schedule-only) training needs a mixture, not a dataset")
    if cfg.train_model and model is None:
        raise ValueError("model training requested but no model given")
    if cfg.train_model and isinstance(data, dict):
        raise ValueError("model training needs unlabeled data: the flow model has no class input")

    if cfg.train_model:
        params = model.params.copy()
        ema = params.copy()
        model_state = AdamState.zeros(params.size)
    theta_states: dict = {}
    guard = DivergenceGuard(
        warmup_steps=max(1, cfg.warmup_images // cfg.batch_size),
        factor=cfg.guard_factor,
        patience=cfg.guard_patience,
    )

    logs, schedule_steps = [], []
    images_seen = 0
    step = 0

    while images_seen < cfg.total_images:
        step += 1
        images_seen += cfg.batch_size
        lr_model = effective_lr(cfg, cfg.lr_model, images_seen)
        lr_theta = effective_lr(cfg, cfg.lr_model * cfg.lr_schedule_scale, images_seen)

        x0, label = draw(cfg.batch_size)
        eps = rng.standard_normal(x0.shape)
        batch = LossSample(x0, eps, rng.uniform(ms.t_min, ms.horizon, size=x0.shape[0]))

        grad_theta = None
        if cfg.train_model:
            value, grad = _model_step(model, ms, batch)
            params, model_state = adam_step(params, grad / cfg.batch_size, model_state, lr_model)
            model = model.with_params(params)
            ema = ema_update(
                ema, params, cfg.ema_half_life_images, cfg.batch_size,
                images_seen if cfg.ema_rampup else None,
            )
        else:
            field = OracleFlowField(mixtures[label], ms, label)
            if cfg.train_schedule:  # the step's loss is the one the outer gradient differentiates
                grad_theta = outer_gradient(ms, field, batch, estimator_cfg, label)
                value = grad_theta.value
            else:
                value = loss_sample(ms.for_class(label), field, batch)
        losses = value.loss
        loss_mean, loss_se = float(losses.mean()), float(losses.std() / np.sqrt(losses.size))
        guard.observe(loss_mean)

        if cfg.train_model and cfg.train_schedule and step % cfg.model_steps_per_schedule_step == 0:
            grad_theta = outer_gradient(ms, model.with_params(ema), batch, estimator_cfg, label)
        if grad_theta is not None:
            if label not in theta_states:
                theta_states[label] = AdamState.zeros(grad_theta.total.size)
            theta, theta_states[label] = adam_step(
                ms.theta_vector(label), grad_theta.total, theta_states[label], lr_theta)
            ms = ms.with_theta_vector(theta, label)
            schedule_steps.append(
                (images_seen, label, theta, grad_theta.explicit, grad_theta.implicit))

        if step % cfg.log_every == 0 or images_seen >= cfg.total_images:
            row = {
                "step": step,
                "images": images_seen,
                "loss_mean": loss_mean,
                "loss_se": loss_se,
                "lr_model": lr_model,
                "lr_schedule": lr_theta,
            }
            energy = ms.family.block_energies(value.residual).sum(axis=0) / cfg.batch_size
            for j, e in enumerate(energy):
                row[f"residual_energy_{j + 1}"] = float(e)
            logs.append(row)

    return TrainResult(
        model=model if cfg.train_model else None,
        ema_model=model.with_params(ema) if cfg.train_model else None,
        ms=ms,
        logs=logs,
        schedule_steps=schedule_steps,
        nonfinite_grads=(model_state.nonfinite_count if cfg.train_model else 0)
        + sum(state.nonfinite_count for state in theta_states.values()),
    )


# ---------------------------------------------------------------------------
# generation quality metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GenerationMetrics:
    energy_distance: float
    gaussian_w2: float  # Bures distance between fitted Gaussians


def _psd_sqrt(mat: Array) -> Array:
    evals, evecs = np.linalg.eigh(mat)
    return (evecs * np.sqrt(np.maximum(evals, 0.0))) @ evecs.T


def gaussian_w2(mean_a, cov_a, mean_b, cov_b) -> float:
    """Closed-form 2-Wasserstein distance between Gaussians (Bures metric)."""
    root_a = _psd_sqrt(np.atleast_2d(cov_a))
    inner = _psd_sqrt(root_a @ np.atleast_2d(cov_b) @ root_a)
    sq = (
        np.sum((np.asarray(mean_a) - np.asarray(mean_b)) ** 2)
        + np.trace(np.atleast_2d(cov_a) + np.atleast_2d(cov_b) - 2 * inner)
    )
    return float(np.sqrt(max(sq, 0.0)))


def evaluate_generation(samples: Array, reference: Array) -> GenerationMetrics:
    """Energy distance (pairwise U-statistic) and moment-fitted Gaussian W2."""
    from scipy.spatial.distance import cdist, pdist

    x = np.atleast_2d(np.asarray(samples, dtype=float))
    y = np.atleast_2d(np.asarray(reference, dtype=float))
    if x.shape[0] < 2 or y.shape[0] < 2:
        raise ValueError("need at least two samples on each side")
    if x.shape[1] != y.shape[1]:
        raise ValueError("sample dimensions differ")
    # all-pairs means (Szekely-Rizzo statistic): exactly zero on identical sets
    cross = cdist(x, y).mean()
    within_x = 2.0 * pdist(x).sum() / x.shape[0] ** 2
    within_y = 2.0 * pdist(y).sum() / y.shape[0] ** 2
    energy = 2 * cross - within_x - within_y
    w2 = gaussian_w2(
        x.mean(axis=0), np.cov(x, rowvar=False), y.mean(axis=0), np.cov(y, rowvar=False)
    )
    return GenerationMetrics(energy_distance=float(energy), gaussian_w2=w2)
