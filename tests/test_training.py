import dataclasses
import gc
import weakref

import numpy as np
import pytest

from anisodiff import gmm as gmm_mod
from anisodiff import loss as loss_mod
from anisodiff import schedule_grad as schedule_grad_mod
from anisodiff import training as training_mod
from anisodiff.fields import OracleFlowField
from anisodiff.flow_model import FlowModel
from anisodiff.gmm import sample_p0, single_gaussian
from anisodiff.loss import draw_loss_samples
from anisodiff.schedule import KnotSchedule, matrix_schedule_for_family
from anisodiff.schedule_grad import estimate_H
from anisodiff.subspaces import axis_family
from anisodiff.training import (
    AdamState,
    DivergenceGuard,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    effective_lr,
    ema_update,
    evaluate_generation,
    gaussian_w2,
    train_bilevel,
)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_zero_grad_keeps_params():
    params = np.array([1.0, -2.0])
    state = AdamState.zeros(2)
    new_params, new_state = adam_step(params, np.zeros(2), state, lr=0.1)
    np.testing.assert_array_equal(new_params, params)
    assert new_state.step == 1


def test_adam_constant_gradient_drift():
    params = np.array([0.0])
    state = AdamState.zeros(1)
    lr, n = 0.05, 60
    for _ in range(n):
        params, state = adam_step(params, np.array([3.0]), state, lr=lr)
    # with a constant gradient each bias-corrected step is ~ -lr * sign(g)
    assert params[0] == pytest.approx(-lr * n, rel=0.05)


def test_adam_three_step_hand_reference():
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    grads = [0.5, -1.25, 2.0]
    # hand-stepped reference on plain floats
    p, m, v = 0.3, 0.0, 0.0
    for k, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**k)
        v_hat = v / (1 - b2**k)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
    params = np.array([0.3])
    state = AdamState.zeros(1)
    for g in grads:
        params, state = adam_step(params, np.array([g]), state, lr)
    assert params[0] == pytest.approx(p, abs=1e-12)


def test_adam_sanitizes_nonfinite_grads():
    params = np.array([1.0, 2.0])
    state = AdamState.zeros(2)
    new_params, new_state = adam_step(params, np.array([np.nan, 1.0]), state, lr=0.1)
    assert np.all(np.isfinite(new_params))
    assert new_params[0] == params[0]  # nan gradient acted as zero
    assert new_state.nonfinite_count == 1


# ---------------------------------------------------------------------------
# EMA and schedule helpers
# ---------------------------------------------------------------------------

def test_ema_zero_half_life_copies_params():
    ema = np.array([5.0])
    params = np.array([1.0])
    np.testing.assert_array_equal(ema_update(ema, params, 0.0, 10), params)


def test_ema_geometric_convergence():
    half_life = 100.0
    images = 25
    decay = 0.5 ** (images / half_life)
    ema = np.array([4.0])
    params = np.array([1.0])
    gap0 = ema[0] - params[0]
    for n in range(1, 6):
        ema = ema_update(ema, params, half_life, images)
        assert ema[0] - params[0] == pytest.approx(gap0 * decay**n, rel=1e-12)


def test_ema_rampup_tracks_early():
    ema = np.array([10.0])
    params = np.array([0.0])
    out = ema_update(ema, params, 1e6, 64, images_seen_total=64)
    # ramped half-life equals images seen, so decay = 0.5
    assert out[0] == pytest.approx(5.0, rel=1e-12)


def test_warmup_lr_exact():
    cfg = TrainConfig(warmup_images=10_000, total_images=100_000)
    for n in (128, 2_560, 9_984):
        assert effective_lr(cfg, 0.02, n) == pytest.approx(0.02 * n / 10_000, abs=1e-12)
    assert effective_lr(cfg, 0.02, 20_000) == 0.02
    assert effective_lr(cfg, 0.02, 60_000) == pytest.approx(0.02 * 0.5)


def test_divergence_guard_triggers():
    guard = DivergenceGuard(warmup_steps=5, factor=10.0, patience=3)
    for _ in range(5):
        guard.observe(1.0)
    assert guard.reference == 1.0
    guard.observe(50.0)
    guard.observe(50.0)
    with pytest.raises(TrainingDiverged):
        guard.observe(50.0)
    # recovery resets the streak
    guard2 = DivergenceGuard(warmup_steps=1, factor=10.0, patience=2)
    guard2.observe(1.0)
    guard2.observe(50.0)
    guard2.observe(1.0)
    guard2.observe(50.0)  # streak back to 1, no raise


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------

def anisotropic_gaussian():
    return single_gaussian(np.zeros(2), np.diag([4.0, 0.25]))


def test_oracle_mode_reduces_H():
    gm = anisotropic_gaussian()
    fam = axis_family(2, 1)
    ms = matrix_schedule_for_family(fam, horizon=20.0, n_knots=6)
    cfg = TrainConfig(
        batch_size=256,
        total_images=256 * 60,
        warmup_images=256 * 5,
        lr_model=0.2,  # theta lr = 0.02
        train_model=False,
        seed=0,
        log_every=10,
    )
    result = train_bilevel(gm, ms, None, cfg)
    probe = draw_loss_samples(gm, ms, 4096, np.random.default_rng(999))
    h_before = estimate_H(ms, OracleFlowField(gm, ms), probe)
    h_after = estimate_H(result.ms, OracleFlowField(gm, result.ms), probe)
    assert h_after < h_before
    assert len(result.schedule_steps) == 60


def test_oracle_mode_deterministic():
    gm = anisotropic_gaussian()
    fam = axis_family(2, 1)
    ms = matrix_schedule_for_family(fam, horizon=20.0, n_knots=5)
    cfg = TrainConfig(
        batch_size=64, total_images=64 * 10, warmup_images=64 * 2,
        lr_model=0.1, train_model=False, seed=7,
    )
    r1 = train_bilevel(gm, ms, None, cfg)
    r2 = train_bilevel(gm, ms, None, cfg)
    np.testing.assert_array_equal(r1.ms.theta_vector(), r2.ms.theta_vector())


def test_model_mode_deterministic_and_improves():
    gm = single_gaussian(np.zeros(2), np.eye(2))
    fam = axis_family(2, 1)
    ms = matrix_schedule_for_family(fam, horizon=10.0, n_knots=8)
    model = FlowModel.create(2, horizon=10.0, widths=(32, 32), seed=1)
    cfg = TrainConfig(
        batch_size=128, total_images=128 * 150, warmup_images=128 * 10,
        lr_model=5e-3, train_model=True, train_schedule=False, seed=3,
        log_every=10,
    )
    r1 = train_bilevel(gm, ms, model, cfg)
    r2 = train_bilevel(gm, ms, model, cfg)
    np.testing.assert_array_equal(r1.model.params, r2.model.params)
    np.testing.assert_array_equal(r1.ema_model.params, r2.ema_model.params)
    assert r1.logs[-1]["loss_mean"] < r1.logs[0]["loss_mean"]
    # theta untouched when schedule training is off
    np.testing.assert_array_equal(r1.ms.theta_vector(), ms.theta_vector())
    assert r1.schedule_steps == []


def test_class_conditional_updates_only_present_classes():
    from anisodiff.schedule import MatrixSchedule

    fam = axis_family(2, 1)
    base = matrix_schedule_for_family(fam, horizon=10.0, n_knots=4)
    table = {"a": base.per_subspace, "b": base.per_subspace}
    ms = MatrixSchedule(fam, base.per_subspace, class_table=table)
    data = {"a": anisotropic_gaussian()}  # only class a ever drawn
    cfg = TrainConfig(
        batch_size=64, total_images=64 * 6, warmup_images=64,
        lr_model=0.5, train_model=False, seed=0,
    )
    result = train_bilevel(data, ms, None, cfg)
    np.testing.assert_array_equal(result.ms.theta_vector("b"), ms.theta_vector("b"))
    assert not np.array_equal(result.ms.theta_vector("a"), ms.theta_vector("a"))
    assert all(label == "a" for _, label, *_ in result.schedule_steps)


def test_grad_diagnostics_rows():
    gm = anisotropic_gaussian()
    fam = axis_family(2, 1)
    ms = matrix_schedule_for_family(fam, horizon=10.0, n_knots=4)
    cfg = TrainConfig(
        batch_size=128, total_images=128 * 3, warmup_images=128,
        lr_model=0.1, train_model=False, seed=0,
    )
    result = train_bilevel(gm, ms, None, cfg)
    # one (images, class, theta, explicit, implicit) entry per theta step
    assert sum(explicit.size for *_, explicit, _ in result.schedule_steps) == 3 * ms.n_params
    for images, label, theta, explicit, implicit in result.schedule_steps:
        assert theta.shape == explicit.shape == implicit.shape == (ms.n_params,)


STEPS = 6


def _logged_run(monkeypatch, train_model):
    """A short seeded run that logs every step.  Also returns the (schedule, field, batch) of
    each step's loss, and of each outer-gradient call, captured from the loop."""
    gm = anisotropic_gaussian()
    ms = matrix_schedule_for_family(axis_family(2, 1), horizon=10.0, n_knots=4)
    model = FlowModel.create(2, horizon=10.0, widths=(8,), seed=4) if train_model else None
    # the warm-up ramp and the midpoint decay both fall inside the run
    cfg = TrainConfig(
        batch_size=32, total_images=32 * STEPS, warmup_images=32 * 4, lr_model=0.05,
        model_steps_per_schedule_step=2, train_model=train_model, seed=5, log_every=1,
    )
    losses, gradients = [], []
    original_gradient, original_step = training_mod.outer_gradient, training_mod._model_step

    def gradient(ms, field, batch, *args):
        gradients.append((ms, field, batch))
        return original_gradient(ms, field, batch, *args)

    def model_step(model, ms, batch):
        losses.append((ms, model, batch))
        return original_step(model, ms, batch)

    monkeypatch.setattr(training_mod, "outer_gradient", gradient)
    monkeypatch.setattr(training_mod, "_model_step", model_step)
    result = train_bilevel(gm, ms, model, cfg)
    return cfg, result, losses if train_model else gradients, gradients


@pytest.mark.parametrize("train_model", [False, True], ids=["oracle", "model"])
def test_logged_loss_and_residual_energies_are_the_steps_batch_statistics(monkeypatch,
                                                                          train_model):
    cfg, result, steps, _ = _logged_run(monkeypatch, train_model)
    assert [row["step"] for row in result.logs] == list(range(1, STEPS + 1))
    for row, (ms, field, batch) in zip(result.logs, steps, strict=True):
        value = loss_mod.loss_sample(ms, field, batch)
        assert value.loss.shape == (cfg.batch_size,)
        assert row["loss_mean"] == pytest.approx(np.mean(value.loss), rel=1e-12)
        assert row["loss_se"] == pytest.approx(
            np.std(value.loss) / np.sqrt(cfg.batch_size), rel=1e-12)
        for j, block in enumerate(np.eye(ms.family.n_subspaces)):
            projected = value.residual @ ms.family.dense(block)  # P_j r_i per row
            assert row[f"residual_energy_{j + 1}"] == pytest.approx(
                np.mean(np.sum(projected**2, axis=1)), rel=1e-12)


@pytest.mark.parametrize("train_model", [False, True], ids=["oracle", "model"])
def test_logged_learning_rates_are_the_effective_rates(monkeypatch, train_model):
    cfg, result, _, _ = _logged_run(monkeypatch, train_model)
    for step, row in enumerate(result.logs, start=1):
        assert row["images"] == step * cfg.batch_size
        assert row["lr_model"] == effective_lr(cfg, cfg.lr_model, row["images"])
        assert row["lr_schedule"] == effective_lr(
            cfg, cfg.lr_model * cfg.lr_schedule_scale, row["images"])


@pytest.mark.parametrize("train_model", [False, True], ids=["oracle", "model"])
def test_schedule_steps_hold_the_parts_of_a_direct_outer_gradient(monkeypatch, train_model):
    cfg, result, _, gradients = _logged_run(monkeypatch, train_model)
    every = cfg.model_steps_per_schedule_step if train_model else 1
    assert len(result.schedule_steps) == STEPS // every
    # theta after each step is the one the next call differentiates at, or the result's
    thetas = [ms.theta_vector() for ms, _, _ in gradients[1:]] + [result.ms.theta_vector()]
    for k, (entry, (ms, field, batch), theta_after) in enumerate(
            zip(result.schedule_steps, gradients, thetas, strict=True), start=1):
        images, label, theta, explicit, implicit = entry
        direct = schedule_grad_mod.outer_gradient(ms, field, batch)
        assert (images, label) == (k * every * cfg.batch_size, None)
        np.testing.assert_array_equal(theta, theta_after)
        np.testing.assert_array_equal(explicit, direct.explicit)
        np.testing.assert_array_equal(implicit, direct.implicit)


@pytest.mark.parametrize("train_model", [False, True], ids=["oracle", "model"])
def test_nonfinite_grads_counts_the_schedule_gradients_too(monkeypatch, train_model):
    original = training_mod.outer_gradient
    calls = []

    def gradient(*args):  # the first outer gradient holds one NaN
        result = original(*args)
        if not calls:
            result = dataclasses.replace(result, total=np.where(
                np.arange(result.total.size) == 0, np.nan, result.total))
        calls.append(result)
        return result

    monkeypatch.setattr(training_mod, "outer_gradient", gradient)
    model = FlowModel.create(2, horizon=10.0, widths=(8,), seed=4) if train_model else None
    cfg = TrainConfig(batch_size=16, total_images=16 * 4, warmup_images=16, lr_model=0.05,
                      model_steps_per_schedule_step=2, train_model=train_model, seed=5)
    result = train_bilevel(anisotropic_gaussian(),
                           matrix_schedule_for_family(axis_family(2, 1), horizon=10.0, n_knots=4),
                           model, cfg)
    assert len(calls) == (2 if train_model else 4)
    assert all(np.isfinite(theta).all() for _, _, theta, _, _ in result.schedule_steps)
    assert result.nonfinite_grads == 1


def test_dataset_source_model_training_runs():
    rng = np.random.default_rng(5)
    gm = single_gaussian(np.zeros(2), np.eye(2))
    data = sample_p0(gm, 2000, rng)
    fam = axis_family(2, 1)
    ms = matrix_schedule_for_family(fam, horizon=10.0)
    model = FlowModel.create(2, horizon=10.0, widths=(16, 16), seed=2)
    cfg = TrainConfig(
        batch_size=64, total_images=64 * 20, warmup_images=64 * 4,
        train_model=True, train_schedule=False, seed=1,
    )
    result = train_bilevel(data, ms, model, cfg)
    assert np.all(np.isfinite(result.model.params))
    with pytest.raises(ValueError):
        train_bilevel(data, ms, None, TrainConfig(train_model=False))


def _count_calls(monkeypatch, holder, name):
    calls = []
    original = getattr(holder, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(holder, name, counted)
    return calls


def test_oracle_mode_factors_the_noisy_mixture_once_per_step(monkeypatch):
    gm = anisotropic_gaussian()
    ms = matrix_schedule_for_family(axis_family(2, 1), horizon=10.0, n_knots=4)
    cfg = TrainConfig(
        batch_size=32, total_images=32 * 4, warmup_images=32,
        lr_model=0.1, train_model=False, seed=0,
    )
    built = _count_calls(monkeypatch, gmm_mod._NoisyMixture, "__init__")
    train_bilevel(gm, ms, None, cfg)
    assert len(built) == 4


def test_model_mode_evaluates_each_step_once(monkeypatch):
    gm = anisotropic_gaussian()
    ms = matrix_schedule_for_family(axis_family(2, 1), horizon=10.0, n_knots=4)
    model = FlowModel.create(2, horizon=10.0, widths=(8, 8), seed=2)
    steps, per_schedule_step = 4, 2
    cfg = TrainConfig(
        batch_size=32, total_images=32 * steps,
        warmup_images=32, model_steps_per_schedule_step=per_schedule_step,
        train_model=True, train_schedule=True, seed=1,
    )
    passes = _count_calls(monkeypatch, FlowModel, "_inputs")
    perturbs = [_count_calls(monkeypatch, module, "perturbed_point")
                for module in (loss_mod, schedule_grad_mod, training_mod)]
    train_bilevel(gm, ms, model, cfg)
    expected = steps + steps // per_schedule_step
    assert len(passes) == expected
    assert sum(len(calls) for calls in perturbs) == expected


def test_model_mode_evaluates_the_schedule_once_per_step(monkeypatch):
    gm = anisotropic_gaussian()
    ms = matrix_schedule_for_family(axis_family(2, 1), horizon=10.0, n_knots=4)
    model = FlowModel.create(2, horizon=10.0, widths=(8, 8), seed=2)
    steps = 3
    cfg = TrainConfig(
        batch_size=32, total_images=32 * steps,
        warmup_images=32, train_model=True, train_schedule=False, seed=1,
    )
    locates = _count_calls(monkeypatch, KnotSchedule, "_locate")
    train_bilevel(gm, ms, model, cfg)
    # one eval_M per step: one interval search per knot schedule
    assert len(locates) == steps * ms.n_subspaces


def test_no_model_step_jet_is_alive_when_the_schedule_step_starts(monkeypatch):
    gm = anisotropic_gaussian()
    ms = matrix_schedule_for_family(axis_family(2, 1), horizon=10.0, n_knots=4)
    model = FlowModel.create(2, horizon=10.0, widths=(8, 8), seed=2)
    cfg = TrainConfig(
        batch_size=32, total_images=32 * 4, warmup_images=32, model_steps_per_schedule_step=2,
        train_model=True, train_schedule=True, seed=1,
    )
    jets, live = [], []
    at, outer = FlowModel.at, training_mod.outer_gradient

    def recorded_at(self, x, t):
        jet = at(self, x, t)
        jets.append(weakref.ref(jet))
        return jet

    def counted_outer(*args, **kwargs):
        gc.collect()
        live.append(sum(ref() is not None for ref in jets))
        return outer(*args, **kwargs)

    monkeypatch.setattr(FlowModel, "at", recorded_at)
    monkeypatch.setattr(training_mod, "outer_gradient", counted_outer)
    train_bilevel(gm, ms, model, cfg)
    assert live == [0, 0]


def test_model_mode_rejects_labeled_mixtures():
    # the flow model has no class input, so it cannot stand in for each class's optimal field
    from anisodiff.schedule import MatrixSchedule

    fam = axis_family(2, 1)
    base = matrix_schedule_for_family(fam, horizon=10.0, n_knots=4)
    ms = MatrixSchedule(fam, base.per_subspace, class_table={"a": base.per_subspace})
    model = FlowModel.create(2, horizon=10.0, widths=(8,), seed=2)
    cfg = TrainConfig(batch_size=32, total_images=32 * 2, warmup_images=32, seed=1)
    with pytest.raises(ValueError, match="no class input"):
        train_bilevel({"a": anisotropic_gaussian()}, ms, model, cfg)


# ---------------------------------------------------------------------------
# generation metrics
# ---------------------------------------------------------------------------

def test_energy_distance_identical_sets():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((50, 2))
    metrics = evaluate_generation(x, x.copy())
    assert metrics.energy_distance == pytest.approx(0.0, abs=1e-12)


def test_w2_one_dimensional_scale_gap():
    # sample sets with exact moments: mean 0, variances 1 and 4
    x = np.array([[-1.0], [0.0], [1.0]])
    y = 2.0 * x
    metrics = evaluate_generation(x, y)
    assert metrics.gaussian_w2 == pytest.approx(1.0, abs=1e-12)


def test_w2_closed_form_matches_hand_value():
    # diagonal case: W2^2 = |m1-m2|^2 + sum (sqrt(a_i) - sqrt(b_i))^2
    w2 = gaussian_w2(np.zeros(2), np.diag([4.0, 1.0]), np.zeros(2), np.diag([1.0, 1.0]))
    assert w2 == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("field", ["total_images", "log_every"])
def test_train_config_rejects_a_count_below_one(field):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: 0})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["lr_model", "lr_schedule_scale", "ema_half_life_images",
                                   "midpoint_decay", "guard_factor"])
def test_train_config_rejects_a_non_finite_number(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be a finite number"):
        TrainConfig(**{field: value})


COUNT_FIELDS = ["batch_size", "warmup_images", "total_images", "model_steps_per_schedule_step",
                "guard_patience", "seed", "log_every"]


@pytest.mark.parametrize("value", [True, 2.5, 3.0, "3"], ids=["bool", "fraction", "float", "str"])
@pytest.mark.parametrize("field", COUNT_FIELDS)
def test_train_config_rejects_a_count_that_is_not_an_integer(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("field", COUNT_FIELDS)
def test_train_config_accepts_a_numpy_integer_count(field):
    assert getattr(TrainConfig(**{field: np.int64(3)}), field) == 3


def test_evaluate_generation_validates_input():
    with pytest.raises(ValueError):
        evaluate_generation(np.zeros((1, 2)), np.zeros((5, 2)))
    with pytest.raises(ValueError):
        evaluate_generation(np.zeros((5, 2)), np.zeros((5, 3)))


def test_energy_distance_detects_scale_mismatch():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((400, 2))
    y = rng.standard_normal((400, 2))
    z = 3.0 * rng.standard_normal((400, 2))
    close = evaluate_generation(x, y).energy_distance
    far = evaluate_generation(x, z).energy_distance
    assert far > close
