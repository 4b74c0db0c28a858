"""Workloads: traced runs change no output, and every check catches a wrong output."""

import dataclasses

import numpy as np
import pytest

import checks
from anisodiff.gmm import sample_p0
from spans import ROOT, Tracer, patched
from workloads import WORKLOADS, random_mixture


@pytest.fixture(scope="module")
def warm():
    """Each workload built from seed 3 and warmed up, shared by the tests below."""
    out = {}
    for name, make in WORKLOADS.items():
        workload = make(3)
        workload.warm_up()
        out[name] = workload
    return out


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_and_untraced_units_are_bit_identical(warm, name):
    workload = warm[name]
    plain = workload.run_unit(1)
    tracer = Tracer()
    with patched(tracer), tracer.root():
        traced = workload.run_unit(1)
    assert workload.fingerprint(traced.output) == workload.fingerprint(plain.output)
    assert tracer.spans[0][0] == ROOT and len(tracer.spans) > 100
    again = workload.run_unit(1)
    assert workload.fingerprint(again.output) == workload.fingerprint(plain.output)


def test_gradient_check_rejects_a_wrong_gradient(warm):
    workload = warm["oracle-train"]
    assert all(passed for _, passed, _ in workload.final_checks())
    ms, batch, label, grad = workload.first_gradient
    try:
        workload.first_gradient = (ms, batch, label, grad * (1 + 1e-2))
        assert not any(passed for _, passed, _ in workload.final_checks())
    finally:
        workload.first_gradient = (ms, batch, label, grad)


def test_nfe_check_rejects_a_wrong_count(warm):
    workload = warm["oracle-sample"]
    result = workload.run_unit(0).output
    assert all(passed for _, passed, _ in workload.unit_checks(result))
    wrong = dataclasses.replace(result, nfe=result.nfe + 1)
    failed = [name for name, passed, _ in workload.unit_checks(wrong) if not passed]
    assert failed == ["nfe == expected_nfe"]


def test_sample_check_rejects_degraded_samples(warm):
    workload = warm["oracle-sample"]
    assert all(passed for _, passed, _ in workload.final_checks())
    pool = workload._pool()
    mean = workload.gm.mean
    for wrong in (mean + 1.5 * (pool - mean), pool + 1.0, pool[:, ::-1]):
        assert not checks.sample_w2_matches(wrong, workload.gm)[1]


def test_sample_check_on_exact_draws():
    gm = random_mixture(8, 4, np.random.default_rng(5))
    draws = sample_p0(gm, 8192, np.random.default_rng(6))
    assert checks.sample_w2_matches(draws, gm)[1]
    assert not checks.sample_w2_matches(draws[:, ::-1], gm)[1]


def test_dense_reference_check_rejects_a_wrong_trajectory(warm):
    workload = warm["mlp-sample"]
    assert all(passed for _, passed, _ in workload.final_checks())
    x_init = np.random.default_rng(1).standard_normal((2, workload.ms.family.ambient_dim))
    want = checks.dense_heun_reference(workload.ms, workload.field, workload.cfg, x_init)
    from anisodiff import sampler

    got = sampler.sample_trajectory(workload.ms, workload.field, workload.cfg, x_init=x_init).final
    assert checks.matches_dense_reference(got, want)[1]
    nudged = got.copy()
    nudged[0, 7] *= 1 + 1e-6
    assert not checks.matches_dense_reference(nudged, want)[1]
    fewer_steps = dataclasses.replace(workload.cfg, steps=31)
    other = sampler.sample_trajectory(workload.ms, workload.field, fewer_steps, x_init=x_init).final
    assert not checks.matches_dense_reference(other, want)[1]


def test_training_checks_reject_nonfinite_results(warm):
    workload = warm["model-train"]
    result = workload.run_unit(0).output
    assert all(passed for _, passed, _ in workload.unit_checks(result))
    logs = [dict(row, loss_mean=float("nan")) if i == 3 else row
            for i, row in enumerate(result.logs)]
    wrong = dataclasses.replace(result, logs=logs, nonfinite_grads=2)
    failed = [name for name, passed, _ in workload.unit_checks(wrong) if not passed]
    assert failed == ["losses finite", "nonfinite_grads == 0"]
