"""The invariant suite fails closed and does each piece of work once.

Each fault test makes one library function that a check group reads
return NaN, or divide 0/0 (which raises under the CLI's `np.errstate`),
and requires `anisodiff verify --filter <group>` to exit 1 with a FAIL
line that names the check and shows `nan`.
"""

import numpy as np
import pytest

from anisodiff import gmm as gmm_mod
from anisodiff import loss as loss_mod
from anisodiff import sampler as sampler_mod
from anisodiff import schedule_grad
from anisodiff import verify
from anisodiff.cli import main
from anisodiff.schedule import KnotSchedule, TabulatedSchedule
from anisodiff.verify import (
    check_oracle_vs_direct,
    check_outer_gradient_fd,
    check_score_identity,
    check_solver_orders,
    run_check,
)
from test_schedule_grad import _count_calls

# (group, owner, function the group reads, the rows a NaN from it fails,
#  the checks a 0/0 in it fails)
FAULT_SITES = [
    ("score", gmm_mod._NoisyMixture, "posterior_mean", ["identity", "oracle-vs-direct"],
     ["check_score_identity", "check_oracle_vs_direct"]),
    ("estimator", schedule_grad, "_responses", ["gmm-vs-analytic", "gaussian-exact"],
     ["check_estimator_vs_oracle", "check_estimator_gaussian_exact"]),
    ("loss", loss_mod, "velocity_proxy", ["form-equivalence"], ["check_loss_equivalence"]),
    ("solver", sampler_mod, "heun_step",
     ["order-euler-endpoint", "order-heun-endpoint", "order-heun-midpoint",
      "scalar-ve-reduction"],
     ["check_solver_orders", "check_heun_reductions"]),
    ("knots", KnotSchedule, "eval", ["endpoint-pinning", "gradient-fd"],
     ["check_knot_gradients"]),
    ("weight-map", TabulatedSchedule, "eval",
     ["constant-w-closed-form", "integral-identity"], ["check_weight_map"]),
    ("gradient", schedule_grad, "_flow_responses", ["outer-vs-fd"],
     ["check_outer_gradient_fd"]),
]


def _scaled(out, factor):
    """Every array of a function's result (a tuple's items too) times `factor`."""
    if isinstance(out, tuple):
        return tuple(None if o is None else _scaled(o, factor) for o in out)
    return np.asarray(out) * factor


def _failed_rows(text):
    """`group/name` of each FAIL line, mapped to its value field."""
    rows = {}
    for line in text.splitlines():
        if line.startswith("[FAIL] "):
            name, rest = line[len("[FAIL] "):].split(": ", 1)
            rows[name] = rest.split()[0]
    return rows


@pytest.mark.parametrize("fault", ["nan", "0/0"])
@pytest.mark.parametrize("group, owner, attr, nan_rows, fault_checks", FAULT_SITES,
                         ids=[site[0] for site in FAULT_SITES])
def test_a_fault_in_a_library_function_fails_its_group(monkeypatch, capsys, group, owner, attr,
                                                       nan_rows, fault_checks, fault):
    original = getattr(owner, attr)

    def faulty(*args, **kwargs):
        out = original(*args, **kwargs)
        return _scaled(out, np.nan if fault == "nan" else np.float64(0.0) / np.float64(0.0))

    monkeypatch.setattr(owner, attr, faulty)
    assert main(["verify", "--quick", "--filter", group]) == 1
    failed = _failed_rows(capsys.readouterr().out)
    names = nan_rows if fault == "nan" else fault_checks
    assert {f"{group}/{name}" for name in names} <= set(failed)
    assert set(failed.values()) == {"value=nan"}


def test_a_numerical_fault_row_names_the_exception(monkeypatch):
    def raising(*args, **kwargs):
        raise np.linalg.LinAlgError("matrix is not positive definite")

    monkeypatch.setattr(gmm_mod, "_factor", raising)
    row, direct = verify.run_checks("score")  # both score checks factor through the oracle
    assert not row.passed and np.isnan(row.value)
    assert row.line().startswith("[FAIL] score/check_score_identity: value=nan")
    assert "LinAlgError: matrix is not positive definite" in row.line()
    assert direct.line().startswith("[FAIL] score/check_oracle_vs_direct: value=nan")


def test_every_gate_is_pinned_in_the_checks_table():
    gates = {f"{group}/{name}": threshold
             for group, _, thresholds, _ in verify.CHECKS for name, threshold in thresholds.items()}
    assert gates == {
        "score/identity": 1e-9,
        "score/oracle-vs-direct": 1e-10,
        "estimator/gmm-vs-analytic": 1e-5,
        "estimator/gaussian-exact": 1e-12,
        "loss/form-equivalence": 1e-10,
        "solver/order-euler-endpoint": 0.2,
        "solver/order-heun-endpoint": 0.2,
        "solver/order-heun-midpoint": 0.2,
        "solver/heun-endpoint-trapezoid": 1e-12,
        "solver/scalar-ve-reduction": 1e-12,
        "solver/heun-endpoint-nfe": 0.0,
        "knots/endpoint-pinning": 0.0,
        "knots/gradient-fd": 1e-4,
        "weight-map/constant-w-closed-form": 1e-8,
        "weight-map/integral-identity": 1e-4,
        "gradient/outer-vs-fd": 1e-5,
    }


def test_oracle_vs_direct_check_passes():
    (row,) = run_check(check_oracle_vs_direct)
    assert row.passed, row.line()
    assert row.threshold == 1e-10


def test_mixture_weights_off_by_a_power_fail_only_the_direct_oracle_check(monkeypatch, capsys):
    original = gmm_mod._NoisyCovariances.__init__

    def skewed(self, gm, ev):  # the jet reads the weights w^1.01, renormalized
        w = gm.weights**1.01
        original(self, gmm_mod.GaussianMixture(w / w.sum(), gm.means, gm.covs), ev)

    monkeypatch.setattr(gmm_mod._NoisyCovariances, "__init__", skewed)
    assert main(["verify", "--filter", "score"]) == 1
    assert list(_failed_rows(capsys.readouterr().out)) == ["score/oracle-vs-direct"]


def test_solver_orders_integrate_one_reference(monkeypatch):
    steps = []
    original = verify.sample_trajectory

    def counted(ms, field, cfg, **kwargs):
        steps.append(cfg.steps)
        return original(ms, field, cfg, **kwargs)

    monkeypatch.setattr(verify, "sample_trajectory", counted)
    rows = run_check(check_solver_orders, ks=(8, 16), ref_steps=256)
    assert steps.count(256) == 1
    assert len(rows) == 3


def test_score_identity_factors_each_case_once(monkeypatch):
    factored = _count_calls(monkeypatch, gmm_mod, "_factor")
    run_check(check_score_identity, cases=4)
    assert len(factored) == 4 * 3  # cases x families


def test_outer_gradient_check_passes():
    (row,) = run_check(check_outer_gradient_fd, n=256)
    assert row.passed, row.line()
    assert 0.0 < row.value < 1e-7


def test_dropping_the_flow_forms_third_term_fails_the_gradient_check(monkeypatch, capsys):
    def two_terms(jet, ev, flow, cfg):  # without + 1/2 M^{-1} D flow
        return schedule_grad._responses(jet, ev.family, flow, cfg, scale=1.0 / ev.sqrt_g)

    monkeypatch.setattr(schedule_grad, "_flow_responses", two_terms)
    assert main(["verify", "--quick", "--filter", "gradient"]) == 1
    failed = _failed_rows(capsys.readouterr().out)
    assert list(failed) == ["gradient/outer-vs-fd"]
    assert float(failed["gradient/outer-vs-fd"].removeprefix("value=")) > 1e-3


def test_convergence_slope_rejects_a_reference_of_another_shape():
    ms, field, x_init = verify._order_setup(4)
    with pytest.raises(ValueError, match="reference shape"):
        verify.convergence_slope(ms, field, x_init, (8, 16), 1024, "heun")
