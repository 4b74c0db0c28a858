import json

import numpy as np
import pytest

from anisodiff.cli import load_run_config, main
from anisodiff.gmm import GaussianMixture, single_gaussian
from anisodiff.persistence import (
    family_from_json,
    family_to_json,
    load_gmm,
    load_model,
    load_points_csv,
    load_schedule,
    read_csv,
    save_gmm,
    save_model,
    save_schedule,
    write_csv,
)
from anisodiff.flow_model import FlowModel
from anisodiff.schedule import (
    MatrixSchedule,
    eval_M,
    matrix_schedule_for_family,
)
from anisodiff.subspaces import (
    SeparableDCTFamily,
    apply_spectral,
    axis_family,
    build_dct_projectors,
)


@pytest.fixture
def gmm_file(tmp_path):
    gm = GaussianMixture(
        np.array([0.5, 0.5]),
        np.array([[1.0, 0.0], [-1.0, 0.0]]),
        np.stack([np.diag([0.5, 0.8])] * 2),
    )
    path = tmp_path / "gmm.json"
    save_gmm(gm, path)
    return path


@pytest.fixture
def schedule_file(tmp_path):
    rng = np.random.default_rng(0)
    fam = axis_family(2, 1)
    ms = matrix_schedule_for_family(fam, horizon=10.0, n_knots=6)
    ms = ms.with_theta_vector(rng.standard_normal(ms.n_params))
    path = tmp_path / "schedule.json"
    save_schedule(ms, path)
    return path


# ---------------------------------------------------------------------------
# persistence round trips
# ---------------------------------------------------------------------------

def test_schedule_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    fam = build_dct_projectors(2, 1)
    ms = matrix_schedule_for_family(fam, horizon=5.0, n_knots=5)
    ms = ms.with_theta_vector(rng.standard_normal(ms.n_params))
    path = tmp_path / "s.json"
    save_schedule(ms, path)
    back = load_schedule(path)
    ts = np.linspace(0, 5.0, 11)
    g1, d1 = eval_M(ms, ts)
    g2, d2 = eval_M(back, ts)
    np.testing.assert_array_equal(g1, g2)
    np.testing.assert_array_equal(d1, d2)
    assert back.family.meta["kind"] == "dct"


def test_separable_dct_family_roundtrip():
    fam = build_dct_projectors(16, 6)
    back = family_from_json(json.loads(json.dumps(family_to_json(fam))))
    assert isinstance(back, SeparableDCTFamily)
    assert (back.side, back.low_side, back.dims) == (16, 6, fam.dims)
    x = np.random.default_rng(2).standard_normal((3, 256))
    np.testing.assert_array_equal(
        apply_spectral(back, [0.4, 2.5], x), apply_spectral(fam, [0.4, 2.5], x)
    )


def test_class_conditional_schedule_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    fam = axis_family(2, 1)
    base = matrix_schedule_for_family(fam, horizon=4.0, n_knots=4)
    table = {
        "cat": tuple(s.with_theta(rng.standard_normal(s.n_params)) for s in base.per_subspace),
        "dog": base.per_subspace,
    }
    ms = MatrixSchedule(fam, base.per_subspace, class_table=table)
    path = tmp_path / "s.json"
    save_schedule(ms, path)
    back = load_schedule(path)
    for label in ("cat", "dog"):
        g1, _ = eval_M(ms, 2.0, label)
        g2, _ = eval_M(back, 2.0, label)
        np.testing.assert_array_equal(g1, g2)


def test_gmm_roundtrip(tmp_path, gmm_file):
    gm = load_gmm(gmm_file)
    assert gm.dim == 2
    path2 = tmp_path / "again.json"
    save_gmm(gm, path2)
    gm2 = load_gmm(path2)
    np.testing.assert_array_equal(gm.means, gm2.means)


def test_gmm_rejects_unknown_format_version(tmp_path, gmm_file):
    payload = json.loads(gmm_file.read_text())
    payload["format_version"] = "0"
    path = tmp_path / "old.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="version"):
        load_gmm(path)
    assert main(["gen-data", "--gmm", str(path), "--n", "5",
                 "--out", str(tmp_path / "x.csv")]) == 2


def test_gmm_rejects_indefinite_covariance(tmp_path, gmm_file, capsys):
    payload = json.loads(gmm_file.read_text())
    payload["covariances"][1] = [[-1.0, 0.0], [0.0, -1.0]]
    path = tmp_path / "indefinite.json"
    path.write_text(json.dumps(payload))
    assert main(["gen-data", "--gmm", str(path), "--n", "5",
                 "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "positive semidefinite" in err and err.count("\n") == 1


def test_model_roundtrip(tmp_path):
    model = FlowModel.create(2, horizon=3.0, widths=(8,), seed=4, zero_head=False)
    path = tmp_path / "m.json"
    save_model(model, path)
    back = load_model(path)
    x = np.array([[0.1, -0.2]])
    np.testing.assert_array_equal(model(x, 1.0), back(x, 1.0))


def test_csv_roundtrip_17_digits(tmp_path):
    path = tmp_path / "vals.csv"
    value = 0.1234567890123456789
    write_csv(path, ["a"], [[value]], ["# header"])
    header, columns, rows = read_csv(path)
    assert columns == ["a"]
    assert float(rows[0][0]) == value


# ---------------------------------------------------------------------------
# CLI commands
# ---------------------------------------------------------------------------

def test_gen_data_and_header(tmp_path, gmm_file):
    out = tmp_path / "data.csv"
    code = main([
        "gen-data", "--gmm", str(gmm_file), "--n", "50", "--seed", "3",
        "--out", str(out),
    ])
    assert code == 0
    header, columns, rows = read_csv(out)
    assert header[0].startswith("# anisodiff ")
    assert "seed=3" in header[0]
    assert header[1] == "# dim=2 class=-"
    assert columns == ["x0", "x1"]
    assert len(rows) == 50
    pts = load_points_csv(out)
    assert pts.shape == (50, 2)


def test_gen_data_deterministic(tmp_path, gmm_file):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        assert main(["gen-data", "--gmm", str(gmm_file), "--n", "10",
                     "--seed", "9", "--out", str(out)]) == 0
    np.testing.assert_array_equal(load_points_csv(out1), load_points_csv(out2))


def test_basis_dct_golden_header(tmp_path):
    out = tmp_path / "dct.csv"
    assert main(["basis", "dct", "--size", "4", "--low-side", "2", "--out", str(out)]) == 0
    header, columns, rows = read_csv(out)
    assert header[1] == "# dct H=4 order=zigzag"
    assert header[2] == "# low_side=2 low_dim=4"
    assert columns == [f"c{i}" for i in range(16)]
    basis = load_points_csv(out)
    np.testing.assert_allclose(basis @ basis.T, np.eye(16), atol=1e-12)


def test_basis_pca_with_sidecar(tmp_path):
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((300, 3)) @ np.diag([3.0, 1.0, 0.2])
    data = tmp_path / "points.csv"
    write_csv(data, ["x0", "x1", "x2"], pts, ["# test data"])
    out = tmp_path / "pca.csv"
    assert main(["basis", "pca", "--data", str(data), "--k", "1", "--out", str(out)]) == 0
    sidecar = json.loads((tmp_path / "pca.meta.json").read_text())
    assert sidecar["k"] == 1
    assert len(sidecar["eigenvalues"]) == 3
    assert isinstance(sidecar["tie_at_cut"], bool)
    basis = load_points_csv(out)
    assert basis.shape == (3, 3)


def test_schedule_fit_command(tmp_path):
    ts = np.linspace(0, 5.0, 101)
    w = np.full_like(ts, 0.7)
    wpath = tmp_path / "w.csv"
    write_csv(wpath, ["t", "w"], np.stack([ts, w], axis=1))
    out = tmp_path / "fitted.json"
    table = tmp_path / "fitted.csv"
    code = main([
        "schedule-fit", "--weight-csv", str(wpath), "--horizon", "5.0",
        "--knots", "24", "--out", str(out), "--table", str(table),
    ])
    assert code == 0
    ms = load_schedule(out)
    ts_check = np.linspace(0.5, 4.5, 9)
    g, _ = eval_M(ms, ts_check)
    expected = (1.0 + 5.0) ** (ts_check / 5.0) - 1.0
    np.testing.assert_allclose(g[:, 0], expected, rtol=0.02)
    header, columns, _ = read_csv(table)
    assert columns == ["t", "g", "dg_dt"]
    assert any(line.startswith("# c=") for line in header)


def test_sample_command_oracle(tmp_path, gmm_file, schedule_file):
    out = tmp_path / "samples.csv"
    code = main([
        "sample", "--schedule", str(schedule_file), "--oracle", str(gmm_file),
        "--steps", "8", "--solver", "heun", "--secondary", "endpoint",
        "--n", "16", "--seed", "1", "--out", str(out),
        "--dump-trajectory", str(tmp_path / "traj"),
    ])
    assert code == 0
    header, columns, rows = read_csv(out)
    assert "nfe=15" in header[1]
    assert len(rows) == 16
    steps = sorted((tmp_path / "traj").glob("step_*.csv"))
    assert len(steps) == 9  # K+1 states
    # trajectory dump is deterministic under the seed
    out2 = tmp_path / "samples2.csv"
    main([
        "sample", "--schedule", str(schedule_file), "--oracle", str(gmm_file),
        "--steps", "8", "--n", "16", "--seed", "1", "--out", str(out2),
    ])
    np.testing.assert_array_equal(load_points_csv(out), load_points_csv(out2))


def test_sample_requires_exactly_one_field(tmp_path, gmm_file, schedule_file):
    code = main([
        "sample", "--schedule", str(schedule_file), "--steps", "4",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2


def test_verify_filter_and_report(tmp_path):
    out = tmp_path / "report"
    code = main(["verify", "--filter", "knots", "--out", str(out)])
    assert code == 0
    header, columns, rows = read_csv(out / "verify_report.csv")
    assert columns == ["group", "name", "status", "value", "threshold", "seconds"]
    assert all(r[0] == "knots" for r in rows)
    text = (out / "verify_report.txt").read_text()
    assert "[PASS] knots/" in text


def test_train_oracle_mode_command(tmp_path, gmm_file):
    config = {
        "version": "1",
        "gmm": gmm_file.name,
        "family": {"kind": "axis", "dim": 2, "split": 1},
        "schedule": {"horizon": 10.0, "floor": 1e-4, "knots": 5},
        "train": {
            "batch_size": 64,
            "total_images": 640,
            "warmup_images": 128,
            "lr_model": 0.1,
            "train_model": False,
            "seed": 0,
            "log_every": 2,
        },
    }
    cfg_path = gmm_file.parent / "run.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "rundir"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    ms = load_schedule(out / "schedule.json")
    assert ms.n_params == 8
    header, columns, rows = read_csv(out / "logs.csv")
    assert columns == [
        "step", "images", "loss_mean", "loss_se", "lr_model", "lr_schedule",
        "residual_energy_1", "residual_energy_2",
    ]
    assert (out / "theta_trace.csv").exists()
    _, diag_cols, diag_rows = read_csv(out / "theta_diagnostics.csv")
    assert diag_cols == ["images", "class", "coordinate", "explicit", "implicit", "fd_reference"]
    assert len(diag_rows) == 10 * 8  # one row per (theta step, coordinate)


def test_train_model_mode_command(tmp_path, gmm_file):
    config = {
        "version": "1",
        "gmm": gmm_file.name,
        "family": {"kind": "isotropic", "dim": 2},
        "schedule": {"horizon": 10.0, "knots": 6},
        "model": {"widths": [16, 16], "seed": 1},
        "train": {
            "batch_size": 32,
            "total_images": 320,
            "warmup_images": 64,
            "train_schedule": False,
            "seed": 2,
        },
    }
    cfg_path = gmm_file.parent / "run_model.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "rundir"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    model = load_model(out / "model.json")
    ema = load_model(out / "model_ema.json")
    assert model.params.shape == ema.params.shape


def test_train_divergence_exits_2(tmp_path, gmm_file, capsys):
    config = {
        "version": "1",
        "gmm": gmm_file.name,
        "family": {"kind": "axis", "dim": 2, "split": 1},
        "schedule": {"horizon": 10.0, "knots": 5},
        "train": {
            "batch_size": 32,
            "total_images": 320,
            "warmup_images": 64,
            "train_model": False,
            "train_schedule": False,
            "guard_factor": 1e-12,  # every post-warm-up loss counts as diverged
            "guard_patience": 1,
        },
    }
    cfg_path = gmm_file.parent / "run_diverge.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "rundir"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: loss ") and err.count("\n") == 1
    assert not out.exists()


def test_run_config_rejects_unknown_keys(tmp_path, gmm_file):
    config = {
        "version": "1",
        "gmm": gmm_file.name,
        "family": {"kind": "isotropic", "dim": 2},
        "schedule": {"horizon": 5.0},
        "mystery": 1,
    }
    path = gmm_file.parent / "bad.json"
    path.write_text(json.dumps(config))
    with pytest.raises(ValueError, match="unknown config keys"):
        load_run_config(path)
    config.pop("mystery")
    config["train"] = {"bogus_rate": 1.0}
    path.write_text(json.dumps(config))
    with pytest.raises(ValueError, match="unknown train keys"):
        load_run_config(path)


def test_analyze_schedule_outputs(tmp_path, schedule_file):
    out = tmp_path / "analysis"
    assert main(["analyze", "schedule", str(schedule_file), "--out", str(out)]) == 0
    header, columns, rows = read_csv(out / "schedule_curves.csv")
    assert columns == ["t", "g1", "g2", "geomean", "ratio"]
    data = np.array([[float(c) for c in r] for r in rows])
    np.testing.assert_allclose(
        data[:, 3], np.sqrt(data[:, 1] * data[:, 2]), rtol=1e-12
    )
    np.testing.assert_allclose(data[:, 4], data[:, 1] / data[:, 2], rtol=1e-12)


def test_analyze_schedule_isotropic_ratio_absent(tmp_path):
    from anisodiff.schedule import isotropic_matrix_schedule

    ms = isotropic_matrix_schedule(2, horizon=4.0)
    spath = tmp_path / "iso.json"
    save_schedule(ms, spath)
    out = tmp_path / "analysis"
    assert main(["analyze", "schedule", str(spath), "--out", str(out)]) == 0
    _, columns, _ = read_csv(out / "schedule_curves.csv")
    assert columns == ["t", "g1", "geomean"]


def test_analyze_schedule_class_normalization(tmp_path):
    rng = np.random.default_rng(7)
    fam = axis_family(2, 1)
    base = matrix_schedule_for_family(fam, horizon=4.0, n_knots=4)
    table = {
        "a": tuple(s.with_theta(rng.standard_normal(s.n_params)) for s in base.per_subspace),
        "b": tuple(s.with_theta(rng.standard_normal(s.n_params)) for s in base.per_subspace),
    }
    ms = MatrixSchedule(fam, base.per_subspace, class_table=table)
    spath = tmp_path / "cc.json"
    save_schedule(ms, spath)
    out = tmp_path / "analysis"
    assert main(["analyze", "schedule", str(spath), "--out", str(out)]) == 0
    _, columns, rows = read_csv(out / "class_normalized.csv")
    data = np.array([[float(c) for c in r] for r in rows])
    # per-(t, subspace) geometric mean of the normalized curves is 1
    rel = data[:, 1:].reshape(len(rows), 2, 2)  # (points, classes, J)
    np.testing.assert_allclose(np.exp(np.mean(np.log(rel), axis=1)), 1.0, rtol=1e-12)


def test_analyze_subspaces(tmp_path):
    rng = np.random.default_rng(8)
    files = []
    for i in range(3):
        q, _ = np.linalg.qr(rng.standard_normal((4, 2)))
        path = tmp_path / f"sub{i}.csv"
        write_csv(path, [f"c{j}" for j in range(4)], q.T, ["# basis"])
        files.append(str(path))
    out = tmp_path / "analysis"
    assert main(["analyze", "subspaces", *files, "--out", str(out)]) == 0
    _, columns, rows = read_csv(out / "distance_matrix.csv")
    assert columns == ["name", "sub0", "sub1", "sub2"]
    dist = np.array([[float(c) for c in r[1:]] for r in rows])
    np.testing.assert_allclose(dist, dist.T, atol=1e-12)
    assert np.all(np.diag(dist) == 0)
    _, emb_cols, emb_rows = read_csv(out / "mds_embedding.csv")
    assert emb_cols == ["name", "x", "y"]
    assert len(emb_rows) == 3


def test_identical_subspaces_give_zero_distance(tmp_path):
    rng = np.random.default_rng(9)
    q, _ = np.linalg.qr(rng.standard_normal((4, 2)))
    files = []
    for i in range(2):
        path = tmp_path / f"same{i}.csv"
        write_csv(path, [f"c{j}" for j in range(4)], q.T)
        files.append(str(path))
    out = tmp_path / "analysis"
    assert main(["analyze", "subspaces", *files, "--out", str(out)]) == 0
    _, _, rows = read_csv(out / "distance_matrix.csv")
    assert float(rows[0][2]) == pytest.approx(0.0, abs=1e-12)
    _, _, emb_rows = read_csv(out / "mds_embedding.csv")
    a = np.array([float(c) for c in emb_rows[0][1:]])
    b = np.array([float(c) for c in emb_rows[1][1:]])
    np.testing.assert_allclose(a, b, atol=1e-8)


def test_usage_errors_exit_2(tmp_path):
    assert main(["gen-data", "--gmm", "missing.json", "--n", "5",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["nonsense-command"]) == 2


def test_mutated_heun_corrector_breaks_order():
    # flipping the corrector sign must degrade the measured order to ~1
    import anisodiff.sampler as sampler_mod
    from anisodiff.subspaces import apply_spectral
    from anisodiff.verify import _order_setup, convergence_slope

    def broken_heun(ms, field, x, grid, k, secondary, class_label=None, flow_k=None):
        t_k, t_prev = grid[k], grid[k - 1]
        t_hat = t_prev if secondary == "endpoint" else 0.5 * (t_prev + t_k)
        u_k = sampler_mod._sqrt_g(ms, t_k)
        u_prev = sampler_mod._sqrt_g(ms, t_prev)
        u_hat = sampler_mod._sqrt_g(ms, t_hat)
        du = u_k - u_prev
        f_k = field(x, t_k)
        x_hat = x + apply_spectral(ms.family, u_k - u_hat, f_k)
        f_hat = field(x_hat, t_hat)
        gap = u_hat - u_k
        coef = np.where(np.abs(gap) < 1e-12, 0.0, +0.5 * du**2 / np.where(gap == 0, 1.0, gap))
        return x + apply_spectral(ms.family, du, f_k) + apply_spectral(ms.family, coef, f_hat - f_k), f_k

    ms, field, x_init = _order_setup(21)
    slope, _ = convergence_slope(
        ms, field, x_init, (8, 16, 32, 64), 1024, "heun", "endpoint", step_fn=broken_heun
    )
    assert slope < 1.5  # far from second order
