import dataclasses
import io
import json
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from anisodiff import cli as cli_mod
from anisodiff import flow_model
from anisodiff import gmm as gmm_mod
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
    ProjectorFamily,
    SeparableDCTFamily,
    apply_spectral,
    axis_family,
    build_dct_projectors,
    build_pca_projectors,
    isotropic_family,
    projector_distance,
)
from anisodiff.sampler import SamplerConfig, time_grid
from anisodiff.training import TrainConfig, train_bilevel
from test_sampler import assert_close, biased_model, step_loop
from test_schedule_grad import _count_calls


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


def _explicit_family():
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((5, 5)))
    return ProjectorFamily(q, np.array([0, 0, 1, 2, 2]), meta={"kind": "explicit"})


def _pca_family():
    samples = np.random.default_rng(4).standard_normal((40, 4)) * [3.0, 2.0, 1.0, 0.5]
    return build_pca_projectors(samples, 2)


@pytest.mark.parametrize("make", [
    _explicit_family, _pca_family, lambda: isotropic_family(3), lambda: axis_family(4, 1),
    lambda: build_dct_projectors(2, 1), lambda: build_dct_projectors(16, 6),
], ids=["explicit", "pca", "isotropic", "axis", "dct", "dct-separable"])
def test_explicit_and_pca_family_roundtrip(make):
    fam = make()
    payload = family_to_json(fam)
    text = json.dumps(payload)
    back = family_from_json(json.loads(text))
    np.testing.assert_array_equal(back.basis, fam.basis)
    np.testing.assert_array_equal(back.labels, fam.labels)
    assert back.meta == fam.meta
    assert json.loads(text) == payload
    assert family_to_json(back) == payload
    if fam.meta["kind"] not in ("explicit", "pca"):  # saved as the description it was built from
        assert payload == fam.meta


def test_save_schedule_of_an_incomplete_family_description_writes_nothing(tmp_path):
    family = ProjectorFamily(np.eye(2), np.array([0, 1]), meta={"kind": "axis"})
    path = tmp_path / "schedule.json"
    with pytest.raises(ValueError, match="^family section is missing key 'dim'$"):
        save_schedule(matrix_schedule_for_family(family, horizon=10.0, n_knots=4), path)
    assert not path.exists()


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
        g1, _ = eval_M(ms.for_class(label), 2.0)
        g2, _ = eval_M(back.for_class(label), 2.0)
        np.testing.assert_array_equal(g1, g2)


def test_save_schedule_rejects_floors_the_file_cannot_hold(tmp_path):
    from anisodiff.verify import smooth_anisotropic_ms

    # the file stores one floor; these subspaces have 1e-4 and 1e-2
    with pytest.raises(ValueError, match="differ in floor or nodes"):
        save_schedule(smooth_anisotropic_ms(), tmp_path / "s.json")


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


def test_gmm_with_a_nan_mean_exits_2(tmp_path, gmm_file, capsys):
    payload = json.loads(gmm_file.read_text())
    payload["means"][0][0] = "MEAN"
    errors = {  # json reads the overflowing 1e999 as inf, which the mixture itself rejects
        "NaN": "error: mixture file holds the non-finite number NaN\n",
        "1e999": "error: mixture weights, means and covariances must be finite\n",
    }
    for literal, error in errors.items():
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload).replace('"MEAN"', literal))
        out = tmp_path / "x.csv"
        assert main(["gen-data", "--gmm", str(path), "--n", "5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == error
        assert not out.exists()


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


def test_sample_dump_headers_hold_each_states_grid_time(tmp_path, gmm_file, schedule_file):
    dump = tmp_path / "traj"
    assert main(["sample", "--schedule", str(schedule_file), "--oracle", str(gmm_file),
                 "--steps", "5", "--n", "4", "--seed", "1", "--out", str(tmp_path / "x.csv"),
                 "--dump-trajectory", str(dump)]) == 0
    times = time_grid(load_schedule(schedule_file), SamplerConfig(steps=5))
    for i in range(6):  # step_0000.csv is the start, at the horizon t_5
        header, _, _ = read_csv(dump / f"step_{i:04d}.csv")
        assert header[1].startswith("# t=") and float(header[1][4:]) == times[5 - i]


def test_identical_sample_runs_write_identical_files(tmp_path, gmm_file, schedule_file):
    # the provenance hash covers the options only, so it is the same in every process
    import subprocess
    import sys
    from pathlib import Path

    import anisodiff

    src = str(Path(anisodiff.__file__).resolve().parents[1])
    out = tmp_path / "samples.csv"
    script = f"import sys\nsys.path.insert(0, {src!r})\nfrom anisodiff.cli import main\n" \
             f"sys.exit(main(sys.argv[1:]))"
    argv = ["sample", "--schedule", str(schedule_file), "--oracle", str(gmm_file), "--steps", "4",
            "--n", "8", "--seed", "3", "--out", str(out)]
    written = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        written.append(out.read_bytes())
    assert written[0] == written[1]
    assert b"config=" in written[0]


@pytest.mark.parametrize("family", [axis_family(4, 2), build_dct_projectors(2, 1)],
                         ids=["axis", "dct"])
def test_sample_with_non_finite_samples_exits_2_writing_nothing(tmp_path, capsys, family):
    # +-1e308 parameters overflow the first layer; on the DCT family rotating them into its
    # coordinates overflows first.  `main` raises on the overflow whatever the caller's state.
    ms = matrix_schedule_for_family(family, horizon=10.0)
    schedule_file, model_file = tmp_path / "schedule.json", tmp_path / "model.json"
    save_schedule(ms, schedule_file)
    model = FlowModel.create(4, horizon=10.0, widths=(8,), seed=4)
    signs = np.random.default_rng(0).choice([-1.0, 1.0], model.params.size)
    save_model(model.with_params(1e308 * signs), model_file)
    out = tmp_path / "x.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["sample", "--schedule", str(schedule_file), "--model", str(model_file),
                     "--steps", "4", "--n", "3", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: sample: numerical overflow (overflow encountered in matmul)\n"
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_train_with_an_overflowing_learning_rate_exits_2_with_one_line(tmp_path, gmm_file,
                                                                        capsys):
    config = {
        "version": "1",
        "gmm": gmm_file.name,
        "family": {"kind": "axis", "dim": 2, "split": 1},
        "schedule": {"horizon": 10.0, "knots": 5},
        "train": {"batch_size": 64, "total_images": 640, "warmup_images": 128,
                  "lr_model": 1e300, "train_model": False, "seed": 0},
    }
    cfg_path = gmm_file.parent / "run_lr.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "rundir")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: train: numerical overflow (") and len(err.splitlines()) == 1


def test_sample_dump_on_the_latent_path_matches_the_step_loop(tmp_path):
    # d=256 with widths (8, 8): the sampler runs on 8 + 2 (8 + 1) = 26 latent coordinates
    rng = np.random.default_rng(5)
    ms = matrix_schedule_for_family(build_dct_projectors(16), horizon=10.0)
    ms = ms.with_theta_vector(0.3 * rng.standard_normal(ms.n_params))
    model = biased_model(256, 10.0, (8, 8), rng)
    schedule_path, model_path = tmp_path / "schedule.json", tmp_path / "model.json"
    save_schedule(ms, schedule_path)
    save_model(model, model_path)
    dump = tmp_path / "traj"
    assert main(["sample", "--schedule", str(schedule_path), "--model", str(model_path),
                 "--steps", "6", "--solver", "heun", "--secondary", "endpoint", "--n", "3",
                 "--seed", "2", "--out", str(tmp_path / "x.csv"),
                 "--dump-trajectory", str(dump)]) == 0
    states = [load_points_csv(path) for path in sorted(dump.glob("step_*.csv"))]
    want = step_loop(load_schedule(schedule_path), load_model(model_path),
                     SamplerConfig(steps=6, solver="heun", secondary="endpoint"), states[0])
    assert len(states) == len(want) == 7
    for got, ref in zip(states, want):
        assert_close(got, ref)


def test_sample_denoise_writes_the_posterior_mean_of_the_plain_samples(tmp_path, gmm_file,
                                                                        schedule_file):
    args = ["sample", "--schedule", str(schedule_file), "--oracle", str(gmm_file),
            "--steps", "8", "--n", "16", "--seed", "1"]
    assert main(args + ["--out", str(tmp_path / "plain.csv")]) == 0
    assert main(args + ["--out", str(tmp_path / "denoised.csv"), "--denoise"]) == 0
    ms = load_schedule(schedule_file)
    t_first = time_grid(ms, SamplerConfig(steps=8))[0]
    expected = gmm_mod.posterior_mean(load_gmm(gmm_file), load_points_csv(tmp_path / "plain.csv"),
                                      ms, t_first)
    np.testing.assert_array_equal(load_points_csv(tmp_path / "denoised.csv"), expected)


def test_sample_requires_exactly_one_field(tmp_path, gmm_file, schedule_file):
    code = main([
        "sample", "--schedule", str(schedule_file), "--steps", "4",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2


def test_sample_denoise_with_model_exits_2_before_sampling(tmp_path, schedule_file, capsys,
                                                          monkeypatch):
    from anisodiff import cli

    def no_sampling(*args, **kwargs):
        raise AssertionError("sample_trajectory was called")

    monkeypatch.setattr(cli, "sample_trajectory", no_sampling)
    model_file = tmp_path / "model.json"
    save_model(FlowModel.create(2, horizon=10.0, widths=(8,), seed=4), model_file)
    assert main(["sample", "--schedule", str(schedule_file), "--model", str(model_file),
                 "--steps", "4", "--denoise", "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == "error: --denoise needs the --oracle field\n"


@pytest.mark.parametrize("kind, saved, message", [
    ("oracle", single_gaussian(np.zeros(3), np.eye(3)),
     "mixture dimension 3 does not match the schedule's dimension 2"),
    ("model", FlowModel.create(3, horizon=10.0, widths=(8,), seed=4),
     "model dimension 3 does not match the schedule's dimension 2"),
    ("model", FlowModel.create(2, horizon=9.0, widths=(8,), seed=4),
     "model horizon 9.0 does not match the schedule's horizon 10.0"),
], ids=["oracle-dim", "model-dim", "model-horizon"])
def test_sample_field_not_matching_the_schedule_exits_2_before_sampling(
        tmp_path, schedule_file, capsys, monkeypatch, kind, saved, message):
    from anisodiff import cli

    def no_sampling(*args, **kwargs):
        raise AssertionError("sample_trajectory was called")

    monkeypatch.setattr(cli, "sample_trajectory", no_sampling)
    field_file = tmp_path / "field.json"
    (save_gmm if kind == "oracle" else save_model)(saved, field_file)
    assert main(["sample", "--schedule", str(schedule_file), f"--{kind}", str(field_file),
                 "--steps", "4", "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_verify_quick_solver_passes(capsys):
    assert main(["verify", "--quick", "--filter", "solver"]) == 0
    assert "6/6 checks passed" in capsys.readouterr().out


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
    assert diag_cols == ["images", "class", "coordinate", "explicit", "implicit", "se"]
    assert len(diag_rows) == 10 * 8  # one row per (theta step, coordinate)


def test_train_without_a_model_section_trains_theta_only(tmp_path, gmm_file):
    # the README's oracle-mode config: no "model" section and "train_model" at its default
    config = {
        "version": "1",
        "gmm": gmm_file.name,
        "family": {"kind": "axis", "dim": 2, "split": 1},
        "schedule": {"horizon": 10.0, "knots": 5},
        "train": {"batch_size": 64, "total_images": 640, "warmup_images": 128, "seed": 0},
    }
    runs = {}
    for name, train_model in (("default", {}), ("explicit", {"train_model": False})):
        cfg_path = gmm_file.parent / f"{name}.json"
        cfg_path.write_text(json.dumps({**config, "train": {**config["train"], **train_model}}))
        out = tmp_path / name
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        runs[name] = out
    assert sorted(p.name for p in runs["default"].iterdir()) == [
        "logs.csv", "schedule.json", "theta_diagnostics.csv", "theta_trace.csv"]
    theta = load_schedule(runs["default"] / "schedule.json").theta_vector()
    assert np.any(theta != 0.0)  # the log-linear start has theta 0
    np.testing.assert_array_equal(
        theta, load_schedule(runs["explicit"] / "schedule.json").theta_vector())


def _class_conditional_config(tmp_path):
    """Two mixtures in their own directory, named relative to the config file."""
    data_dir = tmp_path / "mixtures"
    data_dir.mkdir()
    for label, shift in (("a", 1.0), ("b", -2.0)):
        gm = GaussianMixture(np.array([1.0]), np.array([[shift, 0.5 * shift]]),
                             np.diag([0.5, 0.8])[None])
        save_gmm(gm, data_dir / f"{label}.json")
    config_dir = tmp_path / "config"
    config_dir.mkdir()
    config = {
        "version": "1",
        "gmm": {"a": "../mixtures/a.json", "b": "../mixtures/b.json"},
        "family": {"kind": "axis", "dim": 2, "split": 1},
        "schedule": {"horizon": 10.0, "knots": 5, "classes": ["a", "b"]},
        "train": {"batch_size": 32, "total_images": 320, "warmup_images": 64,
                  "lr_model": 0.1, "train_model": False, "seed": 0},
    }
    return config_dir / "run.json", config


def test_train_class_conditional_then_sample_and_analyze(tmp_path):
    cfg_path, config = _class_conditional_config(tmp_path)
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "rundir"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    ms = load_schedule(out / "schedule.json")
    assert sorted(ms.class_table) == ["a", "b"]
    _, _, trace = read_csv(out / "theta_trace.csv")
    assert {row[1] for row in trace} == {"a", "b"}  # both classes took schedule steps
    samples = tmp_path / "samples.csv"
    assert main(["sample", "--schedule", str(out / "schedule.json"), "--class-label", "a",
                 "--oracle", str(tmp_path / "mixtures" / "a.json"), "--steps", "4",
                 "--n", "8", "--out", str(samples)]) == 0
    assert np.all(np.isfinite(load_points_csv(samples)))
    analysis = tmp_path / "analysis"
    assert main(["analyze", "schedule", str(out / "schedule.json"), "--out", str(analysis)]) == 0
    _, columns, _ = read_csv(analysis / "schedule_curves.csv")
    assert {"g1_class_a", "g2_class_a", "g1_class_b", "g2_class_b"} <= set(columns)
    assert (analysis / "class_normalized.csv").exists()


@pytest.mark.parametrize("labels, classes", [(["a"], ["a", "b"]), (None, ["a", "b"]),
                                             (["a", "b"], None)])
def test_train_class_labels_must_match_the_gmm_map(tmp_path, capsys, labels, classes):
    cfg_path, config = _class_conditional_config(tmp_path)
    if labels is None:
        config["gmm"] = "../mixtures/a.json"
    else:
        config["gmm"] = {label: f"../mixtures/{label}.json" for label in labels}
    config["schedule"]["classes"] = classes
    cfg_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "rundir")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err == (f"error: per-class gmm labels {labels or []} do not match "
                   f"schedule classes {classes or []}\n")
    assert not (tmp_path / "rundir").exists()


def label_error(label):
    return (f"error: class label {json.dumps(label)} cannot be a CSV cell: it holds a comma or "
            "a line break\n")


@pytest.mark.parametrize("bad", ["a,1", "a\n1", "a\r"])
def test_train_class_label_that_fits_no_csv_cell_exits_2_writing_nothing(tmp_path, capsys, bad):
    # such a label would split the rows of theta_trace.csv and theta_diagnostics.csv
    cfg_path, config = _class_conditional_config(tmp_path)
    config["gmm"] = {bad: "../mixtures/a.json", "b": "../mixtures/b.json"}
    config["schedule"]["classes"] = [bad, "b"]
    cfg_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "rundir")]) == 2
    assert capsys.readouterr().err == label_error(bad)
    assert not (tmp_path / "rundir").exists()


def test_schedule_file_class_that_fits_no_csv_cell_exits_2_writing_nothing(tmp_path, capsys):
    base = matrix_schedule_for_family(axis_family(2, 1), horizon=4.0, n_knots=4)
    path = tmp_path / "s.json"
    save_schedule(MatrixSchedule(base.family, base.per_subspace,
                                 class_table={"a,1": base.per_subspace}), path)
    out = tmp_path / "analysis"
    assert main(["analyze", "schedule", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == label_error("a,1")
    assert not out.exists()


def test_gen_data_class_label_that_fits_no_csv_cell_exits_2_writing_nothing(tmp_path, gmm_file,
                                                                             capsys):
    out = tmp_path / "data.csv"
    argv = ["gen-data", "--gmm", str(gmm_file), "--n", "5", "--class-label", "a\nb"]
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == label_error("a\nb")
    assert not out.exists()


def test_train_class_conditional_model_mode_exits_2_writing_nothing(tmp_path, capsys):
    # a flow model has no class input, so it cannot be each class's optimal field
    cfg_path, config = _class_conditional_config(tmp_path)
    config["model"] = {"widths": [4], "seed": 1}
    config["train"]["train_model"] = True
    cfg_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "rundir")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "no class input" in err
    assert not (tmp_path / "rundir").exists()


@pytest.mark.parametrize("mode", ["oracle", "model", "class-conditional"])
def test_train_data_not_matching_the_family_exits_2_before_training(tmp_path, capsys, monkeypatch,
                                                                    mode):
    def no_training(*args, **kwargs):
        raise AssertionError("train_bilevel was called")

    monkeypatch.setattr(cli_mod, "train_bilevel", no_training)
    cfg_path, config = _class_conditional_config(tmp_path)
    wrong = cfg_path.parent / "wide.json"
    if mode == "model":  # model mode on a "data" CSV of 3-coordinate points
        wrong = wrong.with_suffix(".csv")
        wrong.write_text("x0,x1,x2\n0.1,-0.4,0.3\n1.2,0.3,-0.5\n")
        del config["gmm"], config["schedule"]["classes"]
        config.update(data=wrong.name, model={"widths": [4], "seed": 1})
    else:
        save_gmm(single_gaussian(np.zeros(3), np.eye(3)), wrong)
        if mode == "oracle":
            config["gmm"] = wrong.name
            del config["schedule"]["classes"]
        else:
            config["gmm"]["b"] = wrong.name
    cfg_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "rundir")]) == 2
    assert capsys.readouterr().err == (f"error: {wrong.resolve()}: data dimension 3 does not "
                                       "match the family's dimension 2\n")
    assert not (tmp_path / "rundir").exists()


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


@pytest.mark.parametrize("mode", ["oracle", "model"])
def test_train_above_d16_takes_exact_sum_schedule_steps(tmp_path, monkeypatch, mode):
    """The exact sum is the default at every d: one block-trace call per
    schedule step and no `mixed` call, here at d=20."""
    d = 20
    save_gmm(single_gaussian(np.linspace(-1.0, 1.0, d), np.eye(d)), tmp_path / "gmm.json")
    config = {
        "version": "1",
        "gmm": "gmm.json",
        "family": {"kind": "axis", "dim": d, "split": 8},
        "schedule": {"horizon": 10.0, "knots": 4},
        "train": {"batch_size": 8, "total_images": 32, "warmup_images": 8, "seed": 0},
    }
    if mode == "oracle":
        config["train"]["train_model"] = False
        jet_cls = gmm_mod._NoisyMixture
    else:
        config["model"] = {"widths": [8], "seed": 1}
        config["train"]["model_steps_per_schedule_step"] = 2
        jet_cls = flow_model.FlowModelJet
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    traces = _count_calls(monkeypatch, jet_cls, "block_traces")
    mixed = _count_calls(monkeypatch, jet_cls, "mixed")
    out = tmp_path / "rundir"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    _, _, steps = read_csv(out / "theta_trace.csv")
    assert len(steps) == (4 if mode == "oracle" else 2)
    assert len(traces) == len(steps)
    assert len(mixed) == 0


def test_train_csvs_hold_the_runs_schedule_steps(tmp_path, gmm_file, monkeypatch):
    results = []

    def recorded(*args, **kwargs):
        results.append(train_bilevel(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli_mod, "train_bilevel", recorded)
    config = {
        "version": "1",
        "gmm": gmm_file.name,
        "family": {"kind": "axis", "dim": 2, "split": 1},
        "schedule": {"horizon": 10.0, "knots": 4},
        "model": {"widths": [8], "seed": 1},
        "train": {"batch_size": 16, "total_images": 16 * 6,
                  "warmup_images": 32, "model_steps_per_schedule_step": 2, "seed": 4},
    }
    cfg_path = gmm_file.parent / "run_steps.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "rundir"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    steps = results[0].schedule_steps
    assert len(steps) == 3
    _, trace_cols, trace = read_csv(out / "theta_trace.csv")
    _, diag_cols, diag = read_csv(out / "theta_diagnostics.csv")
    assert trace_cols == ["images", "class"] + [f"theta{i}" for i in range(6)]
    assert diag_cols == ["images", "class", "coordinate", "explicit", "implicit", "se"]
    assert len(trace) == len(steps) and len(diag) == 6 * len(steps)
    for k, (images, label, theta, explicit, implicit, se) in enumerate(steps):
        assert label is None
        assert trace[k][:2] == [str(images), "-"]
        assert np.array_equal(np.array(trace[k][2:], dtype=float), theta)  # 17 digits: exact
        rows = diag[6 * k:6 * (k + 1)]
        assert [row[:3] for row in rows] == [[str(images), "-", str(p)] for p in range(6)]
        assert np.array_equal(np.array([row[3:] for row in rows], dtype=float),
                              np.stack([explicit, implicit, se], axis=1))
    saved = load_schedule(out / "schedule.json").theta_vector()
    assert np.array_equal(np.array(trace[-1][2:], dtype=float), saved)


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


@pytest.mark.parametrize("blocks, message", [
    ([[[1.0], [0.0]], [[0.6], [0.8]]], "error: family basis columns are not orthonormal\n"),
    ([[[1.0], [0.0], [0.0]], [[0.0], [1.0], [0.0]]], "error: family blocks must be arrays with 2 rows\n"),
], ids=["not-orthonormal", "rows"])
def test_train_explicit_family_bad_blocks_exit_2(tmp_path, gmm_file, capsys, blocks, message):
    config = {
        "version": "1",
        "gmm": gmm_file.name,
        "family": {"kind": "explicit", "dim": 2, "blocks": blocks},
        "schedule": {"horizon": 5.0},
    }
    cfg_path = gmm_file.parent / "run_blocks.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "rundir")]) == 2
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("section, key", [("family", "dim"), ("schedule", "horizon")])
def test_train_config_missing_key_exits_2(tmp_path, gmm_file, capsys, section, key):
    config = {
        "version": "1",
        "gmm": gmm_file.name,
        "family": {"kind": "isotropic", "dim": 2},
        "schedule": {"horizon": 5.0},
    }
    del config[section][key]
    cfg_path = gmm_file.parent / "run_missing.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "rundir")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {section} section is missing key '{key}'\n"


@pytest.mark.parametrize("section, value", [
    ("family", [1]),
    ("family", {"kind": "axis", "dim": 4, "split": "2"}),
    ("train", 5),
    ("train", {"batch_size": "16"}),
    ("model", {"widths": 64}),
    ("schedule", {"horizon": 10, "knots": [3]}),
], ids=["family-list", "family-split", "train-int", "train-batch-size", "model-widths",
        "schedule-knots"])
def test_train_config_value_of_wrong_type_exits_2(tmp_path, gmm_file, capsys, section, value):
    config = {
        "version": "1",
        "gmm": gmm_file.name,
        "family": {"kind": "axis", "dim": 2, "split": 1},
        "schedule": {"horizon": 5.0},
        section: value,
    }
    cfg_path = gmm_file.parent / "run_types.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "rundir")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config section '{section}': ") and err.count("\n") == 1


@pytest.mark.parametrize("key, value", [
    ("seed", "0"), ("log_every", "5"), ("total_images", "100"), ("ema_rampup", "no"),
    ("lr_model", True), ("batch_size", 16.0),
])
def test_train_value_of_wrong_json_type_exits_2(tmp_path, gmm_file, capsys, key, value):
    config = {
        "version": "1",
        "gmm": gmm_file.name,
        "family": {"kind": "axis", "dim": 2, "split": 1},
        "schedule": {"horizon": 5.0},
        "train": {key: value},
    }
    cfg_path = gmm_file.parent / "run_train_types.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "rundir")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config section 'train': ") and err.count("\n") == 1
    assert repr(key) in err


@pytest.mark.parametrize("section, key, value", [
    ("schedule", "horizon", True), ("schedule", "horizon", "10"), ("schedule", "floor", "0.001"),
    ("schedule", "knots", 4.7), ("schedule", "classes", "ab"), ("family", "split", True),
    ("family", "bogus", 1), ("model", "seed", True),
    ("train", "total_images", 0), ("train", "log_every", 0), ("model", "widths", [0]),
    ("model", "widths", [-1]), ("model", "widths", [1.5]), ("model", "widths", ["a"]),
    ("model", "widths", [True]), ("train", "lr_schedule_scale", float("inf")),
    ("schedule", "horizon", float("nan")), ("train", "midpoint_decay", -1),
    ("train", "midpoint_decay", 0), ("train", "midpoint_decay", 1.5),
    ("train", "ema_half_life_images", -1), ("train", "warmup_images", -5),
    ("train", "guard_factor", -1), ("train", "guard_factor", 0), ("train", "guard_patience", 0),
    ("family", "kind", [1]),
])
def test_train_bad_value_in_any_section_exits_2_naming_the_key(tmp_path, capsys, section, key,
                                                               value):
    cfg_path, config = _class_conditional_config(tmp_path)
    config.setdefault(section, {})[key] = value
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "rundir"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert key in err
    assert not out.exists()


def test_train_integer_horizon_and_floor_save_the_float_form(tmp_path, gmm_file):
    saved = []
    for horizon, floor in ((10, 1), (10.0, 1.0)):
        config = {
            "version": "1",
            "gmm": gmm_file.name,
            "family": {"kind": "axis", "dim": 2, "split": 1},
            "schedule": {"horizon": horizon, "floor": floor, "knots": 5},
            "model": {"widths": [8], "seed": 1},
            "train": {"batch_size": 16, "total_images": 64, "warmup_images": 16,
                      "model_steps_per_schedule_step": 1},
        }
        cfg_path = gmm_file.parent / "run_int_horizon.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / f"rundir_{horizon!r}"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        saved.append([(out / name).read_bytes() for name in ("schedule.json", "model.json")])
    assert saved[0] == saved[1]
    assert json.loads(saved[0][0])["horizon"] == 10.0 and b'"horizon": 10.0' in saved[0][0]


def test_train_float_value_accepts_a_json_integer(gmm_file):
    config = {
        "version": "1",
        "gmm": gmm_file.name,
        "family": {"kind": "axis", "dim": 2, "split": 1},
        "schedule": {"horizon": 5.0},
        "train": {"lr_model": 1},
    }
    cfg_path = gmm_file.parent / "run_int_lr.json"
    cfg_path.write_text(json.dumps(config))
    assert TrainConfig(**load_run_config(cfg_path)["train"]).lr_model == 1


@pytest.mark.parametrize("kind, change", [
    ("schedule", {"floor": "x"}),
    ("schedule", {"horizon": [10.0]}),
    ("schedule", {"family": None}),
    ("schedule", {"theta": {"default": None, "classes": None}}),
    ("schedule", {"theta": {"classes": [1]}}),
    ("schedule", {"t_floor_fraction": "a"}),
    ("schedule", None),
    ("model", {"widths": 16}),
    ("model", {"dim": "16"}),
    ("model", {"widths": [8.0]}),
], ids=["floor", "horizon", "family", "theta-default", "theta-classes", "t-floor-fraction",
        "top-level-list", "model-widths", "model-dim", "model-float-width"])
def test_saved_file_value_of_wrong_type_exits_2(tmp_path, gmm_file, schedule_file, capsys,
                                                kind, change):
    model_file = tmp_path / "model.json"
    save_model(FlowModel.create(2, horizon=10.0, widths=(8,), seed=4), model_file)
    broken = schedule_file if kind == "schedule" else model_file
    payload = json.loads(broken.read_text())
    broken.write_text(json.dumps([payload] if change is None else {**payload, **change}))
    field = ["--model", str(model_file)] if kind == "model" else ["--oracle", str(gmm_file)]
    assert main(["sample", "--schedule", str(schedule_file), *field, "--steps", "4",
                 "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("kind, key", [
    ("schedule", "horizon"), ("schedule", "nodes"), ("mixture", "covariances"), ("model", "widths"),
    ("schedule", "t_floor_fraction"),
])
def test_saved_file_missing_key_exits_2(tmp_path, gmm_file, schedule_file, capsys, kind, key):
    model_file = tmp_path / "model.json"
    save_model(FlowModel.create(2, horizon=10.0, widths=(8,), seed=4), model_file)
    broken = {"schedule": schedule_file, "mixture": gmm_file, "model": model_file}[kind]
    payload = json.loads(broken.read_text())
    del payload[key]
    broken.write_text(json.dumps(payload))
    out = str(tmp_path / "out.csv")
    argv = {
        "schedule": ["analyze", "schedule", str(schedule_file), "--out", str(tmp_path / "out")],
        "mixture": ["gen-data", "--gmm", str(gmm_file), "--n", "4", "--out", out],
        "model": ["sample", "--schedule", str(schedule_file), "--model", str(model_file),
                  "--steps", "4", "--out", out],
    }[kind]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {kind} file is missing key '{key}'\n"


@pytest.mark.parametrize("kind, part, change, key", [
    ("schedule", "family", {"split": 2.5}, "split"),
    ("schedule", "family", {"split": True}, "split"),
    ("schedule", "family", {"bogus": 1}, "bogus"),
    ("schedule", "family", {"kind": [1]}, "kind"),
    ("schedule", "theta", {"bogus": 1}, "bogus"),
    ("schedule", None, {"bogus": 1}, "bogus"),
    ("mixture", None, {"bogus": 1}, "bogus"),
    ("model", None, {"bogus": 1}, "bogus"),
    ("schedule", None, {"ambient_dim": 99}, "ambient_dim"),
    ("schedule", None, {"family_kind": "dct"}, "family_kind"),
], ids=["family-split-float", "family-split-bool", "family-unknown-key", "family-kind-list",
        "theta-unknown-key",
        "schedule-unknown-key", "mixture-unknown-key", "model-unknown-key",
        "schedule-ambient-dim", "schedule-family-kind"])
def test_saved_file_bad_key_exits_2_naming_it(tmp_path, gmm_file, capsys, kind, part, change,
                                               key):
    # a saved family is checked against the same table as a run config's family
    schedule_file = tmp_path / "schedule.json"
    save_schedule(matrix_schedule_for_family(axis_family(2, 1), horizon=10.0, n_knots=6),
                  schedule_file)
    model_file = tmp_path / "model.json"
    save_model(FlowModel.create(2, horizon=10.0, widths=(8,), seed=4), model_file)
    broken = {"schedule": schedule_file, "mixture": gmm_file, "model": model_file}[kind]
    payload = json.loads(broken.read_text())
    (payload if part is None else payload[part]).update(change)
    broken.write_text(json.dumps(payload))
    out = tmp_path / "out"
    argv = {
        "schedule": ["analyze", "schedule", str(schedule_file), "--out", str(out)],
        "mixture": ["gen-data", "--gmm", str(gmm_file), "--n", "4", "--out", str(out)],
        "model": ["sample", "--schedule", str(schedule_file), "--model", str(model_file),
                  "--steps", "4", "--out", str(out)],
    }[kind]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and repr(key) in err
    assert not out.exists()


PCA_META = {"eigenvalues": [2.0, 0.5], "tie_at_cut": False}


@pytest.mark.parametrize("where", ["train", "analyze"])
@pytest.mark.parametrize("pca_meta, key", [
    ({"kind": "dct"}, "eigenvalues"),
    ({**PCA_META, "kind": "dct"}, "kind"),
    ({**PCA_META, "bogus": 1}, "bogus"),
    ({"eigenvalues": [2.0, 0.5]}, "tie_at_cut"),
    ({**PCA_META, "tie_at_cut": None}, "tie_at_cut"),
    ({**PCA_META, "eigenvalues": 2.0}, "eigenvalues"),
    ({**PCA_META, "eigenvalues": [float("nan"), 1.0]}, "eigenvalues"),
    ({**PCA_META, "eigenvalues": ["a", None]}, "eigenvalues"),
    ({**PCA_META, "eigenvalues": [True, 1]}, "eigenvalues"),
], ids=["kind-only", "kind-extra", "unknown-key", "missing-key", "tie-null", "eigenvalues-number",
        "eigenvalues-nan", "eigenvalues-string-null", "eigenvalues-bool"])
def test_bad_pca_meta_exits_2_naming_the_key_writing_nothing(tmp_path, gmm_file, capsys,
                                                             monkeypatch, where, pca_meta, key):
    family = {"kind": "explicit", "dim": 2, "blocks": [[[0.6], [0.8]], [[-0.8], [0.6]]]}
    out = tmp_path / "out"
    if where == "train":  # the config is rejected before training starts
        monkeypatch.setattr(cli_mod, "train_bilevel", lambda *args: pytest.fail("trained"))
        config = {"version": "1", "gmm": gmm_file.name, "family": {**family, "pca_meta": pca_meta},
                  "schedule": {"horizon": 5.0}}
        cfg_path = gmm_file.parent / "run_pca_meta.json"
        cfg_path.write_text(json.dumps(config))
        argv = ["train", "--config", str(cfg_path), "--out", str(out)]
    else:
        saved = family_from_json({**family, "pca_meta": PCA_META})
        schedule_file = tmp_path / "schedule.json"
        save_schedule(matrix_schedule_for_family(saved, horizon=10.0, n_knots=4), schedule_file)
        payload = json.loads(schedule_file.read_text())
        payload["family"]["pca_meta"] = pca_meta
        # the reader refuses a NaN literal before any field check; the overflowing 1e999
        # reads as inf, so a non-finite eigenvalue reaches the field table's check
        schedule_file.write_text(json.dumps(payload).replace("NaN", "1e999"))
        argv = ["analyze", "schedule", str(schedule_file), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and repr(key) in err
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


def test_train_config_with_micro_batches_exits_2(tmp_path, gmm_file, capsys):
    # a model step is one pass over the whole batch: there is no micro-batch count to set
    config = {"version": "1", "gmm": gmm_file.name, "family": {"kind": "isotropic", "dim": 2},
              "schedule": {"horizon": 5.0}, "train": {"micro_batches": 2}}
    path = gmm_file.parent / "micro.json"
    path.write_text(json.dumps(config))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == "error: unknown train keys: ['micro_batches']\n"
    assert not (tmp_path / "run").exists()


def test_run_config_accepts_every_train_field(tmp_path, gmm_file):
    defaults = dataclasses.asdict(TrainConfig())
    config = {
        "version": "1",
        "gmm": gmm_file.name,
        "family": {"kind": "isotropic", "dim": 2},
        "schedule": {"horizon": 5.0},
        "train": defaults,
    }
    path = gmm_file.parent / "full.json"
    path.write_text(json.dumps(config))
    assert TrainConfig(**load_run_config(path)["train"]) == TrainConfig()


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


def test_analyze_schedule_with_an_overflowing_theta_exits_2(tmp_path, schedule_file, capsys):
    # json reads 1e999 as inf; the knot schedule rejects it before any curve is written
    payload = json.loads(schedule_file.read_text())
    payload["theta"]["default"][0][0] = "THETA"
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(payload).replace('"THETA"', "1e999"))
    out = tmp_path / "analysis"
    assert main(["analyze", "schedule", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: theta must be finite\n"
    assert not out.exists()


def test_analyze_schedule_isotropic_ratio_absent(tmp_path):

    ms = matrix_schedule_for_family(isotropic_family(2), horizon=4.0)
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


def test_analyze_subspaces_compares_the_subspaces_the_exports_name(tmp_path):
    # every export holds its full d x d basis; the headers name the k-dim subspace
    rng = np.random.default_rng(10)
    files = []
    for name in ("a", "b"):
        data = tmp_path / f"{name}-data.csv"
        pts = rng.standard_normal((200, 16)) * rng.uniform(0.2, 3.0, 16)
        write_csv(data, [f"x{i}" for i in range(16)], pts)
        files.append(str(tmp_path / f"{name}.csv"))
        assert main(["basis", "pca", "--data", str(data), "--k", "4", "--out", files[-1]]) == 0
    files.append(str(tmp_path / "c.csv"))
    assert main(["basis", "dct", "--size", "4", "--low-side", "2", "--out", files[-1]]) == 0
    out = tmp_path / "analysis"
    assert main(["analyze", "subspaces", *files, "--out", str(out)]) == 0
    _, _, rows = read_csv(out / "distance_matrix.csv")
    dist = np.array([[float(c) for c in r[1:]] for r in rows])
    a, b = (load_points_csv(f)[:4].T for f in files[:2])
    low = build_dct_projectors(4, 2).basis[:, :4]  # the low block, in the export's mode order
    assert dist[0, 1] == projector_distance(a, b) > 0.1
    assert dist[0, 2] == projector_distance(a, low)
    assert dist[1, 2] == projector_distance(b, low)


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


@pytest.mark.parametrize("rows, header", [
    ([[2.0, 0.0, 0.0], [0.0, 3.0, 0.0]], []),  # spans the plane of e1, e2, but not orthonormal
    ([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], []),  # a duplicated row
    (np.eye(3), ["# pca d=3 k=0"]),  # names no rows
], ids=["scaled", "duplicated", "empty"])
def test_analyze_subspaces_rejects_a_basis_that_is_not_orthonormal(tmp_path, capsys, rows,
                                                                    header):
    good = tmp_path / "good.csv"
    write_csv(good, ["c0", "c1", "c2"], np.eye(3)[:2])
    bad = tmp_path / "bad.csv"
    write_csv(bad, ["c0", "c1", "c2"], rows, header)
    out = tmp_path / "analysis"
    assert main(["analyze", "subspaces", str(good), str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {bad}: the named basis rows must be non-empty and orthonormal\n"
    assert not out.exists()


def _exit_2_argv(tmp, case):
    """Write the inputs of one command that must exit 2 at a check of its own; return its argv."""
    if case == "dct-low-side":
        return ["basis", "dct", "--size", "4", "--low-side", "4", "--out", str(tmp / "dct.csv")]
    if case == "weight-not-positive":
        return _csv_run(tmp, "weights", "t,w\n0,1\n5,0\n10,0.5\n")[0]
    if case.startswith("config-"):
        config = _cli_inputs(tmp)["config"]
        if case == "config-not-an-object":
            config = [config]
        elif case == "config-gmm-and-data":
            config["data"] = "points.csv"
        elif case == "config-neither-gmm-nor-data":
            del config["gmm"]
        else:
            config["family"] = {"kind": "bogus", "dim": 2}
        (tmp / "run.json").write_text(json.dumps(config))
        return ["train", "--config", str(tmp / "run.json"), "--out", str(tmp / "rundir")]
    columns = [f"c{j}" for j in range(4)]
    write_csv(tmp / "a.csv", columns, np.eye(4)[:2])
    files = [str(tmp / "a.csv")]
    if case == "dct-header-rows":
        write_csv(tmp / "b.csv", columns * 4, np.eye(16)[:15],
                  ["# dct H=4 order=zigzag", "# low_side=2 low_dim=4"])
        files.append(str(tmp / "b.csv"))
    elif case == "basis-shapes-differ":
        write_csv(tmp / "b.csv", columns[:3], np.eye(3)[:2])
        files.append(str(tmp / "b.csv"))
    return ["analyze", "subspaces", *files, "--out", str(tmp / "analysis")]


EXIT_2_CASES = [
    ("dct-low-side", "low-side must satisfy 1 <= low_side < size"),
    ("weight-not-positive", "weight samples must be positive"),
    ("config-not-an-object", "config must be a JSON object"),
    ("config-gmm-and-data", "config needs exactly one of 'gmm' or 'data'"),
    ("config-neither-gmm-nor-data", "config needs exactly one of 'gmm' or 'data'"),
    ("config-family-kind", "unknown family kind 'bogus'"),
    ("dct-header-rows", "b.csv: 15 rows for a side-4 DCT basis"),
    ("one-subspace-file", "need at least two projector files"),
    ("basis-shapes-differ", "b.csv: basis shape (3, 2) differs from (4, 2)"),
]


@pytest.mark.parametrize("case, message", EXIT_2_CASES, ids=[case for case, _ in EXIT_2_CASES])
def test_input_checks_exit_2_with_one_line_writing_nothing(tmp_path, capsys, case, message):
    argv = _exit_2_argv(tmp_path, case)
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert sorted(tmp_path.rglob("*")) == before


def test_usage_errors_exit_2(tmp_path):
    assert main(["gen-data", "--gmm", "missing.json", "--n", "5",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["nonsense-command"]) == 2


@pytest.mark.parametrize("case", ["out-is-dir", "gmm-is-dir", "out-under-file"])
def test_os_errors_exit_2(tmp_path, gmm_file, capsys, case):
    (tmp_path / "plain.csv").write_text("")
    gmm, out = {
        "out-is-dir": (gmm_file, tmp_path),
        "gmm-is-dir": (tmp_path, tmp_path / "x.csv"),
        "out-under-file": (gmm_file, tmp_path / "plain.csv" / "x.csv"),
    }[case]
    assert main(["gen-data", "--gmm", str(gmm), "--n", "10", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


WEIGHTS = [["t", "w"], ["0", "1"], ["2", "0.8"], ["5", "0.6"], ["10", "0.5"]]
POINTS = [["x0", "x1"], ["0.1", "-0.4"], ["1.2", "0.3"], ["-0.7", "0.9"], ["0.5", "-1.1"],
          ["-1.3", "0.2"], ["0.8", "0.6"]]


def _csv_text(rows):
    return "".join(",".join(row) + "\n" for row in rows)


def _csv_run(tmp, document, text):
    """Write `text` as the weight CSV of `schedule-fit` ("weights"), the `"data"` CSV of a
    model-mode `train` config ("points") or the `--data` of `basis pca` ("basis");
    returns (argv, the path the command writes)."""
    csv = tmp / ("weights.csv" if document == "weights" else "points.csv")
    csv.write_text(text)
    out = tmp / {"weights": "fit.json", "basis": "pca.csv", "points": "run"}[document]
    if document == "weights":
        return ["schedule-fit", "--weight-csv", str(csv), "--horizon", "10", "--quad-points",
                "101", "--knots", "4", "--out", str(out)], out
    if document == "basis":
        return ["basis", "pca", "--data", str(csv), "--k", "1", "--out", str(out)], out
    config = {key: value for key, value in _cli_inputs(tmp)["config"].items() if key != "gmm"}
    (tmp / "data_config.json").write_text(json.dumps({**config, "data": csv.name}))
    return ["train", "--config", str(tmp / "data_config.json"), "--out", str(out)], out


@pytest.mark.parametrize("document, text", [
    ("weights", ""),
    ("weights", "t,w\n0\n10,1\n"),
    ("weights", "t,w\n0,1,9\n10,1\n"),
    ("weights", "t,w\n0,inf\n10,1\n"),
    ("weights", "t,w\n0,1e999\n10,1\n"),
    ("weights", "t,w\n0,nan\n10,1\n"),
    ("weights", "t,w\n0,1\n5,0.6\n2,0.8\n10,0.5\n"),
    ("weights", "t,w\n0,1\n5,0.6\n5,0.6\n10,0.5\n"),
    ("points", _csv_text(POINTS[:3] + [["nan", "0.2"]] + POINTS[4:])),
    ("points", _csv_text(POINTS[:3] + [["0.2"]] + POINTS[4:])),
    ("points", _csv_text(POINTS[:3] + [["0.2", "0.1", "0.4"]] + POINTS[4:])),
    ("points", "x0,x1\n"),
    ("basis", _csv_text(POINTS[:3] + [["0.2"]] + POINTS[4:])),
    ("basis", _csv_text(POINTS[:3] + [["0.2", "0.1", "0.4"]] + POINTS[4:])),
], ids=["weights-empty", "weights-one-cell", "weights-extra-cell", "weights-inf", "weights-1e999",
        "weights-nan", "weights-swapped-t", "weights-repeated-t", "points-nan", "points-short",
        "points-long", "points-header-only", "basis-short", "basis-long"])
def test_a_bad_numeric_csv_exits_2_with_one_line_naming_the_file(tmp_path, capsys, document,
                                                                  text):
    argv, written = _csv_run(tmp_path, document, text)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("weights.csv" if document == "weights" else "points.csv") in err
    assert not written.exists()


@pytest.mark.parametrize("option, value", [
    ("--horizon", "0"), ("--horizon", "-5"), ("--horizon", "inf"), ("--horizon", "nan"),
    ("--floor", "0"), ("--floor", "10"), ("--quad-points", "0"), ("--quad-points", "1"),
    ("--knots", "1"), ("--dim", "0"),
], ids=["horizon-0", "horizon-negative", "horizon-inf", "horizon-nan", "floor-0",
        "floor-at-horizon", "quad-points-0", "quad-points-1", "knots-1", "dim-0"])
def test_schedule_fit_bad_option_exits_2_with_one_line_naming_it(tmp_path, capsys, option,
                                                                 value):
    argv, written = _csv_run(tmp_path, "weights", _csv_text(WEIGHTS))
    assert main(argv + [f"{option}={value}"]) == 2  # the last --horizon etc. wins
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert option[2:].replace("-", "_") in err
    assert not written.exists()


@pytest.mark.parametrize("points", ["0", "-3"])
def test_analyze_schedule_rejects_points_below_1(tmp_path, schedule_file, capsys, points):
    out = tmp_path / "analysis"
    assert main(["analyze", "schedule", str(schedule_file), "--out", str(out),
                 f"--points={points}"]) == 2
    assert capsys.readouterr().err == f"error: points must be >= 1, got {points}\n"
    assert not out.exists()


@pytest.mark.parametrize("name_filter", ["nosuch", "Knots"])
def test_verify_filter_without_match_exits_2(capsys, name_filter):
    assert main(["verify", "--filter", name_filter]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: no check group matches '{name_filter}'; groups: "
                            "score, estimator, loss, solver, knots, weight-map, gradient\n")


@pytest.mark.parametrize("n", ["0", "-3"])
def test_sample_rejects_n_below_1(tmp_path, gmm_file, schedule_file, capsys, n):
    out = tmp_path / "x.csv"
    assert main(["sample", "--schedule", str(schedule_file), "--oracle", str(gmm_file),
                 "--steps", "4", "--n", n, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: n must be >= 1\n"
    assert not out.exists()


def test_key_error_message_prints_without_quotes(tmp_path, gmm_file, schedule_file, capsys):
    assert main(["sample", "--schedule", str(schedule_file), "--oracle", str(gmm_file),
                 "--steps", "4", "--class-label", "a", "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == "error: schedule is not class-conditional\n"


def test_mutated_heun_corrector_breaks_order(monkeypatch):
    # flipping the corrector sign must degrade the measured order to ~1
    import anisodiff.sampler as sampler_mod
    from anisodiff.subspaces import apply_spectral
    from anisodiff.verify import _order_setup, convergence_slope

    def broken_step(family, field, x, t_k, du, t_hat=None, lift=None, coef=None, flow_k=None):
        f_k = field(x, t_k) if flow_k is None else flow_k
        euler = x + apply_spectral(family, du, f_k)
        x_hat = euler if lift is None else x + apply_spectral(family, lift, f_k)
        f_hat = field(x_hat, t_hat)
        new_x = euler + apply_spectral(family, -coef, f_hat - f_k)  # the corrector's sign flipped
        return new_x, f_k, f_hat

    # the patch reaches the fine reference too, which the first-order mutant also approaches
    monkeypatch.setattr(sampler_mod, "heun_step", broken_step)
    ms, field, x_init = _order_setup(21)
    cfg = SamplerConfig(steps=1024, solver="heun", secondary="midpoint")
    ref = sampler_mod.sample_trajectory(ms, field, cfg, x_init=x_init).final
    slope = convergence_slope(ms, field, x_init, (8, 16, 32, 64), ref, "heun", "endpoint")
    assert slope < 1.5  # far from second order


DROP = object()  # the mutation that deletes the key
MUTANT_VALUES = [DROP, "1", [1], {}, True, None, float("nan"), float("inf"), float("-inf"),
                 1e308, -1e308, -1, -0.5]


def _paths(doc, prefix=()):
    """Every key and index path into a JSON document, outermost first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _mutated(doc, path, value):
    doc = json.loads(json.dumps(doc))
    *outer, last = path
    parent = doc
    for key in outer:
        parent = parent[key]
    if value is DROP:
        del parent[last]
    else:
        parent[last] = value
    return doc


def _cli_inputs(tmp):
    """A tiny model-mode `train` config and a saved schedule and model, by name."""
    save_gmm(single_gaussian(np.zeros(2), np.diag([0.5, 0.8])), tmp / "gmm.json")
    ms = matrix_schedule_for_family(axis_family(2, 1), horizon=10.0, n_knots=4)
    save_schedule(ms.with_theta_vector(np.linspace(-0.5, 0.5, ms.n_params)), tmp / "schedule.json")
    save_model(biased_model(2, 10.0, (4,), np.random.default_rng(9)), tmp / "model.json")
    train = {"batch_size": 16, "lr_model": 0.01, "lr_schedule_scale": 0.1,
             "warmup_images": 16, "ema_half_life_images": 64.0, "ema_rampup": True,
             "total_images": 32, "model_steps_per_schedule_step": 1, "midpoint_decay": 0.5,
             "train_model": True, "train_schedule": True, "guard_factor": 1e3,
             "guard_patience": 10, "seed": 0, "log_every": 1}
    config = {"version": "1", "gmm": "gmm.json", "family": {"kind": "axis", "dim": 2, "split": 1},
              "schedule": {"horizon": 10.0, "floor": 1e-4, "knots": 4},
              "model": {"widths": [4], "seed": 1}, "train": train}
    return {"config": config, **{name: json.loads((tmp / f"{name}.json").read_text())
                                 for name in ("schedule", "model")}}


CSV_DOCUMENTS = {"points": POINTS, "weights": WEIGHTS}
CSV_MUTATIONS = ["drop a cell", "add a cell", "empty file", "header only", "swapped rows",
                 "x", "nan", "inf", "1e999"]  # the last four replace one cell


def _mutated_csv(rows, mutation, i, j):
    """CSV text of `rows` (the column line first) with one mutation at row i, cell j."""
    rows = [list(row) for row in rows]
    if mutation == "empty file":
        return ""
    if mutation == "header only":
        rows = rows[:1]
    elif mutation == "swapped rows":
        rows[i], rows[i + 1] = rows[i + 1], rows[i]
    elif mutation == "drop a cell":
        del rows[i][j]
    elif mutation == "add a cell":
        rows[i].append("1")
    else:
        rows[i][j] = mutation
    return _csv_text(rows)


@settings(max_examples=160, deadline=None)
@given(data=st.data())
def test_a_mutated_input_exits_0_or_2_with_at_most_one_line(data):
    # a bad config, schedule, model or numeric CSV file is an error line with exit 2,
    # never a traceback
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        docs = _cli_inputs(tmp)
        kind = data.draw(st.sampled_from(sorted(docs) + sorted(CSV_DOCUMENTS)), label="document")
        if kind in CSV_DOCUMENTS:
            rows = CSV_DOCUMENTS[kind]
            mutation = data.draw(st.sampled_from(CSV_MUTATIONS), label="mutation")
            i = data.draw(st.integers(0, len(rows) - 2), label="row")
            j = data.draw(st.integers(0, len(rows[i]) - 1), label="cell")
            argv, _ = _csv_run(tmp, kind, _mutated_csv(rows, mutation, i, j))
        else:
            path = data.draw(st.sampled_from(list(_paths(docs[kind]))), label="path")
            value = data.draw(st.sampled_from(MUTANT_VALUES), label="value")
            # without `total_images` training runs the default 200k images: long, not a fault
            assume(not (("train", "total_images")[:len(path)] == path and value in (DROP, {})))
            (tmp / f"{kind}.json").write_text(json.dumps(_mutated(docs[kind], path, value)))
            argv = (["train", "--config", str(tmp / "config.json"), "--out", str(tmp / "run")]
                    if kind == "config" else
                    ["sample", "--schedule", str(tmp / "schedule.json"), "--model",
                     str(tmp / "model.json"), "--steps", "3", "--n", "2", "--out",
                     str(tmp / "x.csv")])
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, redirect_stderr(err), \
                redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main(argv)
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    assert code in (0, 2), lines
    assert len(lines) <= 1, lines
    assert not any("Traceback" in line for line in lines)
