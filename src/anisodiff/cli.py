"""Command-line surface: data generation, bases, schedule fitting, training,
sampling, verification, and schedule/subspace analysis.

Exit codes: 0 success, 1 invariant failure (verify), 2 usage error or
training divergence.  Every output file starts with a provenance header
line.
"""

import argparse
import dataclasses
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .fields import OracleFlowField
from .flow_model import FlowModel
from .gmm import posterior_mean, sample_p0
from .persistence import (
    check_label,
    family_from_json,
    family_to_json,
    fmt,
    load_gmm,
    load_model,
    load_points_csv,
    load_run_config,
    load_schedule,
    provenance_line,
    read_numeric_csv,
    save_model,
    save_schedule,
    write_csv,
)
from .sampler import SamplerConfig, sample_trajectory
from .schedule import (
    DEFAULT_FLOOR,
    DEFAULT_KNOTS,
    DEFAULT_QUAD_POINTS,
    MatrixSchedule,
    eval_M,
    fit_knot_schedule,
    matrix_schedule_for_family,
    weight_to_schedule,
)
from .subspaces import (
    GRAM_TOL,
    build_dct_basis,
    build_pca_projectors,
    classical_mds,
    dct_mode_order,
    isotropic_family,
    mds_stress,
    projector_distance,
)
from .training import TrainConfig, TrainingDiverged, train_bilevel
from .verify import run_checks


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    if args.class_label is not None:
        check_label(args.class_label)
    gm = load_gmm(args.gmm)
    points = sample_p0(gm, args.n, args.seed)
    header = [
        provenance_line(vars(args), args.seed),
        f"# dim={gm.dim} class={args.class_label if args.class_label else '-'}",
    ]
    write_csv(args.out, [f"x{i}" for i in range(gm.dim)], points, header)
    print(f"wrote {args.n} points to {args.out}")
    return 0


def cmd_basis(args) -> int:
    if args.basis_kind == "dct":
        vectors = build_dct_basis(args.size)
        low = args.low_side if args.low_side is not None else args.size // 2
        if not 1 <= low < args.size:
            raise ValueError("low-side must satisfy 1 <= low_side < size")
        header = [
            provenance_line(vars(args), 0),
            f"# dct H={args.size} order=zigzag",
            f"# low_side={low} low_dim={low * low}",
        ]
        write_csv(args.out, [f"c{i}" for i in range(vectors.shape[1])], vectors, header)
        print(f"wrote {vectors.shape[0]} DCT basis vectors to {args.out}")
        return 0
    samples = load_points_csv(args.data)
    family = build_pca_projectors(samples, args.k)
    vectors = family.basis.T
    header = [
        provenance_line(vars(args), 0),
        f"# pca d={samples.shape[1]} k={args.k}",
    ]
    write_csv(args.out, [f"c{i}" for i in range(vectors.shape[1])], vectors, header)
    sidecar = Path(args.out).with_suffix(".meta.json")
    sidecar.write_text(json.dumps({**family_to_json(family)["pca_meta"], "k": args.k}, indent=2))
    print(f"wrote PCA basis to {args.out} (+ {sidecar.name})")
    return 0


def cmd_schedule_fit(args) -> int:
    _, columns, values = read_numeric_csv(args.weight_csv)
    if columns != ["t", "w"]:
        raise ValueError("weight CSV must have columns t,w")
    t_raw, w_raw = values.T
    if t_raw.size == 0 or np.any(np.diff(t_raw) <= 0):  # np.interp needs increasing samples
        raise ValueError(f"{args.weight_csv}: the t column must hold at least one row and "
                         "increase strictly")
    if np.any(w_raw <= 0):
        raise ValueError("weight samples must be positive")

    def w_fn(t):
        return np.interp(np.asarray(t, dtype=float), t_raw, w_raw)

    tab = weight_to_schedule(w_fn, args.horizon, args.quad_points)
    # project the tabulated monotone g onto the knot family
    knot = fit_knot_schedule(
        lambda t: tab.eval(t)[0], args.horizon, args.floor, args.knots
    )
    ms = MatrixSchedule(isotropic_family(args.dim), (knot,))
    save_schedule(ms, args.out)
    if args.table:
        ts = np.linspace(0.0, args.horizon, 2001)
        g, dg = tab.eval(ts)
        header = [provenance_line(vars(args), 0), f"# c={fmt(tab.c)}"]
        write_csv(args.table, ["t", "g", "dg_dt"], np.stack([ts, g, dg], axis=1), header)
    print(f"fit constant c={tab.c:.6g}; wrote schedule to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    family = family_from_json(cfg["family"])
    sched = cfg["schedule"]
    horizon = float(sched["horizon"])
    ms = matrix_schedule_for_family(family, horizon, float(sched.get("floor", DEFAULT_FLOOR)),
                                    sched.get("knots", DEFAULT_KNOTS))
    # load_run_config matched these labels to the schedule's classes
    labels = sorted(cfg["gmm"]) if isinstance(cfg.get("gmm"), dict) else None
    if labels:
        ms = dataclasses.replace(ms, class_table={label: ms.per_subspace for label in labels})

    train_cfg = TrainConfig(**cfg.get("train", {}))
    if labels is not None:
        data = {label: load_gmm(p) for label, p in cfg["gmm"].items()}
        dims = {cfg["gmm"][label]: gm.dim for label, gm in data.items()}
    elif "gmm" in cfg:
        data = load_gmm(cfg["gmm"])
        dims = {cfg["gmm"]: data.dim}
    else:
        data = load_points_csv(cfg["data"])
        dims = {cfg["data"]: data.shape[1]}
    for source, dim in dims.items():
        if dim != family.ambient_dim:
            raise ValueError(f"{source}: data dimension {dim} does not match the family's "
                             f"dimension {family.ambient_dim}")
    model = None
    if "model" in cfg:
        model = FlowModel.create(family.ambient_dim, horizon, **cfg["model"])
    elif train_cfg.train_model:
        train_cfg = dataclasses.replace(train_cfg, train_model=False)

    result = train_bilevel(data, ms, model, train_cfg)

    out = Path(args.out)
    save_schedule(result.ms, out / "schedule.json", seed=train_cfg.seed)
    if result.model is not None:
        save_model(result.model, out / "model.json")
        save_model(result.ema_model, out / "model_ema.json")
    header = [provenance_line(cfg, train_cfg.seed)]
    columns = list(result.logs[0].keys())
    write_csv(out / "logs.csv", columns, [[r[c] for c in columns] for r in result.logs], header)
    if result.schedule_steps:
        trace_rows, diag_rows = [], []
        for images, label, theta, explicit, implicit, se in result.schedule_steps:
            label = "-" if label is None else label
            trace_rows.append([images, label, *theta])
            diag_rows += [[images, label, p, *parts]
                          for p, parts in enumerate(zip(explicit, implicit, se))]
        theta_cols = [f"theta{i}" for i in range(result.ms.n_params)]
        write_csv(out / "theta_trace.csv", ["images", "class", *theta_cols], trace_rows, header)
        write_csv(out / "theta_diagnostics.csv",
                  ["images", "class", "coordinate", "explicit", "implicit", "se"], diag_rows,
                  header)
    print(f"training finished after {result.logs[-1]['images']} images; run dir: {out}")
    return 0


def cmd_sample(args) -> int:
    if args.n < 1:
        raise ValueError("n must be >= 1")
    ms = load_schedule(args.schedule).for_class(args.class_label)
    if (args.model is None) == (args.oracle is None):
        raise ValueError("need exactly one of --model or --oracle")
    if args.denoise and args.model:
        raise ValueError("--denoise needs the --oracle field")
    if args.model:
        field = load_model(args.model)
        kind, dim = "model", field.dim
        if field.horizon != ms.horizon:  # the model's time features are t / its horizon
            raise ValueError(f"model horizon {field.horizon} does not match the schedule's "
                             f"horizon {ms.horizon}")
    else:
        gm = load_gmm(args.oracle)
        field = OracleFlowField(gm, ms)
        kind, dim = "mixture", gm.dim
    if dim != ms.family.ambient_dim:
        raise ValueError(f"{kind} dimension {dim} does not match the schedule's dimension "
                         f"{ms.family.ambient_dim}")
    cfg = SamplerConfig(steps=args.steps, solver=args.solver, secondary=args.secondary)
    result = sample_trajectory(ms, field, cfg, n=args.n, rng=args.seed)
    final = result.final
    if not np.all(np.isfinite(final)):
        raise ValueError("sampling produced non-finite samples; nothing written")
    if args.denoise:
        final = posterior_mean(gm, final, ms, result.times[0])
    header = [
        provenance_line(vars(args), args.seed),
        f"# dim={ms.family.ambient_dim} nfe={result.nfe} steps={args.steps} "
        f"solver={args.solver} secondary={args.secondary}",
    ]
    write_csv(args.out, [f"x{i}" for i in range(final.shape[1])], final, header)
    if args.dump_trajectory:
        dump = Path(args.dump_trajectory)
        for i, state in enumerate(result.states):
            t = result.times[len(result.times) - 1 - i]
            write_csv(
                dump / f"step_{i:04d}.csv",
                [f"x{j}" for j in range(state.shape[1])],
                state,
                [header[0], f"# t={fmt(t)}"],
            )
    print(f"wrote {final.shape[0]} samples to {args.out} (NFE={result.nfe}, "
          f"{result.wall_time:.2f}s)")
    return 0


def cmd_verify(args) -> int:
    checks = run_checks(name_filter=args.filter, quick=args.quick)
    for c in checks:
        print(c.line())
    n_failed = sum(not c.passed for c in checks)
    if args.out:
        out = Path(args.out)
        header = [provenance_line(vars(args), 0)]
        rows = [
            [c.group, c.name, "pass" if c.passed else "fail", c.value, c.threshold, c.seconds]
            for c in checks
        ]
        write_csv(out / "verify_report.csv",
                  ["group", "name", "status", "value", "threshold", "seconds"], rows, header)
        (out / "verify_report.txt").write_text(
            "\n".join([header[0]] + [c.line() for c in checks]) + "\n"
        )
    print(f"{len(checks) - n_failed}/{len(checks)} checks passed")
    return 1 if n_failed else 0


def cmd_analyze_schedule(args) -> int:
    if args.points < 1:
        raise ValueError(f"points must be >= 1, got {args.points}")
    ms = load_schedule(args.schedule)
    labels = sorted(ms.class_table) if ms.class_table is not None else [None]
    ts = np.linspace(ms.t_min, ms.horizon, args.points)
    nsub = ms.family.n_subspaces
    out = Path(args.out)
    header = [provenance_line(vars(args), 0)]

    columns, blocks, curves = ["t"], [ts[:, None]], []
    for label in labels:
        tag = "" if label is None else f"_class_{label}"
        g, _ = eval_M(ms.for_class(label), ts)  # (points, J)
        curves.append(g)
        columns += [f"g{j + 1}{tag}" for j in range(nsub)] + [f"geomean{tag}"]
        blocks += [g, np.exp(np.mean(np.log(g), axis=1, keepdims=True))]
        if nsub == 2:
            columns.append(f"ratio{tag}")
            blocks.append(g[:, :1] / g[:, 1:])
    write_csv(out / "schedule_curves.csv", columns, np.hstack(blocks), header)

    if ms.class_table is not None:
        # per-class schedules normalized by the geometric mean across classes
        stacked = np.stack(curves)  # (C, points, J)
        rel = stacked / np.exp(np.mean(np.log(stacked), axis=0))
        norm_cols = ["t"] + [f"g{j + 1}_class_{label}_rel" for label in labels for j in range(nsub)]
        write_csv(out / "class_normalized.csv", norm_cols,
                  np.hstack([ts[:, None], *rel]), header)
    print(f"wrote schedule analysis to {out}")
    return 0


def _named_subspace(path) -> np.ndarray:
    """The (d, k) basis columns of the subspace a `basis` export names (its rows are the basis
    vectors): the first K rows under `# pca d=D k=K`, the modes (p, q) with p, q < L under
    `# dct H=...` and `# low_side=L`, and every row of a file with neither header.  The named
    rows must be at least one and orthonormal, within `GRAM_TOL`."""
    header, _, vectors = read_numeric_csv(path)
    text = "\n".join(header)
    pca = re.search(r"^# pca .*\bk=(\d+)", text, re.M)
    dct, low = re.search(r"^# dct H=(\d+)", text, re.M), re.search(r"^# low_side=(\d+)", text, re.M)
    if pca:
        block = vectors[:int(pca[1])]
    elif dct and low:
        modes = np.array(dct_mode_order(int(dct[1])))
        if len(modes) != len(vectors):
            raise ValueError(f"{path}: {len(vectors)} rows for a side-{dct[1]} DCT basis")
        block = vectors[np.all(modes < int(low[1]), axis=1)]
    else:
        block = vectors
    if not len(block) or not np.allclose(block @ block.T, np.eye(len(block)), atol=GRAM_TOL):
        raise ValueError(f"{path}: the named basis rows must be non-empty and orthonormal")
    return block.T


def cmd_analyze_subspaces(args) -> int:
    if len(args.files) < 2:
        raise ValueError("need at least two projector files")
    bases = [_named_subspace(path) for path in args.files]
    shape = bases[0].shape
    for path, b in zip(args.files, bases):
        if b.shape != shape:
            raise ValueError(f"{path}: basis shape {b.shape} differs from {shape}")
    n = len(bases)
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = projector_distance(bases[i], bases[j])
    emb = classical_mds(dist, 2)
    stress = mds_stress(dist, emb.points)
    out = Path(args.out)
    header = [provenance_line(vars(args), 0)]
    names = [Path(p).stem for p in args.files]
    write_csv(
        out / "distance_matrix.csv",
        ["name"] + names,
        [[names[i]] + list(dist[i]) for i in range(n)],
        header,
    )
    write_csv(
        out / "mds_embedding.csv",
        ["name", "x", "y"],
        [[names[i], emb.points[i, 0], emb.points[i, 1]] for i in range(n)],
        header + [f"# stress={fmt(stress)} padded={emb.padded}"],
    )
    print(f"wrote subspace analysis to {out} (stress={stress:.3e})")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anisodiff",
        description="Learned anisotropic diffusion trajectories at desk scale",
    )
    parser.add_argument("--version", action="version", version=f"anisodiff {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="sample points from a mixture file")
    p.add_argument("--gmm", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--class-label", default=None)
    p.set_defaults(handler=cmd_gen_data)

    p = sub.add_parser("basis", help="construct an orthonormal basis")
    basis_sub = p.add_subparsers(dest="basis_kind", required=True)
    pd = basis_sub.add_parser("dct", help="2-D DCT basis")
    pd.add_argument("--size", type=int, required=True)
    pd.add_argument("--low-side", type=int, default=None)
    pd.add_argument("--out", required=True)
    pd.set_defaults(handler=cmd_basis)
    pp = basis_sub.add_parser("pca", help="PCA basis from a data CSV")
    pp.add_argument("--data", required=True)
    pp.add_argument("--k", type=int, required=True)
    pp.add_argument("--out", required=True)
    pp.set_defaults(handler=cmd_basis)

    p = sub.add_parser("schedule-fit", help="build a schedule from a weight profile")
    p.add_argument("--weight-csv", required=True)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--quad-points", type=int, default=DEFAULT_QUAD_POINTS)
    p.add_argument("--knots", type=int, default=DEFAULT_KNOTS)
    p.add_argument("--floor", type=float, default=DEFAULT_FLOOR)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--table", default=None)
    p.set_defaults(handler=cmd_schedule_fit)

    p = sub.add_parser("train", help="train schedule and/or model from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("sample", help="integrate the reverse ODE")
    p.add_argument("--schedule", required=True)
    p.add_argument("--model", default=None)
    p.add_argument("--oracle", default=None)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--solver", choices=["euler", "heun"], default="heun")
    p.add_argument("--secondary", choices=["endpoint", "midpoint"], default="endpoint")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--dump-trajectory", default=None)
    p.add_argument("--class-label", default=None)
    p.add_argument("--denoise", action="store_true")
    p.set_defaults(handler=cmd_sample)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--filter", default=None)
    p.add_argument("--quick", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("analyze", help="schedule and subspace analysis outputs")
    analyze_sub = p.add_subparsers(dest="analyze_kind", required=True)
    ps = analyze_sub.add_parser("schedule", help="ratio/geomean curves")
    ps.add_argument("schedule")
    ps.add_argument("--out", required=True)
    ps.add_argument("--points", type=int, default=256)
    ps.set_defaults(handler=cmd_analyze_schedule)
    pu = analyze_sub.add_parser(
        "subspaces", help="distances and MDS of the subspaces that basis exports name "
        "(the first k PCA vectors, the low DCT block; a file with neither header whole)")
    pu.add_argument("files", nargs="+")
    pu.add_argument("--out", required=True)
    pu.set_defaults(handler=cmd_analyze_subspaces)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses its own exit codes
        return 2 if exc.code not in (0, None) else 0
    handler = vars(args).pop("handler")  # provenance hashes vars(args): keep it to the options
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
            return handler(args)
    except FloatingPointError as exc:
        print(f"error: {args.command}: numerical overflow ({exc})", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, json.JSONDecodeError, TrainingDiverged) as exc:
        # str() of a KeyError is the repr of its message, quotes included
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
