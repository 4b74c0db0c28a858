"""File formats: schedule/mixture/model JSON and provenance-stamped CSV.

Every output file starts with a provenance line
``# anisodiff <version> config=<sha256 prefix> seed=<seed>`` so runs can
be traced back to their configuration.  Numeric CSV cells use 17
significant digits for exact float round-tripping.
"""

import dataclasses
import hashlib
import json
import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .flow_model import FlowModel
from .gmm import GaussianMixture
from .schedule import KnotSchedule, MatrixSchedule
from .subspaces import (
    ProjectorFamily,
    axis_family,
    build_dct_projectors,
    isotropic_family,
)
from .training import TrainConfig

FORMAT_VERSION = "1"


def fmt(x) -> str:
    return f"{float(x):.17g}"


def config_hash(obj) -> str:
    canonical = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def provenance_line(config_obj, seed) -> str:
    return f"# anisodiff {__version__} config={config_hash(config_obj)} seed={seed}"


def _write_text(path, text):
    """Write `text` to `path`, making its parent directory first: each writer owns its directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def write_csv(path, columns, rows, header_lines=()):
    """Write a CSV with optional leading comment lines and 17-digit floats."""
    lines = [line.rstrip("\n") for line in header_lines] + [",".join(columns)]
    lines += [",".join(fmt(c) if isinstance(c, (int, float, np.floating)) else str(c) for c in row)
              for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def _csv_lines(path):
    """(header_lines, columns, [(line number, cells)]) of a CSV written by write_csv."""
    header, columns, rows = [], None, []
    with open(path) as fh:
        for number, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if line.startswith("#"):
                header.append(line)
            elif columns is None:
                columns = line.split(",")
            elif line:
                rows.append((number, line.split(",")))
    return header, columns, rows


def read_csv(path):
    """Read a CSV written by write_csv; returns (header_lines, columns, array of str cells)."""
    header, columns, rows = _csv_lines(path)
    return header, columns, [cells for _, cells in rows]


def read_numeric_csv(path):
    """(header_lines, columns, (rows, columns) float array) of a numeric CSV.

    A missing column line, a row whose cell count differs from the column
    line's, and a cell that is not a finite number are each a one-line
    ValueError naming the file and the line.
    """
    header, columns, rows = _csv_lines(path)
    if columns is None:
        raise ValueError(f"{path}: no column line")
    values = []
    for number, cells in rows:
        if len(cells) != len(columns):
            raise ValueError(f"{path}, line {number}: expected {len(columns)} cells, "
                             f"got {len(cells)}")
        row = []
        for cell in cells:
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ValueError(f"{path}, line {number}: {cell!r} is not a finite number")
            row.append(value)
        values.append(row)
    return header, columns, np.array(values).reshape(len(rows), len(columns))


def load_points_csv(path) -> np.ndarray:
    points = read_numeric_csv(path)[2]
    if not len(points):
        raise ValueError(f"{path}: no points")
    return points


@contextmanager
def decoding(source):
    """Report a value of the wrong JSON type as a one-line ValueError naming `source`."""
    try:
        yield
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"{source}: value of the wrong type ({exc})") from None


# ---------------------------------------------------------------------------
# JSON inputs: one field table per object, one checker for all of them
# ---------------------------------------------------------------------------

# A field table maps each key to its JSON type and whether the key is required.
FAMILY_FIELDS = {  # by family kind, next to the `kind` key itself
    "dct": {"side": (int, True), "low_side": (int, True)}, "isotropic": {"dim": (int, True)},
    "axis": {"dim": (int, True), "split": (int, True)},
    "explicit": {"dim": (int, True), "blocks": (list, True), "pca_meta": (dict, False)},
}
PCA_META_FIELDS = {"eigenvalues": (list[float], True), "tie_at_cut": (bool, True)}  # `pca_meta`
RUN_CONFIG_FIELDS = {  # by section; `family` is checked by kind
    "schedule": {"horizon": (float, True), "floor": (float, False), "knots": (int, False),
                 "classes": (list | None, False)},
    "model": {"widths": (list[int], False), "seed": (int, False)},
    "train": {f.name: (f.type, False) for f in dataclasses.fields(TrainConfig)},
}
SAVED_FIELDS = {  # by file kind, and a schedule file's `theta`; every key is required
    "schedule": {"format_version": (str, True), "family_kind": (str, True), "family": (dict, True),
                 "ambient_dim": (int, True), "horizon": (float, True), "floor": (float, True),
                 "nodes": (list, True), "t_floor_fraction": (float, True),
                 "theta": (dict, True), "provenance": (dict, True)},
    "theta": {"default": (list, True), "classes": (dict | None, True)},
    "mixture": {"format_version": (str, True), "weights": (list, True), "means": (list, True),
                "covariances": (list, True)},
    "model": {"format_version": (str, True), "dim": (int, True), "horizon": (float, True),
              "widths": (list[int], True), "params": (list, True)},
}

# the JSON values each field type accepts; a boolean is not a number
_JSON_TYPES = {
    bool: ("a boolean", bool), int: ("an integer", int), float: ("a number", (int, float)),
    str: ("a string", str), list: ("a list", list), dict: ("an object", dict),
    list | None: ("a list or null", (list, type(None))),
    dict | None: ("an object or null", (dict, type(None))), list[int]: ("a list of integers", list),
    list[float]: ("a list of finite numbers", list),
}
_ITEM_TYPES = {list[int]: int, list[float]: (int, float)}  # the JSON values a list field holds


def _is_json(value, accepted) -> bool:
    return isinstance(value, bool) == (accepted is bool) and isinstance(value, accepted)


def check_fields(name, obj, fields: dict, part="section"):
    """Check `obj`, the `name` `part` ("train section"), against its field table: a missing or
    unknown key or a non-finite number is a ValueError, a wrong JSON type a TypeError (for a
    typed list, an item of another type or a non-finite item too)."""
    if not isinstance(obj, dict):
        raise TypeError(f"{name} must be an object, got {json.dumps(obj)}")
    for key, (_, required) in fields.items():
        if required and key not in obj:
            raise ValueError(f"{name} {part} is missing key {key!r}")
    for key, value in obj.items():
        if key not in fields:
            continue  # reported below, after the known keys' types
        kind = fields[key][0]
        label, accepted = _JSON_TYPES[kind]
        item_type = _ITEM_TYPES.get(kind)
        if not _is_json(value, accepted) or item_type is not None and not all(
                _is_json(item, item_type) and (not isinstance(item, float) or math.isfinite(item))
                for item in value):
            raise TypeError(f"{key!r} must be {label}, got {json.dumps(value)}")
        if isinstance(value, float) and not np.isfinite(value):
            raise ValueError(f"{name} {part}: {key!r} must be a finite number, "
                             f"got {json.dumps(value)}")
    unknown = set(obj) - fields.keys()
    if unknown:
        raise ValueError(f"unknown {name} keys: {sorted(unknown)}")


def _check_family(payload):
    kind = payload.get("kind") if isinstance(payload, dict) else None
    if isinstance(kind, str) and kind not in FAMILY_FIELDS:
        raise ValueError(f"unknown family kind {kind!r}")
    fields = FAMILY_FIELDS[kind] if isinstance(kind, str) else {}  # check_fields types `kind`
    check_fields("family", payload, {"kind": (str, True), **fields})
    if "pca_meta" in payload:
        check_fields("pca_meta", payload["pca_meta"], PCA_META_FIELDS, "object")


def check_label(label) -> str:
    """`label` as a string; one holding `,`, `\\n` or `\\r` fits no CSV cell, a ValueError."""
    label = str(label)
    if any(c in label for c in ",\n\r"):
        raise ValueError(f"class label {json.dumps(label)} cannot be a CSV cell: it holds a comma "
                         "or a line break")
    return label


def _read_saved(path, kind) -> dict:
    """Parse a saved `kind` file ("schedule", "mixture", "model") and check its top level."""
    def non_finite(literal):  # NaN, Infinity or -Infinity
        raise ValueError(f"{kind} file holds the non-finite number {literal}")

    payload = json.loads(Path(path).read_text(), parse_constant=non_finite)
    if not isinstance(payload, dict):
        raise ValueError(f"{kind} file must hold a JSON object")
    if payload.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported {kind} file version")
    with decoding(f"{kind} file"):
        check_fields(kind, payload, SAVED_FIELDS[kind], "file")
    return payload


def load_run_config(path):
    """Parse a training run config and check every section against its field table."""
    path = Path(path)
    cfg = json.loads(path.read_text())
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(cfg) - {"version", "gmm", "data", "family", *RUN_CONFIG_FIELDS}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if cfg.get("version") != "1":
        raise ValueError("config must declare \"version\": \"1\"")
    if ("gmm" in cfg) == ("data" in cfg):
        raise ValueError("config needs exactly one of 'gmm' or 'data'")
    with decoding("config section 'family'"):  # a missing family or schedule lacks its keys
        _check_family(cfg.get("family", {}))
    for name, fields in RUN_CONFIG_FIELDS.items():
        with decoding(f"config section '{name}'"):
            check_fields(name, cfg.get(name, {}), fields)
    classes = sorted(map(check_label, cfg["schedule"].get("classes") or ())) or None
    labels = sorted(map(check_label, cfg["gmm"])) if isinstance(cfg.get("gmm"), dict) else None
    if labels != classes:
        raise ValueError(f"per-class gmm labels {labels or []} do not match "
                         f"schedule classes {classes or []}")
    base = path.parent
    resolved = dict(cfg)
    with decoding("config section 'gmm'"):
        if isinstance(cfg.get("gmm"), dict):  # one mixture file per class label
            resolved["gmm"] = {str(label): str((base / p).resolve())
                               for label, p in cfg["gmm"].items()}
        elif "gmm" in cfg:
            resolved["gmm"] = str((base / cfg["gmm"]).resolve())
    with decoding("config section 'data'"):
        if "data" in cfg:
            resolved["data"] = str((base / cfg["data"]).resolve())
    return resolved


# ---------------------------------------------------------------------------
# projector families
# ---------------------------------------------------------------------------

def family_to_json(family: ProjectorFamily) -> dict:
    """The family object `family` was built from, checked against the reader's table: its
    `meta`, or for an explicit or PCA family its basis blocks and PCA `meta` keys."""
    payload = dict(family.meta)
    kind = payload.get("kind", "explicit")
    if kind in ("explicit", "pca"):
        payload = {"kind": "explicit", "dim": family.ambient_dim, "blocks": [
            family.basis[:, family.labels == j].tolist() for j in range(family.n_subspaces)]}
        if kind == "pca":
            payload["pca_meta"] = {k: v for k, v in family.meta.items() if k != "kind"}
    _check_family(payload)
    return payload


def family_from_json(payload: dict) -> ProjectorFamily:
    """The family a family object describes, checked against the field table of its kind."""
    _check_family(payload)
    kind = payload["kind"]
    if kind == "dct":
        return build_dct_projectors(payload["side"], payload["low_side"])
    if kind == "isotropic":
        return isotropic_family(payload["dim"])
    if kind == "axis":
        return axis_family(payload["dim"], payload["split"])
    dim = payload["dim"]  # an explicit family
    with decoding("family blocks"):
        blocks = [np.array(b, dtype=float) for b in payload["blocks"]]
    if any(b.ndim != 2 or b.shape[0] != dim for b in blocks):
        raise ValueError(f"family blocks must be arrays with {dim} rows")
    labels = np.repeat(np.arange(len(blocks)), [b.shape[1] for b in blocks])
    meta = {"kind": "explicit"}
    if "pca_meta" in payload:
        meta = {"kind": "pca", **payload["pca_meta"]}
    return ProjectorFamily(np.concatenate(blocks, axis=1), labels, meta=meta)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def _knots_to_lists(schedules) -> list:
    return [s.theta.tolist() for s in schedules]


def save_schedule(ms: MatrixSchedule, path, seed=0):
    """Write `ms` as JSON; the file keeps one floor and one node grid for all knots."""
    first = ms.per_subspace[0]
    for row in (ms.per_subspace, *(ms.class_table or {}).values()):
        for s in row:
            if s.floor != first.floor or not np.array_equal(s.nodes, first.nodes):
                raise ValueError("cannot save a schedule whose knot schedules differ "
                                 "in floor or nodes")
    payload = {
        "format_version": FORMAT_VERSION,
        "family_kind": ms.family.meta.get("kind", "explicit"),
        "family": family_to_json(ms.family),
        "ambient_dim": ms.family.ambient_dim,
        "horizon": ms.horizon,
        "floor": ms.per_subspace[0].floor,
        "nodes": ms.per_subspace[0].nodes.tolist(),
        "t_floor_fraction": ms.t_floor_fraction,
        "theta": {
            "default": _knots_to_lists(ms.per_subspace),
            "classes": (
                {str(k): _knots_to_lists(v) for k, v in ms.class_table.items()}
                if ms.class_table is not None
                else None
            ),
        },
        "provenance": {"tool": f"anisodiff {__version__}", "seed": seed},
    }
    _write_text(path, json.dumps(payload, indent=2))


def load_schedule(path) -> MatrixSchedule:
    payload = _read_saved(path, "schedule")
    with decoding("schedule file"):
        check_fields("theta", payload["theta"], SAVED_FIELDS["theta"], "object")
        family = family_from_json(payload["family"])
        for key, built in (("family_kind", family.meta["kind"]),
                           ("ambient_dim", family.ambient_dim)):
            if payload[key] != built:
                raise ValueError(f"schedule file: {key!r} is {json.dumps(payload[key])}, "
                                 f"but its family's is {json.dumps(built)}")
        nodes, floor, horizon = np.array(payload["nodes"]), payload["floor"], payload["horizon"]

        def make(theta_list):
            return tuple(KnotSchedule(np.array(th), nodes, floor, horizon) for th in theta_list)

        class_table = None
        if payload["theta"]["classes"] is not None:
            class_table = {check_label(k): make(v) for k, v in payload["theta"]["classes"].items()}
        return MatrixSchedule(
            family,
            make(payload["theta"]["default"]),
            class_table=class_table,
            t_floor_fraction=payload["t_floor_fraction"],
        )


# ---------------------------------------------------------------------------
# mixtures and models
# ---------------------------------------------------------------------------

def save_gmm(gm: GaussianMixture, path):
    payload = {
        "format_version": FORMAT_VERSION,
        "weights": gm.weights.tolist(),
        "means": gm.means.tolist(),
        "covariances": gm.covs.tolist(),
    }
    _write_text(path, json.dumps(payload, indent=2))


def load_gmm(path) -> GaussianMixture:
    payload = _read_saved(path, "mixture")
    with decoding("mixture file"):
        return GaussianMixture(
            np.array(payload["weights"]),
            np.array(payload["means"]),
            np.array(payload["covariances"]),
        )


def save_model(model: FlowModel, path):
    payload = {
        "format_version": FORMAT_VERSION,
        "dim": model.dim,
        "horizon": model.horizon,
        "widths": list(model.widths),
        "params": model.params.tolist(),  # row-major per layer: W then b
    }
    _write_text(path, json.dumps(payload))


def load_model(path) -> FlowModel:
    payload = _read_saved(path, "model")
    with decoding("model file"):
        return FlowModel(
            dim=payload["dim"],
            horizon=payload["horizon"],
            widths=tuple(payload["widths"]),
            params=np.array(payload["params"]),
        )
