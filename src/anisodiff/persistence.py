"""File formats: schedule/mixture/model JSON and provenance-stamped CSV.

Every output file starts with a provenance line
``# anisodiff <version> config=<sha256 prefix> seed=<seed>`` so runs can
be traced back to their configuration.  Numeric CSV cells use 17
significant digits for exact float round-tripping.
"""

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

FORMAT_VERSION = "1"


def fmt(x) -> str:
    return f"{float(x):.17g}"


def config_hash(obj) -> str:
    canonical = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def provenance_line(config_obj, seed) -> str:
    return f"# anisodiff {__version__} config={config_hash(config_obj)} seed={seed}"


def write_csv(path, columns, rows, header_lines=()):
    """Write a CSV with optional leading comment lines and 17-digit floats."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(line.rstrip("\n") + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            cells = [fmt(c) if isinstance(c, (int, float, np.floating)) else str(c) for c in row]
            fh.write(",".join(cells) + "\n")


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


class _SavedObject(dict):
    """A JSON object of a saved file; a missing key is a one-line ValueError."""

    def __init__(self, kind, items):
        super().__init__(items)
        self.kind = kind

    def __missing__(self, key):
        raise ValueError(f"{self.kind} file is missing key {key!r}")


def _read_saved(path, kind) -> dict:
    """Parse a saved `kind` file ("schedule", "mixture", "model") of the current format."""
    def non_finite(literal):  # NaN, Infinity or -Infinity
        raise ValueError(f"{kind} file holds the non-finite number {literal}")

    payload = json.loads(Path(path).read_text(), object_hook=lambda obj: _SavedObject(kind, obj),
                         parse_constant=non_finite)
    if not isinstance(payload, dict):
        raise ValueError(f"{kind} file must hold a JSON object")
    if payload.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported {kind} file version")
    return payload


# ---------------------------------------------------------------------------
# projector families
# ---------------------------------------------------------------------------

def family_to_json(family: ProjectorFamily) -> dict:
    meta = dict(family.meta)
    kind = meta.get("kind", "explicit")
    if kind == "dct":
        return {"kind": "dct", "side": meta["side"], "low_side": meta["low_side"]}
    if kind == "isotropic":
        return {"kind": "isotropic", "dim": family.ambient_dim}
    if kind == "axis":
        return {"kind": "axis", "dim": family.ambient_dim, "split": meta["split"]}
    payload = {
        "kind": "explicit",
        "dim": family.ambient_dim,
        "blocks": [
            family.basis[:, family.labels == j].tolist() for j in range(family.n_subspaces)
        ],
    }
    if kind == "pca":
        payload["pca_meta"] = {
            "eigenvalues": meta.get("eigenvalues"),
            "tie_at_cut": meta.get("tie_at_cut"),
        }
    return payload


def family_from_json(payload: dict) -> ProjectorFamily:
    kind = payload["kind"]
    if kind == "dct":
        return build_dct_projectors(payload["side"], payload["low_side"])
    if kind == "isotropic":
        return isotropic_family(payload["dim"])
    if kind == "axis":
        return axis_family(payload["dim"], payload["split"])
    if kind == "explicit":
        dim = payload["dim"]
        blocks = [np.array(b, dtype=float) for b in payload["blocks"]]
        if any(b.ndim != 2 or b.shape[0] != dim for b in blocks):
            raise ValueError(f"family blocks must be arrays with {dim} rows")
        labels = np.repeat(np.arange(len(blocks)), [b.shape[1] for b in blocks])
        meta = {"kind": "explicit"}
        if "pca_meta" in payload:
            meta = {"kind": "pca", **payload["pca_meta"]}
        return ProjectorFamily(np.concatenate(blocks, axis=1), labels, meta=meta)
    raise ValueError(f"unknown family kind {kind!r}")


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
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2))


def load_schedule(path) -> MatrixSchedule:
    payload = _read_saved(path, "schedule")
    with decoding("schedule file"):
        family = family_from_json(payload["family"])
        nodes = np.array(payload["nodes"])
        floor = payload["floor"]
        horizon = payload["horizon"]

        def make(theta_list):
            return tuple(
                KnotSchedule(np.array(th), nodes, floor, horizon) for th in theta_list
            )

        class_table = None
        if payload["theta"]["classes"] is not None:
            class_table = {k: make(v) for k, v in payload["theta"]["classes"].items()}
        return MatrixSchedule(
            family,
            make(payload["theta"]["default"]),
            class_table=class_table,
            t_floor_fraction=payload.get("t_floor_fraction", 1e-4),
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
    Path(path).write_text(json.dumps(payload, indent=2))


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
    Path(path).write_text(json.dumps(payload))


def load_model(path) -> FlowModel:
    payload = _read_saved(path, "model")
    with decoding("model file"):
        return FlowModel(
            dim=payload["dim"],
            horizon=payload["horizon"],
            widths=tuple(payload["widths"]),
            params=np.array(payload["params"]),
        )
