"""JSON and CSV persistence for models, datasets, and reports.

Schemas:

* mechanism: ``{"dim": m, "L": [strictly-lower entries, row-major], "S": [...], "b": [...]}``
* chain: ``{"dim": m, "layers": [{"kind": "affine"|"leaky_relu"|"permute"|"triangular", ...}]}``
* model bundle: ``{"g": chain, "F": [mechanism, ...]}``
* dataset CSV: header ``d,x1,...,xm``, one row per sample, 1-based domain labels,
  finite values (a bad row raises ValueError naming its line)
* history CSV: header ``iteration,train_nll,val_nll``

Floats go through Python's repr (shortest round-trip decimal), so dump/load
round-trips are exact and reruns are byte-identical.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .canonical import CanonicalizationReport
from .ild import ILDModel
from .mixing import AffineDense, Layer, LayerChain, LeakyRelu, Permute, Triangular
from .scm import AffineSCM, InterventionSet


def _strict_lower_entries(L: np.ndarray) -> list[float]:
    m = L.shape[0]
    return [float(L[i, j]) for i in range(m) for j in range(i)]


def _strict_lower_matrix(entries, m: int) -> np.ndarray:
    entries = list(entries)
    if len(entries) != m * (m - 1) // 2:
        raise ValueError(
            f"expected {m * (m - 1) // 2} strictly-lower entries, got {len(entries)}"
        )
    L = np.zeros((m, m))
    pos = 0
    for i in range(m):
        for j in range(i):
            L[i, j] = entries[pos]
            pos += 1
    return L


def scm_to_dict(f: AffineSCM) -> dict:
    return {
        "dim": f.dim,
        "L": _strict_lower_entries(f.L),
        "S": [float(v) for v in f.S],
        "b": [float(v) for v in f.b],
    }


def scm_from_dict(data: dict) -> AffineSCM:
    m = int(data["dim"])
    return AffineSCM(_strict_lower_matrix(data["L"], m), data["S"], data["b"])


def layer_to_dict(layer: Layer) -> dict:
    if isinstance(layer, AffineDense):
        return {
            "kind": "affine",
            "G": [[float(v) for v in row] for row in layer.G],
            "b": [float(v) for v in layer.b],
        }
    if isinstance(layer, LeakyRelu):
        return {"kind": "leaky_relu", "slope": float(layer.slope)}
    if isinstance(layer, Permute):
        return {"kind": "permute", "pi": list(layer.pi)}
    if isinstance(layer, Triangular):
        return {"kind": "triangular", "scm": scm_to_dict(layer.scm)}
    raise TypeError(f"unknown layer type {type(layer)!r}")


def layer_from_dict(data: dict) -> Layer:
    kind = data["kind"]
    if kind == "affine":
        return AffineDense(np.asarray(data["G"], dtype=float), data["b"])
    if kind == "leaky_relu":
        return LeakyRelu(float(data["slope"]))
    if kind == "permute":
        return Permute(tuple(data["pi"]))
    if kind == "triangular":
        return Triangular(scm_from_dict(data["scm"]))
    raise ValueError(f"unknown layer kind {kind!r}")


def chain_to_dict(chain: LayerChain) -> dict:
    return {"dim": chain.dim, "layers": [layer_to_dict(l) for l in chain.layers]}


def chain_from_dict(data: dict) -> LayerChain:
    return LayerChain(
        int(data["dim"]), tuple(layer_from_dict(l) for l in data["layers"])
    )


def model_to_dict(model: ILDModel) -> dict:
    return {"g": chain_to_dict(model.g), "F": [scm_to_dict(f) for f in model.scms]}


def model_from_dict(data: dict) -> ILDModel:
    return ILDModel(
        chain_from_dict(data["g"]), tuple(scm_from_dict(f) for f in data["F"])
    )


def intervention_to_dict(iset: InterventionSet) -> dict:
    return {"indices": list(iset.indices), "tolerance": iset.tolerance}


def report_to_dict(report: CanonicalizationReport) -> dict:
    return {
        "original_intervention": intervention_to_dict(report.original_intervention),
        "final_intervention": intervention_to_dict(report.final_intervention),
        "swaps": [list(pair) for pair in report.swaps],
        "steps": list(report.steps),
    }


def save_json(data: dict, path) -> None:
    Path(path).write_text(json.dumps(data, indent=2) + "\n")


def load_json(path) -> dict:
    return json.loads(Path(path).read_text())


def write_dataset_csv(path, x: np.ndarray, d: np.ndarray) -> None:
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=int)
    m = x.shape[1] if x.ndim == 2 else 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["d"] + [f"x{i}" for i in range(1, m + 1)])
        for label, row in zip(d, x):
            writer.writerow([int(label)] + [repr(float(v)) for v in row])


def read_dataset_csv(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if not header or header[0] != "d":
            raise ValueError(f"{path}: expected header starting with 'd'")
        m = len(header) - 1
        labels: list[int] = []
        rows: list[list[float]] = []
        for row in reader:
            if not row:
                continue
            try:
                if len(row) != m + 1:
                    raise ValueError(f"expected {m + 1} cells, got {len(row)}")
                label = int(row[0])
                values = [float(v) for v in row[1:]]
                if label < 1:
                    raise ValueError(f"domain label must be >= 1, got {label}")
                if not all(map(math.isfinite, values)):
                    raise ValueError("values must be finite")
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
            labels.append(label)
            rows.append(values)
    x = np.asarray(rows, dtype=float).reshape(len(rows), m)
    return x, np.asarray(labels, dtype=int)


def write_history_csv(path, history) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "train_nll", "val_nll"])
        for it, train_nll, val_nll in history:
            writer.writerow([int(it), repr(float(train_nll)), repr(float(val_nll))])


def read_history_csv(path) -> list[tuple[int, float, float]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [(int(r[0]), float(r[1]), float(r[2])) for r in reader if r]
