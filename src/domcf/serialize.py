"""JSON and CSV persistence for models, datasets, and reports.

Schemas:

* mechanism: ``{"dim": m, "L": [strictly-lower entries, row-major], "S": [...], "b": [...]}``,
  ``L`` a flat list of ``m(m-1)/2`` numbers
* chain: ``{"dim": m, "layers": [{"kind": "affine"|"leaky_relu"|"permute"|"triangular", ...}]}``
* model bundle: ``{"g": chain, "F": [mechanism, ...]}``
* dataset CSV: header ``d,x1,...,xm``, one row per sample, 1-based domain labels,
  finite values (a bad row raises ValueError naming its line)
* history CSV: header ``iteration,train_nll,val_nll``

Floats go through Python's repr (shortest round-trip decimal), so dump/load
round-trips are exact and reruns are byte-identical.  Every CSV line ends in
``\\r\\n``.  The dataset reader takes unquoted cells and ``\\r\\n``, ``\\n`` or
``\\r`` line ends, and skips blank lines.
"""
from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

from .canonical import CanonicalizationReport
from .ild import ILDModel, as_sample_arrays
from .mixing import AffineDense, Layer, LayerChain, LeakyRelu, Permute, Triangular
from .scm import AffineSCM, InterventionSet


def _strict_lower_entries(L: np.ndarray) -> list[float]:
    return L[np.tril_indices(L.shape[0], -1)].tolist()


def _strict_lower_matrix(entries: list, m: int) -> np.ndarray:
    """``L`` from its flat list of ``m(m-1)/2`` strictly-lower entries; any other
    list (nested, of another length, or holding non-numbers) raises
    ``ValueError`` naming ``L``."""
    count = m * (m - 1) // 2
    if len(entries) != count or not all(type(v) in (int, float) for v in entries):
        raise ValueError(f"field 'L' must be a flat list of {count} numbers, got {entries!r:.60}")
    L = np.zeros((m, m))
    L[np.tril_indices(m, -1)] = entries  # row-major: (1, 0), (2, 0), (2, 1), ...
    return L


def scm_to_dict(f: AffineSCM) -> dict:
    return {
        "dim": f.dim,
        "L": _strict_lower_entries(f.L),
        "S": [float(v) for v in f.S],
        "b": [float(v) for v in f.b],
    }


def _field(data, key: str, kind=list):
    """``data[key]`` where ``data`` must be a JSON object holding ``key`` with a
    value of type ``kind``; otherwise ``ValueError`` names the field."""
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object with field {key!r}, got {type(data).__name__}")
    if key not in data:
        raise ValueError(f"missing field {key!r}")
    if not isinstance(data[key], kind):
        raise ValueError(f"field {key!r} has the wrong type {type(data[key]).__name__}")
    return data[key]


def scm_from_dict(data: dict) -> AffineSCM:
    m = int(_field(data, "dim", int))
    return AffineSCM(
        _strict_lower_matrix(_field(data, "L"), m), _field(data, "S"), _field(data, "b")
    )


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
    kind = _field(data, "kind", str)
    if kind == "affine":
        return AffineDense(np.asarray(_field(data, "G"), dtype=float), _field(data, "b"))
    if kind == "leaky_relu":
        return LeakyRelu(float(_field(data, "slope", (int, float))))
    if kind == "permute":
        return Permute(tuple(_field(data, "pi")))
    if kind == "triangular":
        return Triangular(scm_from_dict(_field(data, "scm", dict)))
    raise ValueError(f"unknown layer kind {kind!r}")


def chain_to_dict(chain: LayerChain) -> dict:
    return {"dim": chain.dim, "layers": [layer_to_dict(l) for l in chain.layers]}


def chain_from_dict(data: dict) -> LayerChain:
    return LayerChain(
        int(_field(data, "dim", int)), tuple(layer_from_dict(l) for l in _field(data, "layers"))
    )


def model_to_dict(model: ILDModel) -> dict:
    return {"g": chain_to_dict(model.g), "F": [scm_to_dict(f) for f in model.scms]}


def model_from_dict(data: dict) -> ILDModel:
    """The model of a bundle; a missing or mistyped field raises ``ValueError``."""
    try:
        g = chain_from_dict(_field(data, "g", dict))
        return ILDModel(g, tuple(scm_from_dict(f) for f in _field(data, "F")))
    except TypeError as exc:  # an array entry that is not a number
        raise ValueError(f"mistyped array entry: {exc}") from None


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


def write_csv(path, header, row_format: str, rows) -> None:
    """Write ``header``, then ``row_format % row`` for each row (a sequence of
    Python ints, floats and strings), in one write; every line ends in ``\\r\\n``."""
    text = ((row_format + "\r\n") * len(rows)) % tuple(itertools.chain.from_iterable(rows))
    Path(path).write_text(",".join(header) + "\r\n" + text, newline="")


def write_dataset_csv(path, x: np.ndarray, d: np.ndarray) -> None:
    x, d = as_sample_arrays((x, d))
    m = x.shape[1] if x.ndim == 2 else 0
    rows = np.column_stack((d.astype(object), x.reshape(len(x), m).astype(object))).tolist()
    write_csv(path, ["d"] + [f"x{i}" for i in range(1, m + 1)], "%d" + ",%r" * m, rows)


def read_dataset_csv(path) -> tuple[np.ndarray, np.ndarray]:
    lines = Path(path).read_text().split("\n")  # after universal-newline translation
    header = lines[0].split(",")
    if header[0] != "d":
        raise ValueError(f"{path}: expected header starting with 'd'")
    m = len(header) - 1
    try:
        return _parse_rows([line.split(",") for line in lines[1:] if line], m)
    except (ValueError, OverflowError):
        for num, line in enumerate(lines[1:], 2):  # name the first bad line
            try:
                if line:
                    _parse_rows([line.split(",")], m)
            except (ValueError, OverflowError) as exc:  # a label beyond int64
                raise ValueError(f"{path}: line {num}: {exc}") from None
        raise


def _parse_rows(rows: list[list[str]], m: int) -> tuple[np.ndarray, np.ndarray]:
    """Values and labels of rows of ``m + 1`` cells; for one row, the ValueError
    names its first failed check: cell count, ``int`` label, ``float`` values
    (``np.array`` calls ``float`` on each cell), label >= 1, finite values."""
    bad = next((row for row in rows if len(row) != m + 1), None)
    if bad is not None:
        raise ValueError(f"expected {m + 1} cells, got {len(bad)}")
    labels = np.array([int(row[0]) for row in rows], dtype=int)
    table = np.array(rows, dtype=float).reshape(len(rows), m + 1)
    if labels.min(initial=1) < 1:
        raise ValueError(f"domain label must be >= 1, got {labels.min()}")
    if not np.isfinite(table[:, 1:]).all():
        raise ValueError("values must be finite")
    return table[:, 1:], labels


def write_history_csv(path, history) -> None:
    rows = [(int(it), float(tr), float(va)) for it, tr, va in history]
    write_csv(path, ["iteration", "train_nll", "val_nll"], "%d,%r,%r", rows)


def read_history_csv(path) -> list[tuple[int, float, float]]:
    rows = [line.split(",") for line in Path(path).read_text().split("\n")[1:] if line]
    return [(int(r[0]), float(r[1]), float(r[2])) for r in rows]
