"""JSON and CSV persistence for models, datasets, and reports.

Schemas:

* mechanism: ``{"dim": m, "L": [strictly-lower entries, row-major], "S": [...], "b": [...]}``,
  ``L`` a flat list of ``m(m-1)/2`` numbers
* chain: ``{"dim": m, "layers": [{"kind": "affine"|"leaky_relu"|"permute"|"triangular", ...}]}``,
  a mechanism layer (an ``AffineSCM``) as ``{"kind": "triangular", "scm": mechanism}``
* model bundle: ``{"g": chain, "F": [mechanism, ...]}``; every number a finite int
  or float (not a bool, a string, ``NaN`` or ``Infinity``), ``dim`` and ``pi`` ints
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
import math
from pathlib import Path

import numpy as np

from .canonical import CanonicalizationReport
from .ild import ILDModel, as_sample_arrays
from .mixing import AffineDense, Layer, LayerChain, LeakyRelu, Permute
from .scm import AffineSCM, InterventionSet


def _numbers(value, key: str, kinds=(int, float)):
    """``value`` if it is a JSON number, or a flat list of them, each of an exact
    type in ``kinds`` (so neither a bool nor a string); otherwise ``ValueError``
    names the field ``key``."""
    is_list = type(value) is list
    if not all(type(v) in kinds for v in (value if is_list else [value])):
        noun = "integer" if kinds == (int,) else "number"
        what = f"a flat list of {noun}s" if is_list else f"a JSON {noun}"
        raise ValueError(f"field {key!r} must be {what}, got {value!r:.60}")
    return value


def scm_to_dict(f: AffineSCM) -> dict:
    return {
        "dim": f.dim,
        "L": f.L[np.tril_indices(f.dim, -1)].tolist(),
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
    """The mechanism of a JSON object; ``L`` must be a flat list of ``m(m-1)/2``
    numbers, the strictly-lower entries in row-major order."""
    m = _numbers(_field(data, "dim", int), "dim", (int,))
    entries, S, b = (_numbers(_field(data, key), key) for key in ("L", "S", "b"))
    count = m * (m - 1) // 2
    if len(entries) != count:
        raise ValueError(f"field 'L' must be a flat list of {count} numbers, got {entries!r:.60}")
    L = np.zeros((m, m))
    L[np.tril_indices(m, -1)] = entries  # row-major: (1, 0), (2, 0), (2, 1), ...
    return AffineSCM(L, S, b)


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
    if isinstance(layer, AffineSCM):
        return {"kind": "triangular", "scm": scm_to_dict(layer)}
    raise TypeError(f"unknown layer type {type(layer)!r}")


def layer_from_dict(data: dict) -> Layer:
    kind = _field(data, "kind", str)
    if kind == "affine":
        G = [_numbers(row, "G") for row in _field(data, "G")]
        return AffineDense(np.asarray(G, dtype=float), _numbers(_field(data, "b"), "b"))
    if kind == "leaky_relu":
        return LeakyRelu(float(_numbers(_field(data, "slope", (int, float)), "slope")))
    if kind == "permute":
        return Permute(tuple(_numbers(_field(data, "pi"), "pi", (int,))))
    if kind == "triangular":
        return scm_from_dict(_field(data, "scm", dict))
    raise ValueError(f"unknown layer kind {kind!r}")


def chain_to_dict(chain: LayerChain) -> dict:
    return {"dim": chain.dim, "layers": [layer_to_dict(l) for l in chain.layers]}


def chain_from_dict(data: dict) -> LayerChain:
    dim = _numbers(_field(data, "dim", int), "dim", (int,))
    return LayerChain(dim, tuple(layer_from_dict(l) for l in _field(data, "layers")))


def model_to_dict(model: ILDModel) -> dict:
    return {"g": chain_to_dict(model.g), "F": [scm_to_dict(f) for f in model.scms]}


def model_from_dict(data: dict) -> ILDModel:
    """The model of a bundle; a missing or mistyped field raises ``ValueError``."""
    g = chain_from_dict(_field(data, "g", dict))
    return ILDModel(g, tuple(scm_from_dict(f) for f in _field(data, "F")))


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


def _finite_float(text: str) -> float:
    """A JSON float, or ``NaN``/``Infinity``/``-Infinity``, that must be finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def load_json(path) -> dict:
    text = Path(path).read_text()
    return json.loads(text, parse_constant=_finite_float, parse_float=_finite_float)


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
