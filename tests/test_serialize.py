import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domcf import AffineDense, AffineSCM, ILDModel, LayerChain, LeakyRelu, Permute, serialize
from domcf.experiment import SeedResult, summarize, write_results_csv
from conftest import random_chain, random_model, random_scm


class TestScmJson:
    def test_round_trip_is_exact(self, rng):
        f = random_scm(rng, 5)
        back = serialize.scm_from_dict(serialize.scm_to_dict(f))
        np.testing.assert_array_equal(back.L, f.L)
        np.testing.assert_array_equal(back.S, f.S)
        np.testing.assert_array_equal(back.b, f.b)

    def test_strict_lower_layout_is_row_major(self, rng):
        f = random_scm(rng, 3)
        data = serialize.scm_to_dict(f)
        assert data["L"] == [f.L[1, 0], f.L[2, 0], f.L[2, 1]]

    @pytest.mark.parametrize(
        "m, L",
        [
            (2, [[0.5]]),
            (3, [[0.5, 1.0, 2.0]]),
            (3, [0.5, [1.0], 2.0]),
            (3, ["0.5", "1", "2"]),
            (2, [1.0, 2.0]),
        ],
    )
    def test_lower_entries_must_be_a_flat_list_of_numbers(self, rng, m, L):
        data = serialize.scm_to_dict(random_scm(rng, m))
        data["L"] = L
        with pytest.raises(ValueError, match="field 'L' must be a flat list of"):
            serialize.scm_from_dict(data)

    def test_survives_json_text(self, rng):
        f = random_scm(rng, 4)
        text = json.dumps(serialize.scm_to_dict(f))
        back = serialize.scm_from_dict(json.loads(text))
        np.testing.assert_array_equal(back.L, f.L)


@pytest.mark.parametrize(
    "text",
    [
        "NaN", "[1.0, Infinity]", '{"s": -Infinity}', "[1e400]",
        pytest.param("[-1%s]" % ("0" * 400), id="401-digit-int"),
    ],
)
def test_load_json_refuses_non_finite_numbers(tmp_path, text):
    path = tmp_path / "data.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="data.json: "):
        serialize.load_json(path)


def test_load_json_keeps_integers_within_the_float_range(tmp_path):
    path = tmp_path / "data.json"
    path.write_text("[%d, 3]" % 10**308)
    assert serialize.load_json(path) == [10**308, 3]


class TestChainAndModelJson:
    def test_chain_round_trip(self, rng):
        chain = random_chain(rng, 4)
        back = serialize.chain_from_dict(serialize.chain_to_dict(chain))
        x = rng.standard_normal(4)
        np.testing.assert_array_equal(back.forward(x), chain.forward(x))

    def test_model_round_trip(self, rng):
        model = random_model(rng, 4, 3)
        back = serialize.model_from_dict(serialize.model_to_dict(model))
        x = model.sample(2, 5, seed=1)
        np.testing.assert_array_equal(
            back.counterfactual(x, 2, 3), model.counterfactual(x, 2, 3)
        )
        np.testing.assert_array_equal(
            back.log_likelihood(x, 2), model.log_likelihood(x, 2)
        )

    def test_bundle_uses_documented_keys(self, rng):
        data = serialize.model_to_dict(random_model(rng, 3, 2))
        assert set(data) == {"g", "F"}
        assert all(set(f) == {"dim", "L", "S", "b"} for f in data["F"])
        kinds = [layer["kind"] for layer in data["g"]["layers"]]
        assert set(kinds) <= {"affine", "leaky_relu", "permute", "triangular"}


# ``save_json(model_to_dict(...))`` of ``pinned_model()``, one layer of each
# kind; the text is fixed so that a refactor of the layer types cannot change it.
PINNED_MODEL_JSON = """\
{
  "g": {
    "dim": 2,
    "layers": [
      {
        "kind": "affine",
        "G": [
          [
            2.0,
            0.5
          ],
          [
            0.25,
            1.0
          ]
        ],
        "b": [
          0.5,
          -1.0
        ]
      },
      {
        "kind": "leaky_relu",
        "slope": 0.5
      },
      {
        "kind": "permute",
        "pi": [
          2,
          1
        ]
      },
      {
        "kind": "triangular",
        "scm": {
          "dim": 2,
          "L": [
            0.5
          ],
          "S": [
            2.0,
            0.5
          ],
          "b": [
            0.25,
            -0.75
          ]
        }
      }
    ]
  },
  "F": [
    {
      "dim": 2,
      "L": [
        -0.5
      ],
      "S": [
        1.0,
        4.0
      ],
      "b": [
        0.0,
        1.5
      ]
    },
    {
      "dim": 2,
      "L": [
        0.0
      ],
      "S": [
        1.0,
        1.0
      ],
      "b": [
        0.0,
        0.0
      ]
    }
  ]
}
"""


def pinned_model():
    g = LayerChain(2, (
        AffineDense([[2.0, 0.5], [0.25, 1.0]], [0.5, -1.0]),
        LeakyRelu(0.5),
        Permute((2, 1)),
        AffineSCM([[0.0, 0.0], [0.5, 0.0]], [2.0, 0.5], [0.25, -0.75]),
    ))
    f1 = AffineSCM([[0.0, 0.0], [-0.5, 0.0]], [1.0, 4.0], [0.0, 1.5])
    return ILDModel(g, (f1, AffineSCM.identity(2)))


def test_model_json_bytes_are_pinned(tmp_path):
    model = pinned_model()
    path = tmp_path / "model.json"
    serialize.save_json(serialize.model_to_dict(model), path)
    assert path.read_text() == PINNED_MODEL_JSON
    loaded = serialize.model_from_dict(serialize.load_json(path)).g.layers[3]
    assert type(loaded) is AffineSCM
    for field in ("L", "S", "b"):
        np.testing.assert_array_equal(getattr(loaded, field), getattr(model.g.layers[3], field))


def reference_write_dataset_csv(path, x, d):
    """The row-at-a-time ``csv.writer`` dataset writer the format was defined by."""
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=int)
    m = x.shape[1] if x.ndim == 2 else 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["d"] + [f"x{i}" for i in range(1, m + 1)])
        for label, row in zip(d, x):
            writer.writerow([int(label)] + [repr(float(v)) for v in row])


def reference_read_dataset_csv(path):
    """The row-at-a-time ``csv.reader`` dataset reader the checks were defined by."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if not header or header[0] != "d":
            raise ValueError(f"{path}: expected header starting with 'd'")
        m = len(header) - 1
        labels, rows = [], []
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
    return np.asarray(rows, dtype=float).reshape(len(rows), m), np.asarray(labels, dtype=int)


class TestDatasetCsv:
    def test_round_trip(self, rng, tmp_path):
        x = rng.standard_normal((20, 3))
        d = rng.integers(1, 4, size=20)
        path = tmp_path / "data.csv"
        serialize.write_dataset_csv(path, x, d)
        x2, d2 = serialize.read_dataset_csv(path)
        np.testing.assert_array_equal(x2, x)
        np.testing.assert_array_equal(d2, d)

    def test_header_format(self, rng, tmp_path):
        path = tmp_path / "data.csv"
        serialize.write_dataset_csv(path, rng.standard_normal((2, 4)), np.array([1, 2]))
        header = path.read_text().splitlines()[0]
        assert header == "d,x1,x2,x3,x4"

    @pytest.mark.parametrize(
        "bad_row",
        [
            "1,1.0,nan", "1,inf,2.0", "2,-inf,0.5", "0,1.0,2.0", "-1,1.0,2.0", "1,1.0", "x,1,2",
            "1.0,0.5,0.25", "1,0.5,0.25,", '"1",0.5,0.25', "99999999999999999999,0.5,0.25",
        ],
    )
    def test_bad_row_names_its_line(self, tmp_path, bad_row):
        path = tmp_path / "data.csv"
        path.write_text(f"d,x1,x2\n1,0.5,0.25\n{bad_row}\n")
        with pytest.raises(ValueError, match="line 3"):
            serialize.read_dataset_csv(path)

    def test_line_endings_and_blank_lines_read_alike(self, rng, tmp_path):
        x = rng.standard_normal((5, 3))
        d = rng.integers(1, 4, size=5)
        crlf = tmp_path / "crlf.csv"
        serialize.write_dataset_csv(crlf, x, d)
        lines = crlf.read_bytes().decode().split("\r\n")
        lf = tmp_path / "lf.csv"
        lf.write_bytes(("\n\n".join(lines[:3]) + "\n" + "\n".join(lines[3:]) + "\n").encode())
        for got, want in zip(serialize.read_dataset_csv(lf), serialize.read_dataset_csv(crlf)):
            assert got.tobytes() == want.tobytes() and got.dtype == want.dtype
        np.testing.assert_array_equal(serialize.read_dataset_csv(lf)[0], x)

    def test_bad_row_after_blank_lines_counts_them(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"d,x1\r\n1,0.5\r\n\r\n\n2,nan\r\n")
        with pytest.raises(ValueError, match="line 5: values must be finite"):
            serialize.read_dataset_csv(path)

    def test_header_only_file_has_no_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        serialize.write_dataset_csv(path, np.zeros((0, 3)), np.zeros(0, dtype=int))
        assert path.read_bytes() == b"d,x1,x2,x3\r\n"
        x, d = serialize.read_dataset_csv(path)
        assert x.shape == (0, 3) and d.shape == (0,)

    def test_empty_file_is_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="expected header"):
            serialize.read_dataset_csv(path)


_SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-7, 1e22, 2.0**53, 0.1, 1e308]


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 12).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.lists(
                st.tuples(
                    st.integers(1, 99),
                    st.lists(
                        st.floats(width=64) | st.sampled_from(_SPECIAL_FLOATS),
                        min_size=m,
                        max_size=m,
                    ),
                ),
                max_size=8,
            ),
        )
    )
)
def test_dataset_writer_bytes_match_reference(tmp_path_factory, shape_and_rows):
    m, rows = shape_and_rows
    x = np.array([values for _, values in rows], dtype=float).reshape(len(rows), m)
    d = np.array([label for label, _ in rows], dtype=int)
    root = tmp_path_factory.mktemp("csv")
    serialize.write_dataset_csv(root / "new.csv", x, d)
    reference_write_dataset_csv(root / "ref.csv", x, d)
    assert (root / "new.csv").read_bytes() == (root / "ref.csv").read_bytes()


def _read_outcome(reader, path):
    try:
        x, d = reader(path)
    except ValueError as exc:
        return str(exc)
    return x.shape, x.tobytes(), d.tobytes()


_CELLS = ["1", "2", "0", "-1", "1.0", "0.5", "-2.5e-3", " 3 ", "1_0", "nan", "inf", "", "x",
          "1e400"]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 3),
    st.lists(st.lists(st.sampled_from(_CELLS), max_size=5), max_size=6),
    st.sampled_from(["\r\n", "\n", "\r"]),
)
def test_dataset_reader_matches_reference(tmp_path_factory, m, rows, newline):
    """Unquoted files read to the same arrays, or fail naming the same line, as
    the ``csv.reader`` reference."""
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    header = ",".join(["d"] + [f"x{i}" for i in range(1, m + 1)])
    path.write_bytes(newline.join([header] + [",".join(row) for row in rows]).encode())
    assert _read_outcome(serialize.read_dataset_csv, path) == _read_outcome(
        reference_read_dataset_csv, path
    )


class TestHistoryCsv:
    def test_round_trip(self, tmp_path):
        history = [(0, 3.5, 3.6), (100, 2.2, 2.3)]
        path = tmp_path / "history.csv"
        serialize.write_history_csv(path, history)
        assert path.read_text().splitlines() == [
            "iteration,train_nll,val_nll", "0,3.5,3.6", "100,2.2,2.3"
        ]

    def test_bytes_match_csv_writer(self, tmp_path):
        history = [(0, 3.5, 3.6), (100, np.float64(-0.0), 1e-7), (200.0, 5e-324, 1e16)]
        path, ref = tmp_path / "history.csv", tmp_path / "ref.csv"
        serialize.write_history_csv(path, history)
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "train_nll", "val_nll"])
            for it, train_nll, val_nll in history:
                writer.writerow([int(it), repr(float(train_nll)), repr(float(val_nll))])
        assert path.read_bytes() == ref.read_bytes()


def test_results_csv_bytes_match_csv_writer(tmp_path):
    rows = [SeedResult(0, "can2", 2, 0.5, 1.25, 1e16), SeedResult(1, "dense", 6, 1e-7, -0.0, 3.0)]
    summary = summarize(rows)
    path, ref = tmp_path / "results.csv", tmp_path / "ref.csv"
    write_results_csv(path, rows, summary)
    metrics = ("cf_error", "val_nll", "test_nll")
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("seed", "variant", "k") + metrics)
        for r in rows:
            writer.writerow([r.seed, r.variant, r.k] + [repr(getattr(r, m)) for m in metrics])
        for variant, entry in summary.items():
            for stat in ("mean", "stderr"):
                writer.writerow(
                    [stat, variant, entry["k"]] + [repr(entry[f"{m}_{stat}"]) for m in metrics]
                )
    assert path.read_bytes() == ref.read_bytes()


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=1,
        max_size=8,
    )
)
def test_csv_floats_round_trip_exactly(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("csv") / "row.csv"
    x = np.asarray([values])
    serialize.write_dataset_csv(path, x, np.array([1]))
    x2, _ = serialize.read_dataset_csv(path)
    np.testing.assert_array_equal(x2, x)
