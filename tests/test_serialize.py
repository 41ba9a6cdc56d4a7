import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domcf import serialize
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

    def test_survives_json_text(self, rng):
        f = random_scm(rng, 4)
        text = json.dumps(serialize.scm_to_dict(f))
        back = serialize.scm_from_dict(json.loads(text))
        np.testing.assert_array_equal(back.L, f.L)


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
        "bad_row", ["1,1.0,nan", "1,inf,2.0", "2,-inf,0.5", "0,1.0,2.0", "-1,1.0,2.0", "1,1.0", "x,1,2"]
    )
    def test_bad_row_names_its_line(self, tmp_path, bad_row):
        path = tmp_path / "data.csv"
        path.write_text(f"d,x1,x2\n1,0.5,0.25\n{bad_row}\n")
        with pytest.raises(ValueError, match="line 3"):
            serialize.read_dataset_csv(path)


class TestHistoryCsv:
    def test_round_trip(self, tmp_path):
        history = [(0, 3.5, 3.6), (100, 2.2, 2.3)]
        path = tmp_path / "history.csv"
        serialize.write_history_csv(path, history)
        assert serialize.read_history_csv(path) == history
        assert path.read_text().splitlines()[0] == "iteration,train_nll,val_nll"


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
