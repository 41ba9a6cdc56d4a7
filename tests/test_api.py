"""The package's public names and the fields of its config dataclasses."""
import dataclasses
import types

import numpy as np
import pytest

import domcf

PUBLIC = {
    "AffineDense", "AffineSCM", "DimensionMismatch", "ExperimentConfig", "GroundTruthSpec",
    "ILDModel", "LayerChain", "LeakyRelu", "MultiDomainDataset", "NonPositiveDiagonal",
    "NotLowerTriangular", "Permute", "Split", "TrainConfig", "TrainableILD", "VariantSpec",
    "as_sample_arrays", "canonicalize", "check_counterfactual_equiv", "check_distribution_equiv",
    "compose", "construct_equivalent", "dataset_nll", "dc_distance", "generate_ground_truth",
    "ground_truth_bound_term", "intervention_set", "nll_gradient", "oracle_counterfactual_error",
    "run_experiment", "sample_dataset",
}

# Every config setting, in declaration order: a new one shows up here as a diff.
CONFIG_FIELDS = {
    domcf.TrainConfig: ("batch_size", "iterations", "eval_every", "seed"),
    domcf.GroundTruthSpec: (
        "dim", "num_domains", "intervention", "n_train", "n_val", "n_test", "seed",
    ),
    domcf.VariantSpec: ("kind", "k"),
    domcf.ExperimentConfig: ("ground_truth", "variants", "train", "n_seeds"),
}


def test_all_is_the_pinned_public_api():
    assert len(PUBLIC) == 31
    assert sorted(domcf.__all__) == sorted(PUBLIC)  # so no name is listed twice
    for name in domcf.__all__:
        assert hasattr(domcf, name), name


def test_domcf_train_names_the_module():
    import domcf.train

    assert isinstance(domcf.train, types.ModuleType)
    assert domcf.train.train.__module__ == "domcf.train"


@pytest.mark.parametrize("cls", CONFIG_FIELDS, ids=lambda cls: cls.__name__)
def test_config_fields_are_pinned(cls):
    assert tuple(f.name for f in dataclasses.fields(cls)) == CONFIG_FIELDS[cls]


# Each config dataclass's integer fields with their least values, and the keyword
# arguments of a valid instance.
INTEGER_FIELDS = {
    domcf.GroundTruthSpec: (
        {"dim": 1, "num_domains": 2, "n_train": 0, "n_val": 0, "n_test": 0, "seed": 0},
        {"dim": 3, "num_domains": 2},
    ),
    domcf.TrainConfig: ({"batch_size": 1, "iterations": 0, "eval_every": 1, "seed": 0}, {}),
    domcf.ExperimentConfig: ({"n_seeds": 1}, {"ground_truth": domcf.GroundTruthSpec(3, 2)}),
}
INTEGER_CASES = [(cls, name) for cls, (names, _) in INTEGER_FIELDS.items() for name in names]


@pytest.mark.parametrize("value", [True, np.True_, 1.5, 10.5, 2.0, "3", None])
@pytest.mark.parametrize("cls, name", INTEGER_CASES, ids=lambda v: getattr(v, "__name__", v))
def test_integer_fields_refuse_other_values(cls, name, value):
    low = INTEGER_FIELDS[cls][0][name]
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= {low}, got "):
        cls(**{**INTEGER_FIELDS[cls][1], name: value})


@pytest.mark.parametrize("cls, name", INTEGER_CASES, ids=lambda v: getattr(v, "__name__", v))
def test_integer_fields_refuse_values_below_their_least(cls, name):
    low = INTEGER_FIELDS[cls][0][name]
    cls(**{**INTEGER_FIELDS[cls][1], name: low})
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= {low}, got {low - 1}$"):
        cls(**{**INTEGER_FIELDS[cls][1], name: low - 1})


@pytest.mark.parametrize("cls, name", INTEGER_CASES, ids=lambda v: getattr(v, "__name__", v))
def test_integer_fields_accept_numpy_integers(cls, name):
    valid = cls(**INTEGER_FIELDS[cls][1])
    assert cls(**{**INTEGER_FIELDS[cls][1], name: np.int64(getattr(valid, name))}) == valid
