"""The package's public names and the fields of its config dataclasses."""
import dataclasses
import types

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
