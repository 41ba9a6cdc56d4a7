"""The package's public names."""
import domcf

PUBLIC = {
    "AffineDense", "AffineSCM", "DimensionMismatch", "ExperimentConfig", "GroundTruthSpec",
    "ILDModel", "LayerChain", "LeakyRelu", "MultiDomainDataset", "NonPositiveDiagonal",
    "NotLowerTriangular", "Permute", "Split", "TrainConfig", "TrainableILD", "VariantSpec",
    "as_sample_arrays", "canonicalize", "check_counterfactual_equiv", "check_distribution_equiv",
    "compose", "construct_equivalent", "dataset_nll", "dc_distance", "generate_ground_truth",
    "ground_truth_bound_term", "intervention_set", "nll_gradient", "oracle_counterfactual_error",
    "run_experiment", "sample_dataset", "train",
}


def test_all_is_the_pinned_public_api():
    assert len(PUBLIC) == 32
    assert sorted(domcf.__all__) == sorted(PUBLIC)  # so no name is listed twice
    for name in domcf.__all__:
        assert hasattr(domcf, name), name
