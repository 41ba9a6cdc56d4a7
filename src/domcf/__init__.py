"""Domain counterfactuals with invertible latent-domain causal models.

A model combines one shared invertible observation function with one
invertible triangular affine mechanism per domain over standard-normal
exogenous noise.  The package covers construction, seeded sampling, exact
likelihoods, deterministic domain-counterfactual generation, canonicalization
(moving the intervened coordinates to the tail while preserving
counterfactuals and distributions), sparsity-constrained maximum-likelihood
estimation, and a reproducible simulated-experiment harness.

Importing the package sets ``OPENBLAS_NUM_THREADS=1`` unless the caller has
set one of the variables OpenBLAS reads for its thread count
(``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS``, ``OMP_NUM_THREADS``).  The
matrices here are small, and idle OpenBLAS worker threads slow down the code
that runs after a threaded product.  OpenBLAS reads the variables once, when
numpy loads, so the default only applies when ``domcf`` is imported before
numpy.  The setting lives in ``os.environ``, so child processes started
later inherit it.
"""
import os

if not any(
    v in os.environ for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .canonical import canonicalize
from .datagen import (
    GroundTruthSpec,
    MultiDomainDataset,
    Split,
    generate_ground_truth,
    oracle_counterfactual_error,
    sample_dataset,
)
from .experiment import ExperimentConfig, VariantSpec, run_experiment
from .ild import (
    ILDModel,
    as_sample_arrays,
    check_counterfactual_equiv,
    check_distribution_equiv,
    construct_equivalent,
    dataset_nll,
    dc_distance,
    ground_truth_bound_term,
)
from .mixing import (
    AffineDense,
    LayerChain,
    LeakyRelu,
    Permute,
)
from .scm import (
    AffineSCM,
    DimensionMismatch,
    NonPositiveDiagonal,
    NotLowerTriangular,
    compose,
    intervention_set,
)
from .train import TrainConfig, TrainableILD, nll_gradient

__all__ = [
    "AffineDense",
    "AffineSCM",
    "DimensionMismatch",
    "ExperimentConfig",
    "GroundTruthSpec",
    "ILDModel",
    "LayerChain",
    "LeakyRelu",
    "MultiDomainDataset",
    "NonPositiveDiagonal",
    "NotLowerTriangular",
    "Permute",
    "Split",
    "TrainConfig",
    "TrainableILD",
    "VariantSpec",
    "as_sample_arrays",
    "canonicalize",
    "check_counterfactual_equiv",
    "check_distribution_equiv",
    "compose",
    "construct_equivalent",
    "dataset_nll",
    "dc_distance",
    "generate_ground_truth",
    "ground_truth_bound_term",
    "intervention_set",
    "nll_gradient",
    "oracle_counterfactual_error",
    "run_experiment",
    "sample_dataset",
]
