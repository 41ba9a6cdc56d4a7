"""One contract for labeled samples ``(X, labels)``.

Every entry point that takes labeled rows refuses the same bad input with the
same exception, and grouping rows by label (``domcf.ild._label_runs``) gives
the same bits as selecting each domain with a boolean mask.
"""
import math
from types import SimpleNamespace

import numpy as np
import pytest

from domcf import (
    DimensionMismatch,
    GroundTruthSpec,
    TrainableILD,
    TrainConfig,
    check_counterfactual_equiv,
    check_distribution_equiv,
    dataset_nll,
    dc_distance,
    generate_ground_truth,
    nll_gradient,
    oracle_counterfactual_error,
    serialize,
    train,
)
from domcf.cli import main
from conftest import probe_points, random_model

M, ND = 2, 3


@pytest.fixture(scope="module")
def pair():
    rng = np.random.default_rng(7)
    return random_model(rng, M, ND), random_model(rng, M, ND)


@pytest.fixture(scope="module")
def good():
    rng = np.random.default_rng(8)
    return rng.standard_normal((12, M)), rng.permutation(np.arange(12) % ND + 1)


def _trainable():
    return TrainableILD.initialize(M, ND, "dense", seed=0)


ENTRY_POINTS = {
    "dataset_nll": lambda a, b, pts: dataset_nll(a, *pts),
    "nll_gradient": lambda a, b, pts: nll_gradient(_trainable(), pts),
    "dc_distance": lambda a, b, pts: dc_distance(a, b, pts, seed=0),
    "check_counterfactual_equiv": lambda a, b, pts: check_counterfactual_equiv(a, b, pts, 1e-8),
    "check_distribution_equiv": lambda a, b, pts: check_distribution_equiv(a, b, pts, 1e-8),
    "oracle_counterfactual_error": lambda a, b, pts: oracle_counterfactual_error(a, b, pts),
    "train": lambda a, b, pts: train(
        _trainable(), SimpleNamespace(train=pts, val=pts), TrainConfig(iterations=0)
    ),
}


def _with_label(d, label):
    d = d.copy()
    d[5] = label
    return d


def _with_value(X, value):
    X = X.copy()
    X[5, 1] = value
    return X


# Each case: how it spoils the good ``(X, labels)``, the exception it must
# raise, and a fragment of the message the CLI prints for it.
BAD_INPUTS = {
    "short_labels": (lambda X, d: (X, d[:-1]), DimensionMismatch, "points with n labels"),
    "label_0": (lambda X, d: (X, _with_label(d, 0)), IndexError, "domain index 0 out of range"),
    "label_nd_plus_1": (
        lambda X, d: (X, _with_label(d, ND + 1)), IndexError, f"domain index {ND + 1} out of range"
    ),
    "3d_X": (lambda X, d: (X[:, None, :], d), DimensionMismatch, "points with n labels"),
    "wrong_width": (lambda X, d: (np.hstack([X, X]), d), DimensionMismatch, "points with n labels"),
    "empty": (lambda X, d: (np.zeros((0, M)), np.zeros(0, dtype=int)), ValueError, "non-empty"),
    "nan_value": (lambda X, d: (_with_value(X, np.nan), d), ValueError, "holds a non-finite value"),
    "inf_value": (lambda X, d: (_with_value(X, np.inf), d), ValueError, "holds a non-finite value"),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_bad_input_raises_the_documented_exception(pair, good, entry, case):
    spoil, expected, _ = BAD_INPUTS[case]
    with pytest.raises(expected) as info:
        ENTRY_POINTS[entry](*pair, spoil(*good))
    assert info.type is expected


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_cli_counterfactual_exits_4(pair, good, case, tmp_path, monkeypatch, capsys):
    # The CSV reader refuses some of these itself; feeding the arrays in
    # directly reaches the command's own check for every case.
    spoil, _, message = BAD_INPUTS[case]
    bad = spoil(*good)
    monkeypatch.setattr(serialize, "read_dataset_csv", lambda path: bad)
    model_file, data_file = tmp_path / "model.json", tmp_path / "data.csv"
    serialize.save_json(serialize.model_to_dict(pair[0]), model_file)
    data_file.write_text("")
    code = main([
        "counterfactual", "--model", str(model_file), "--data", str(data_file),
        "--target-domain", "1", "--out", str(tmp_path / "cf.csv"),
    ])
    assert code == 4
    assert message in capsys.readouterr().err
    assert not (tmp_path / "cf.csv").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("check", [check_counterfactual_equiv, check_distribution_equiv])
def test_nan_deviation_fails_an_equivalence_check(check):
    # Two different models; one finite probe row so large that both models'
    # outputs overflow, and the deviations on it are NaN.
    a, b = (generate_ground_truth(GroundTruthSpec(4, 2, (4,), seed=s)) for s in (1, 2))
    X, d = probe_points(a, 50, seed=0)
    assert not check(a, b, (X, d), 1e-6)[0]
    X[3] *= 1e308 / np.abs(X[3]).max()
    assert np.isfinite(X).all()
    ok, dev = check(a, b, (X, d), 1e-6)
    assert not ok and math.isnan(dev)


def test_oracle_refuses_labels_it_cannot_score(pair, good):
    X, d = good
    for label in (0, ND + 1):
        with pytest.raises(IndexError, match="out of range"):
            oracle_counterfactual_error(*pair, (X, _with_label(d, label)))


def test_oracle_still_names_a_domain_without_samples(pair, good):
    X, d = good
    keep = d != 2
    with pytest.raises(ValueError, match="no samples for domain 2"):
        oracle_counterfactual_error(*pair, (X[keep], d[keep]))


# The per-domain boolean-mask loops these entry points ran before they shared
# ``_label_runs``; the runs must reproduce them bit for bit.
def mask_dc_distance(a, b, X, labels, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    targets = rng.choice(labels, size=len(X), replace=True)
    total = 0.0
    for d in np.unique(labels):
        for t in np.unique(targets):
            mask = (labels == d) & (targets == t)
            if np.any(mask):
                diff = a.counterfactual(X[mask], int(d), int(t)) - b.counterfactual(
                    X[mask], int(d), int(t)
                )
                total += float(np.sum(diff**2))
    return math.sqrt(total / len(X))


def mask_oracle(est, gt, X, labels):
    nd = gt.num_domains
    total = 0.0
    for d in range(1, nd + 1):
        mask = labels == d
        others = tuple(t for t in range(1, nd + 1) if t != d)
        diff = est.counterfactuals(X[mask], d, others) - gt.counterfactuals(X[mask], d, others)
        for cf in diff:
            total += float(np.mean(np.sum(cf**2, axis=1)))
    return 2.0 / (nd * (nd - 1)) * total


def mask_distribution_dev(a, b, X, labels):
    return max(
        float(np.max(np.abs(a.log_likelihood(X[labels == d], int(d))
                            - b.log_likelihood(X[labels == d], int(d)))))
        for d in np.unique(labels)
    )


@pytest.mark.parametrize("n", [40, 9_001])
def test_label_runs_equal_the_mask_loops_bit_for_bit(n):
    rng = np.random.default_rng(n)
    a, b = random_model(rng, 4, 4), random_model(rng, 4, 4)
    X = rng.standard_normal((n, 4))
    labels = rng.permutation(np.arange(n) % 4 + 1)
    assert np.any(labels[1:] < labels[:-1])
    for seed in (0, 1):
        assert dc_distance(a, b, (X, labels), seed) == mask_dc_distance(a, b, X, labels, seed)
    assert oracle_counterfactual_error(a, b, (X, labels)) == mask_oracle(a, b, X, labels)
    dev = check_distribution_equiv(a, b, (X, labels), 0.0)[1]
    assert dev == mask_distribution_dev(a, b, X, labels)
