import math
import tracemalloc

import numpy as np
import pytest

from domcf import (
    AffineSCM,
    GroundTruthSpec,
    ILDModel,
    LayerChain,
    generate_ground_truth,
    intervention_set,
    oracle_counterfactual_error,
    sample_dataset,
)
from domcf.datagen import _SPLIT_TAGS
from conftest import one_shot_sample, probe_points, random_model


def small_spec(**overrides) -> GroundTruthSpec:
    base = dict(
        dim=6, num_domains=3, intervention=(5, 6),
        n_train=200, n_val=50, n_test=50, seed=11,
    )
    base.update(overrides)
    return GroundTruthSpec(**base)


class TestSpecValidation:
    def test_out_of_range_intervention(self):
        with pytest.raises(ValueError):
            small_spec(intervention=(7,))

    def test_single_domain_rejected(self):
        with pytest.raises(ValueError):
            small_spec(num_domains=1)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            small_spec(n_train=-1)

    def test_duplicate_intervention_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            small_spec(intervention=(3, 3))

    @pytest.mark.parametrize("dim", [0, -2])
    def test_nonpositive_dim_rejected(self, dim):
        with pytest.raises(ValueError, match="dim"):
            small_spec(dim=dim, intervention=())

    @pytest.mark.parametrize("intervention", [(1.5, 3), (True,), (np.True_,), (2.0,)])
    def test_non_integer_intervention_rejected(self, intervention):
        with pytest.raises(ValueError, match="integers"):
            small_spec(intervention=intervention)

    def test_numpy_integer_intervention_accepted(self):
        spec = small_spec(intervention=(np.int64(6), np.int32(2)))
        assert spec.intervention == (2, 6)
        assert all(type(i) is int for i in spec.intervention)


class TestGenerateGroundTruth:
    def test_deterministic_per_seed(self):
        a = generate_ground_truth(small_spec())
        b = generate_ground_truth(small_spec())
        for fa, fb in zip(a.scms, b.scms):
            np.testing.assert_array_equal(fa.L, fb.L)
            np.testing.assert_array_equal(fa.b, fb.b)
        np.testing.assert_array_equal(a.g.layers[2].G, b.g.layers[2].G)

    def test_empty_intervention_means_identical_mechanisms(self):
        gt = generate_ground_truth(small_spec(intervention=()))
        for f in gt.scms[1:]:
            np.testing.assert_array_equal(f.L, gt.scms[0].L)
            np.testing.assert_array_equal(f.b, gt.scms[0].b)
        assert intervention_set(gt.scms).indices == ()

    def test_trailing_intervention_detected_exactly(self):
        for seed in range(5):
            gt = generate_ground_truth(small_spec(seed=seed))
            assert intervention_set(gt.scms).indices == (5, 6)

    def test_mixing_determinant_is_one(self):
        gt = generate_ground_truth(small_spec())
        out_layer = gt.g.layers[2]
        assert abs(np.linalg.det(out_layer.G)) == pytest.approx(1.0, abs=1e-8)

    def test_shared_rows_bitwise_identical(self):
        gt = generate_ground_truth(small_spec())
        shared = [0, 1, 2, 3]  # rows outside the intervention set, 0-based
        for f in gt.scms[1:]:
            np.testing.assert_array_equal(f.L[shared], gt.scms[0].L[shared])

    def test_unit_scales_and_bias_confined_to_intervention(self):
        gt = generate_ground_truth(small_spec())
        for f in gt.scms:
            np.testing.assert_array_equal(f.S, np.ones(6))
            np.testing.assert_array_equal(f.b[:4], np.zeros(4))
            assert f.b[4] == f.b[5]  # scalar bias broadcast over the intervened rows


class TestSampleDataset:
    def test_split_sizes(self):
        spec = small_spec()
        ds = sample_dataset(generate_ground_truth(spec), spec)
        assert len(ds.train) == 3 * 200
        assert len(ds.val) == 3 * 50
        assert len(ds.test) == 3 * 50

    def test_empty_train_split(self):
        spec = small_spec(n_train=0)
        ds = sample_dataset(generate_ground_truth(spec), spec)
        assert len(ds.train) == 0

    def test_bit_identical_reruns(self):
        spec = small_spec()
        gt = generate_ground_truth(spec)
        a = sample_dataset(gt, spec)
        b = sample_dataset(gt, spec)
        np.testing.assert_array_equal(a.train.x, b.train.x)
        np.testing.assert_array_equal(a.test.d, b.test.d)

    def test_train_mean_matches_pushforward(self):
        spec = small_spec(n_train=40_000)
        gt = generate_ground_truth(spec)
        ds = sample_dataset(gt, spec)
        for d in range(1, spec.num_domains + 1):
            xd = ds.train.x[ds.train.d == d]
            pushed = gt.g.forward(gt.scms[d - 1].forward(
                np.random.default_rng(0).standard_normal((200_000, 6))
            ))
            target = pushed.mean(axis=0)
            sigma = xd.std(axis=0)
            assert np.all(np.abs(xd.mean(axis=0) - target) < 4 * sigma / math.sqrt(len(xd)) + 0.02)

    def test_splits_are_disjoint_streams(self):
        spec = small_spec(n_train=50, n_val=50, n_test=50)
        ds = sample_dataset(generate_ground_truth(spec), spec)
        assert not np.array_equal(ds.train.x[:50], ds.val.x[:50])
        assert not np.array_equal(ds.val.x[:50], ds.test.x[:50])


@pytest.fixture(scope="module", params=[(6, 3, (5, 6)), (10, 5, (8, 9, 10))], ids=["m6", "m10"])
def truth(request):
    m, nd, intervention = request.param
    spec = GroundTruthSpec(m, nd, intervention, n_train=0, n_val=0, n_test=0, seed=27)
    return generate_ground_truth(spec)


def assert_same_array(a: np.ndarray, b: np.ndarray) -> None:
    assert (a.dtype, a.shape, a.flags.c_contiguous) == (b.dtype, b.shape, True)
    assert a.tobytes() == b.tobytes()


class TestBlockedSampling:
    """Sampling runs in row blocks into one array with the bits of one draw."""

    @pytest.mark.parametrize("n", [0, 1, 2, 4095, 4096, 4097, 8193])
    def test_sample_equals_one_shot_draw(self, truth, n):
        for d in (1, truth.num_domains):
            seed = np.random.SeedSequence([27, n, d])
            assert_same_array(truth.sample(d, n, seed), one_shot_sample(truth, d, n, seed))

    @pytest.mark.parametrize("count", [1, 4097])
    def test_splits_equal_concatenated_domain_samples(self, truth, count):
        spec = GroundTruthSpec(
            truth.dim, truth.num_domains, n_train=count, n_val=2, n_test=0, seed=27
        )
        ds = sample_dataset(truth, spec)
        domains = range(1, spec.num_domains + 1)
        for name, n in (("train", count), ("val", 2), ("test", 0)):
            split = getattr(ds, name)
            seeds = [np.random.SeedSequence([spec.seed, _SPLIT_TAGS[name], d]) for d in domains]
            x = np.concatenate([one_shot_sample(truth, d, n, ss) for d, ss in zip(domains, seeds)])
            assert_same_array(split.x, x)
            labels = np.concatenate([np.full(n, d, dtype=np.int64) for d in domains])
            assert_same_array(split.d, labels)

    def test_sample_peak_memory_stays_near_its_output(self, truth):
        truth.sample(1, 10, 0)  # first-call allocations are not the sampler's
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            x = truth.sample(1, 50_000, 5)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * x.nbytes


class TestOracleCounterfactualError:
    def test_self_error_is_zero(self):
        spec = small_spec()
        gt = generate_ground_truth(spec)
        ds = sample_dataset(gt, spec)
        assert oracle_counterfactual_error(gt, gt, ds.test) == 0.0

    def test_constant_offset_closed_form(self, rng):
        # with identity mixing, shifting every mechanism by delta moves the
        # (d -> d') counterfactual by the constant (I - F_d' F_d^{-1}) delta
        m = 3
        scms = tuple(
            AffineSCM(
                np.tril(rng.standard_normal((m, m)), -1) * 0.4,
                np.exp(rng.uniform(-0.3, 0.3, m)),
                rng.standard_normal(m) * 0.3,
            )
            for _ in range(2)
        )
        gt = ILDModel(LayerChain(m), scms)
        delta = np.array([0.3, -0.2, 0.1])
        est = ILDModel(
            LayerChain(m),
            tuple(AffineSCM(f.L, f.S, f.b + delta) for f in scms),
        )
        pts = probe_points(gt, 100, seed=5)
        got = oracle_counterfactual_error(est, gt, pts)
        expected = 0.0
        for d in (0, 1):
            for dp in (0, 1):
                if d == dp:
                    continue
                A = scms[dp].matrix @ np.linalg.inv(scms[d].matrix)
                expected += float(np.sum(((np.eye(m) - A) @ delta) ** 2))
        expected *= 2.0 / (2 * 1)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_matches_double_loop_reimplementation(self, rng):
        est = random_model(rng, 3, 3)
        gt = random_model(rng, 3, 3)
        x, labels = probe_points(gt, 60, seed=9)
        got = oracle_counterfactual_error(est, gt, (x, labels))
        nd = 3
        total = 0.0
        for d in range(1, nd + 1):
            xd = x[labels == d]
            for dp in range(1, nd + 1):
                if dp == d:
                    continue
                errs = [
                    np.sum(
                        (est.counterfactual(row, d, dp) - gt.counterfactual(row, d, dp))
                        ** 2
                    )
                    for row in xd
                ]
                total += float(np.mean(errs))
        expected = 2.0 / (nd * (nd - 1)) * total
        assert got == pytest.approx(expected, abs=1e-12)

    def test_missing_domain_rejected(self, rng):
        gt = random_model(rng, 3, 2)
        x = gt.sample(1, 10, seed=0)
        with pytest.raises(ValueError):
            oracle_counterfactual_error(gt, gt, (x, np.ones(10, dtype=int)))
