import math

import numpy as np
import pytest

from domcf import (
    Adam,
    AffineSCM,
    GroundTruthSpec,
    ILDModel,
    LayerChain,
    MultiDomainDataset,
    Split,
    TrainConfig,
    TrainableILD,
    generate_ground_truth,
    intervention_set,
    nll_gradient,
    nll_loss,
    sample_dataset,
    train,
)
from domcf.train import _KinkSearch, _loss_and_grad, _profile_fit, dataset_nll


def perturbed(trainable: TrainableILD, seed: int, scale: float = 0.3) -> TrainableILD:
    gen = np.random.default_rng(seed)
    vec = trainable.free_vector()
    return trainable.with_free_vector(vec + scale * gen.standard_normal(vec.shape))


def structural_entries(trainable: TrainableILD) -> np.ndarray:
    """Buffer entries of ``shared_L``/``dom_L`` on or above the full ``L``'s diagonal."""
    upper = np.triu(np.ones((trainable.dim, trainable.dim), dtype=bool))
    p, ns = trainable.params, trainable.shared_rows
    return np.concatenate([p.shared_L[upper[:ns]], p.dom_L[:, upper[ns:]].ravel()])


def model_batch(trainable: TrainableILD, n_per_domain: int, seed: int, min_kink=0.0):
    """Batch sampled from the materialized model, optionally kink-safe."""
    model = trainable.materialize()
    xs, ds = [], []
    for d in range(1, trainable.num_domains + 1):
        xs.append(model.sample(d, n_per_domain, seed + d))
        ds.append(np.full(n_per_domain, d))
    X, labels = np.concatenate(xs), np.concatenate(ds)
    if min_kink > 0.0:
        dense = model.g.layers[1]
        u = dense.inverse(X)
        keep = np.min(np.abs(u), axis=1) > min_kink
        X, labels = X[keep], labels[keep]
    return X, labels


class TestNllLoss:
    def test_identity_params_at_origin(self):
        t = TrainableILD.initialize(2, 2, "dense", seed=0)
        t = t.with_free_vector(np.zeros_like(t.free_vector()))
        t.params.W[...] = np.eye(2)
        batch = (np.zeros((4, 2)), np.array([1, 1, 2, 2]))
        assert nll_loss(t, batch) == pytest.approx(math.log(2 * math.pi))

    def test_can_full_k_equals_dense(self):
        can = perturbed(TrainableILD.initialize(3, 2, "can", k=3, seed=1), seed=2)
        dense = TrainableILD.initialize(3, 2, "dense", seed=1)
        dense = dense.with_free_vector(can.free_vector())
        X, labels = model_batch(can, 20, seed=3)
        assert nll_loss(can, (X, labels)) == nll_loss(dense, (X, labels))

    def test_matches_change_of_variables_reimplementation(self, rng):
        t = perturbed(TrainableILD.initialize(3, 2, "can", k=1, seed=4), seed=5)
        X, labels = model_batch(t, 15, seed=6)
        G, b_g = t.G, t.b_g
        total = 0.0
        for x, d in zip(X, labels):
            L, logS, b = t.domain_arrays(d - 1)
            u = np.linalg.solve(G, x - b_g)
            z = np.where(u >= 0, u, u / 0.5)
            eps = (np.eye(3) - L) @ (z - b) / np.exp(logS)
            ll = (
                -0.5 * 3 * math.log(2 * math.pi)
                - 0.5 * eps @ eps
                - np.sum(logS)
                - np.count_nonzero(z < 0) * math.log(0.5)
                - np.log(abs(np.linalg.det(G)))
            )
            total -= ll
        assert nll_loss(t, (X, labels)) == pytest.approx(total / len(X), abs=1e-10)

    def test_empty_batch_rejected(self):
        t = TrainableILD.initialize(2, 2, "dense", seed=0)
        with pytest.raises(ValueError):
            nll_loss(t, (np.zeros((0, 2)), np.zeros(0, dtype=int)))


class TestNllGradient:
    def test_output_bias_gradient_closed_form(self):
        # pure linear regime: all pre-activation values positive, so the
        # noise is x shifted by the inverse-layer bias and the bias gradient
        # is exactly the mean residual
        m = 2
        t = TrainableILD.initialize(m, 2, "dense", seed=0)
        t = t.with_free_vector(np.zeros_like(t.free_vector()))
        t.params.W[...] = np.eye(m)
        t.params.c[...] = [-0.5, -0.25]
        gen = np.random.default_rng(8)
        X = gen.uniform(2.0, 5.0, size=(40, m))
        labels = np.tile([1, 2], 20)
        grads = nll_gradient(t, (X, labels))
        np.testing.assert_allclose(
            grads.c, (X + t.params.c).mean(axis=0), atol=1e-12
        )

    @pytest.mark.parametrize("kind,k", [("can", 2), ("dense", None)])
    def test_matches_finite_differences(self, kind, k):
        t = perturbed(TrainableILD.initialize(4, 3, kind, k, seed=10), seed=11)
        X, labels = model_batch(t, 12, seed=12, min_kink=1e-2)
        v0 = t.free_vector()
        analytic = nll_gradient(t, (X, labels)).vec
        h = 1e-5
        fd = np.zeros_like(v0)
        for i in range(len(v0)):
            up, down = v0.copy(), v0.copy()
            up[i] += h
            down[i] -= h
            fd[i] = (
                nll_loss(t.with_free_vector(up), (X, labels))
                - nll_loss(t.with_free_vector(down), (X, labels))
            ) / (2 * h)
        rel = np.abs(analytic - fd) / np.maximum(
            np.maximum(np.abs(analytic), np.abs(fd)), 1e-3
        )
        assert rel.max() <= 1e-4

    def test_shared_row_gradient_is_sum_of_tied_dense_rows(self):
        m, nd, k = 4, 3, 2
        can = perturbed(TrainableILD.initialize(m, nd, "can", k, seed=13), seed=14)
        dense = TrainableILD.initialize(m, nd, "dense", seed=13)
        # tie dense domain rows to the shared values
        for d in range(nd):
            dense.params.dom_L[d] = np.vstack(
                [can.params.shared_L, can.params.dom_L[d]]
            )
            dense.params.dom_logS[d] = np.concatenate(
                [can.params.shared_logS, can.params.dom_logS[d]]
            )
            dense.params.dom_b[d] = np.concatenate(
                [can.params.shared_b, can.params.dom_b[d]]
            )
        dense.params.W[...] = can.params.W
        dense.params.c[...] = can.params.c
        X, labels = model_batch(can, 10, seed=15)
        g_can = nll_gradient(can, (X, labels))
        g_dense = nll_gradient(dense, (X, labels))
        ns = m - k
        np.testing.assert_allclose(
            g_can.shared_L, g_dense.dom_L[:, :ns].sum(axis=0), atol=1e-12
        )
        np.testing.assert_allclose(
            g_can.shared_b, g_dense.dom_b[:, :ns].sum(axis=0), atol=1e-12
        )
        np.testing.assert_allclose(
            g_can.dom_L, g_dense.dom_L[:, ns:], atol=1e-12
        )


class TestParamBuffer:
    def test_view_write_changes_free_vector(self):
        t = TrainableILD.initialize(3, 2, "can", k=1, seed=0)
        before = t.free_vector()
        t.params.dom_b[1, 0] = 7.0
        changed = np.flatnonzero(t.free_vector() != before)
        assert len(changed) == 1 and t.free_vector()[changed[0]] == 7.0

    def test_copy_shares_no_memory(self):
        t = TrainableILD.initialize(3, 2, "can", k=1, seed=0)
        assert not np.shares_memory(t.copy().params.vec, t.params.vec)
        assert not np.shares_memory(t.params.copy().vec, t.params.vec)

    def test_views_cannot_be_rebound(self):
        t = TrainableILD.initialize(2, 2, "dense", seed=0)
        with pytest.raises(AttributeError):
            t.params.W = np.eye(2)

    def test_wrong_length_rejected(self):
        t = TrainableILD.initialize(2, 2, "dense", seed=0)
        with pytest.raises(ValueError):
            t.with_free_vector(np.zeros(t.free_vector().size + 1))

    def test_training_keeps_structural_zeros(self, monkeypatch):
        m, nd, k = 4, 2, 2
        spec = GroundTruthSpec(
            dim=m, num_domains=nd, intervention=(3, 4),
            n_train=500, n_val=100, n_test=100, seed=31,
        )
        ds = sample_dataset(generate_ground_truth(spec), spec)
        recorded, proposed = [], []
        real_materialize, real_check = TrainableILD.materialize, _KinkSearch.check

        def materialize(trainable):
            recorded.append(trainable.copy())
            return real_materialize(trainable)

        def check(search, work, iteration):
            changed = real_check(search, work, iteration)
            if search.pending is not None:
                proposed.append(work.copy())
            return changed

        monkeypatch.setattr(TrainableILD, "materialize", materialize)
        monkeypatch.setattr(_KinkSearch, "check", check)
        t = TrainableILD.initialize(m, nd, "can", k, seed=31)
        cfg = TrainConfig(iterations=1000, eval_every=250, batch_size=64, seed=31)
        train(t, ds, cfg)
        assert len(proposed) >= 1 and len(recorded) == 1000 // 250 + 2
        for trainable in recorded + proposed:
            assert np.all(structural_entries(trainable) == 0.0)


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        t = TrainableILD.initialize(2, 2, "dense", seed=0)
        before = t.free_vector()
        opt = Adam(TrainConfig(iterations=1))
        opt.step(t.params, t.params.zeros_like())
        np.testing.assert_array_equal(t.free_vector(), before)

    def test_first_step_closed_form(self):
        cfg = TrainConfig(learning_rate_g=0.01, learning_rate_f=0.002, iterations=1)
        t = TrainableILD.initialize(2, 2, "dense", seed=1)
        before_W = t.params.W.copy()
        before_domb = t.params.dom_b.copy()
        grads = t.params.zeros_like()
        grads.W[...] = 3.0
        grads.dom_b[...] = -2.0
        opt = Adam(cfg)
        opt.step(t.params, grads)
        # bias-corrected first step is -lr * g / (|g| + eps) per coordinate
        np.testing.assert_allclose(
            t.params.W, before_W - 0.01 * 3.0 / (3.0 + 1e-8), atol=1e-15
        )
        np.testing.assert_allclose(
            t.params.dom_b, before_domb + 0.002 * 2.0 / (2.0 + 1e-8), atol=1e-15
        )

    def test_singular_step_is_halved(self):
        cfg = TrainConfig(
            learning_rate_g=1.0 + 1e-8, learning_rate_f=1e-3, iterations=1
        )
        t = TrainableILD.initialize(1, 2, "dense", seed=0)
        grads = t.params.zeros_like()
        grads.W[...] = 1.0
        opt = Adam(cfg)
        opt.step(t.params, grads)
        # the full step would land exactly on det ~ 0; half of it is accepted
        assert abs(t.params.W[0, 0] - 0.5) < 1e-6
        assert abs(np.linalg.det(t.params.W)) > 1e-12

    def test_bit_identical_runs(self, tiny_dataset):
        cfg = TrainConfig(iterations=50, eval_every=10, batch_size=32, seed=3)
        runs = []
        for _ in range(2):
            t = TrainableILD.initialize(1, 2, "can", k=1, seed=3)
            model, history = train(t, tiny_dataset, cfg)
            runs.append((model, history))
        assert runs[0][1] == runs[1][1]
        for f_a, f_b in zip(runs[0][0].scms, runs[1][0].scms):
            np.testing.assert_array_equal(f_a.matrix, f_b.matrix)


@pytest.fixture
def tiny_dataset() -> MultiDomainDataset:
    """1-dim, 2-domain location problem: domains differ by a constant shift."""
    gen = np.random.default_rng(77)
    shifts = {1: 0.5, 2: 1.5}
    n_train, n_val, n_test = 2000, 400, 400
    splits = {}
    for name, n in (("train", n_train), ("val", n_val), ("test", n_test)):
        xs, ds = [], []
        for d, c in shifts.items():
            xs.append(gen.standard_normal((n, 1)) + c)
            ds.append(np.full(n, d))
        splits[name] = Split(np.concatenate(xs), np.concatenate(ds))
    spec = GroundTruthSpec(
        dim=1, num_domains=2, intervention=(1,), n_train=n_train, n_val=n_val,
        n_test=n_test, seed=77,
    )
    gt = ILDModel(
        LayerChain(1),
        (
            AffineSCM(np.zeros((1, 1)), np.ones(1), np.array([shifts[1]])),
            AffineSCM(np.zeros((1, 1)), np.ones(1), np.array([shifts[2]])),
        ),
    )
    return MultiDomainDataset(
        train=splits["train"], val=splits["val"], test=splits["test"],
        spec=spec, generator_model=gt,
    )


class TestTrain:
    def test_zero_iterations_returns_initialized_model(self, tiny_dataset):
        cfg = TrainConfig(iterations=0, seed=1)
        t = TrainableILD.initialize(1, 2, "dense", seed=1)
        model, history = train(t, tiny_dataset, cfg)
        assert len(history) == 1 and history[0][0] == 0
        init_model = t.materialize()
        for f_trained, f_init in zip(model.scms, init_model.scms):
            assert f_trained.allclose(f_init, tol=0.0)

    def test_history_row_count(self, tiny_dataset):
        cfg = TrainConfig(iterations=300, eval_every=100, batch_size=64, seed=2)
        t = TrainableILD.initialize(1, 2, "dense", seed=2)
        _, history = train(t, tiny_dataset, cfg)
        assert len(history) == 300 // 100 + 1

    def test_location_model_recovers_shift(self, tiny_dataset):
        cfg = TrainConfig(
            learning_rate_g=0.005, learning_rate_f=0.005, iterations=2000,
            eval_every=200, batch_size=200, seed=5,
        )
        t = TrainableILD.initialize(1, 2, "dense", seed=5)
        model, _ = train(t, tiny_dataset, cfg)
        # the true counterfactual map is x -> x + (shift_2 - shift_1) on the
        # data bulk; tails may bend where the activation kink sits
        x1 = tiny_dataset.test.x[tiny_dataset.test.d == 1]
        dev = np.abs(model.counterfactual(x1, 1, 2) - (x1 + 1.0)).mean()
        assert dev <= 0.05

    def test_best_model_beats_every_checkpoint(self, tiny_dataset):
        cfg = TrainConfig(iterations=400, eval_every=100, batch_size=64, seed=6)
        t = TrainableILD.initialize(1, 2, "can", k=1, seed=6)
        model, history = train(t, tiny_dataset, cfg)
        best_recorded = min(rec[2] for rec in history)
        val = dataset_nll(model, tiny_dataset.val.x, tiny_dataset.val.d)
        assert val == pytest.approx(best_recorded, abs=1e-12)

    def test_training_reduces_loss(self, tiny_dataset):
        for seed in (0, 1, 2):
            cfg = TrainConfig(
                learning_rate_g=0.01, learning_rate_f=0.01, iterations=500,
                eval_every=500, batch_size=128, seed=seed,
            )
            t = TrainableILD.initialize(1, 2, "dense", seed=seed)
            _, history = train(t, tiny_dataset, cfg)
            assert history[-1][1] < history[0][1]

    def test_dense_and_can_full_k_share_trajectories(self, tiny_dataset):
        cfg = TrainConfig(iterations=60, eval_every=20, batch_size=32, seed=9)
        results = []
        for kind, k in (("dense", None), ("can", 1)):
            t = TrainableILD.initialize(1, 2, kind, k, seed=9)
            _, history = train(t, tiny_dataset, cfg)
            results.append(history)
        assert results[0] == results[1]

    def test_materialized_can_satisfies_sparsity_constraint(self, rng):
        m, nd, k = 5, 3, 2
        spec = GroundTruthSpec(
            dim=m, num_domains=nd, intervention=(4, 5),
            n_train=400, n_val=100, n_test=100, seed=21,
        )
        from domcf import generate_ground_truth, sample_dataset

        ds = sample_dataset(generate_ground_truth(spec), spec)
        cfg = TrainConfig(iterations=200, eval_every=100, batch_size=64, seed=21)
        t = TrainableILD.initialize(m, nd, "can", k, seed=21)
        model, _ = train(t, ds, cfg)
        iset = intervention_set(model.scms)
        assert set(iset.indices) <= set(range(m - k + 1, m + 1))


@pytest.fixture(scope="module")
def trend_truth():
    """Seed 3 of the trend experiment and its generating model as can2 parameters.

    The generating chain is leaky ReLU, standardization, ``G_out``; its two
    affine layers fold into ``x = A u + a``, so ``W = A^{-1}`` and
    ``c = -W a``, and the mechanisms are copied row by row.
    """
    spec = GroundTruthSpec(
        dim=6, num_domains=3, intervention=(5, 6),
        n_train=20_000, n_val=1_000, n_test=1_000, seed=3,
    )
    gt = generate_ground_truth(spec)
    dataset = sample_dataset(gt, spec)
    _, standardize, out = gt.g.layers
    W = np.linalg.inv(out.G @ standardize.G)
    t = TrainableILD.initialize(6, 3, "can", 2, seed=3)
    p, ns = t.params, t.shared_rows
    p.W[...], p.c[...] = W, -W @ (out.G @ standardize.b + out.b)
    f0 = gt.scms[0]
    p.shared_L[...], p.shared_logS[...], p.shared_b[...] = (
        f0.L[:ns], np.log(f0.S[:ns]), f0.b[:ns]
    )
    for d0, f in enumerate(gt.scms):
        p.dom_L[d0], p.dom_logS[d0], p.dom_b[d0] = f.L[ns:], np.log(f.S[ns:]), f.b[ns:]
    gt_val = dataset_nll(gt, dataset.val.x, dataset.val.d)
    return t, dataset, gt_val


class TestKinkCorrectedUpdate:
    """At the generating model the training update must be unbiased.

    The uncorrected batch gradient gave a mean ``c`` component of -0.41 here
    while the NLL is flat, and Adam following it drifted from val NLL 1.94 to
    2.55 in 5000 steps.
    """

    def test_truth_is_in_the_can2_class(self, trend_truth):
        t, dataset, gt_val = trend_truth
        val = dataset_nll(t.materialize(), dataset.val.x, dataset.val.d)
        assert val == pytest.approx(gt_val, abs=1e-9)

    def test_mean_update_matches_central_difference(self, trend_truth):
        t, dataset, _ = trend_truth
        X, labels = dataset.train.x, dataset.train.d
        gen = np.random.default_rng(0)
        mean_c = np.zeros(t.dim)
        batches = 400
        for _ in range(batches):
            idx = gen.integers(0, len(X), size=500)
            mean_c += _loss_and_grad(t, X[idx], labels[idx], kink_term=True)[1].c / batches
        steps = 1e-2 * (X @ t.params.W.T + t.params.c).std(axis=0)
        central = np.zeros(t.dim)
        for j, h in enumerate(steps):
            up, down = t.copy(), t.copy()
            up.params.c[j] += h
            down.params.c[j] -= h
            central[j] = (
                _loss_and_grad(up, X, labels)[0] - _loss_and_grad(down, X, labels)[0]
            ) / (2 * h)
        np.testing.assert_allclose(central, 0.0, atol=0.03)
        np.testing.assert_allclose(mean_c, central, atol=0.1)

    def test_update_started_at_truth_stays_there(self, trend_truth):
        # the paper's constant-rate Adam on the corrected update alone
        t, dataset, gt_val = trend_truth
        X, labels = dataset.train.x, dataset.train.d
        work = t.copy()
        optimizer = Adam(TrainConfig())
        gen = np.random.default_rng(3)
        for _ in range(2000):
            idx = gen.integers(0, len(X), size=500)
            _, grads = _loss_and_grad(work, X[idx], labels[idx], kink_term=True)
            optimizer.step(work.params, grads)
        val = dataset_nll(work.materialize(), dataset.val.x, dataset.val.d)
        assert val - gt_val <= 0.05

    def test_profile_fit_recovers_truth_from_shuffled_rows(self, trend_truth):
        t, dataset, gt_val = trend_truth
        shuffled = t.copy()
        order = [5, 1, 4, 0, 3, 2]
        shuffled.params.W[...], shuffled.params.c[...] = t.params.W[order], t.params.c[order]
        fitted, nll = _profile_fit(
            shuffled, dataset.train.x, dataset.train.d, choose_rows=True
        )
        assert nll == pytest.approx(
            _loss_and_grad(fitted, dataset.train.x, dataset.train.d)[0], abs=1e-10
        )
        val = dataset_nll(fitted.materialize(), dataset.val.x, dataset.val.d)
        assert val - gt_val <= 1e-3
