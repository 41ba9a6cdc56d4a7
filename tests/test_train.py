import math
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from domcf import (
    AffineSCM,
    GroundTruthSpec,
    ILDModel,
    LayerChain,
    MultiDomainDataset,
    Split,
    TrainConfig,
    TrainableILD,
    VariantSpec,
    generate_ground_truth,
    intervention_set,
    nll_gradient,
    sample_dataset,
    train,
)
from domcf.train import Adam, _KinkSearch, _nll_grad, _profile_fit, dataset_nll


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
        assert dataset_nll(t.materialize(), *batch) == pytest.approx(math.log(2 * math.pi))

    def test_can_full_k_equals_dense(self):
        can = perturbed(TrainableILD.initialize(3, 2, "can", k=3, seed=1), seed=2)
        dense = TrainableILD.initialize(3, 2, "dense", seed=1)
        dense = dense.with_free_vector(can.free_vector())
        X, labels = model_batch(can, 20, seed=3)
        nll_can = dataset_nll(can.materialize(), X, labels)
        assert nll_can == dataset_nll(dense.materialize(), X, labels)

    def test_matches_change_of_variables_reimplementation(self, rng):
        t = perturbed(TrainableILD.initialize(3, 2, "can", k=1, seed=4), seed=5)
        X, labels = model_batch(t, 15, seed=6)
        out = t.materialize().g.layers[1]
        G, b_g = out.G, out.b
        total = 0.0
        for x, d in zip(X, labels):
            L, logS, b = (a[d - 1] for a in t.mechanism_arrays())
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
        assert dataset_nll(t.materialize(), X, labels) == pytest.approx(total / len(X), abs=1e-10)

    def test_empty_batch_rejected(self):
        t = TrainableILD.initialize(2, 2, "dense", seed=0)
        with pytest.raises(ValueError):
            dataset_nll(t.materialize(), np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_non_integral_labels_rejected(self):
        model = perturbed(TrainableILD.initialize(2, 2, "dense", seed=0), seed=1).materialize()
        X = np.random.default_rng(9).standard_normal((2, 2))
        with pytest.raises(ValueError, match="integers"):
            dataset_nll(model, X, [1.9, 2.2])
        assert dataset_nll(model, X, [1.0, 2.0]) == dataset_nll(model, X, [1, 2])

    @pytest.mark.parametrize(
        "fn",
        [lambda t, batch: dataset_nll(t.materialize(), *batch), nll_gradient],
        ids=["dataset_nll", "nll_gradient"],
    )
    def test_out_of_range_label_rejected(self, fn):
        t = TrainableILD.initialize(2, 2, "dense", seed=0)
        X = np.random.default_rng(9).standard_normal((6, 2))
        with pytest.raises(IndexError):
            fn(t, (X, np.array([1, 2, 1, 2, 3, 0])))


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
                dataset_nll(t.with_free_vector(up).materialize(), X, labels)
                - dataset_nll(t.with_free_vector(down).materialize(), X, labels)
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

    def test_singular_observation_layer_rejected(self):
        t = TrainableILD.initialize(2, 2, "dense", seed=0)
        t.params.W[...] = 0.0
        with pytest.raises(ValueError):
            nll_gradient(t, (np.ones((2, 2)), np.array([1, 2])))


def per_domain_grad(trainable: TrainableILD, X, labels, kink_term=False):
    """Gradient of the mean batch NLL, one domain at a time.

    An independent reference for the stacked kernel: each domain's rows are
    selected with a boolean mask and pushed through that domain's own
    ``I - L``; a domain absent from the batch contributes nothing.
    """
    p, m, ns = trainable.params, trainable.dim, trainable.shared_rows
    n, s = len(X), 0.5
    U = X @ p.W.T + p.c
    Z = np.where(U >= 0.0, U, U / s)
    grads = p.zeros_like()
    dU = np.zeros_like(U)
    stacked = trainable.mechanism_arrays()
    for d0 in range(trainable.num_domains):
        mask = labels == d0 + 1
        if not np.any(mask):
            continue
        L, logS, b = (a[d0] for a in stacked)
        S, M, Y = np.exp(logS), np.eye(m) - L, Z[mask] - b
        Eps = (Y @ M.T) / S
        Wgt = Eps / S
        g_L = -(Wgt.T @ Y) * np.tril(np.ones((m, m)), k=-1)
        g_logS = np.sum(1.0 - Eps**2, axis=0)
        g_b = -(M.T @ Wgt.sum(axis=0))
        dU[mask] = (Wgt @ M) * np.where(U[mask] >= 0.0, 1.0, 1.0 / s)
        grads.shared_L[...] += g_L[:ns]
        grads.shared_logS[...] += g_logS[:ns]
        grads.shared_b[...] += g_b[:ns]
        grads.dom_L[d0], grads.dom_logS[d0], grads.dom_b[d0] = g_L[ns:], g_logS[ns:], g_b[ns:]
    if kink_term:
        h = 1.06 * np.maximum(U.std(axis=0), 1e-12) * n ** -0.2
        dU += -math.log(s) / (h * math.sqrt(2 * math.pi)) * np.exp(-0.5 * (U / h) ** 2)
    grads.W[...] = dU.T @ X - n * np.linalg.inv(p.W).T
    grads.c[...] = dU.sum(axis=0)
    return grads.vec / n


class TestStackedKernel:
    """``_nll_grad`` against the per-domain reference above."""

    @pytest.mark.parametrize("kind,k", [("can", 0), ("can", 2), ("dense", None)])
    @pytest.mark.parametrize("kink_term", [False, True])
    @pytest.mark.parametrize("missing", [None, 2])
    def test_matches_per_domain_loop(self, kind, k, kink_term, missing):
        t = perturbed(TrainableILD.initialize(5, 3, kind, k, seed=40), seed=41)
        X, labels = model_batch(t, 60, seed=42)
        keep = labels != missing
        X, labels = X[keep], labels[keep]
        grads = _nll_grad(t, X, labels, kink_term)
        ref_grad = per_domain_grad(t, X, labels, kink_term)
        np.testing.assert_allclose(
            grads.vec, ref_grad, rtol=1e-12, atol=1e-12 * np.abs(ref_grad).max()
        )
        if missing is not None:
            d0 = missing - 1
            assert not np.any(grads.dom_L[d0]) and not np.any(grads.dom_logS[d0])
            assert not np.any(grads.dom_b[d0])

    def test_reused_buffer_equals_fresh_buffer(self):
        t = perturbed(TrainableILD.initialize(4, 3, "can", 2, seed=43), seed=44)
        X, labels = model_batch(t, 30, seed=45)
        buffer = t.params.zeros_like()
        _nll_grad(t, X, labels, kink_term=True, out=buffer)
        keep = labels != 3
        grads = _nll_grad(t, X[keep], labels[keep], kink_term=True, out=buffer)
        fresh = _nll_grad(t, X[keep], labels[keep], kink_term=True)
        assert grads is buffer
        np.testing.assert_array_equal(buffer.vec, fresh.vec)

    @pytest.mark.parametrize("label", [0, 4])
    def test_labels_outside_the_domains_are_rejected(self, label):
        t = TrainableILD.initialize(2, 3, "dense", seed=0)
        X = np.random.default_rng(9).standard_normal((4, 2))
        with pytest.raises(IndexError):
            nll_gradient(t, (X, np.array([1, 2, 3, label])))


def per_row_profile_fit(trainable: TrainableILD, X, labels, choose_rows=False):
    """Profile fit one mechanism row at a time.

    An independent reference for ``_profile_fit``: each row is a least-squares
    regression of ``z_j`` on ``[1, z_<j]`` solved by ``lstsq`` on the normal
    equations (pooled for the shared rows, per domain for the others), and
    ``choose_rows`` compares covariance log-determinants formed explicitly.
    """
    p = trainable.params
    m, nd, ns = trainable.dim, trainable.num_domains, trainable.shared_rows
    n = len(X)
    U = X @ p.W.T + p.c
    Z1 = np.hstack([np.ones((n, 1)), np.where(U >= 0.0, U, U / 0.5)])
    groups = [Z1[labels == d0 + 1] for d0 in range(nd)]
    counts = np.array([len(g) for g in groups])
    moments = np.stack([g.T @ g / len(g) for g in groups])
    pooled = np.tensordot(counts / n, moments, axes=1)

    def logdet_cov(moment, idx):
        mean = moment[0, idx]
        return np.linalg.slogdet(moment[np.ix_(idx, idx)] - np.outer(mean, mean))[1]

    def regress(moment, j):
        beta = np.linalg.lstsq(moment[: j + 1, : j + 1], moment[: j + 1, j + 1], rcond=None)[0]
        return beta[0], beta[1:], moment[j + 1, j + 1] - beta @ moment[: j + 1, j + 1]

    perm = np.arange(m)
    if choose_rows and 0 < ns < m:

        def variation(shared):
            idx = np.array(shared) + 1
            return n * logdet_cov(pooled, idx) - sum(
                cnt * logdet_cov(mom, idx) for cnt, mom in zip(counts, moments)
            )

        shared = min(combinations(range(m), ns), key=variation)
        perm = np.array(list(shared) + [j for j in range(m) if j not in shared])
    out = trainable.copy()
    q = out.params
    q.W[...], q.c[...] = p.W[perm], p.c[perm]
    order = np.concatenate([[0], perm + 1])
    moments = moments[:, order][:, :, order]
    pooled = pooled[np.ix_(order, order)]

    nll_rows = 0.0
    L_shared, a_shared = np.zeros((ns, m)), np.zeros(ns)
    for j in range(ns):
        a_shared[j], L_shared[j, :j], var = regress(pooled, j)
        q.shared_logS[j] = 0.5 * math.log(var)
        nll_rows += n * q.shared_logS[j]
    q.shared_L[...] = L_shared
    q.shared_b[...] = np.linalg.solve(np.eye(ns) - L_shared[:, :ns], a_shared)
    for d0, (cnt, mom) in enumerate(zip(counts, moments)):
        L, a = np.zeros((m, m)), np.zeros(m)
        L[:ns], a[:ns] = L_shared, a_shared
        for j in range(ns, m):
            a[j], L[j, :j], var = regress(mom, j)
            q.dom_logS[d0, j - ns] = 0.5 * math.log(var)
            nll_rows += cnt * q.dom_logS[d0, j - ns]
        q.dom_L[d0] = L[ns:]
        q.dom_b[d0] = np.linalg.solve(np.eye(m) - L, a)[ns:]
    nll = (
        0.5 * m * (math.log(2 * math.pi) + 1.0)
        + nll_rows / n
        + math.log(0.5) * np.count_nonzero(U < 0.0) / n
        - np.linalg.slogdet(q.W)[1]
    )
    return out, nll


class TestProfileFit:
    """``_profile_fit`` against the per-row reference above."""

    @pytest.mark.parametrize("kind,k", [("can", 0), ("can", 1), ("can", 2), ("dense", None)])
    @pytest.mark.parametrize("choose_rows", [False, True])
    @pytest.mark.parametrize("seed", [50, 51])
    def test_matches_per_row_regressions(self, kind, k, choose_rows, seed):
        t = perturbed(TrainableILD.initialize(5, 3, kind, k, seed=seed), seed=seed + 10)
        X, labels = model_batch(t, 200, seed=seed + 20)
        gen = np.random.default_rng(seed)
        t.params.W[...] = gen.standard_normal((5, 5))  # rows unrelated to the data
        t.params.c[...] = gen.standard_normal(5)
        fitted, nll = _profile_fit(t, X, labels, choose_rows)
        ref, ref_nll = per_row_profile_fit(t, X, labels, choose_rows)
        np.testing.assert_array_equal(fitted.params.W, ref.params.W)  # same shared rows
        np.testing.assert_allclose(
            fitted.params.vec, ref.params.vec, rtol=1e-10,
            atol=1e-10 * np.abs(ref.params.vec).max(),
        )
        assert nll == pytest.approx(ref_nll, rel=1e-10)
        assert nll == pytest.approx(dataset_nll(fitted.materialize(), X, labels), rel=1e-10)
        assert np.all(structural_entries(fitted) == 0.0)


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

    @pytest.mark.parametrize(
        "kind, k, match",
        [
            ("can", 9, r"k=9 .*dim=2"),
            ("can", -1, r"k=-1"),
            ("sparse", 1, "kind"),
            ("can", None, r"'can' needs .* got k=None"),
            ("dense", 2, r"'dense' takes no k, got k=2"),
            ("can", 1.7, r"'can' needs an integer .* got k=1.7"),
            ("can", True, r"'can' needs an integer .* got k=True"),
        ],
    )
    def test_initialize_rejects_bad_variant(self, kind, k, match):
        with pytest.raises(ValueError, match=match):
            TrainableILD.initialize(2, 2, kind, k)

    def test_numpy_integer_k_is_stored_as_int(self):
        spec = VariantSpec("can", np.int64(2))
        assert type(spec.k) is int and spec.label() == "can2"

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
        # Five records, the returned model, and one materialize per kink-search
        # NLL: the proposal's baseline (its judge would run at iteration 1000).
        assert len(proposed) == 1 and len(recorded) == 1000 // 250 + 2 + 1
        for trainable in recorded + proposed:
            assert np.all(structural_entries(trainable) == 0.0)


class TestAdam:
    @pytest.mark.parametrize("key", ["learning_rate_g", "learning_rate_f"])
    @pytest.mark.parametrize("rate", [0.0, np.nan, np.inf])
    def test_learning_rates_must_be_positive_and_finite(self, key, rate):
        with pytest.raises(ValueError, match="positive and finite"):
            TrainConfig(**{key: rate})

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
        assert opt.step(t.params, grads) is None
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

    def test_constant_train_column_rejected_before_any_step(self, monkeypatch):
        gen = np.random.default_rng(3)
        X = gen.standard_normal((40, 3))
        X[:, 1] = 0.25
        d = np.repeat([1, 2], 20)
        dataset = MultiDomainDataset(
            train=Split(X, d), val=Split(gen.standard_normal((10, 3)), d[::4]),
            test=Split(gen.standard_normal((10, 3)), d[::4]),
            spec=GroundTruthSpec(3, 2, (3,), 20, 5, 5, 3), generator_model=None,
        )
        steps = []
        step = Adam.step
        monkeypatch.setattr(Adam, "step", lambda *a, **kw: steps.append(1) or step(*a, **kw))
        t = TrainableILD.initialize(3, 2, "can", k=1, seed=0)
        with pytest.raises(ValueError, match="train column 2 has zero variance"):
            train(t, dataset, TrainConfig(iterations=20, eval_every=10, batch_size=8, seed=0))
        assert steps == []

    @staticmethod
    def _scaled_columns(dependent: bool, column: int, power: int) -> MultiDomainDataset:
        """A 3-dim, 2-domain dataset, its third train column optionally
        replaced by ``x1 + 2 x2``, then one column scaled by ``2**power``."""
        spec = GroundTruthSpec(3, 2, (3,), n_train=400, n_val=60, n_test=60, seed=3)
        ds = sample_dataset(generate_ground_truth(spec), spec)
        X = ds.train.x.copy()
        if dependent:
            X[:, 2] = X[:, 0] + 2.0 * X[:, 1]
        X[:, column] *= 2.0**power
        return replace(ds, train=Split(X, ds.train.d))

    @pytest.mark.parametrize("kind, k", [("dense", None), ("can", 1)])
    @pytest.mark.parametrize("column, power", [(0, 0), (0, 40), (2, -40), (1, 3)])
    def test_rank_deficient_train_data_rejected_before_any_step(
        self, monkeypatch, kind, k, column, power
    ):
        steps = []
        step = Adam.step
        monkeypatch.setattr(Adam, "step", lambda *a, **kw: steps.append(1) or step(*a, **kw))
        dataset = self._scaled_columns(True, column, power)
        t = TrainableILD.initialize(3, 2, kind, k, seed=0)
        with pytest.raises(ValueError, match="train data is rank-deficient"):
            train(t, dataset, TrainConfig(iterations=20, eval_every=10, batch_size=8, seed=0))
        assert steps == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_train_value_rejected(self, bad):
        dataset = self._scaled_columns(False, 0, 0)
        dataset.train.x[5, 1] = bad
        t = TrainableILD.initialize(3, 2, "dense", seed=0)
        with pytest.raises(ValueError, match="train data holds a non-finite value"):
            train(t, dataset, TrainConfig(iterations=20, eval_every=10, batch_size=8, seed=0))

    @pytest.mark.parametrize("column, power", [(0, 40), (2, -40)])
    def test_full_rank_train_data_accepted_at_any_column_scale(self, column, power):
        dataset = self._scaled_columns(False, column, power)
        t = TrainableILD.initialize(3, 2, "dense", seed=0)
        _, history = train(t, dataset, TrainConfig(iterations=0, seed=0))
        assert len(history) == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_gradient_fails_as_bad_input(self):
        spec = GroundTruthSpec(2, 2, (2,), n_train=60, n_val=30, n_test=30, seed=3)
        ds = sample_dataset(generate_ground_truth(spec), spec)
        huge = MultiDomainDataset(  # squares of these rows overflow to inf
            train=Split(ds.train.x * 1e200, ds.train.d), val=Split(ds.val.x * 1e200, ds.val.d),
            test=ds.test, spec=spec, generator_model=None,
        )
        t = TrainableILD.initialize(2, 2, "dense", seed=1)
        with pytest.raises(ValueError, match="non-finite gradient at iteration 1$"):
            train(t, huge, TrainConfig(iterations=40, eval_every=10, batch_size=16, seed=1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_second_moment_fails_as_bad_input(self):
        spec = GroundTruthSpec(3, 2, (3,), n_train=200, n_val=60, n_test=60, seed=3)
        ds = sample_dataset(generate_ground_truth(spec), spec)
        big = MultiDomainDataset(  # finite gradients whose squares overflow
            train=Split(ds.train.x * 1e150, ds.train.d), val=Split(ds.val.x * 1e150, ds.val.d),
            test=ds.test, spec=spec, generator_model=None,
        )
        t = TrainableILD.initialize(3, 2, "dense", seed=1)
        with pytest.raises(ValueError, match="second moment overflowed at iteration 1$"):
            train(t, big, TrainConfig(iterations=40, eval_every=10, batch_size=16, seed=1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_no_finite_validation_nll_is_rejected(self):
        spec = GroundTruthSpec(2, 2, (2,), n_train=60, n_val=30, n_test=30, seed=3)
        ds = sample_dataset(generate_ground_truth(spec), spec)
        huge = MultiDomainDataset(
            train=Split(ds.train.x * 1e200, ds.train.d), val=Split(ds.val.x * 1e200, ds.val.d),
            test=ds.test, spec=spec, generator_model=None,
        )
        t = TrainableILD.initialize(2, 2, "dense", seed=1)
        with pytest.raises(ValueError, match="no recorded validation NLL is finite"):
            train(t, huge, TrainConfig(iterations=0, seed=1))

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
            mean_c += _nll_grad(t, X[idx], labels[idx], kink_term=True).c / batches
        steps = 1e-2 * (X @ t.params.W.T + t.params.c).std(axis=0)
        central = np.zeros(t.dim)
        for j, h in enumerate(steps):
            up, down = t.copy(), t.copy()
            up.params.c[j] += h
            down.params.c[j] -= h
            central[j] = (
                dataset_nll(up.materialize(), X, labels)
                - dataset_nll(down.materialize(), X, labels)
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
            grads = _nll_grad(work, X[idx], labels[idx], kink_term=True)
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
            dataset_nll(fitted.materialize(), dataset.train.x, dataset.train.d), abs=1e-10
        )
        val = dataset_nll(fitted.materialize(), dataset.val.x, dataset.val.d)
        assert val - gt_val <= 1e-3
