import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domcf import (
    AffineDense,
    AffineSCM,
    DimensionMismatch,
    ILDModel,
    LayerChain,
    LeakyRelu,
    Permute,
    Split,
    as_sample_arrays,
    canonicalize,
    check_counterfactual_equiv,
    check_distribution_equiv,
    construct_equivalent,
    dataset_nll,
    dc_distance,
    ground_truth_bound_term,
    intervention_set,
    serialize,
)
from domcf.ild import LOG_TWO_PI, _BLOCK_ROWS, _blocks, _label_runs
from conftest import (
    family_with_intervention,
    kink_distance,
    mechanisms_allclose,
    probe_points,
    random_dense_layer,
    random_model,
    random_scm,
)


def identity_model(m: int, num_domains: int = 2) -> ILDModel:
    return ILDModel(
        LayerChain(m), tuple(AffineSCM.identity(m) for _ in range(num_domains))
    )


class TestSample:
    def test_zero_count(self, rng):
        model = random_model(rng, 3, 2)
        assert model.sample(1, 0, seed=0).shape == (0, 3)

    def test_identity_model_moments(self):
        model = identity_model(3)
        x = model.sample(1, 100_000, seed=42)
        n = len(x)
        assert np.all(np.abs(x.mean(axis=0)) < 4 / math.sqrt(n))
        cov = np.cov(x.T)
        assert np.max(np.abs(cov - np.eye(3))) < 0.1

    def test_linear_pushforward_covariance(self, rng):
        m = 4
        G = np.eye(m) + 0.2 * rng.standard_normal((m, m))
        model = ILDModel(
            LayerChain(m, (AffineDense(G, rng.standard_normal(m)),)),
            (random_scm(rng, m), random_scm(rng, m)),
        )
        x = model.sample(2, 100_000, seed=7)
        F = model.scms[1].matrix
        expected = G @ F @ F.T @ G.T
        emp = np.cov(x.T)
        assert (
            np.linalg.norm(emp - expected) / np.linalg.norm(expected) < 0.05
        )

    def test_seed_reproducible(self, rng):
        model = random_model(rng, 4, 2)
        a = model.sample(2, 50, seed=123)
        b = model.sample(2, 50, seed=123)
        np.testing.assert_array_equal(a, b)

    def test_domain_out_of_range(self, rng):
        with pytest.raises(IndexError):
            random_model(rng, 3, 2).sample(3, 1, seed=0)


class TestLogLikelihood:
    def test_standard_normal_mode(self):
        model = identity_model(2)
        assert model.log_likelihood(np.zeros(2), 1) == pytest.approx(
            -math.log(2 * math.pi)
        )

    def test_pure_scaling_shift(self):
        m = 2
        scaled = AffineSCM(np.zeros((m, m)), np.array([2.0, 2.0]), np.zeros(m))
        model = ILDModel(LayerChain(m), (scaled, AffineSCM.identity(m)))
        x = np.array([0.4, -1.0])
        shift = model.log_likelihood(2 * x, 1) - identity_model(m).log_likelihood(x, 1)
        assert shift == pytest.approx(-2 * math.log(2.0), abs=1e-12)

    def test_density_integrates_to_one(self, rng):
        model = random_model(rng, 2, 2)
        xs = np.arange(-8.0, 8.0 + 1e-12, 0.02)
        grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
        dens = np.exp(model.log_likelihood(grid, 1)).reshape(len(xs), len(xs))
        integral = np.trapezoid(np.trapezoid(dens, xs, axis=1), xs)
        assert integral == pytest.approx(1.0, abs=1e-3)


def two_pass_log_likelihood(model: ILDModel, x, d: int):
    """Change of variables with the log-det from a forward replay of ``g`` at ``z``."""
    f = model.scms[d - 1]
    z = model.g.inverse(x)
    total = 0.0 if z.ndim == 1 else np.zeros(z.shape[0])
    v = z
    for layer in model.g.layers:
        total = total + layer.log_abs_det(v)
        v = layer.forward(v)
    eps = f.inverse(z)
    log_base = -0.5 * model.dim * math.log(2 * math.pi) - 0.5 * np.sum(eps**2, axis=-1)
    out = log_base - (total + f.log_abs_det())
    return float(out) if np.ndim(out) == 0 else out


def mixed_chain(rng: np.random.Generator, m: int) -> LayerChain:
    """Random chain drawing from every layer type, leaky slopes 0.5 and 2."""
    makers = (
        lambda: Permute(tuple(rng.permutation(m) + 1)),
        lambda: random_scm(rng, m),
        lambda: LeakyRelu(0.5),
        lambda: LeakyRelu(2.0),
        lambda: random_dense_layer(rng, m),
    )
    picks = rng.integers(0, len(makers), size=6)
    return LayerChain(m, tuple(makers[i]() for i in picks) + (random_dense_layer(rng, m),))


class TestOnePassLikelihood:
    def test_equals_two_pass_formula_exactly(self, rng):
        m = 4
        for _ in range(30):
            model = ILDModel(mixed_chain(rng, m), (random_scm(rng, m), random_scm(rng, m)))
            x = model.sample(2, 200, seed=int(rng.integers(1 << 30)))
            x = x[kink_distance(model.g, model.g.inverse(x)) > 1e-3]
            for d in (1, 2):
                np.testing.assert_array_equal(
                    model.log_likelihood(x, d), two_pass_log_likelihood(model, x, d)
                )
                for row in x[:5]:
                    assert model.log_likelihood(row, d) == two_pass_log_likelihood(model, row, d)


class TestCounterfactual:
    def test_same_domain_is_identity(self, rng):
        model = random_model(rng, 4, 3)
        x, _ = probe_points(model, 200, seed=5)
        for d in range(1, 4):
            np.testing.assert_allclose(model.counterfactual(x, d, d), x, atol=1e-10)

    def test_reversibility(self, rng):
        model = random_model(rng, 4, 3)
        x, _ = probe_points(model, 200, seed=6)
        back = model.counterfactual(model.counterfactual(x, 1, 3), 3, 1)
        np.testing.assert_allclose(back, x, atol=1e-9)

    def test_chain_rule(self, rng):
        model = random_model(rng, 5, 3)
        x, _ = probe_points(model, 100, seed=7)
        direct = model.counterfactual(x, 1, 3)
        via = model.counterfactual(model.counterfactual(x, 1, 2), 2, 3)
        np.testing.assert_allclose(via, direct, atol=1e-9)

    def test_direct_formula_on_linear_model(self, rng):
        # with g the identity dense layer, the counterfactual of f_1(eps) is f_2(eps)
        f1 = AffineSCM.from_matrix(np.tril(np.ones((4, 4))), np.zeros(4))
        f2 = AffineSCM.from_matrix(
            np.array([[1.0, 0, 0, 0], [2, 2, 0, 0], [1, 1, 1, 0], [1, 1, 1, 1]]),
            np.zeros(4),
        )
        model = ILDModel(
            LayerChain(4, (AffineDense(np.eye(4), np.zeros(4)),)), (f1, f2)
        )
        eps = rng.standard_normal((50, 4))
        np.testing.assert_allclose(
            model.counterfactual(f1.forward(eps), 1, 2), f2.forward(eps), atol=1e-10
        )


def three_step_counterfactual(model: ILDModel, x, d: int, d_prime: int):
    """Abduction, action and prediction through every layer and mechanism."""
    f_from, f_to = model.scms[d - 1], model.scms[d_prime - 1]
    return model.g.forward(f_to.forward(f_from.inverse(model.g.inverse(x))))


class TestSolveFreeCounterfactual:
    def test_matches_three_step_formula(self, rng):
        for _ in range(5):
            model = random_model(rng, 4, 3)
            x, _ = probe_points(model, 60, seed=int(rng.integers(1 << 30)))
            for d in range(1, 4):
                for d_prime in range(1, 4):
                    np.testing.assert_allclose(
                        model.counterfactual(x, d, d_prime),
                        three_step_counterfactual(model, x, d, d_prime),
                        rtol=1e-10, atol=1e-10,
                    )
                    row = model.counterfactual(x[0], d, d_prime)
                    assert row.shape == (4,)
                    np.testing.assert_allclose(
                        row, three_step_counterfactual(model, x[0], d, d_prime),
                        rtol=1e-10, atol=1e-10,
                    )

    def test_out_of_range_domain(self, rng):
        model = random_model(rng, 3, 2)
        x = rng.standard_normal((5, 3))
        for d, d_prime in ((0, 1), (1, 0), (3, 1), (1, 3), (-1, 2)):
            with pytest.raises(IndexError):
                model.counterfactual(x, d, d_prime)
        for d in (0, 3, -1):
            with pytest.raises(IndexError):
                model.counterfactuals(x, d)


class TestCounterfactuals:
    def test_each_slice_is_the_single_target_counterfactual(self, rng):
        m, nd = 4, 3
        for g in (random_model(rng, m, nd).g, mixed_chain(rng, m)):
            model = ILDModel(g, tuple(random_scm(rng, m) for _ in range(nd)))
            x, _ = probe_points(model, 60, seed=int(rng.integers(1 << 30)))
            for d in range(1, nd + 1):
                batch = model.counterfactuals(x, d)
                row = model.counterfactuals(x[0], d)
                assert batch.shape == (nd, len(x), m) and row.shape == (nd, m)
                for t in range(1, nd + 1):
                    np.testing.assert_array_equal(batch[t - 1], model.counterfactual(x, d, t))
                    np.testing.assert_array_equal(row[t - 1], model.counterfactual(x[0], d, t))

    def test_targets_select_slices_of_the_full_call(self, rng):
        m, nd = 3, 4
        model = random_model(rng, m, nd)
        x, _ = probe_points(model, 40, seed=int(rng.integers(1 << 30)))
        for d in range(1, nd + 1):
            full = model.counterfactuals(x, d)
            others = tuple(t for t in range(1, nd + 1) if t != d)
            for targets in (others, (d,), (nd, 1), ()):
                picked = model.counterfactuals(x, d, targets)
                assert picked.shape == (len(targets), len(x), m)
                for cf, t in zip(picked, targets):
                    np.testing.assert_array_equal(cf, full[t - 1])
            with pytest.raises(IndexError):
                model.counterfactuals(x, d, (nd + 1,))


class TestDcDistance:
    def test_reflexive(self, rng):
        model = random_model(rng, 4, 2)
        pts = probe_points(model, 100, seed=1)
        assert dc_distance(model, model, pts, seed=9) == 0.0

    def test_symmetric_same_seed(self, rng):
        a, b = random_model(rng, 4, 2), random_model(rng, 4, 2)
        pts = probe_points(a, 100, seed=2)
        assert dc_distance(a, b, pts, seed=11) == dc_distance(b, a, pts, seed=11)

    def test_triangle_inequality(self, rng):
        for trial in range(10):
            a, b, c = (random_model(rng, 3, 2) for _ in range(3))
            pts = probe_points(a, 60, seed=trial)
            dab = dc_distance(a, b, pts, seed=5)
            dbc = dc_distance(b, c, pts, seed=5)
            dac = dc_distance(a, c, pts, seed=5)
            assert dac <= dab + dbc + 1e-9

    def test_empty_data_rejected(self, rng):
        model = random_model(rng, 3, 2)
        with pytest.raises(ValueError):
            dc_distance(model, model, (np.zeros((0, 3)), np.zeros(0, dtype=int)), seed=0)


class TestEquivalenceChecks:
    def test_counterfactual_self(self, rng):
        model = random_model(rng, 4, 2)
        ok, dev = check_counterfactual_equiv(
            model, model, probe_points(model, 50, seed=3), tol=1e-12
        )
        assert ok and dev == 0.0

    def test_counterfactual_detects_bias_perturbation(self, rng):
        model = random_model(rng, 4, 2)
        f2 = model.scms[1]
        bumped = ILDModel(
            model.g, (model.scms[0], AffineSCM(f2.L, f2.S, f2.b + 0.1))
        )
        ok, dev = check_counterfactual_equiv(
            model, bumped, probe_points(model, 50, seed=4), tol=1e-8
        )
        assert not ok and dev > 1e-3

    def test_distribution_self(self, rng):
        model = random_model(rng, 4, 2)
        ok, _ = check_distribution_equiv(
            model, model, probe_points(model, 50, seed=5), tol=1e-12
        )
        assert ok

    @pytest.mark.parametrize("check", [check_counterfactual_equiv, check_distribution_equiv])
    def test_empty_probes_rejected(self, rng, check):
        model = random_model(rng, 3, 2)
        with pytest.raises(ValueError, match="points must be non-empty"):
            check(model, model, (np.zeros((0, 3)), np.zeros(0, dtype=int)), tol=1e-12)

    def test_distribution_detects_output_rotation(self, rng):
        model = random_model(rng, 4, 2)
        theta = 0.3
        R = np.eye(4)
        R[:2, :2] = [
            [math.cos(theta), -math.sin(theta)],
            [math.sin(theta), math.cos(theta)],
        ]
        rotated = ILDModel(
            LayerChain(4, model.g.layers + (AffineDense(R, np.zeros(4)),)), model.scms
        )
        ok, dev = check_distribution_equiv(
            model, rotated, probe_points(model, 50, seed=6), tol=1e-8
        )
        assert not ok and dev > 1e-3


class TestConstructEquivalent:
    def test_identity_transforms_change_nothing(self, rng):
        model = random_model(rng, 4, 2)
        ident = AffineSCM.identity(4)
        built = construct_equivalent(model, ident, ident)
        pts = probe_points(model, 50, seed=7)
        ok, _ = check_counterfactual_equiv(model, built, pts, tol=1e-10)
        assert ok
        for orig, new in zip(model.scms, built.scms):
            assert mechanisms_allclose(orig, new, tol=1e-12)

    def test_rebasing_makes_first_domain_identity(self, rng):
        model = random_model(rng, 4, 3)
        built = construct_equivalent(
            model, model.scms[0].invert(), AffineSCM.identity(4)
        )
        assert mechanisms_allclose(built.scms[0], AffineSCM.identity(4), tol=1e-10)
        ok, _ = check_counterfactual_equiv(
            model, built, probe_points(model, 100, seed=8), tol=1e-8
        )
        assert ok

    def test_rebasing_preserves_densities(self, rng):
        # h1 = f_1^{-1}, h2 = Id leaves the full data-generating map untouched
        model = random_model(rng, 4, 3)
        built = construct_equivalent(
            model, model.scms[0].invert(), AffineSCM.identity(4)
        )
        ok, _ = check_distribution_equiv(
            model, built, probe_points(model, 100, seed=12), tol=1e-8
        )
        assert ok

    def test_random_triangular_pair(self, rng):
        for trial in range(5):
            model = family_with_intervention(rng, 4, 3, (3, 4))
            h1, h2 = random_scm(rng, 4), random_scm(rng, 4)
            built = construct_equivalent(model, h1, h2)
            ok, dev = check_counterfactual_equiv(
                model, built, probe_points(model, 100, seed=trial), tol=1e-8
            )
            assert ok, dev
            assert (
                intervention_set(built.scms).size == intervention_set(model.scms).size
            )

    def test_size_can_grow_without_distribution_equivalence(self):
        # counterfactual equivalence alone does not pin the intervention size:
        # a non-identity h2 changes the noise distribution, and differing
        # biases then spread into descendant rows of the inverse mechanisms.
        m = 3
        f1 = AffineSCM.identity(m)
        bias = np.zeros(m)
        bias[1] = 0.8
        f2 = AffineSCM(np.zeros((m, m)), np.ones(m), bias)
        model = ILDModel(LayerChain(m), (f1, f2))
        L = np.zeros((m, m))
        L[2, 1] = -1.0  # h2 output row 3 = z2 + z3
        h2 = AffineSCM(L, np.ones(m), np.zeros(m))
        built = construct_equivalent(model, AffineSCM.identity(m), h2)
        ok, _ = check_counterfactual_equiv(
            model, built, (np.random.default_rng(0).normal(size=(50, m)), np.ones(50, dtype=int)), tol=1e-9
        )
        assert ok
        assert intervention_set(model.scms).indices == (2,)
        assert intervention_set(built.scms).indices == (2, 3)

    def test_wrong_dimension_raises(self, rng):
        model, wrong = random_model(rng, 4, 2), random_scm(rng, 3)
        with pytest.raises(DimensionMismatch):  # from the chain that h1^{-1} joins
            construct_equivalent(model, wrong, AffineSCM.identity(4))
        with pytest.raises(DimensionMismatch):  # from composing f_d with h2
            construct_equivalent(model, AffineSCM.identity(4), wrong)


class TestGroundTruthBoundTerm:
    def test_identical_mechanisms_give_zero(self, rng):
        f = random_scm(rng, 3)
        model = ILDModel(LayerChain(3), (f, f))
        assert ground_truth_bound_term(model) == 0.0

    def test_pure_bias_closed_form(self):
        m, c = 3, 0.7
        f1 = AffineSCM.identity(m)
        b = np.zeros(m)
        b[-1] = c
        f2 = AffineSCM(np.zeros((m, m)), np.ones(m), b)
        model = ILDModel(LayerChain(m), (f1, f2))
        assert ground_truth_bound_term(model) == pytest.approx(
            c**2, abs=1e-12
        )

    def test_matches_gaussian_closed_form(self, rng):
        model = random_model(rng, 4, 3)
        term = ground_truth_bound_term(model)

        k = intervention_set(model.scms).size
        lip = model.g.lipschitz_upper_bound()
        pairs = [
            (a, b)
            for a in range(model.num_domains)
            for b in range(model.num_domains)
            if a != b
        ]
        # per coordinate: difference is N(mu, sigma^2) per ordered pair,
        # so E[X^2] = mu^2 + sigma^2
        means = np.zeros(model.dim)
        for a, b in pairs:
            dF = model.scms[a].matrix - model.scms[b].matrix
            db = model.scms[a].b - model.scms[b].b
            means += (db**2 + np.sum(dF**2, axis=1)) / len(pairs)
        closed = k * lip**2 * means.max()
        assert term == pytest.approx(closed, rel=1e-12, abs=0.0)


class TestSampleArrays:
    def test_split_coercion_matches_pair(self, rng):
        a, b = random_model(rng, 3, 2), random_model(rng, 3, 2)
        x, d = probe_points(a, 10, seed=1)
        got = dc_distance(a, b, Split(x, d), seed=0)
        assert got > 0.0 and got == dc_distance(a, b, (x, d), seed=0)

    def test_list_rejected(self, rng):
        model = random_model(rng, 3, 2)
        x, _ = probe_points(model, 4, seed=1)
        with pytest.raises(ValueError, match=r"\(X, labels\) pair"):
            as_sample_arrays(list(x))
        with pytest.raises(ValueError):
            dc_distance(model, model, list(x), seed=0)

    def test_non_integral_labels_rejected(self, rng, tmp_path):
        x, _ = probe_points(random_model(rng, 3, 2), 2, seed=1)
        for make in (
            lambda d: as_sample_arrays((x, d)),
            lambda d: Split(x, d),
            lambda d: serialize.write_dataset_csv(tmp_path / "rows.csv", x, d),
        ):
            with pytest.raises(ValueError, match="labels must be integers, got 1.9"):
                make([1.9, 2.2])
            with pytest.raises(ValueError, match="labels must be integers, got nan"):
                make([np.nan, 2.0])
            with pytest.raises(ValueError, match="labels must be integers, got booleans"):
                make([True, True])
        assert not (tmp_path / "rows.csv").exists()
        _, labels = as_sample_arrays((x, np.array([2.0, 1.0])))
        assert labels.dtype == np.int_ and labels.tolist() == [2, 1]


# Row counts around the evaluation block size: one short of a block, exactly
# one, one over (a one-row tail) and two blocks plus one row.
BLOCK_EDGES = (_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1)


def reference_nll(model: ILDModel, X, labels) -> float:
    """Minus the mean of the per-row reference ``ILDModel.log_likelihood``."""
    ll = np.empty(len(X))
    for d in np.unique(labels):
        ll[labels == d] = model.log_likelihood(X[labels == d], int(d))
    return -float(np.mean(ll))


def row_major_walk(chain: LayerChain, x, inverse: bool) -> tuple[np.ndarray, list[np.ndarray]]:
    """``chain``'s stages walked row-major, with the formulas the package used
    before every pass ran as ``(m, rows)``: ``x @ G.T + b``, ``(y - b) @
    G_inv.T`` and the leaky ReLU.  Returns the result and each stage's output
    in walk order: the bytes ``LayerChain`` and the kernels must keep."""
    v, outputs = np.asarray(x, dtype=float), []
    for stage in chain.stages[::-1] if inverse else chain.stages:
        if isinstance(stage, LeakyRelu):
            v = stage.inverse(v) if inverse else stage.forward(v)
        elif inverse:
            v = (v - stage.b) @ stage.G_inv.T
        else:
            v = v @ stage.G.T + stage.b
        outputs.append(v)
    return v, outputs


def row_major_inverse_and_log_det(chain: LayerChain, y) -> tuple[np.ndarray, np.ndarray]:
    """``row_major_walk``'s inverse with per-row log-dets summed in forward order."""
    x, outputs = row_major_walk(chain, y, inverse=True)
    terms = []
    for stage, v in zip(chain.stages[::-1], outputs):
        terms.extend([stage.log_abs_det(v)] if isinstance(stage, LeakyRelu) else stage.log_dets[::-1])
    total = np.zeros(x.shape[:-1])
    for term in reversed(terms):
        total = total + term
    return x, total


def row_major_nll(model: ILDModel, X, labels) -> float:
    """``dataset_nll`` walked row-major (``row_major_walk``), in the kernel's
    blocks and summation order: the bytes the kernel must keep."""
    stages = model.g.stages[::-1]
    const_log_det = sum(sum(s.log_dets) for s in stages if not isinstance(s, LeakyRelu))
    sq_sum = log_det_sum = 0.0
    for rows, d in _label_runs(labels):
        f, Xd = model.scms[d - 1], X[rows]
        for lo, hi in _blocks(len(Xd)):
            v, outputs = row_major_walk(model.g, Xd[lo:hi], inverse=True)
            for stage, out in zip(stages, outputs):
                if isinstance(stage, LeakyRelu):
                    log_det_sum += int(np.count_nonzero(out < 0.0)) * math.log(stage.slope)
            eps = f.inverse(v)
            sq_sum += float(np.sum(np.square(eps, out=eps)))
        log_det_sum += len(Xd) * (const_log_det + f.log_abs_det())
    return (0.5 * sq_sum + log_det_sum) / len(X) + 0.5 * model.dim * LOG_TWO_PI


def multi_stage_model(gen: np.random.Generator, how: str) -> ILDModel:
    """A 4-dim, 3-domain model whose chain has several affine and leaky stages."""
    m, nd = 4, 3
    if how == "mixed":
        return ILDModel(mixed_chain(gen, m), tuple(random_scm(gen, m) for _ in range(nd)))
    if how == "equivalent":
        return construct_equivalent(random_model(gen, m, nd), random_scm(gen, m), random_scm(gen, m))
    canon, _, report = canonicalize(family_with_intervention(gen, m, nd, (1, 3)))
    assert report.swaps
    return canon


def sample_rows(model: ILDModel, n: int, seed: int, labels: str):
    if labels == "single":
        return model.sample(2, n, seed), np.full(n, 2)
    X, d = probe_points(model, n, seed)
    if labels == "shuffled":
        order = np.random.default_rng(seed).permutation(n)
        X, d = X[order], d[order]
    return X, d


class TestDatasetNllKernel:
    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(("mixed", "equivalent", "canonical")),
        st.sampled_from(("sorted", "shuffled", "single")),
        st.sampled_from((1, 2, 7) + BLOCK_EDGES),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_the_per_row_reference(self, how, labels, n, seed):
        gen = np.random.default_rng(seed)
        model = multi_stage_model(gen, how)
        X, d = sample_rows(model, n, int(gen.integers(1 << 30)), labels)
        got = dataset_nll(model, X, d)
        assert type(got) is float
        assert got == pytest.approx(reference_nll(model, X, d), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", BLOCK_EDGES)
    def test_block_edge_sizes_with_every_label_order(self, rng, n):
        model = multi_stage_model(rng, "canonical")
        for labels in ("sorted", "shuffled", "single"):
            X, d = sample_rows(model, n, 11, labels)
            assert dataset_nll(model, X, d) == pytest.approx(
                reference_nll(model, X, d), rel=1e-12, abs=0.0
            )

    def test_bad_input_rejected(self, rng):
        model = random_model(rng, 3, 2)
        X, d = probe_points(model, 10, seed=1)
        for label in (0, 3, -1):
            bad = d.copy()
            bad[4] = label
            with pytest.raises(IndexError, match="out of range"):
                dataset_nll(model, X, bad)
        with pytest.raises(DimensionMismatch):
            dataset_nll(model, X[:, :2], d)
        with pytest.raises(DimensionMismatch):
            dataset_nll(model, X, d[:-1])
        with pytest.raises(ValueError, match="non-empty"):
            dataset_nll(model, np.zeros((0, 3)), np.zeros(0, dtype=int))

    # float.hex of dataset_nll(multi_stage_model(default_rng(2401), how),
    # *sample_rows(model, n, 11, labels)) for n in BLOCK_EDGES, recorded from
    # the row-major kernel before blocks ran as (m, rows): histories and
    # checkpoint selection read these bits, so a last-bit drift fails here.
    GOLDEN = {
        ("mixed", "sorted"): (
            "0x1.00aa16cd3c2ffp+3", "0x1.00a28b9ec716cp+3",
            "0x1.00a788b0fef14p+3", "0x1.012f80c40d513p+3",
        ),
        ("mixed", "shuffled"): (
            "0x1.00aa16cd3c2fep+3", "0x1.00a28b9ec716cp+3",
            "0x1.00a788b0fef14p+3", "0x1.012f80c40d513p+3",
        ),
        ("equivalent", "sorted"): (
            "0x1.1b63a093be0cap+2", "0x1.1b5c6c4d78c88p+2",
            "0x1.1b5ea241dcb64p+2", "0x1.1acc2decbd299p+2",
        ),
        ("equivalent", "shuffled"): (
            "0x1.1b63a093be0cap+2", "0x1.1b5c6c4d78c88p+2",
            "0x1.1b5ea241dcb64p+2", "0x1.1acc2decbd299p+2",
        ),
        ("canonical", "sorted"): (
            "0x1.0718508884742p+2", "0x1.070ae2fbe70ddp+2",
            "0x1.0710731d2fa99p+2", "0x1.073287c7f3350p+2",
        ),
        ("canonical", "shuffled"): (
            "0x1.0718508884742p+2", "0x1.070ae2fbe70ddp+2",
            "0x1.0710731d2fa99p+2", "0x1.073287c7f3350p+2",
        ),
    }

    @pytest.mark.parametrize("how, labels", sorted(GOLDEN))
    def test_pinned_bits(self, how, labels):
        for n, expected in zip(BLOCK_EDGES, self.GOLDEN[how, labels]):
            model = multi_stage_model(np.random.default_rng(2401), how)
            X, d = sample_rows(model, n, 11, labels)
            assert dataset_nll(model, X, d).hex() == expected
            assert row_major_nll(model, X, d).hex() == expected


class TestBlockedCounterfactuals:
    """Blocked counterfactuals equal the unblocked formula bit for bit."""

    @staticmethod
    def unblocked(model: ILDModel, x, d: int, t: int) -> np.ndarray:
        A, c = model._latent_map(d, t)
        z = row_major_walk(model.g, x, inverse=True)[0]
        return row_major_walk(model.g, z @ A.T + c, inverse=False)[0]

    @pytest.mark.parametrize("how", ["mixed", "equivalent", "canonical"])
    def test_bytes_equal_the_full_batch_formula(self, rng, how):
        model = multi_stage_model(rng, how)
        nd = model.num_domains
        X = model.sample(1, BLOCK_EDGES[-1], seed=3)
        for n in (1, 2) + BLOCK_EDGES:
            x = X[:n]
            for d in range(1, nd + 1):
                expected = [self.unblocked(model, x, d, t) for t in range(1, nd + 1)]
                got = model.counterfactuals(x, d)
                picked = model.counterfactuals(x, d, (nd, 1))
                for t in range(1, nd + 1):
                    assert model.counterfactual(x, d, t).tobytes() == expected[t - 1].tobytes()
                    assert got[t - 1].tobytes() == expected[t - 1].tobytes()
                assert picked[0].tobytes() == expected[nd - 1].tobytes()
                assert picked[1].tobytes() == expected[0].tobytes()

    def test_single_vector_is_a_batch_of_one(self, rng):
        model = multi_stage_model(rng, "equivalent")
        for x in model.sample(2, 20, seed=4):
            for t in (1, 3):
                cf = model.counterfactual(x, 2, t)
                assert cf.shape == (4,)
                assert cf.tobytes() == self.unblocked(model, x, 2, t).tobytes()
            assert model.counterfactuals(x, 2).shape == (3, 4)


class TestKernelsNeverWriteTheirInput:
    """Read-only inputs in any memory layout give the row-major bytes.

    The kernels and the chain passes transpose rows to ``(m, rows)`` and work
    in place on their own arrays; a transpose that came back as a view of the
    caller's rows would be written through, which a read-only input turns into
    an error.
    """

    LAYOUTS = {
        "C": np.copy,
        "Fortran": np.asfortranarray,
        "strided": lambda X: np.repeat(X, 2, axis=0)[::2],
    }

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("m", [1, 4])
    @pytest.mark.parametrize("n", [1, 2, 7, 2 * _BLOCK_ROWS + 1])
    def test_read_only_input_gives_row_major_bytes(self, rng, layout, m, n):
        model = random_model(rng, 1, 3) if m == 1 else multi_stage_model(rng, "equivalent")
        X, d = probe_points(model, n, seed=5)
        frozen = self.LAYOUTS[layout](X)
        frozen.setflags(write=False)
        assert dataset_nll(model, frozen, d).hex() == row_major_nll(model, X, d).hex()
        for source in (1, 3):
            expected = [TestBlockedCounterfactuals.unblocked(model, X, source, t) for t in (1, 2, 3)]
            assert model.counterfactuals(frozen, source).tobytes() == np.stack(expected).tobytes()
            assert model.counterfactual(frozen, source, 2).tobytes() == expected[1].tobytes()
        assert model.counterfactual(frozen[0], 2, 1).tobytes() == (
            TestBlockedCounterfactuals.unblocked(model, X[0], 2, 1).tobytes()
        )
        for x, rows in ((frozen, X), (frozen[0], X[0])):
            assert model.g.forward(x).tobytes() == row_major_walk(model.g, rows, False)[0].tobytes()
            assert model.g.inverse(x).tobytes() == row_major_walk(model.g, rows, True)[0].tobytes()
            z, log_det = model.g.inverse_and_log_det(x)
            z_ref, log_det_ref = row_major_inverse_and_log_det(model.g, rows)
            assert z.tobytes() == z_ref.tobytes()
            assert np.asarray(log_det).tobytes() == log_det_ref.tobytes()
