import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domcf import (
    AffineDense,
    AffineSCM,
    DimensionMismatch,
    LayerChain,
    LeakyRelu,
    Permute,
)
from domcf import mixing
from domcf.mixing import _invertible_slogdet
from domcf.train import Adam, TrainConfig, TrainableILD, _KinkSearch
from conftest import kink_distance, random_chain, random_dense_layer, random_scm


class TestForward:
    def test_empty_chain_is_identity(self):
        chain = LayerChain(2)
        np.testing.assert_array_equal(chain.forward([1.0, 2.0]), [1, 2])

    def test_leaky_slope_half(self):
        chain = LayerChain(2, (LeakyRelu(0.5),))
        np.testing.assert_array_equal(chain.forward([-2.0, 4.0]), [-1, 4])

    def test_matches_direct_formula(self, rng):
        m = 4
        dense = random_dense_layer(rng, m)
        chain = LayerChain(m, (LeakyRelu(0.5), dense))
        x = rng.standard_normal(m)
        direct = dense.G @ np.where(x >= 0, x, 0.5 * x) + dense.b
        np.testing.assert_allclose(chain.forward(x), direct, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            LayerChain(3).forward(np.ones(2))


class TestInverse:
    def test_empty_chain(self):
        np.testing.assert_array_equal(LayerChain(2).inverse([3.0, 4.0]), [3, 4])

    def test_leaky_inverse(self):
        chain = LayerChain(2, (LeakyRelu(0.5),))
        np.testing.assert_array_equal(chain.inverse([-1.0, 4.0]), [-2, 4])

    def test_round_trip_many(self, rng):
        for _ in range(100):
            chain = random_chain(rng, 4)
            x = rng.standard_normal(4)
            np.testing.assert_allclose(chain.inverse(chain.forward(x)), x, atol=1e-10)


def numerical_jacobian(fn, x, h=1e-6):
    m = len(x)
    J = np.zeros((m, m))
    for j in range(m):
        e = np.zeros(m)
        e[j] = h
        J[:, j] = (fn(x + e) - fn(x - e)) / (2 * h)
    return J


class TestLogAbsDet:
    """The log-det half of ``inverse_and_log_det``: forward log-det at ``g^{-1}(y)``."""

    def test_empty_chain(self):
        assert LayerChain(2).inverse_and_log_det([1.0, 2.0])[1] == 0.0

    def test_leaky_counts_negatives(self):
        chain = LayerChain(3, (LeakyRelu(0.5),))
        assert chain.inverse_and_log_det([-1.0, -2.0, 3.0])[1] == pytest.approx(
            2 * np.log(0.5)
        )

    def test_matches_numerical_jacobian(self, rng):
        checked = 0
        while checked < 10:
            chain = random_chain(rng, 4)
            y = rng.standard_normal(4)
            x = chain.inverse(y)
            if kink_distance(chain, x) <= 1e-3:
                continue
            J = numerical_jacobian(chain.forward, x)
            _, logdet = np.linalg.slogdet(J)
            assert chain.inverse_and_log_det(y)[1] == pytest.approx(logdet, abs=1e-5)
            checked += 1


class TestInverseAndLogDet:
    def test_inverse_half_is_inverse(self, rng):
        for _ in range(20):
            chain = random_chain(rng, 4)
            for y in (rng.standard_normal(4), rng.standard_normal((7, 4))):
                np.testing.assert_array_equal(chain.inverse_and_log_det(y)[0], chain.inverse(y))

    def test_batch_matches_rows(self, rng):
        chain = random_chain(rng, 4)
        y = rng.standard_normal((9, 4))
        _, batch = chain.inverse_and_log_det(y)
        assert batch.shape == (9,)
        np.testing.assert_array_equal(batch, [chain.inverse_and_log_det(r)[1] for r in y])

    def test_single_input_gives_float(self, rng):
        _, logdet = random_chain(rng, 3).inverse_and_log_det(rng.standard_normal(3))
        assert isinstance(logdet, float)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            LayerChain(3).inverse_and_log_det(np.ones(2))


def relative_error(got, want) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


class TestCachedDenseInverse:
    def test_inverse_matches_solve(self, rng):
        for m in (1, 3, 6):
            layer = random_dense_layer(rng, m)
            y = rng.standard_normal((50, m))
            want = np.linalg.solve(layer.G, (y - layer.b).T).T
            assert relative_error(layer.inverse(y), want) <= 1e-12
            row_want = np.linalg.solve(layer.G, y[0] - layer.b)
            assert layer.inverse(y[0]).shape == (m,)
            assert relative_error(layer.inverse(y[0]), row_want) <= 1e-12

    def test_invert_is_lu_inverse(self, rng):
        layer = random_dense_layer(rng, 5)
        # Stored in Fortran order, as the layer stores it: the product below
        # takes a different BLAS path, and may round differently, per layout.
        G_inv = np.asfortranarray(np.linalg.inv(layer.G))
        for y in (rng.standard_normal((50, 5)), rng.standard_normal(5)):
            assert layer.inverse(y).tobytes() == ((y - layer.b) @ G_inv.T).tobytes()


class TestAppend:
    def test_append_right_is_input_side(self, rng):
        chain = random_chain(rng, 4)
        scm = random_scm(rng, 4)
        extended = chain.append_right(scm)
        eps = rng.standard_normal(4)
        np.testing.assert_allclose(
            extended.forward(eps), chain.forward(scm.forward(eps)), atol=1e-12
        )

    def test_swap_layer_reorders_dense_columns(self, rng):
        # right-composing a single dense layer with a coordinate swap acts on columns
        m = 4
        dense = random_dense_layer(rng, m)
        chain = LayerChain(m, (dense,))
        swapped = chain.append_right(Permute.swap(m, 3, 4))
        G_cols = dense.G[:, [0, 1, 3, 2]]
        x = rng.standard_normal(m)
        np.testing.assert_allclose(swapped.forward(x), G_cols @ x + dense.b, atol=1e-12)

    def test_layer_then_inverse_cancels(self, rng):
        chain = random_chain(rng, 4)
        layer = random_dense_layer(rng, 4)
        inverse = AffineDense(np.linalg.inv(layer.G), -np.linalg.solve(layer.G, layer.b))
        doubled = chain.append_right(inverse).append_right(layer)
        x = rng.standard_normal(4)
        np.testing.assert_allclose(doubled.forward(x), chain.forward(x), atol=1e-12)


class TestPermutationCommutation:
    def test_leaky_commutes_with_permute(self, rng):
        m = 5
        perm = Permute(tuple(rng.permutation(m) + 1))
        leaky = LeakyRelu(0.5)
        a = LayerChain(m, (leaky, perm))
        b = LayerChain(m, (perm, leaky))
        x = rng.standard_normal(m)
        np.testing.assert_array_equal(a.forward(x), b.forward(x))


class TestLipschitz:
    def test_empty_chain(self):
        assert LayerChain(3).lipschitz_upper_bound() == 1.0

    def test_scalar_matrix(self):
        chain = LayerChain(2, (AffineDense(2 * np.eye(2), np.zeros(2)),))
        assert chain.lipschitz_upper_bound() == pytest.approx(2.0, abs=1e-9)

    def test_bound_dominates_sampled_ratios(self, rng):
        chain = random_chain(rng, 4)
        bound = chain.lipschitz_upper_bound()
        a = rng.standard_normal((10_000, 4))
        b = rng.standard_normal((10_000, 4))
        num = np.linalg.norm(chain.forward(a) - chain.forward(b), axis=1)
        den = np.linalg.norm(a - b, axis=1)
        assert np.all(num <= bound * den * (1 + 1e-12))

    def test_bound_reaches_top_singular_direction(self, rng):
        # A near-tie at the top of the spectrum (1 vs 0.9999), where an
        # iterative estimate stops short of the norm.
        Q1, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        Q2, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        A = Q1 @ np.diag([1.0, 0.9999, 0.5, 0.1]) @ Q2
        chain = LayerChain(4, (AffineDense(A, np.zeros(4)),))
        v1 = np.linalg.svd(A)[2][0]
        assert chain.lipschitz_upper_bound() >= np.linalg.norm(A @ v1) * (1 - 1e-12)


class TestMechanismLayer:
    def test_chain_of_one_mechanism_is_the_mechanism(self, rng):
        for _ in range(10):
            f = random_scm(rng, 5)
            chain = LayerChain(5, (f,))
            x = rng.standard_normal((50, 5))
            for v in (x, x[0]):
                assert np.array_equal(chain.forward(v), f.forward(v))
                assert np.array_equal(chain.inverse(v), f.inverse(v))
            assert chain.inverse_and_log_det(x[0])[1] == f.log_abs_det(x[0]) == f.log_abs_det()
            assert chain.lipschitz_upper_bound() == np.linalg.norm(f.matrix, 2)


class TestValidation:
    def test_singular_dense_rejected(self):
        with pytest.raises(ValueError):
            AffineDense(np.zeros((2, 2)), np.zeros(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_dense_rejected(self, bad):
        G = np.eye(2)
        G[0, 1] = bad
        with pytest.raises(ValueError):
            AffineDense(G, np.zeros(2))
        with pytest.raises(ValueError):
            AffineDense(np.eye(2), [0.0, bad])

    def test_bad_permutation_rejected(self):
        with pytest.raises(ValueError):
            Permute((1, 1, 3))
        with pytest.raises(ValueError, match="2.7"):  # not truncated to (2, 1, 3)
            Permute((2.7, 1, 3))
        assert Permute((np.int64(2), 1.0, 3)).pi == (2, 1, 3)

    def test_nonpositive_slope_rejected(self):
        with pytest.raises(ValueError):
            LeakyRelu(0.0)

    @pytest.mark.parametrize(
        "slope", [np.inf, np.nan, 5e-324, pytest.param(np.float64(5e-324), id="numpy-5e-324")]
    )
    def test_slope_and_its_reciprocal_must_be_finite(self, slope):
        with pytest.raises(ValueError, match="finite reciprocal"):
            LeakyRelu(slope)

    def test_layer_dim_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            LayerChain(3, (random_dense_layer(rng, 4),))


class TestInvertibility:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_bound_is_an_absolute_determinant_of_1e_minus_12(self):
        assert _invertible_slogdet(np.diag([1e-12, 1.0])) is None
        assert _invertible_slogdet(np.zeros((2, 2))) is None
        assert _invertible_slogdet(np.full((2, 2), np.nan)) is None
        sign, logabsdet = _invertible_slogdet(np.diag([-2e-12, 1.0]))
        assert (sign, logabsdet) == (-1.0, np.log(2e-12))

    def test_one_bound_serves_layers_steps_and_the_kink_search(self, monkeypatch):
        gen = np.random.default_rng(0)
        X, labels = gen.standard_normal((200, 2)), np.repeat([1, 2], 100)
        work = TrainableILD.initialize(2, 2, "dense", seed=0)
        search = _KinkSearch(X, labels, 2, TrainConfig(seed=0))
        assert not np.array_equal(search._best_row(work.copy(), 0)[0], work.params.W[0])

        monkeypatch.setattr(mixing, "_MIN_ABS_DET", 1e300)  # nothing counts as invertible
        with pytest.raises(ValueError, match="singular"):
            AffineDense(np.eye(2), np.zeros(2))
        with pytest.raises(RuntimeError, match="60 step halvings"):
            Adam(TrainConfig()).step(work.params, work.params.zeros_like())
        search = _KinkSearch(X, labels, 2, TrainConfig(seed=0))
        row, c = search._best_row(work, 0)
        assert np.array_equal(row, work.params.W[0]) and c == work.params.c[0]


class TestLeakyRelu:
    SPECIAL = [0.0, -0.0, 1.5, -1.5, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf, np.nan]

    @pytest.mark.parametrize("slope", [0.5, 2.0, 0.3, 1.0, 1.7])
    def test_matches_two_branch_form_bitwise(self, slope):
        x = np.concatenate([self.SPECIAL, np.random.default_rng(3).standard_normal(199)])
        layer = LeakyRelu(slope)
        with np.errstate(over="ignore"):
            want_fwd = np.where(x >= 0.0, x, slope * x)
            want_inv = np.where(x >= 0.0, x, x / slope)
            for shape in (x.shape, (len(x) // 3, 3)):
                got = (layer.forward(x.reshape(shape)), layer.inverse(x.reshape(shape)))
                assert got[0].tobytes() == want_fwd.tobytes()
                assert got[1].tobytes() == want_inv.tobytes()
            for i, v in enumerate(x):
                got = (layer.forward(v), layer.inverse(v))
                assert np.ndim(got[0]) == 0 and np.ndim(got[1]) == 0
                assert got[0].tobytes() == want_fwd[i].tobytes()
                assert got[1].tobytes() == want_inv[i].tobytes()


def layerwise_inverse_and_log_det(chain: LayerChain, y):
    """Per-layer reference: invert layer by layer, log-dets summed in forward order."""
    v = np.asarray(y, dtype=float)
    terms = []
    for layer in reversed(chain.layers):
        v = layer.inverse(v)
        terms.append(layer.log_abs_det(v))
    total = 0.0 if v.ndim == 1 else np.zeros(v.shape[0])
    for term in reversed(terms):
        total = total + term
    return v, total


def layerwise_forward(chain: LayerChain, x):
    v = np.asarray(x, dtype=float)
    for layer in chain.layers:
        v = layer.forward(v)
    return v


LAYER_KINDS = ("permute", "triangular", "dense", "leaky_half", "leaky_two")


def build_layer(kind: str, gen: np.random.Generator, m: int):
    if kind == "permute":
        return Permute(tuple(gen.permutation(m) + 1))
    if kind == "triangular":
        return random_scm(gen, m)
    if kind == "dense":
        return random_dense_layer(gen, m)
    return LeakyRelu(0.5 if kind == "leaky_half" else 2.0)


class TestStages:
    def test_leaky_then_dense_run_gives_two_stages(self, rng):
        leaky = LeakyRelu(0.5)
        chain = LayerChain(3, (leaky, random_dense_layer(rng, 3), random_dense_layer(rng, 3)))
        assert len(chain.stages) == 2
        assert chain.stages[0] is leaky

    def test_all_affine_chain_gives_one_stage(self, rng):
        layers = (Permute((2, 3, 1)), random_scm(rng, 3), random_dense_layer(rng, 3))
        chain = LayerChain(3, layers)
        assert len(chain.stages) == 1
        x = rng.standard_normal((5, 3))
        np.testing.assert_allclose(chain.forward(x), layerwise_forward(chain, x), rtol=1e-12)

    def test_empty_chain_has_no_stages(self):
        assert LayerChain(2).stages == ()

    def test_stages_are_cached(self, rng):
        chain = random_chain(rng, 3)
        assert chain.stages is chain.stages


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.lists(st.sampled_from(LAYER_KINDS), min_size=1, max_size=8),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_stages_match_layerwise_reference(m, kinds, seed):
    gen = np.random.default_rng(seed)
    chain = LayerChain(m, tuple(build_layer(kind, gen, m) for kind in kinds))
    x = gen.standard_normal((20, m))
    y = layerwise_forward(chain, x)
    assert relative_error(chain.forward(x), y) <= 1e-12
    assert relative_error(chain.inverse(y), x) <= 1e-12
    z, log_det = chain.inverse_and_log_det(y)
    z_ref, log_det_ref = layerwise_inverse_and_log_det(chain, y)
    assert relative_error(z, z_ref) <= 1e-12
    np.testing.assert_allclose(log_det, log_det_ref, rtol=1e-12, atol=1e-12)
    for row in (0, 1):
        z1, log_det1 = chain.inverse_and_log_det(y[row])
        np.testing.assert_allclose(z1, z_ref[row], rtol=1e-12, atol=1e-12)
        assert log_det1 == pytest.approx(log_det_ref[row], rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
def test_chain_round_trip_property(m, seed):
    gen = np.random.default_rng(seed)
    chain = random_chain(gen, m)
    x = gen.standard_normal(m)
    np.testing.assert_allclose(chain.inverse(chain.forward(x)), x, atol=1e-10)
    np.testing.assert_allclose(chain.forward(chain.inverse(x)), x, atol=1e-10)
