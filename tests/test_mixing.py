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
    Triangular,
    spectral_norm,
)
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

    def test_inverse_chain_cancels(self, rng):
        for _ in range(10):
            chain = random_chain(rng, 5)
            y = rng.standard_normal(5)
            x = chain.inverse(y)
            total = chain.inverse_and_log_det(y)[1] + chain.invert().inverse_and_log_det(x)[1]
            assert total == pytest.approx(0.0, abs=1e-9)


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


class TestAppend:
    def test_append_right_is_input_side(self, rng):
        chain = random_chain(rng, 4)
        scm = random_scm(rng, 4)
        extended = chain.append_right(Triangular(scm))
        eps = rng.standard_normal(4)
        np.testing.assert_allclose(
            extended.forward(eps), chain.forward(scm.forward(eps)), atol=1e-12
        )

    def test_append_is_output_side(self, rng):
        chain = random_chain(rng, 4)
        layer = random_dense_layer(rng, 4)
        extended = chain.append(layer)
        x = rng.standard_normal(4)
        np.testing.assert_allclose(
            extended.forward(x), layer.forward(chain.forward(x)), atol=1e-12
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
        doubled = chain.append_right(layer.invert()).append_right(layer)
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

    def test_spectral_norm_matches_svd(self, rng):
        for _ in range(10):
            A = rng.standard_normal((5, 5))
            assert spectral_norm(A) == pytest.approx(
                np.linalg.norm(A, 2), rel=1e-8
            )


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

    def test_nonpositive_slope_rejected(self):
        with pytest.raises(ValueError):
            LeakyRelu(0.0)

    def test_layer_dim_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            LayerChain(3, (random_dense_layer(rng, 4),))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
def test_chain_round_trip_property(m, seed):
    gen = np.random.default_rng(seed)
    chain = random_chain(gen, m)
    x = gen.standard_normal(m)
    np.testing.assert_allclose(chain.inverse(chain.forward(x)), x, atol=1e-10)
    np.testing.assert_allclose(chain.forward(chain.inverse(x)), x, atol=1e-10)
