from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domcf import (
    AffineSCM,
    DimensionMismatch,
    NonPositiveDiagonal,
    NotLowerTriangular,
    compose,
    intervention_set,
)
from domcf.scm import _family, _family_from_inverse, _stack, _stacked_intervention_set
from conftest import from_inverse_one_at_a_time, mechanisms_allclose, random_scm

ALL_ONES_4 = np.tril(np.ones((4, 4)))
DEMO_F2 = np.array(
    [[1.0, 0, 0, 0], [2, 2, 0, 0], [1, 1, 1, 0], [1, 1, 1, 1]]
)


def demo_pair():
    f1 = AffineSCM.from_matrix(ALL_ONES_4, np.zeros(4))
    f2 = AffineSCM.from_matrix(DEMO_F2, np.zeros(4))
    return f1, f2


class TestForward:
    def test_identity(self):
        f = AffineSCM.identity(2)
        np.testing.assert_array_equal(f.forward([0.3, -1.2]), [0.3, -1.2])

    def test_all_ones_matrix_gives_cumulative_sums(self):
        f1, _ = demo_pair()
        np.testing.assert_allclose(f1.forward(np.ones(4)), [1, 2, 3, 4], atol=1e-14)

    def test_batch_matches_loop(self, rng):
        f = random_scm(rng, 5)
        pts = rng.standard_normal((7, 5))
        batch = f.forward(pts)
        for i, p in enumerate(pts):
            np.testing.assert_allclose(batch[i], f.forward(p), atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            AffineSCM.identity(3).forward(np.ones(4))


class TestInverse:
    def test_identity(self):
        np.testing.assert_array_equal(AffineSCM.identity(2).inverse([2.0, 5.0]), [2, 5])

    def test_symbolic_inversion(self):
        # eps_2 = (z_2 - 2 z_1) / 2 and eps_3 = z_3 - z_2 / 2 for the demo matrix
        _, f2 = demo_pair()
        eps = f2.inverse(np.array([1.0, 2.0, 3.0, 4.0]))
        assert eps[1] == pytest.approx((2 - 2 * 1) / 2, abs=1e-14)
        assert eps[2] == pytest.approx(3 - 0.5 * 2, abs=1e-14)

    def test_round_trip_many(self, rng):
        for _ in range(100):
            f = random_scm(rng, 5)
            eps = rng.standard_normal(5)
            np.testing.assert_allclose(f.inverse(f.forward(eps)), eps, atol=1e-12)


class TestLogAbsDet:
    def test_identity_is_zero(self):
        assert AffineSCM.identity(3).log_abs_det() == 0.0

    def test_reciprocal_scales_cancel(self, rng):
        L = np.tril(rng.standard_normal((2, 2)), k=-1)
        f = AffineSCM(L, np.array([2.0, 0.5]), rng.standard_normal(2))
        assert f.log_abs_det() == pytest.approx(0.0, abs=1e-15)

    def test_matches_dense_lu_oracle(self, rng):
        for _ in range(10):
            f = random_scm(rng, 6)
            _, logdet = np.linalg.slogdet(f.matrix)
            assert f.log_abs_det() == pytest.approx(logdet, abs=1e-10)


    def test_chain_layer_argument_is_ignored(self, rng):
        f = random_scm(rng, 5)
        for x in (None, rng.standard_normal(5), rng.standard_normal((7, 5))):
            assert f.log_abs_det(x) == f.log_abs_det()


class TestLipschitzBound:
    def test_is_the_spectral_norm_and_bounds_every_pair(self, rng):
        for _ in range(10):
            f = random_scm(rng, 5)
            bound = f.lipschitz_bound()
            assert bound == pytest.approx(np.linalg.svd(f.matrix, compute_uv=False)[0], rel=1e-12)
            x, y = rng.standard_normal((2, 200, 5))
            growth = np.linalg.norm(f.forward(x) - f.forward(y), axis=1)
            assert np.all(growth <= bound * np.linalg.norm(x - y, axis=1) * (1 + 1e-12))

    def test_identity_is_one(self):
        assert AffineSCM.identity(4).lipschitz_bound() == pytest.approx(1.0, rel=1e-15)


class TestCompose:
    def test_identity_neutral(self, rng):
        f = random_scm(rng, 4)
        ident = AffineSCM.identity(4)
        assert mechanisms_allclose(compose(ident, f), f, tol=1e-12)
        assert mechanisms_allclose(compose(f, ident), f, tol=1e-12)

    def test_demo_rebased_second_mechanism(self):
        f1, f2 = demo_pair()
        rebased = compose(f1.invert(), f2)
        expected = np.array(
            [[1.0, 0, 0, 0], [1, 2, 0, 0], [-1, -1, 1, 0], [0, 0, 0, 1]]
        )
        np.testing.assert_allclose(rebased.matrix, expected, atol=1e-12)

    def test_demo_restore_step(self):
        f1, _ = demo_pair()
        mid = AffineSCM.from_matrix(
            np.array([[1.0, 0, 0, 0], [0, 1, 0, 0], [1, 0, 2, 0], [-1, 0, -1, 1]]),
            np.zeros(4),
        )
        restored = compose(f1, mid)
        expected = np.array(
            [[1.0, 0, 0, 0], [1, 1, 0, 0], [2, 1, 2, 0], [1, 1, 1, 1]]
        )
        np.testing.assert_allclose(restored.matrix, expected, atol=1e-12)

    def test_matches_nested_evaluation(self, rng):
        for _ in range(10):
            outer, inner = random_scm(rng, 5), random_scm(rng, 5)
            eps = rng.standard_normal((20, 5))
            np.testing.assert_allclose(
                compose(outer, inner).forward(eps),
                outer.forward(inner.forward(eps)),
                rtol=0.0, atol=1e-12,
            )

    def test_associative(self, rng):
        for _ in range(10):
            a, b, c = (random_scm(rng, 5) for _ in range(3))
            left = compose(compose(a, b), c)
            right = compose(a, compose(b, c))
            assert mechanisms_allclose(left, right, tol=1e-10)

    def test_log_det_additive(self, rng):
        for _ in range(10):
            a, b = random_scm(rng, 5), random_scm(rng, 5)
            assert compose(a, b).log_abs_det() == pytest.approx(
                a.log_abs_det() + b.log_abs_det(), abs=1e-10
            )


class TestInvert:
    def test_identity(self):
        assert mechanisms_allclose(AffineSCM.identity(3).invert(), AffineSCM.identity(3))

    def test_all_ones_inverse_is_bidiagonal(self):
        f1, _ = demo_pair()
        expected = np.array(
            [[1.0, 0, 0, 0], [-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1]]
        )
        np.testing.assert_allclose(f1.invert().matrix, expected, atol=1e-12)

    def test_compose_with_inverse_is_identity(self, rng):
        f = random_scm(rng, 6)
        assert mechanisms_allclose(compose(f.invert(), f), AffineSCM.identity(6), tol=1e-12)

    def test_involution(self, rng):
        for _ in range(10):
            f = random_scm(rng, 5)
            assert mechanisms_allclose(f.invert().invert(), f, tol=1e-12)


class TestCachedMatrices:
    def test_computed_once_and_read_only(self, rng):
        f = random_scm(rng, 5)
        for name in ("matrix", "inverse_matrix"):
            M = getattr(f, name)
            assert getattr(f, name) is M and not M.flags.writeable

    @pytest.mark.parametrize("m", range(1, 11))
    def test_matrix_is_exactly_triangular_with_diagonal_s(self, rng, m):
        f = random_scm(rng, m, spread=1.5)
        F = f.matrix
        assert F.flags.f_contiguous  # the fast layout for ``eps @ F.T``
        assert np.array_equal(np.triu(F, k=1), np.zeros((m, m)))
        assert np.array_equal(np.diag(F), f.S)
        residual = (np.eye(m) - f.L) @ F - np.diag(f.S)
        assert np.abs(residual).max() <= 1e-12 * np.abs(F).max()

    def test_from_inverse_round_trips(self, rng):
        f = random_scm(rng, 6)
        assert mechanisms_allclose(AffineSCM.from_inverse(f.inverse_matrix, f.b), f, tol=1e-12)


class TestFromMatrix:
    def test_identity(self):
        f = AffineSCM.from_matrix(np.eye(3), np.zeros(3))
        assert mechanisms_allclose(f, AffineSCM.identity(3))

    def test_demo_factorization(self, rng):
        f2 = AffineSCM.from_matrix(DEMO_F2, np.zeros(4))
        np.testing.assert_allclose(f2.S, [1, 2, 1, 1], atol=1e-14)
        eps = rng.standard_normal(4)
        np.testing.assert_allclose(f2.forward(eps), DEMO_F2 @ eps, atol=1e-12)

    def test_upper_entry_rejected(self):
        A = np.eye(3)
        A[0, 1] = 0.5
        with pytest.raises(NotLowerTriangular):
            AffineSCM.from_matrix(A, np.zeros(3))

    def test_nonpositive_diagonal_rejected(self):
        A = np.eye(3)
        A[1, 1] = -2.0
        with pytest.raises(NonPositiveDiagonal):
            AffineSCM.from_matrix(A, np.zeros(3))


class TestNonFiniteRejected:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_scale(self, bad):
        with pytest.raises(ValueError):
            AffineSCM(np.zeros((2, 2)), [bad, 1.0], [0.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_bias(self, bad):
        with pytest.raises(ValueError):
            AffineSCM(np.zeros((2, 2)), [1.0, 1.0], [0.0, bad])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_dependency_entry(self, bad):
        L = np.zeros((2, 2))
        L[1, 0] = bad
        with pytest.raises(ValueError):
            AffineSCM(L, [1.0, 1.0], [0.0, 0.0])

    def test_from_matrix_nan_diagonal(self):
        A = np.eye(3)
        A[2, 2] = np.nan
        with pytest.raises(ValueError):
            AffineSCM.from_matrix(A, np.zeros(3))


def brute_force_intervention(scms, n_points: int, seed: int, tol: float = 1e-6):
    """Pointwise oracle: compare inverse maps coordinatewise on random points."""
    gen = np.random.default_rng(seed)
    m = scms[0].dim
    pts = gen.normal(0.0, 3.0, size=(n_points, m))
    hit = np.zeros(m, dtype=bool)
    for a in range(len(scms)):
        for b in range(a + 1, len(scms)):
            dev = np.abs(scms[a].inverse(pts) - scms[b].inverse(pts)).max(axis=0)
            hit |= dev > tol
    return tuple(int(j) + 1 for j in np.nonzero(hit)[0])


class TestInterventionSet:
    def test_demo_pair_detects_inverse_rows(self):
        # forward matrices differ only in row 2, inverse rows differ at 2 and 3
        f1, f2 = demo_pair()
        assert intervention_set([f1, f2]).indices == (2, 3)

    def test_identical_pair_is_empty(self, rng):
        f = random_scm(rng, 4)
        assert intervention_set([f, f]).indices == ()

    def test_matches_pointwise_oracle(self, rng):
        for _ in range(10):
            base = random_scm(rng, 4)
            family = [base]
            for _ in range(2):
                other = random_scm(rng, 4)
                # share a random subset of rows with the base so the set is nontrivial
                keep = rng.random(4) < 0.5
                L = other.L.copy()
                L[keep] = base.L[keep]
                S = other.S.copy()
                S[keep] = base.S[keep]
                b = other.b.copy()
                b[keep] = base.b[keep]
                family.append(AffineSCM(L, S, b))
            assert intervention_set(family).indices == brute_force_intervention(
                family, 1000, 99
            )

    def test_symmetric_in_arguments(self, rng):
        family = [random_scm(rng, 5) for _ in range(3)]
        forward = intervention_set(family)
        shuffled = intervention_set(family[::-1])
        assert forward.indices == shuffled.indices

    def test_needs_two(self, rng):
        with pytest.raises(ValueError):
            intervention_set([random_scm(rng, 3)])

    def test_dim_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            intervention_set([random_scm(rng, 3), random_scm(rng, 4)])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
def test_round_trip_property(m, seed):
    gen = np.random.default_rng(seed)
    f = random_scm(gen, m)
    eps = gen.standard_normal(m)
    np.testing.assert_allclose(f.inverse(f.forward(eps)), eps, atol=1e-12)
    np.testing.assert_allclose(f.forward(f.inverse(eps)), eps, atol=1e-12)


def pairwise_intervention(scms, tol):
    """Reference intervention set: compare inverse rows and offsets pair by pair."""
    rows = [f.inverse_matrix for f in scms]
    offs = [-(r @ f.b) for r, f in zip(rows, scms)]
    hit = set()
    for a, c in combinations(range(len(scms)), 2):
        for j in range(scms[0].dim):
            dev = max(np.max(np.abs(rows[a][j] - rows[c][j])), abs(offs[a][j] - offs[c][j]))
            if dev > tol:
                hit.add(j + 1)
    return tuple(sorted(hit))


TOL = 2.0**-10


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_intervention_set_matches_pairwise_reference(m, nd, seed):
    """Dyadic entries make every difference exact, so deviations of exactly
    ``TOL`` (not intervened) and just above it are both exercised."""
    gen = np.random.default_rng(seed)
    L0 = np.tril(gen.integers(-16, 17, size=(m, m)) / 8.0, k=-1)
    b0 = gen.integers(-16, 17, size=m) / 8.0 * gen.integers(0, 2)
    S0 = gen.choice([0.5, 1.0, 2.0], size=m)
    steps = np.array([0.0, TOL, -TOL, 2 * TOL, TOL / 2])
    family = []
    for _ in range(nd):
        L = L0 + np.tril(gen.choice(steps, size=(m, m)) * (gen.random((m, m)) < 0.2), k=-1)
        b = b0 + gen.choice(steps, size=m) * (gen.random(m) < 0.2)
        S = np.where(gen.random(m) < 0.1, 1.5 * S0, S0)
        family.append(AffineSCM(L, S, b))
    assert _stacked_intervention_set(*_stack(family), TOL).indices == pairwise_intervention(
        family, TOL
    )
    random_family = [random_scm(gen, m) for _ in range(nd)]
    assert _stacked_intervention_set(*_stack(random_family), TOL).indices == (
        pairwise_intervention(random_family, TOL)
    )


def random_inverse_stack(gen: np.random.Generator, m: int, nd: int):
    """Inverse maps ``(nd, m, m)`` with a positive diagonal and roundoff-sized
    upper entries (which the factorization ignores), and biases ``(nd, m)``."""
    F_inv = np.tril(gen.standard_normal((nd, m, m)), k=-1) * 0.5
    F_inv += np.triu(gen.standard_normal((nd, m, m)), k=1) * 1e-13
    F_inv[:, np.arange(m), np.arange(m)] = np.exp(gen.uniform(-0.5, 0.5, size=(nd, m)))
    return F_inv, gen.normal(0.0, 0.5, size=(nd, m))


FIELDS = ("L", "S", "b", "inverse_matrix", "matrix")


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_family_members_equal_mechanisms_built_one_at_a_time(m, nd, seed):
    F_inv, b = random_inverse_stack(np.random.default_rng(seed), m, nd)
    family, F_inv_stack = _family_from_inverse(F_inv, b)
    reference = [from_inverse_one_at_a_time(F, c) for F, c in zip(F_inv, b)]
    assert len(family) == nd
    for f, ref in zip(family, reference):
        assert type(f) is AffineSCM and f.dim == m
        for name in FIELDS:
            got, want = getattr(f, name), getattr(ref, name)
            assert np.array_equal(got, want), name
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert (got.flags.c_contiguous, got.flags.f_contiguous) == (
                want.flags.c_contiguous, want.flags.f_contiguous
            ), name
            assert not got.flags.writeable, name
    assert np.array_equal(F_inv_stack, np.stack([ref.inverse_matrix for ref in reference]))
    for f, (F, c) in zip(family, zip(F_inv, b)):
        one = AffineSCM.from_inverse(F, c)
        for name in FIELDS:
            assert np.array_equal(getattr(one, name), getattr(f, name)), name


class TestFamily:
    def test_fields_are_read_only_copies(self, rng):
        F_inv, b = random_inverse_stack(rng, 4, 3)
        L, S = np.tril(F_inv, k=-1), np.exp(rng.standard_normal((3, 4)))
        families = [_family_from_inverse(F_inv, b)[0], _family(L, S, b)[0]]
        kept = [[f.b.copy() for f in family] for family in families]
        b[...] = 7.0
        for family, old in zip(families, kept):
            for f, old_b in zip(family, old):
                assert np.array_equal(f.b, old_b)
                for name in ("L", "S", "b", "inverse_matrix"):
                    array = getattr(f, name)
                    with pytest.raises(ValueError, match="read-only"):
                        array[0] = 1.0
                    with pytest.raises(ValueError):
                        array.setflags(write=True)

    def test_inverse_matrix_is_cached_from_the_stack(self, rng):
        family, F_inv = _family_from_inverse(*random_inverse_stack(rng, 5, 3))
        for d, f in enumerate(family):
            assert f.inverse_matrix is f.inverse_matrix
            assert np.shares_memory(f.inverse_matrix, F_inv[d])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["L", "S", "b"])
    def test_non_finite_entry_has_the_single_mechanism_message(self, rng, field, bad):
        fields = {"L": np.zeros((3, 4, 4)), "S": np.ones((3, 4)), "b": np.zeros((3, 4))}
        fields["L"][1] = np.tril(rng.standard_normal((4, 4)), k=-1)
        fields[field][2, -1, ...] = bad
        with pytest.raises(ValueError) as single:
            AffineSCM(*(fields[name][2] for name in ("L", "S", "b")))
        with pytest.raises(ValueError) as stacked:
            _family(fields["L"], fields["S"], fields["b"])
        assert type(stacked.value) is type(single.value) is ValueError
        assert str(stacked.value) == str(single.value) == "L, S and b must be finite"

    def test_nan_inverse_entry_raises_value_error(self, rng):
        F_inv, b = random_inverse_stack(rng, 4, 3)
        F_inv[1, 3, 0] = np.nan
        with pytest.raises(ValueError, match="^L, S and b must be finite$"):
            _family_from_inverse(F_inv, b)
        with pytest.raises(ValueError, match="^L, S and b must be finite$"):
            from_inverse_one_at_a_time(F_inv[1], b[1])

    @pytest.mark.parametrize("diagonal", [-0.5, -2.0])
    def test_non_positive_diagonal_has_the_single_mechanism_message(self, rng, diagonal):
        F_inv, b = random_inverse_stack(rng, 4, 3)
        F_inv[2, 1, 1] = diagonal
        with pytest.raises(NonPositiveDiagonal, match="^S must be strictly positive$"):
            _family_from_inverse(F_inv, b)
        with pytest.raises(NonPositiveDiagonal, match="^S must be strictly positive$"):
            from_inverse_one_at_a_time(F_inv[2], b[2])

    def test_upper_entry_of_l_is_refused(self, rng):
        L = np.zeros((2, 3, 3))
        L[1, 0, 2] = 1e-300
        with pytest.raises(NotLowerTriangular, match="^L must be strictly lower triangular$"):
            _family(L, np.ones((2, 3)), np.zeros((2, 3)))

    def test_shape_mismatch_names_the_stacked_shape(self):
        with pytest.raises(DimensionMismatch, match=r"^S and b must have shape \(2, 3\)"):
            _family(np.zeros((2, 3, 3)), np.ones((2, 3)), np.zeros((2, 4)))
        with pytest.raises(DimensionMismatch, match=r"^L must be square, got shape \(3, 3\)"):
            _family(np.zeros((3, 3)), np.ones(3), np.zeros(3))
