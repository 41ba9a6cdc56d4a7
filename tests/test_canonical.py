import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domcf import (
    AffineDense,
    AffineSCM,
    GroundTruthSpec,
    ILDModel,
    LayerChain,
    canonicalize,
    check_counterfactual_equiv,
    check_distribution_equiv,
    construct_equivalent,
    generate_ground_truth,
    serialize,
)
import domcf.canonical
from domcf.canonical import TriangularityBroken
from domcf.scm import InterventionSet, _stack, _stacked_intervention_set
from conftest import (
    family_with_intervention,
    from_inverse_one_at_a_time,
    is_canonical,
    mechanisms_allclose,
    probe_points,
    random_scm,
)


def demo_model() -> ILDModel:
    """4-dim, 2-domain linear model whose intervention set is {2, 3}."""
    f1 = AffineSCM.from_matrix(np.tril(np.ones((4, 4))), np.zeros(4))
    f2 = AffineSCM.from_matrix(
        np.array([[1.0, 0, 0, 0], [2, 2, 0, 0], [1, 1, 1, 0], [1, 1, 1, 1]]),
        np.zeros(4),
    )
    g = LayerChain(4, (AffineDense(np.eye(4) + 0.1, np.zeros(4)),))
    return ILDModel(g, (f1, f2))


class TestIsCanonical:
    def test_no_interventions_is_trivially_canonical(self, rng):
        f = random_scm(rng, 4)
        model = ILDModel(LayerChain(4), (f, f))
        ok, iset = is_canonical(model)
        assert ok and iset.indices == ()

    def test_demo_model_is_not_canonical(self):
        ok, iset = is_canonical(demo_model())
        assert not ok and iset.indices == (2, 3)

    def test_demo_canonicalized_is_canonical(self):
        canonical, identity_canonical, _ = canonicalize(demo_model())
        for model in (canonical, identity_canonical):
            ok, iset = is_canonical(model)
            assert ok and iset.indices == (3, 4)


class TestSwapIndices:
    def test_demo_swap_sequence_matches_printed_matrices(self):
        model = demo_model()
        canonical, identity_canonical, report = canonicalize(model)
        assert report.swaps == ((3, 4), (2, 3))
        expected_mid = np.array(
            [[1.0, 0, 0, 0], [0, 1, 0, 0], [1, 0, 2, 0], [-1, 0, -1, 1]]
        )
        np.testing.assert_allclose(
            identity_canonical.scms[1].matrix, expected_mid, atol=1e-12
        )


class TestCanonicalize:
    def test_already_canonical_model_needs_no_swaps(self, rng):
        model = family_with_intervention(rng, 5, 2, (4, 5))
        canonical, identity_canonical, report = canonicalize(model)
        assert report.swaps == ()
        ok, dev = check_counterfactual_equiv(
            model, canonical, probe_points(model, 300, seed=1), tol=1e-10
        )
        assert ok, dev
        assert is_canonical(identity_canonical)[0]

    def test_demo_model_full_pipeline(self):
        model = demo_model()
        canonical, identity_canonical, report = canonicalize(model)
        assert report.original_intervention.indices == (2, 3)
        assert report.final_intervention.indices == (3, 4)
        expected_final = np.array(
            [[1.0, 0, 0, 0], [1, 1, 0, 0], [2, 1, 2, 0], [1, 1, 1, 1]]
        )
        np.testing.assert_allclose(canonical.scms[1].matrix, expected_final, atol=1e-12)
        np.testing.assert_allclose(
            canonical.scms[0].matrix, model.scms[0].matrix, atol=1e-12
        )

    def test_mechanisms_enter_the_chain_as_layers(self, rng):
        model = family_with_intervention(rng, 5, 2, (1, 2))
        canonical, identity_canonical, report = canonicalize(model)
        n = len(model.g.layers)
        assert report.swaps
        assert identity_canonical.g.layers[-n - 1] is model.scms[0]
        assert all(a is b for a, b in zip(identity_canonical.g.layers[-n:], model.g.layers))
        assert canonical.g.layers[1:] == identity_canonical.g.layers
        restore = canonical.g.layers[0]
        assert type(restore) is AffineSCM
        inverse = model.scms[0].invert()
        for field in ("L", "S", "b"):
            np.testing.assert_array_equal(getattr(restore, field), getattr(inverse, field))

    def test_random_models_with_leading_interventions(self, rng):
        for trial in range(10):
            model = family_with_intervention(rng, 6, 3, (1, 2))
            canonical, identity_canonical, report = canonicalize(model)
            ok_canon, iset = is_canonical(canonical)
            assert ok_canon
            assert iset.size == report.original_intervention.size
            pts = probe_points(model, 300, seed=trial)
            ok_cf, dev_cf = check_counterfactual_equiv(model, canonical, pts, tol=1e-8)
            ok_d, dev_d = check_distribution_equiv(model, canonical, pts, tol=1e-8)
            assert ok_cf, dev_cf
            assert ok_d, dev_d
            assert mechanisms_allclose(
                identity_canonical.scms[0], AffineSCM.identity(6), tol=1e-12
            )

    def test_swap_budget(self, rng):
        model = family_with_intervention(rng, 6, 3, (1, 2))
        _, _, report = canonicalize(model)
        k = report.original_intervention.size
        assert len(report.swaps) <= k * (6 - k)

    def test_report_tracks_steps(self):
        _, _, report = canonicalize(demo_model())
        assert any("step1" in s for s in report.steps)
        assert any("step3" in s for s in report.steps)
        assert len([s for s in report.steps if "step2" in s]) == len(report.swaps)


class TestGuards:
    """A wrong detected set is refused, whether it is met before or after the swaps."""

    def test_misdetected_set_breaks_triangularity(self, rng, monkeypatch):
        model = family_with_intervention(rng, 3, 2, (2,))
        monkeypatch.setattr(
            domcf.canonical, "_stacked_intervention_set",
            lambda F_inv, b, tol: InterventionSet((1,), tol),
        )
        with pytest.raises(TriangularityBroken, match=r"swaps \[\(1, 3\)\]"):
            canonicalize(model)

    def test_final_set_must_be_the_trailing_block(self, rng, monkeypatch):
        model = family_with_intervention(rng, 3, 2, (1,))
        sets = [_stacked_intervention_set(*_stack(model.scms), 1e-8), InterventionSet((2,), 1e-8)]
        monkeypatch.setattr(
            domcf.canonical, "_stacked_intervention_set", lambda F_inv, b, tol: sets.pop(0)
        )
        with pytest.raises(TriangularityBroken, match="not the trailing block"):
            canonicalize(model)


@st.composite
def families(draw):
    """(m, number of domains, intervention subset, seed) for ``family_with_intervention``."""
    m = draw(st.integers(min_value=1, max_value=10))
    nd = draw(st.integers(min_value=2, max_value=5))
    subset = draw(st.sets(st.integers(min_value=1, max_value=m)))
    return m, nd, tuple(sorted(subset)), draw(st.integers(min_value=0, max_value=2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(families())
def test_canonicalize_property(params):
    m, nd, indices, seed = params
    model = family_with_intervention(np.random.default_rng(seed), m, nd, indices)
    canonical, identity_canonical, report = canonicalize(model)
    k = len(indices)
    assert report.original_intervention.indices == indices
    assert report.final_intervention.indices == tuple(range(m - k + 1, m + 1))
    assert len(report.swaps) <= k * (m - k)
    assert mechanisms_allclose(identity_canonical.scms[0], AffineSCM.identity(m), tol=0.0)
    pts = probe_points(model, 60, seed=seed % 1000)
    for other in (canonical, identity_canonical):
        assert is_canonical(other)[0]
        for check in (check_counterfactual_equiv, check_distribution_equiv):
            ok, dev = check(model, other, pts, tol=1e-6)
            assert ok, (check.__name__, dev)


def family_one_at_a_time(F_inv, b):
    scms = tuple(map(from_inverse_one_at_a_time, F_inv, b))
    return scms, _stack(scms)[0]


def canonical_json(model: ILDModel) -> list[str]:
    """``canonicalize``'s two models and report as JSON text (``repr`` of
    every float, so the text is equal only where every bit is)."""
    canonical, identity_canonical, report = canonicalize(model)
    return [
        json.dumps(serialize.model_to_dict(canonical)),
        json.dumps(serialize.model_to_dict(identity_canonical)),
        json.dumps(serialize.report_to_dict(report)),
    ]


def canonical_json_one_at_a_time(model: ILDModel) -> list[str]:
    """``canonical_json`` with every mechanism, ``f_1^{-1}`` included, built
    and checked one at a time, and the final set stacked from the members."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(domcf.canonical, "_family_from_inverse", family_one_at_a_time)
        mp.setattr(AffineSCM, "from_inverse", classmethod(lambda cls, F_inv, b: (
            from_inverse_one_at_a_time(F_inv, b)
        )))
        return canonical_json(model)


@settings(max_examples=300, deadline=None)
@given(families())
def test_canonicalize_matches_mechanisms_built_one_at_a_time(params):
    m, nd, indices, seed = params
    model = family_with_intervention(np.random.default_rng(seed), m, nd, indices)
    assert canonical_json(model) == canonical_json_one_at_a_time(model)


@pytest.mark.parametrize("seed", [71, 72])
def test_score_models_canonicalize_as_one_at_a_time(seed):
    """The score benchmark's shapes (m = 10, 5 domains): a ground truth, two
    equivalents of it and four families intervened off the trailing block."""
    gt = generate_ground_truth(GroundTruthSpec(10, 5, (8, 9, 10), 0, 0, 0, seed))
    rng = np.random.default_rng(seed)
    models = [gt]
    for _ in range(2):
        models.append(construct_equivalent(models[-1], random_scm(rng, 10), random_scm(rng, 10)))
    for indices in ((1, 2, 3), (2, 4, 6), (1, 3, 5), (2, 5, 9)):
        models.append(ILDModel(gt.g, family_with_intervention(rng, 10, 5, indices).scms))
    for model in models:
        assert canonical_json(model) == canonical_json_one_at_a_time(model)
