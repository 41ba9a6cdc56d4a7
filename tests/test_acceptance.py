"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The trend criteria (7, 8)
share one multi-seed experiment fixture that takes a few minutes and carry the
``slow`` marker (``pytest -m "not slow"`` leaves them out); everything else
finishes in seconds.

Criterion 8 compares can1 and can2 seed by seed: the mean of the per-seed
validation-NLL differences must exceed three standard errors of those
differences.  The ground truths' own NLLs differ from seed to seed (1.94 to
5.53 nats), so a bar built from the spread of can2's NLLs alone would hold even
an exact maximum-likelihood fit to a tie.
"""
import math
import time

import numpy as np
import pytest

from domcf import (
    AffineDense,
    AffineSCM,
    GroundTruthSpec,
    ILDModel,
    LayerChain,
    LeakyRelu,
    TrainConfig,
    TrainableILD,
    canonicalize,
    check_counterfactual_equiv,
    check_distribution_equiv,
    construct_equivalent,
    dataset_nll,
    dc_distance,
    generate_ground_truth,
    intervention_set,
    nll_gradient,
    sample_dataset,
    train,
)
from domcf.experiment import ExperimentConfig, VariantSpec, run_experiment
from conftest import (
    family_with_intervention,
    probe_points,
    random_chain,
    random_model,
    random_scm,
)


def report(num: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}")


def demo_model() -> ILDModel:
    f1 = AffineSCM.from_matrix(np.tril(np.ones((4, 4))), np.zeros(4))
    f2 = AffineSCM.from_matrix(
        np.array([[1.0, 0, 0, 0], [2, 2, 0, 0], [1, 1, 1, 0], [1, 1, 1, 1]]),
        np.zeros(4),
    )
    g = LayerChain(4, (AffineDense(np.eye(4), np.zeros(4)),))
    return ILDModel(g, (f1, f2))


TREND_SEEDS = 10


@pytest.fixture(scope="session")
def trend_results():
    """Desk-scale sparse-vs-dense experiment shared by criteria 7 and 8."""
    spec = GroundTruthSpec(
        dim=6, num_domains=3, intervention=(5, 6),
        n_train=20_000, n_val=1_000, n_test=1_000, seed=0,
    )
    config = ExperimentConfig(
        ground_truth=spec,
        variants=(VariantSpec("can", 2), VariantSpec("can", 1), VariantSpec("dense")),
        train=TrainConfig(iterations=10_000, eval_every=100, seed=0),
        n_seeds=TREND_SEEDS,
    )
    start = time.perf_counter()
    rows, summary = run_experiment(config)
    elapsed = time.perf_counter() - start
    return rows, summary, elapsed


def test_criterion_1_worked_example_reproduction():
    start = time.perf_counter()
    model = demo_model()
    f1 = model.scms[0]
    rebased = construct_equivalent(model, f1.invert(), AffineSCM.identity(4))
    canonical, identity_canonical, rep = canonicalize(model)
    elapsed = time.perf_counter() - start

    expected_rebased = np.array(
        [[1.0, 0, 0, 0], [1, 2, 0, 0], [-1, -1, 1, 0], [0, 0, 0, 1]]
    )
    expected_identity_canonical = np.array(
        [[1.0, 0, 0, 0], [0, 1, 0, 0], [1, 0, 2, 0], [-1, 0, -1, 1]]
    )
    expected_canonical = np.array(
        [[1.0, 0, 0, 0], [1, 1, 0, 0], [2, 1, 2, 0], [1, 1, 1, 1]]
    )
    checks = [
        np.max(np.abs(rebased.scms[1].matrix - expected_rebased)) <= 1e-12,
        np.max(np.abs(identity_canonical.scms[1].matrix - expected_identity_canonical))
        <= 1e-12,
        np.max(np.abs(canonical.scms[1].matrix - expected_canonical)) <= 1e-12,
        rep.swaps == ((3, 4), (2, 3)),
        rep.original_intervention.indices == (2, 3),
        rep.final_intervention.indices == (3, 4),
        elapsed < 1.0,
    ]
    report(1, "worked 4-dim example reproduced entrywise", all(checks))
    assert all(checks), (rep, elapsed)


def test_criterion_2_canonicalization_preserves_equivalence():
    gen = np.random.default_rng(2)
    start = time.perf_counter()
    grid = [(m, nd) for m in (4, 6, 10) for nd in (2, 3)]
    ok = True
    for trial in range(20):
        m, nd = grid[trial % len(grid)]
        k = int(gen.integers(1, m // 2 + 1))
        indices = tuple(sorted(gen.choice(np.arange(1, m + 1), size=k, replace=False)))
        model = family_with_intervention(gen, m, nd, indices)
        canonical, identity_canonical, rep = canonicalize(model)
        pts = probe_points(model, 1000, seed=trial)
        for out in (canonical, identity_canonical):
            ok_cf, dev_cf = check_counterfactual_equiv(model, out, pts, tol=1e-8)
            ok_d, dev_d = check_distribution_equiv(model, out, pts, tol=1e-8)
            ok &= ok_cf and ok_d
        ok &= rep.final_intervention.size == rep.original_intervention.size
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    report(2, "canonicalization preserves counterfactuals and densities", ok)
    assert ok, elapsed


def test_criterion_3_equivalent_model_constructor():
    # Base families are canonical (trailing intervention block).  For general
    # triangular (h1, h2) the construction preserves counterfactuals always,
    # but preserves the intervention size only when descendant spreading
    # cannot enlarge the set, i.e. exactly on canonical bases; the sparsity
    # statement is proved through identity-canonical forms.
    gen = np.random.default_rng(3)
    ok = True
    for trial in range(20):
        m = int(gen.integers(3, 7))
        nd = int(gen.integers(2, 4))
        k = int(gen.integers(1, m))
        indices = tuple(range(m - k + 1, m + 1))
        model = family_with_intervention(gen, m, nd, indices)
        h1, h2 = random_scm(gen, m), random_scm(gen, m)
        built = construct_equivalent(model, h1, h2)
        ok_cf, _ = check_counterfactual_equiv(
            model, built, probe_points(model, 200, seed=trial), tol=1e-8
        )
        ok &= ok_cf
        ok &= intervention_set(built.scms).size == intervention_set(model.scms).size
    report(3, "constructed models share counterfactuals and sparsity", ok)
    assert ok


def test_criterion_4_pseudo_metric_axioms():
    gen = np.random.default_rng(4)
    ok = True
    for trial in range(50):
        a = random_model(gen, 3, 2)
        b = random_model(gen, 3, 2)
        c = random_model(gen, 3, 2)
        pts = probe_points(a, 80, seed=trial)
        ok &= dc_distance(a, a, pts, seed=trial) == 0.0
        ok &= dc_distance(a, b, pts, seed=trial) == dc_distance(b, a, pts, seed=trial)
        dab = dc_distance(a, b, pts, seed=trial)
        dbc = dc_distance(b, c, pts, seed=trial)
        dac = dc_distance(a, c, pts, seed=trial)
        ok &= dac <= dab + dbc + 1e-9
    report(4, "counterfactual distance is a pseudo-metric", ok)
    assert ok


def test_criterion_5_gradient_correctness():
    gen = np.random.default_rng(5)
    worst = 0.0
    for trial in range(20):
        kind, k = ("can", int(gen.integers(1, 4))) if trial % 2 == 0 else ("dense", None)
        m = int(gen.integers(3, 5))
        nd = int(gen.integers(2, 4))
        t = TrainableILD.initialize(m, nd, kind, k, seed=trial)
        vec = t.free_vector()
        t = t.with_free_vector(vec + 0.3 * gen.standard_normal(vec.shape))
        model = t.materialize()
        xs, ds = [], []
        for d in range(1, nd + 1):
            xs.append(model.sample(d, 12, seed=1000 * trial + d))
            ds.append(np.full(12, d))
        X, labels = np.concatenate(xs), np.concatenate(ds)
        # keep the batch away from activation kinks so differences are smooth
        u = model.g.layers[1].inverse(X)
        keep = np.min(np.abs(u), axis=1) > 1e-2
        X, labels = X[keep], labels[keep]

        analytic = nll_gradient(t, (X, labels)).vec
        v0 = t.free_vector()
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
        worst = max(worst, float(rel.max()))
    ok = worst <= 1e-4
    report(5, f"analytic gradients match finite differences (max rel {worst:.2e})", ok)
    assert ok, worst


def compact_model(gen: np.random.Generator) -> ILDModel:
    """2-dim model kept inside the [-8, 8] grid yet broad enough that the
    step-0.02 trapezoid rule resolves the kink ridges of the density."""
    m = 2
    scms = tuple(
        AffineSCM(
            np.tril(gen.standard_normal((m, m)), -1) * 0.3,
            np.exp(gen.uniform(0.2, 0.5, m)),
            gen.normal(0.0, 0.4, m),
        )
        for _ in range(2)
    )
    G = np.eye(m) + 0.2 * gen.standard_normal((m, m)) / math.sqrt(m)
    g = LayerChain(m, (LeakyRelu(0.5), AffineDense(G, gen.normal(0.0, 0.3, m))))
    return ILDModel(g, scms)


def test_criterion_6_likelihood_normalization():
    gen = np.random.default_rng(6)
    xs = np.arange(-8.0, 8.0 + 1e-12, 0.02)
    grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    worst = 0.0
    for _ in range(5):
        model = compact_model(gen)
        dens = np.exp(model.log_likelihood(grid, 1)).reshape(len(xs), len(xs))
        integral = float(np.trapezoid(np.trapezoid(dens, xs, axis=1), xs))
        worst = max(worst, abs(integral - 1.0))
    ok = worst <= 1e-3
    report(6, f"density integrates to one (worst |err| {worst:.2e})", ok)
    assert ok, worst


@pytest.mark.slow
def test_criterion_7_sparse_beats_dense_trend(trend_results):
    rows, summary, elapsed = trend_results
    can = {r.seed: r.cf_error for r in rows if r.variant == "can2"}
    dense = {r.seed: r.cf_error for r in rows if r.variant == "dense"}
    wins = sum(can[s] < dense[s] for s in can)
    mean_ok = summary["can2"]["cf_error_mean"] < summary["dense"]["cf_error_mean"]
    runtime_ok = elapsed <= 15 * 60
    ok = mean_ok and wins >= 7 and runtime_ok
    report(
        7,
        f"sparse canonical beats dense (mean {summary['can2']['cf_error_mean']:.2f} vs "
        f"{summary['dense']['cf_error_mean']:.2f}, wins {wins}/{TREND_SEEDS}, "
        f"{elapsed:.0f}s)",
        ok,
    )
    assert ok, (summary["can2"]["cf_error_mean"], summary["dense"]["cf_error_mean"], wins, elapsed)


@pytest.mark.slow
def test_criterion_8_underfitting_shows_in_validation(trend_results):
    rows, _, _ = trend_results
    val = {(r.seed, r.variant): r.val_nll for r in rows}
    seeds = sorted({r.seed for r in rows})
    diffs = np.array([val[s, "can1"] - val[s, "can2"] for s in seeds])
    margin = float(diffs.mean())
    bar = 3.0 * float(diffs.std(ddof=1)) / math.sqrt(len(diffs))
    ok = margin > bar
    per_seed = " ".join(f"{s}:{d:+.3f}" for s, d in zip(seeds, diffs))
    report(
        8,
        f"too-sparse model fits worse (paired margin {margin:.3f} > 3*SE {bar:.3f}; "
        f"can1 - can2 by seed {per_seed})",
        ok,
    )
    assert ok, (margin, bar, per_seed)


def test_criterion_9_composition_and_reversibility():
    gen = np.random.default_rng(9)
    spec = GroundTruthSpec(
        dim=3, num_domains=2, intervention=(3,),
        n_train=2_000, n_val=400, n_test=400, seed=17,
    )
    dataset = sample_dataset(generate_ground_truth(spec), spec)
    trained = []
    for kind, k in (("can", 1), ("dense", None)):
        t = TrainableILD.initialize(3, 2, kind, k, seed=17)
        cfg = TrainConfig(iterations=500, eval_every=100, batch_size=100, seed=17)
        trained.append(train(t, dataset, cfg)[0])
    models = trained + [random_model(gen, 4, 3) for _ in range(5)]

    worst_comp, worst_rev = 0.0, 0.0
    for model in models:
        x, _ = probe_points(model, 1000, seed=31)
        for d in range(1, model.num_domains + 1):
            dev = np.abs(model.counterfactual(x, d, d) - x).max()
            worst_comp = max(worst_comp, float(dev))
            for dp in range(1, model.num_domains + 1):
                back = model.counterfactual(model.counterfactual(x, d, dp), dp, d)
                worst_rev = max(worst_rev, float(np.abs(back - x).max()))
    ok = worst_comp <= 1e-10 and worst_rev <= 1e-9
    report(
        9,
        f"composition ({worst_comp:.2e}) and reversibility ({worst_rev:.2e}) exact",
        ok,
    )
    assert ok, (worst_comp, worst_rev)


def test_criterion_10_lipschitz_bound_soundness():
    gen = np.random.default_rng(10)
    ok = True
    worst_ratio = 0.0
    for trial in range(20):
        m = int(gen.integers(2, 6))
        chain = random_chain(gen, m)
        bound = chain.lipschitz_upper_bound()
        a = gen.standard_normal((10_000, m))
        b = gen.standard_normal((10_000, m))
        num = np.linalg.norm(chain.forward(a) - chain.forward(b), axis=1)
        den = np.linalg.norm(a - b, axis=1)
        ratio = float(np.max(num / den))
        worst_ratio = max(worst_ratio, ratio / bound)
        ok &= ratio <= bound * (1 + 1e-12)
    report(10, f"spectral bound dominates sampled ratios (max {worst_ratio:.4f})", ok)
    assert ok
