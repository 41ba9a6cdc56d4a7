"""The benchmark's workloads: inputs from a seed, one closed-loop round, checks.

A workload is run as rounds.  A round is a fixed list of operations issued one
after another by a single caller (a closed loop); every round of a run repeats
the same inputs, so per-round counts are deterministic and the results of each
round must equal those of the first.

* ``trend`` and ``wide``: one operation is a fit followed by the scoring pass
  of the fitted model.
* ``score``: one operation is the scoring pass of a fixed model; nothing is
  trained.

The scoring pass is the same code on every workload: test log-likelihood,
counterfactuals into every target, oracle counterfactual error,
``dc_distance``, canonicalization with both equivalence checks, and
``domcf.cli.main`` for ``eval``, ``counterfactual`` (every target) and
``canonicalize`` on files written by ``domcf.serialize``.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import math
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import domcf.canonical as canonical
import domcf.cli as cli
import domcf.datagen as datagen
import domcf.ild as ild
import domcf.scm as scm
import domcf.serialize as serialize

# ``domcf.train`` the attribute is the function; the module is wanted here.
train = importlib.import_module("domcf.train")

EQUIV_TOL = 1e-6
ROUNDTRIP_TOL = 1e-8
BEST_VAL_RTOL = 1e-9
CANON_REPEATS = 20


@dataclass(frozen=True)
class FitWorkload:
    """Fits of each variant on one generated dataset, each then scored."""

    name: str
    dim: int
    num_domains: int
    intervention: tuple[int, ...]
    n_train: int
    n_val: int
    n_test: int
    variants: tuple[tuple[str, int | None], ...]
    iterations: int
    # The split scored for likelihood and counterfactual throughput: large
    # enough that a round holds a steady amount of timed work.
    big_split: str
    batch_size: int = 500
    eval_every: int = 100
    cli_rows: int = 100
    probe_rows: int = 100


@dataclass(frozen=True)
class ScoreWorkload:
    """Scoring passes over fixed models; ``swapped`` lists non-canonical families."""

    name: str
    dim: int
    num_domains: int
    intervention: tuple[int, ...]
    swapped: tuple[tuple[int, ...], ...]
    equivalents: int
    n_big: int
    n_val: int
    cli_rows: int
    probe_rows: int


# BENCHMARK.json gates ``trend`` and ``score``.  ``wide`` isolates the
# per-step kernel (a probe gave 1000 steps ~ 1.0 s, records are cheap) and is
# kept for per-layer study of steps and Adam; its Python-bound loop drifts
# with the host's speed, and over ten seeds its end-to-end spread on a shared
# 2-core machine reached 0.21-0.26, too wide for a gate.
WORKLOADS = {
    "trend": FitWorkload(
        name="trend", dim=6, num_domains=3, intervention=(5, 6),
        n_train=20_000, n_val=1_000, n_test=1_000,
        variants=(("can", 2), ("can", 1), ("dense", None)),
        iterations=200, big_split="train",
    ),
    "wide": FitWorkload(
        name="wide", dim=10, num_domains=5, intervention=(8, 9, 10),
        n_train=1_000, n_val=200, n_test=4_000,
        variants=(("can", 3), ("dense", None)),
        iterations=800, big_split="test",
    ),
    "score": ScoreWorkload(
        name="score", dim=10, num_domains=5, intervention=(8, 9, 10),
        swapped=((1, 2, 3), (2, 4, 6), (1, 3, 5), (2, 5, 9)),
        equivalents=2, n_big=10_000, n_val=1_000, cli_rows=200, probe_rows=100,
    ),
}


@dataclass
class Scored:
    """One model to score, the model it is judged against, and its data.

    ``big`` is scored by likelihood and counterfactuals into every target,
    ``test`` by the oracle error and ``dc_distance``, ``probes`` by the
    equivalence checks, and ``cli`` is written to CSV for the CLI.
    ``equivalent_to_ref`` names the equivalences ("counterfactual",
    "distribution") that ``model`` must show against ``ref``.
    """

    label: str
    model: ild.ILDModel
    ref: ild.ILDModel
    big: tuple[np.ndarray, np.ndarray]
    test: tuple[np.ndarray, np.ndarray]
    probes: tuple[np.ndarray, np.ndarray]
    cli: tuple[np.ndarray, np.ndarray]
    equivalent_to_ref: tuple[str, ...] = ()


@dataclass
class OpResult:
    """Timings, deterministic values and failed checks of one operation."""

    label: str
    op_s: float
    timings: dict
    values: dict
    failures: list


def _per_domain_head(split, rows: int) -> tuple[np.ndarray, np.ndarray]:
    keep = np.concatenate([np.nonzero(split.d == d)[0][:rows] for d in np.unique(split.d)])
    return split.x[keep], split.d[keep]


def _random_scm(rng: np.random.Generator, m: int) -> scm.AffineSCM:
    """A well-conditioned triangular mechanism for ``construct_equivalent``."""
    L = np.tril(rng.standard_normal((m, m)), k=-1) * 0.6 / math.sqrt(m)
    return scm.AffineSCM(L, np.exp(rng.uniform(-0.4, 0.4, size=m)), rng.normal(0.0, 0.5, size=m))


def _intervened_first(rng, gt: ild.ILDModel, indices) -> ild.ILDModel:
    """A model whose inverse mechanisms differ exactly on ``indices``.

    Built from per-domain inverse rows (``eps = A z + c``) because datagen
    ground truths come out already canonical.
    """
    m, rows = gt.dim, [i - 1 for i in indices]

    def draw():
        A = np.tril(rng.standard_normal((m, m)), k=-1) * 0.5 / math.sqrt(m)
        A += np.diag(np.exp(rng.uniform(-0.4, 0.4, size=m)))
        return A, rng.normal(0.0, 0.5, size=m)

    A0, c0 = draw()
    scms = []
    for _ in range(gt.num_domains):
        A, c = A0.copy(), c0.copy()
        A_new, c_new = draw()
        A[rows], c[rows] = A_new[rows], c_new[rows]
        F = np.linalg.inv(A)
        scms.append(scm.AffineSCM.from_matrix(F, -F @ c))
    return ild.ILDModel(gt.g, tuple(scms))


def _reference_nll(model: ild.ILDModel, X: np.ndarray, d: np.ndarray) -> float:
    """Mean NLL through ``ILDModel.log_likelihood``, the independent reference."""
    total = sum(float(np.sum(model.log_likelihood(X[d == k], int(k)))) for k in np.unique(d))
    return -total / len(X)


@contextlib.contextmanager
def _quiet():
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        yield


def score_pass(item: Scored, workdir: Path, dc_seed: int) -> tuple[dict, dict, list]:
    """Score one model; returns (timings, deterministic values, failures)."""
    model, nd = item.model, item.model.num_domains
    failures: list[str] = []
    timings: dict = {}
    values: dict = {}

    # Per-call samples: one likelihood call per domain, one counterfactual
    # call per (domain, target) pair, CANON_REPEATS canonicalizations.
    Xb, db = item.big
    timings["nll"], timings["cf"], timings["canon"] = [], [], []
    nll_sum = 0.0
    for d in range(1, nd + 1):
        Xd = Xb[db == d]
        t = perf_counter()
        nll = train.dataset_nll(model, Xd, np.full(len(Xd), d))
        timings["nll"].append((len(Xd), perf_counter() - t))
        nll_sum += nll * len(Xd)
        for target in range(1, nd + 1):
            t = perf_counter()
            model.counterfactual(Xd, d, target)
            timings["cf"].append((len(Xd), perf_counter() - t))
    values["nll"] = nll_sum / len(Xb)

    values["cf_error"] = datagen.oracle_counterfactual_error(model, item.ref, item.test)
    values["dc_distance"] = ild.dc_distance(model, item.ref, item.test, dc_seed)

    for _ in range(CANON_REPEATS):
        t = perf_counter()
        canon, _, report = canonical.canonicalize(model)
        timings["canon"].append(perf_counter() - t)
    values["swaps"] = len(report.swaps)
    values["final_intervention"] = list(report.final_intervention.indices)

    checks = [("canonical", canon, ("counterfactual", "distribution"))]
    if item.ref is not model:
        checks.append(("reference", item.ref, item.equivalent_to_ref))
    for what, other, kinds in checks:
        for kind, check in (("counterfactual", ild.check_counterfactual_equiv),
                            ("distribution", ild.check_distribution_equiv)):
            if kind in kinds:
                ok, dev = check(model, other, item.probes, EQUIV_TOL)
                if not ok:
                    failures.append(f"{kind}_equiv_{what} dev={dev:.3e}")

    model_path, gt_path = workdir / "model.json", workdir / "ground_truth.json"
    data_path = workdir / "data.csv"
    serialize.save_json(serialize.model_to_dict(model), model_path)
    serialize.save_json(serialize.model_to_dict(item.ref), gt_path)
    if serialize.model_to_dict(serialize.model_from_dict(serialize.load_json(model_path))) != (
        serialize.model_to_dict(model)
    ):
        failures.append("model_json_roundtrip")
    Xc, dc = item.cli
    serialize.write_dataset_csv(data_path, Xc, dc)
    x_back, d_back = serialize.read_dataset_csv(data_path)
    if not (np.array_equal(x_back, Xc) and np.array_equal(d_back, dc)):
        failures.append("csv_roundtrip")
    commands = [
        ["eval", "--model", str(model_path), "--ground-truth", str(gt_path),
         "--test", str(data_path), "--seed", "0", "--out", str(workdir / "metrics.json")],
        *(["counterfactual", "--model", str(model_path), "--data", str(data_path),
           "--target-domain", str(target), "--out", str(workdir / f"cf{target}.csv")]
          for target in range(1, nd + 1)),
        ["canonicalize", "--model", str(model_path), "--out", str(workdir / "canonical")],
    ]
    for argv in commands:
        with _quiet():
            code = cli.main(argv)
        if code != 0:
            failures.append(f"cli_{argv[0]} exit={code}")
    return timings, values, failures


def _untimed_checks(item: Scored) -> list[str]:
    """cf(cf(x, d -> d'), d' -> d) must return x."""
    X, d = item.probes
    worst = 0.0
    for k in range(1, item.model.num_domains + 1):
        Xk = X[d == k]
        for target in range(1, item.model.num_domains + 1):
            back = item.model.counterfactual(item.model.counterfactual(Xk, k, target), target, k)
            worst = max(worst, float(np.max(np.abs(back - Xk))))
    return [] if worst <= ROUNDTRIP_TOL else [f"cf_roundtrip dev={worst:.3e}"]


def _label(variant) -> str:
    kind, k = variant
    return f"can{k}" if kind == "can" else kind


class FitRunner:
    """``trend``/``wide``: fit every variant, then score the selected model."""

    def __init__(self, cfg: FitWorkload, seed: int, workdir: Path):
        self.cfg, self.seed, self.workdir = cfg, seed, workdir
        self.spec = datagen.GroundTruthSpec(
            cfg.dim, cfg.num_domains, cfg.intervention,
            cfg.n_train, cfg.n_val, cfg.n_test, seed,
        )

    def build_inputs(self) -> None:
        self.gt = datagen.generate_ground_truth(self.spec)
        self.data = datagen.sample_dataset(self.gt, self.spec)
        self.gt_val_nll = train.dataset_nll(self.gt, self.data.val.x, self.data.val.d)

    def fingerprint(self) -> tuple:
        return (self.data.train.x.tobytes(), self.data.val.x.tobytes(), self.gt_val_nll)

    def warm_up(self) -> None:
        self.op(self.cfg.variants[0], iterations=2, eval_every=1)

    def ops(self):
        return [(_label(v), lambda v=v: self.op(v)) for v in self.cfg.variants]

    def op(self, variant, iterations=None, eval_every=None) -> OpResult:
        cfg = self.cfg
        kind, k = variant
        label = _label(variant)
        t0 = perf_counter()
        trainable = train.TrainableILD.initialize(cfg.dim, cfg.num_domains, kind, k, seed=self.seed)
        config = train.TrainConfig(
            batch_size=cfg.batch_size,
            iterations=cfg.iterations if iterations is None else iterations,
            eval_every=cfg.eval_every if eval_every is None else eval_every,
            seed=self.seed,
        )
        best, history = train.train(trainable, self.data, config)
        fit_s = perf_counter() - t0
        item = Scored(
            label, best, self.gt,
            big=(getattr(self.data, cfg.big_split).x, getattr(self.data, cfg.big_split).d),
            test=(self.data.test.x, self.data.test.d),
            probes=_per_domain_head(self.data.val, cfg.probe_rows),
            cli=_per_domain_head(self.data.test, cfg.cli_rows),
        )
        t1 = perf_counter()
        timings, values, failures = score_pass(item, self.workdir, self.seed)
        t2 = perf_counter()
        timings.update(fit_s=fit_s, score_s=t2 - t1, records=len(history))
        best_val = min(rec[2] for rec in history)
        values.update(history=[tuple(rec) for rec in history], val_nll=best_val,
                      val_nll_gap=best_val - self.gt_val_nll)
        recomputed = _reference_nll(best, self.data.val.x, self.data.val.d)
        if abs(recomputed - best_val) > BEST_VAL_RTOL * abs(recomputed):
            failures.append(f"best_val_nll {best_val!r} != recomputed {recomputed!r}")
        failures.extend(_untimed_checks(item))
        return OpResult(label, t2 - t0, timings, values, failures)


class ScoreRunner:
    """``score``: scoring passes over ground truths, equivalents and swapped models."""

    def __init__(self, cfg: ScoreWorkload, seed: int, workdir: Path):
        self.cfg, self.seed, self.workdir = cfg, seed, workdir

    def build_inputs(self) -> None:
        cfg = self.cfg
        spec = datagen.GroundTruthSpec(
            cfg.dim, cfg.num_domains, cfg.intervention,
            n_train=0, n_val=cfg.n_val, n_test=cfg.n_big, seed=self.seed,
        )
        gt = datagen.generate_ground_truth(spec)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([self.seed, 7])))
        # Each family: label, reference, spec, [(model, equivalences to the
        # reference)].  An inner mechanism h2 reshapes the noise, so only the
        # first equivalent, built with h2 = identity, keeps the distribution.
        families = [("gt", gt, spec, [(gt, ())])]
        chain = gt
        identity = scm.AffineSCM(np.zeros((cfg.dim, cfg.dim)), np.ones(cfg.dim), np.zeros(cfg.dim))
        for i in range(cfg.equivalents):
            h2 = identity if i == 0 else _random_scm(rng, cfg.dim)
            chain = ild.construct_equivalent(chain, _random_scm(rng, cfg.dim), h2)
            kinds = ("counterfactual", "distribution") if i == 0 else ("counterfactual",)
            families[0][3].append((chain, kinds))
        for j, indices in enumerate(cfg.swapped):
            model = _intervened_first(rng, gt, indices)
            families.append((f"swapped{j}", model, replace(spec, seed=self.seed + j + 1), [(model, ())]))
        self.items = []
        for label, ref, fam_spec, models in families:
            data = datagen.sample_dataset(ref, fam_spec)
            for i, (model, kinds) in enumerate(models):
                self.items.append(Scored(
                    f"{label}.{i}", model, ref,
                    big=(data.test.x, data.test.d),
                    test=(data.val.x, data.val.d),
                    probes=_per_domain_head(data.val, cfg.probe_rows),
                    cli=_per_domain_head(data.test, cfg.cli_rows),
                    equivalent_to_ref=kinds,
                ))

    def fingerprint(self) -> tuple:
        return tuple(item.big[0].tobytes() for item in self.items)

    def warm_up(self) -> None:
        # The Triangular-layer model touches every function a pass calls
        # except the swap path, which the last (swapped) model adds.
        for item in (self.items[1], self.items[-1]):
            self.op(item)

    def ops(self):
        return [(item.label, lambda item=item: self.op(item)) for item in self.items]

    def op(self, item: Scored) -> OpResult:
        t0 = perf_counter()
        timings, values, failures = score_pass(item, self.workdir, self.seed)
        op_s = perf_counter() - t0
        timings["score_s"] = op_s
        failures.extend(_untimed_checks(item))
        return OpResult(item.label, op_s, timings, values, failures)


def runner(name: str, seed: int, workdir: Path):
    cfg = WORKLOADS[name]
    cls = FitRunner if isinstance(cfg, FitWorkload) else ScoreRunner
    return cls(cfg, seed, workdir)
