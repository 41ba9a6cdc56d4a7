"""Seeded end-to-end experiment loop: generate, fit each variant, evaluate.

One experiment repeats over seeds: build a fresh ground truth and dataset,
train each configured variant on it, and score the selected checkpoint by
counterfactual error against the generating model on the held-out test split.
Rows are deterministic given the config; the summary reports per-variant means
and standard errors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .datagen import (
    GroundTruthSpec,
    generate_ground_truth,
    oracle_counterfactual_error,
    sample_dataset,
)
from .ild import dataset_nll
from .scm import _integer
from .serialize import write_csv
from .train import TrainableILD, TrainConfig, VariantSpec, train

RESULT_FIELDS = ("seed", "variant", "k", "cf_error", "val_nll", "test_nll")
_METRICS = RESULT_FIELDS[3:]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one aggregate run needs; ``ground_truth.seed`` is the base seed.

    Each seed's fits train with that seed in place of ``train.seed``, so
    ``train.seed`` must keep its default 0.
    """

    ground_truth: GroundTruthSpec
    variants: tuple[VariantSpec, ...] = (VariantSpec("can", 2), VariantSpec("dense"))
    train: TrainConfig = TrainConfig()
    n_seeds: int = 1

    def __post_init__(self):
        object.__setattr__(self, "variants", tuple(self.variants))
        _integer(self.n_seeds, "n_seeds must be an integer >= 1, got {!r}", 1)
        if not self.variants:
            raise ValueError("need at least one variant")
        if self.train.seed != 0:
            raise ValueError(
                f"train.seed={self.train.seed} would be ignored: each fit trains with its "
                "ground-truth seed (set ground_truth.seed instead)"
            )
        for v in self.variants:
            if v.kind == "can" and v.k > self.ground_truth.dim:
                raise ValueError(f"variant k={v.k} exceeds dim {self.ground_truth.dim}")


@dataclass(frozen=True)
class SeedResult:
    seed: int
    variant: str
    k: int
    cf_error: float
    val_nll: float
    test_nll: float


def run_seed(config: ExperimentConfig, seed: int) -> list[SeedResult]:
    """Generate one ground truth at ``seed`` and train/evaluate every variant."""
    spec = replace(config.ground_truth, seed=seed)
    gt = generate_ground_truth(spec)
    dataset = sample_dataset(gt, spec)
    rows = []
    for variant in config.variants:
        trainable = TrainableILD.initialize(
            spec.dim, spec.num_domains, variant.kind, variant.k, seed=seed
        )
        best, history = train(trainable, dataset, replace(config.train, seed=seed))
        val_nll = min(rec[2] for rec in history)
        test_nll = dataset_nll(best, dataset.test.x, dataset.test.d)
        cf_error = oracle_counterfactual_error(best, gt, dataset.test)
        rows.append(
            SeedResult(seed, variant.label(), trainable.domain_rows, cf_error, val_nll, test_nll)
        )
    return rows


def run_experiment(config: ExperimentConfig) -> tuple[list[SeedResult], dict]:
    """All seeds plus a per-variant summary of means and standard errors."""
    rows: list[SeedResult] = []
    for offset in range(config.n_seeds):
        rows.extend(run_seed(config, config.ground_truth.seed + offset))
    rows.sort(key=lambda r: (r.seed, r.variant))
    return rows, summarize(rows)


def _stderr(values: np.ndarray) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(len(values)))


def summarize(rows: list[SeedResult]) -> dict:
    summary: dict = {}
    for variant in sorted({r.variant for r in rows}):
        sub = [r for r in rows if r.variant == variant]
        entry = {"k": sub[0].k, "n_seeds": len(sub)}
        for metric in _METRICS:
            values = np.asarray([getattr(r, metric) for r in sub])
            entry[f"{metric}_mean"] = float(values.mean())
            entry[f"{metric}_stderr"] = _stderr(values)
        summary[variant] = entry
    return summary


def write_results_csv(path, rows: list[SeedResult], summary: dict) -> None:
    """Per-seed rows followed by 'mean' and 'stderr' rows for each variant."""
    table = [(r.seed, r.variant, r.k, *(getattr(r, m) for m in _METRICS)) for r in rows]
    for variant, entry in summary.items():
        for stat in ("mean", "stderr"):
            table.append((stat, variant, entry["k"], *(entry[f"{m}_{stat}"] for m in _METRICS)))
    write_csv(path, RESULT_FIELDS, "%s,%s,%s" + ",%r" * len(_METRICS), table)
