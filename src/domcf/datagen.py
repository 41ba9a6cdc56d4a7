"""Ground-truth model generation and multi-domain dataset sampling.

Ground truths are built so the intervened mechanisms are explicit: one base
strictly-lower dependency matrix shared across domains, with the rows indexed
by the requested intervention set independently redrawn per domain and a
per-domain scalar bias broadcast over those rows.  The observation function is
``G_out @ standardize(leaky_relu(z))`` where the standardization statistics
come from a seeded calibration draw and ``|det G_out| = 1``.

Seed streams are derived with numpy SeedSequence from ``(seed, purpose tag,
index)`` tuples, so every (domain, split) pair gets a disjoint deterministic
stream.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .ild import ILDModel, _label_runs, _labeled_rows, as_sample_arrays
from .mixing import AffineDense, LayerChain, LeakyRelu, _invertible_slogdet
from .scm import AffineSCM, DimensionMismatch, intervention_set

logger = logging.getLogger(__name__)

_GT_TAG = 0
_SPLIT_TAGS = {"train": 1, "val": 2, "test": 3}
_CALIBRATION_SAMPLES = 10_000
_MAX_ATTEMPTS = 100


@dataclass(frozen=True)
class GroundTruthSpec:
    """Shape of one simulated problem: sizes, intervened indices, and seed."""

    dim: int
    num_domains: int
    intervention: tuple[int, ...] = ()
    n_train: int = 100_000
    n_val: int = 1_000
    n_test: int = 1_000
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "intervention", tuple(sorted(int(i) for i in self.intervention))
        )
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.num_domains < 2:
            raise ValueError("need at least two domains")
        if len(set(self.intervention)) != len(self.intervention):
            raise ValueError(f"intervention indices must be distinct, got {self.intervention}")
        if any(not 1 <= i <= self.dim for i in self.intervention):
            raise ValueError(
                f"intervention indices must lie in [1, {self.dim}], got {self.intervention}"
            )
        if min(self.n_train, self.n_val, self.n_test) < 0:
            raise ValueError("sample counts must be >= 0")


@dataclass(frozen=True)
class Split:
    """One dataset split as arrays: observations ``x`` and 1-based labels ``d``."""

    x: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        x, d = as_sample_arrays((self.x, self.d))
        if x.ndim != 2 or d.shape != (x.shape[0],):
            raise DimensionMismatch(
                f"split arrays disagree: x {x.shape}, d {d.shape}"
            )
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "d", d)

    def __len__(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class MultiDomainDataset:
    """Train/val/test splits plus the spec and generating model for oracles."""

    train: Split
    val: Split
    test: Split
    spec: GroundTruthSpec
    generator_model: ILDModel

    def __post_init__(self):
        for name, split, count in (
            ("train", self.train, self.spec.n_train),
            ("val", self.val, self.spec.n_val),
            ("test", self.test, self.spec.n_test),
        ):
            expected = count * self.spec.num_domains
            if len(split) != expected:
                raise ValueError(
                    f"{name} split has {len(split)} samples, expected {expected}"
                )
            if count > 0:
                labels = set(np.unique(split.d).tolist())
                if labels != set(range(1, self.spec.num_domains + 1)):
                    raise ValueError(
                        f"{name} split labels {labels} do not cover all domains"
                    )


def generate_ground_truth(spec: GroundTruthSpec) -> ILDModel:
    """Deterministically build the ground-truth model for ``spec``.

    The detected intervention set of the result always contains
    ``spec.intervention``; for a trailing intervention set it equals it.  A
    non-trailing set can legitimately pick up extra later indices, because the
    per-domain biases propagate to descendant rows of the inverse mechanisms;
    those are accepted and logged.  Draws are retried with a new sub-seed when
    the mixing matrix is numerically singular or extra indices appear below
    the smallest requested one.
    """
    m, nd = spec.dim, spec.num_domains
    intervened0 = [i - 1 for i in spec.intervention]
    k = len(intervened0)
    leaky = LeakyRelu(0.5)
    for attempt in range(_MAX_ATTEMPTS):
        ss = np.random.SeedSequence([spec.seed, _GT_TAG, attempt])
        rng = np.random.Generator(np.random.PCG64(ss))
        base_L = np.tril(rng.standard_normal((m, m)), k=-1)
        bias_amp = 2.0 * math.sqrt(m / k) if k else 0.0
        scms = []
        for _ in range(nd):
            L = base_L.copy()
            for r in intervened0:
                L[r, :r] = rng.standard_normal(r)
            b = np.zeros(m)
            if k:
                b[intervened0] = rng.uniform(-bias_amp, bias_amp)
            scms.append(AffineSCM(L, np.ones(m), b))

        eps = rng.standard_normal((_CALIBRATION_SAMPLES, m))
        doms = np.arange(_CALIBRATION_SAMPLES) % nd
        z = np.empty_like(eps)
        for d in range(nd):
            z[doms == d] = scms[d].forward(eps[doms == d])
        v = leaky.forward(z)
        mu, sigma = v.mean(axis=0), v.std(axis=0)
        if np.any(sigma <= 1e-12):
            continue
        standardize = AffineDense(np.diag(1.0 / sigma), -mu / sigma)

        G = rng.standard_normal((m, m))
        slogdet = _invertible_slogdet(G)
        if slogdet is None:
            continue
        sign, logdet = slogdet
        G = G / math.exp(logdet / m)
        if sign < 0.0:
            G = G.copy()
            G[0] = -G[0]
        mix = LayerChain(m, (leaky, standardize, AffineDense(G, np.zeros(m))))
        model = ILDModel(mix, tuple(scms))

        detected = intervention_set(scms)
        if not set(spec.intervention) <= set(detected.indices):
            continue
        extra = sorted(set(detected.indices) - set(spec.intervention))
        if extra and min(extra) < min(spec.intervention, default=m + 1):
            continue
        if extra:
            logger.info(
                "ground truth seed=%d: inverse-level intervention set %s extends "
                "the requested %s; extra trailing indices accepted",
                spec.seed,
                detected.indices,
                spec.intervention,
            )
        return model
    raise RuntimeError(
        f"failed to generate a valid ground truth in {_MAX_ATTEMPTS} attempts"
    )


def _sample_split(gt: ILDModel, spec: GroundTruthSpec, name: str, count: int) -> Split:
    xs, ds = [], []
    for d in range(1, spec.num_domains + 1):
        ss = np.random.SeedSequence([spec.seed, _SPLIT_TAGS[name], d])
        xs.append(gt.sample(d, count, ss))
        ds.append(np.full(count, d, dtype=int))
    return Split(np.concatenate(xs, axis=0), np.concatenate(ds))


def sample_dataset(gt: ILDModel, spec: GroundTruthSpec) -> MultiDomainDataset:
    """Sample all three splits from ``gt`` with disjoint per-(domain, split) streams."""
    if gt.dim != spec.dim or gt.num_domains != spec.num_domains:
        raise DimensionMismatch("ground truth does not match the spec shape")
    return MultiDomainDataset(
        train=_sample_split(gt, spec, "train", spec.n_train),
        val=_sample_split(gt, spec, "val", spec.n_val),
        test=_sample_split(gt, spec, "test", spec.n_test),
        spec=spec,
        generator_model=gt,
    )


def oracle_counterfactual_error(estimated: ILDModel, gt: ILDModel, test) -> float:
    """Counterfactual mean squared error of ``estimated`` against ``gt``.

    For every ordered domain pair (d, d') with d != d', the squared distance
    between the two models' counterfactuals is averaged over the test samples
    of domain d; the per-pair means are summed and scaled by
    ``2 / (N_d (N_d - 1))``.  Bad input raises as ``domcf.ild._labeled_rows``
    says, and a domain with no test samples ``ValueError``.
    """
    X, labels = _labeled_rows(test, estimated, gt)
    nd = gt.num_domains
    order, runs = _label_runs(labels)
    missing = set(range(1, nd + 1)).difference(d for _, _, d in runs)
    if missing:
        raise ValueError(f"test set has no samples for domain {min(missing)}")
    total = 0.0
    for lo, hi, d in runs:
        rows = slice(lo, hi) if order is None else order[lo:hi]
        others = tuple(t for t in range(1, nd + 1) if t != d)
        diff = estimated.counterfactuals(X[rows], d, others)
        diff -= gt.counterfactuals(X[rows], d, others)
        for cf in diff:
            total += float(np.mean(np.sum(cf**2, axis=1)))
    return 2.0 / (nd * (nd - 1)) * total
