"""Invertible latent-domain models: sampling, likelihood, and counterfactuals.

A model pairs one shared invertible observation chain with one triangular
affine mechanism per domain; exogenous noise is standard normal.  A domain
counterfactual answers "what would this observation look like had it been
generated in domain d'?" via abduction (invert observation and mechanism),
action (switch mechanism), and prediction (re-generate):

    cf(x, d -> d') = g(f_d'(f_d^{-1}(g^{-1}(x))))

A mechanism is also a chain layer: ``construct_equivalent`` and
canonicalization compose one into ``g`` by placing the ``AffineSCM`` itself
in the chain.

Evaluation runs in row blocks.  ``dataset_nll`` is the one likelihood
kernel: it walks each run of equal labels in blocks of ``_BLOCK_ROWS`` rows
through the observation chain's stages and keeps only sums.
``ILDModel.log_likelihood`` stays the per-row reference the kernel is tested
against.  ``counterfactual`` and ``counterfactuals`` take the same blocks and
write into one preallocated output.  A full-batch pass keeps several
batch-sized temporaries alive at once, and the allocator serves each from
fresh pages, whose minor page faults can cost more than the arithmetic;
block-sized temporaries are reused from the heap.  Rows never mix in a
block, so a blocked counterfactual equals the full-batch one bit for bit.

Labeled samples ``(X, labels)`` follow one contract wherever they enter:
``_labeled_rows`` checks them (its docstring lists the errors), and
``_label_runs`` groups rows by label, stably, sorting only unsorted labels.

Randomness: every stochastic operation takes an explicit seed and draws from
numpy's PCG64 generator, optionally through a SeedSequence for derived
substreams.  Identical seeds give bit-identical outputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mixing import LayerChain, LeakyRelu
from .scm import (
    AffineSCM,
    DimensionMismatch,
    _check_vector,
    compose,
    intervention_set,
)

LOG_TWO_PI = math.log(2.0 * math.pi)
# Rows per evaluation block: small enough that a block's temporaries come
# back from the heap on every block, large enough that per-block Python
# overhead is a small share of a block's arithmetic.
_BLOCK_ROWS = 4096


def _blocks(start: int, stop: int):
    """``(lo, hi)`` bounds of consecutive row blocks covering ``[start, stop)``.

    A one-row block after others joins the block before it: numpy multiplies a
    single row by a matrix-vector product, whose rounding can differ from the
    matrix-matrix product that the same row gets in a larger batch.
    """
    bounds = [*range(start, stop, _BLOCK_ROWS), stop]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return zip(bounds, bounds[1:])


@dataclass(frozen=True)
class ILDModel:
    """Shared observation chain ``g`` plus one mechanism per domain."""

    g: LayerChain
    scms: tuple[AffineSCM, ...]

    def __post_init__(self):
        scms = tuple(self.scms)
        if len(scms) < 2:
            raise ValueError("a model needs at least two domains")
        for f in scms:
            if f.dim != self.g.dim:
                raise DimensionMismatch(
                    f"mechanism dim {f.dim} does not match observation dim {self.g.dim}"
                )
        object.__setattr__(self, "scms", scms)

    @property
    def dim(self) -> int:
        return self.g.dim

    @property
    def num_domains(self) -> int:
        return len(self.scms)

    def _scm(self, d: int) -> AffineSCM:
        if not 1 <= d <= self.num_domains:
            raise IndexError(f"domain index {d} out of range [1, {self.num_domains}]")
        return self.scms[d - 1]

    def sample(self, d: int, n: int, seed) -> np.ndarray:
        """Draw ``n`` observations from domain ``d`` as an ``(n, m)`` array.

        ``seed`` may be an int or a numpy SeedSequence; PCG64 throughout.
        """
        f = self._scm(d)
        if n < 0:
            raise ValueError("sample count must be >= 0")
        rng = np.random.Generator(np.random.PCG64(seed))
        return self.g.forward(f.forward(rng.standard_normal((n, self.dim))))

    def log_likelihood(self, x, d: int):
        """Exact log-density of ``x`` under domain ``d`` by change of variables.

        One reverse pass through ``g`` gives both ``z = g^{-1}(x)`` and the
        observation log-det.  Scalar for a single observation, ``(n,)`` for a
        batch.
        """
        f = self._scm(d)
        z, log_det_g = self.g.inverse_and_log_det(x)
        eps = f.inverse(z)
        log_det_fwd = log_det_g + f.log_abs_det()
        log_base = -0.5 * self.dim * LOG_TWO_PI - 0.5 * np.sum(eps**2, axis=-1)
        out = log_base - log_det_fwd
        return float(out) if np.ndim(out) == 0 else out

    def counterfactual(self, x, d: int, d_prime: int):
        """Deterministic domain counterfactual of ``x`` from ``d`` to ``d_prime``.

        Mechanisms are affine, so ``f_d' o f_d^{-1}`` is the affine map
        ``z -> A z + c`` with ``A = F_d' F_d^{-1}`` and ``c = b_d' - A b_d``.
        The map is rebuilt on each call (one ``m x m`` product of the
        mechanisms' cached matrices); the batch then goes through
        ``g(A g^{-1}(x) + c)`` with no solve, in row blocks.
        """
        return self._transport(x, d, (d_prime,))[0]

    def counterfactuals(self, x, d: int, targets: tuple[int, ...] | None = None) -> np.ndarray:
        """Counterfactuals of ``x`` from ``d`` into each target, from one abduction.

        ``targets`` holds 1-based domains (default: every domain, in order).
        ``g^{-1}`` is taken once per row block; slice ``i`` of the result is
        exactly ``counterfactual(x, d, targets[i])``, shape
        ``(len(targets),) + x.shape``.
        """
        targets = range(1, self.num_domains + 1) if targets is None else targets
        return self._transport(x, d, targets)

    def _transport(self, x, d: int, targets) -> np.ndarray:
        """``g(A_t g^{-1}(x) + c_t)`` for each target ``t``, block by block into
        one output; a single vector is a batch of one."""
        maps = [self._latent_map(d, t) for t in targets]
        x = _check_vector(x, self.dim)
        batch = x.reshape(-1, self.dim)
        out = np.empty((len(maps),) + batch.shape)
        for lo, hi in _blocks(0, len(batch)):
            z = self.g.inverse(batch[lo:hi])
            for cf, (A, c) in zip(out, maps):
                cf[lo:hi] = self.g.forward(z @ A.T + c)
        return out.reshape((len(maps),) + x.shape)

    def _latent_map(self, d: int, d_prime: int) -> tuple[np.ndarray, np.ndarray]:
        """``(A, c)`` with ``f_d'(f_d^{-1}(z)) = A z + c``."""
        f_from, f_to = self._scm(d), self._scm(d_prime)
        A = f_to.matrix @ f_from.inverse_matrix
        return A, f_to.b - A @ f_from.b


def as_sample_arrays(points) -> tuple[np.ndarray, np.ndarray]:
    """Coerce probe points to ``(X, labels)`` arrays.

    Accepts an ``(X, labels)`` pair or any object exposing ``x``/``d`` arrays
    (dataset splits); anything else raises ``ValueError``, as does a label
    that is not a whole number (``2.0`` is taken as ``2``, ``1.9`` refused).
    """
    if hasattr(points, "x") and hasattr(points, "d"):
        points = (points.x, points.d)
    if not (isinstance(points, tuple) and len(points) == 2):
        raise ValueError(
            f"expected a split with .x/.d arrays or an (X, labels) pair, got {type(points).__name__}"
        )
    x, d = points
    labels = np.asarray(d)
    if labels.dtype.kind not in "biu":
        labels = labels.astype(float)
        bad = ~np.isfinite(labels) | (labels != np.trunc(labels))
        if bad.any():
            raise ValueError(f"domain labels must be integers, got {float(labels[bad][0])}")
    return np.asarray(x, dtype=float), np.asarray(labels, dtype=int)


def _labeled_rows(points, *models, name: str = "data") -> tuple[np.ndarray, np.ndarray]:
    """``points`` as ``(X, labels)`` checked against ``models``, which must agree
    in ``(dim, num_domains)``: an empty input raises ``ValueError``, an ``X``
    that is not ``(n, dim)`` with ``n`` labels ``DimensionMismatch``, a label
    outside ``[1, num_domains]`` ``IndexError``, and a non-finite value in
    ``X`` ``ValueError`` ("``name`` holds a non-finite value")."""
    dim, nd = models[0].dim, models[0].num_domains
    for other in models[1:]:
        if (other.dim, other.num_domains) != (dim, nd):
            raise DimensionMismatch(
                f"models disagree in shape: ({dim}, {nd}) vs ({other.dim}, {other.num_domains})"
            )
    X, labels = as_sample_arrays(points)
    if X.shape[:1] == (0,):
        raise ValueError("points must be non-empty")
    if X.ndim != 2 or X.shape[1] != dim or labels.shape != X.shape[:1]:
        raise DimensionMismatch(
            f"expected (n, {dim}) points with n labels, got {X.shape} and {labels.shape}"
        )
    if labels.min() < 1 or labels.max() > nd:
        bad = labels[(labels < 1) | (labels > nd)][0]
        raise IndexError(f"domain index {bad} out of range [1, {nd}]")
    if not np.isfinite(X).all():
        raise ValueError(f"{name} holds a non-finite value")
    return X, labels


def _label_runs(keys: np.ndarray) -> tuple[np.ndarray | None, list[tuple[int, int, int]]]:
    """``order``, the stable argsort of ``keys`` (``None`` if already sorted), and
    the ``(lo, hi, key)`` runs of equal keys in ascending order: rows
    ``order[lo:hi]`` (``lo:hi`` if sorted) hold ``key``, in their original order."""
    order = None
    if np.any(keys[1:] < keys[:-1]):
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
    cuts = [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist(), len(keys)]
    return order, [(lo, hi, int(keys[lo])) for lo, hi in zip(cuts, cuts[1:])]


def dataset_nll(model: ILDModel, X, labels) -> float:
    """Mean negative log-likelihood of labeled observations under ``model``.

    The evaluation kernel (see the module docstring); it equals minus the
    mean of ``ILDModel.log_likelihood`` over the rows up to rounding.  Each
    run of equal labels (``_label_runs``) goes through the stages of ``g`` in
    reverse in row blocks, keeping only sums: the squared noise, each leaky
    ReLU's count of negative inputs per block times its log-slope, and row
    counts times the constant log-dets.  Bad input raises as in ``_labeled_rows``.
    """
    X, labels = _labeled_rows((X, labels), model)
    order, runs = _label_runs(labels)
    stages = model.g.stages[::-1]
    const_log_det = sum(sum(s.log_dets) for s in stages if not isinstance(s, LeakyRelu))
    sq_sum = log_det_sum = 0.0
    for start, stop, d in runs:
        f = model.scms[d - 1]
        for lo, hi in _blocks(start, stop):
            v = X[lo:hi] if order is None else X[order[lo:hi]]
            for stage in stages:
                v = stage.inverse(v)
                if isinstance(stage, LeakyRelu):
                    log_det_sum += int(np.count_nonzero(v < 0.0)) * math.log(stage.slope)
            eps = f.inverse(v)
            sq_sum += float(np.sum(np.square(eps, out=eps)))
        log_det_sum += (stop - start) * (const_log_det + f.log_abs_det())
    return (0.5 * sq_sum + log_det_sum) / len(X) + 0.5 * model.dim * LOG_TWO_PI


def dc_distance(a: ILDModel, b: ILDModel, data, seed: int) -> float:
    """Monte-Carlo counterfactual RMSE between two models.

    For each sample ``(x, d)`` a target domain ``d'`` is drawn from the
    empirical marginal of the domain labels in ``data`` (seeded), and the
    squared distance between the two models' counterfactuals is accumulated.
    Symmetric under a shared seed and satisfies the triangle inequality.
    """
    X, labels = _labeled_rows(data, a, b)
    rng = np.random.Generator(np.random.PCG64(seed))
    targets = rng.choice(labels, size=len(X), replace=True)
    order, runs = _label_runs(labels * (a.num_domains + 1) + targets)
    total = 0.0
    for lo, hi, key in runs:
        rows = slice(lo, hi) if order is None else order[lo:hi]
        d, d_prime = divmod(key, a.num_domains + 1)
        diff = a.counterfactual(X[rows], d, d_prime) - b.counterfactual(X[rows], d, d_prime)
        total += float(np.sum(diff**2))
    return math.sqrt(total / len(X))


def check_counterfactual_equiv(
    a: ILDModel, b: ILDModel, points, tol: float
) -> tuple[bool, float]:
    """Whether all domain counterfactuals of the two models agree on the probes.

    Every probe is pushed through every ordered domain pair; returns the pass
    flag and the maximum coordinatewise deviation seen.
    """
    X, _ = _labeled_rows(points, a, b)
    max_dev = 0.0
    for d in range(1, a.num_domains + 1):
        dev = a.counterfactuals(X, d)
        dev -= b.counterfactuals(X, d)
        max_dev = float(np.maximum(max_dev, np.abs(dev).max()))  # keeps a NaN
    return max_dev <= tol, max_dev


def check_distribution_equiv(
    a: ILDModel, b: ILDModel, points, tol: float
) -> tuple[bool, float]:
    """Per-sample log-density comparison at the probes' own domain labels.

    A sufficient sample-level proxy for density equality: exact when densities
    are continuous and the probes cover the support.
    """
    X, labels = _labeled_rows(points, a, b)
    order, runs = _label_runs(labels)
    max_dev = 0.0
    for lo, hi, d in runs:
        rows = slice(lo, hi) if order is None else order[lo:hi]
        dev = np.abs(a.log_likelihood(X[rows], d) - b.log_likelihood(X[rows], d))
        max_dev = float(np.maximum(max_dev, np.max(dev)))  # keeps a NaN
    return max_dev <= tol, max_dev


def construct_equivalent(model: ILDModel, h1: AffineSCM, h2: AffineSCM) -> ILDModel:
    """Counterfactually equivalent model ``(g o h1^{-1}, {h1 o f_d o h2})``.

    ``h1`` and ``h2`` must be triangular affine mechanisms so the transformed
    mechanisms stay in the autoregressive family.  The output preserves all
    domain counterfactuals and the intervention set size.
    """
    if h1.dim != model.dim or h2.dim != model.dim:
        raise DimensionMismatch("h1/h2 dims must match the model")
    g_new = model.g.append_right(h1.invert())
    scms_new = tuple(compose(h1, compose(f, h2)) for f in model.scms)
    return ILDModel(g_new, scms_new)


def ground_truth_bound_term(model: ILDModel) -> float:
    """Worst-case error term ``k * L^2 * max_i E[(f_d(eps) - f_d'(eps))_i^2]``, exactly.

    ``k`` is the intervention set size, ``L`` the Lipschitz upper bound of the
    observation chain, and the expectation runs over standard-normal noise and
    uniformly random ordered pairs of distinct domains.  Coordinate ``i`` of
    ``f_d(eps) - f_d'(eps)`` is normal with mean ``(b_d - b_d')_i`` and
    variance ``||row_i(F_d - F_d')||^2``, so the expectation is the average of
    their sum over the pairs (a pair ``d = d'`` adds 0).
    """
    k = intervention_set(model.scms).size
    lip = model.g.lipschitz_upper_bound()
    F = np.stack([f.matrix for f in model.scms])
    b = np.stack([f.b for f in model.scms])
    sq = np.sum((F[:, None] - F[None]) ** 2, axis=-1) + (b[:, None] - b[None]) ** 2
    nd = model.num_domains
    per_coord = sq.sum(axis=(0, 1)) / (nd * (nd - 1))
    return k * lip**2 * float(per_coord.max())
