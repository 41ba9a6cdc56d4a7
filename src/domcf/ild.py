"""Invertible latent-domain models: sampling, likelihood, and counterfactuals.

A model pairs one shared invertible observation chain with one triangular
affine mechanism per domain; exogenous noise is standard normal.  A domain
counterfactual answers "what would this observation look like had it been
generated in domain d'?" via abduction (invert observation and mechanism),
action (switch mechanism), and prediction (re-generate):

    cf(x, d -> d') = g(f_d'(f_d^{-1}(g^{-1}(x))))

Randomness: every stochastic operation takes an explicit seed and draws from
numpy's PCG64 generator, optionally through a SeedSequence for derived
substreams.  Identical seeds give bit-identical outputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mixing import LayerChain, Triangular
from .scm import (
    DEFAULT_INTERVENTION_TOL,
    AffineSCM,
    DimensionMismatch,
    compose,
    intervention_set,
)

LOG_TWO_PI = math.log(2.0 * math.pi)


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
        eps = rng.standard_normal((n, self.dim))
        if n == 0:
            return eps
        return self.g.forward(f.forward(eps))

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
        ``g(A g^{-1}(x) + c)`` with no solve.
        """
        A, c = self._latent_map(d, d_prime)
        return self.g.forward(self.g.inverse(x) @ A.T + c)

    def counterfactuals(self, x, d: int, targets: tuple[int, ...] | None = None) -> np.ndarray:
        """Counterfactuals of ``x`` from ``d`` into each target, from one abduction.

        ``targets`` holds 1-based domains (default: every domain, in order).
        ``g^{-1}(x)`` is computed once; slice ``i`` of the result is exactly
        ``counterfactual(x, d, targets[i])``, shape ``(len(targets),) + x.shape``.
        """
        targets = range(1, self.num_domains + 1) if targets is None else targets
        maps = [self._latent_map(d, t) for t in targets]
        z = self.g.inverse(x)
        out = np.empty((len(maps),) + z.shape)
        for cf, (A, c) in zip(out, maps):
            cf[...] = self.g.forward(z @ A.T + c)
        return out

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


def _probe_arrays(a: ILDModel, b: ILDModel, points) -> tuple[np.ndarray, np.ndarray]:
    """``points`` as ``(X, labels)`` for comparing ``a`` and ``b``; the models must
    agree in shape, and the points must be non-empty and of their dimension."""
    if a.dim != b.dim or a.num_domains != b.num_domains:
        raise DimensionMismatch(
            f"models disagree in shape: ({a.dim}, {a.num_domains}) vs "
            f"({b.dim}, {b.num_domains})"
        )
    X, labels = as_sample_arrays(points)
    if len(X) == 0:
        raise ValueError("points must be non-empty")
    if X.shape[-1] != a.dim:
        raise DimensionMismatch(f"point dim {X.shape[-1]} != model dim {a.dim}")
    return X, labels


def dc_distance(a: ILDModel, b: ILDModel, data, seed: int) -> float:
    """Monte-Carlo counterfactual RMSE between two models.

    For each sample ``(x, d)`` a target domain ``d'`` is drawn from the
    empirical marginal of the domain labels in ``data`` (seeded), and the
    squared distance between the two models' counterfactuals is accumulated.
    Symmetric under a shared seed and satisfies the triangle inequality.
    """
    X, labels = _probe_arrays(a, b, data)
    rng = np.random.Generator(np.random.PCG64(seed))
    targets = rng.choice(labels, size=len(X), replace=True)
    total = 0.0
    for d in np.unique(labels):
        for d_prime in np.unique(targets):
            mask = (labels == d) & (targets == d_prime)
            if not np.any(mask):
                continue
            diff = a.counterfactual(X[mask], int(d), int(d_prime)) - b.counterfactual(
                X[mask], int(d), int(d_prime)
            )
            total += float(np.sum(diff**2))
    return math.sqrt(total / len(X))


def check_counterfactual_equiv(
    a: ILDModel, b: ILDModel, points, tol: float
) -> tuple[bool, float]:
    """Whether all domain counterfactuals of the two models agree on the probes.

    Every probe is pushed through every ordered domain pair; returns the pass
    flag and the maximum coordinatewise deviation seen.
    """
    X, _ = _probe_arrays(a, b, points)
    max_dev = 0.0
    for d in range(1, a.num_domains + 1):
        dev = a.counterfactuals(X, d)
        dev -= b.counterfactuals(X, d)
        max_dev = max(max_dev, float(np.abs(dev).max()))
    return max_dev <= tol, max_dev


def check_distribution_equiv(
    a: ILDModel, b: ILDModel, points, tol: float
) -> tuple[bool, float]:
    """Per-sample log-density comparison at the probes' own domain labels.

    A sufficient sample-level proxy for density equality: exact when densities
    are continuous and the probes cover the support.
    """
    X, labels = _probe_arrays(a, b, points)
    max_dev = 0.0
    for d in np.unique(labels):
        mask = labels == d
        dev = np.abs(
            a.log_likelihood(X[mask], int(d)) - b.log_likelihood(X[mask], int(d))
        )
        max_dev = max(max_dev, float(np.max(dev)))
    return max_dev <= tol, max_dev


def construct_equivalent(model: ILDModel, h1: AffineSCM, h2: AffineSCM) -> ILDModel:
    """Counterfactually equivalent model ``(g o h1^{-1}, {h1 o f_d o h2})``.

    ``h1`` and ``h2`` must be triangular affine mechanisms so the transformed
    mechanisms stay in the autoregressive family.  The output preserves all
    domain counterfactuals and the intervention set size.
    """
    if h1.dim != model.dim or h2.dim != model.dim:
        raise DimensionMismatch("h1/h2 dims must match the model")
    g_new = model.g.append_right(Triangular(h1.invert()))
    scms_new = tuple(compose(h1, compose(f, h2)) for f in model.scms)
    return ILDModel(g_new, scms_new)


def ground_truth_bound_term(
    model: ILDModel,
    n_mc: int,
    seed: int,
    tol: float = DEFAULT_INTERVENTION_TOL,
) -> float:
    """Evaluable worst-case error term ``k * L^2 * max_i E[(f_d(eps) - f_d'(eps))_i^2]``.

    ``k`` is the intervention set size, ``L`` the Lipschitz upper bound of the
    observation chain, and the expectation is Monte-Carlo over standard-normal
    noise and uniformly random ordered pairs of distinct domains.
    """
    if n_mc < 1:
        raise ValueError("n_mc must be >= 1")
    k = intervention_set(model.scms, tol).size
    if k == 0:
        return 0.0
    lip = model.g.lipschitz_upper_bound()
    rng = np.random.Generator(np.random.PCG64(seed))
    m, nd = model.dim, model.num_domains
    eps = rng.standard_normal((n_mc, m))
    d_from = rng.integers(0, nd, size=n_mc)
    d_to = (d_from + rng.integers(1, nd, size=n_mc)) % nd
    sq = np.zeros(m)
    for a in range(nd):
        for c in range(nd):
            if a == c:
                continue
            mask = (d_from == a) & (d_to == c)
            if not np.any(mask):
                continue
            diff = model.scms[a].forward(eps[mask]) - model.scms[c].forward(eps[mask])
            sq += np.sum(diff**2, axis=0)
    per_coord = sq / n_mc
    return k * lip**2 * float(per_coord.max())
