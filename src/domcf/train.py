"""Sparsity-constrained maximum-likelihood estimation.

Two trainable variants share one architecture: a per-domain triangular affine
mechanism followed by a fixed slope-0.5 leaky ReLU and a dense affine output
layer.  The "can" variant stores a single copy of the first ``m - k`` rows of
the mechanism parameters (dependency rows, log-scales, biases) shared across
domains, so the estimated intervention set is confined to the trailing ``k``
coordinates by construction rather than by penalty; "dense" gives every domain
all ``m`` rows and equals "can" with ``k = m``.

Scales are parameterized as ``log S`` so positivity survives unconstrained
gradient steps.  The dense output layer is stored and optimized in the
inverse (data-to-noise) direction, ``u = W x + c`` with ``G = W^{-1}`` and
``b_g = -W^{-1} c``, the usual convention when fitting by maximum likelihood:
the whole training pass is solver-free and the gradient of the quadratic term
never passes through an inverted matrix, which keeps its variance moderate
even when the fitted mixing is badly conditioned.

Every trainable parameter lives in one contiguous float64 buffer
(``ParamSet``) with read-only named views; the gradient has the same layout,
and Adam updates the whole buffer with a few vector operations.  A training
step computes only a gradient (``_nll_grad``), in one stacked pass over all
domains into one reused buffer; records and the kink search's judge take
their NLL from ``domcf.ild.dataset_nll``, the blocked evaluation kernel,
never from the per-row reference ``ILDModel.log_likelihood``.

The batch negative log-likelihood is ``dataset_nll(trainable.materialize(),
X, labels)``; ``nll_gradient`` is its exact reverse-mode gradient (the
leaky-ReLU derivative at exactly 0 uses the slope-1 branch).  It is not what
training follows: each negative pre-activation adds ``log s`` to a sample's
NLL, so the per-sample NLL jumps where a point crosses a kink, and the batch
gradient, which treats the count of negative entries as constant, is a
biased estimate of the gradient of the expected NLL.  Followed
by Adam it pushes every kink out of the data into a linear-Gaussian fit.  The
training update adds the kink-crossing term (``_kink_crossing_term``), a
kernel estimate of each pre-activation's density at 0 times ``-log s``.

Training departs from the paper's constant-rate Adam in two ways: learning
rates decay geometrically from 10 times the configured rates to them, and a
kink search (``_KinkSearch``) periodically proposes new directions for dead or
useless kinks, keeping a proposal only if the training NLL did not rise.
It scores candidates by a closed-form profile fit (``_profile_fit``) that
reads each group of mechanism rows off one Cholesky factor.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate, combinations

import numpy as np

from .ild import ILDModel, LOG_TWO_PI, _labeled_rows, dataset_nll
from .mixing import AffineDense, LayerChain, LeakyRelu, _invertible_slogdet
from .scm import AffineSCM

ADAM_BETA1 = 0.5
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LEAKY_SLOPE = 0.5
# SeedSequence tags keeping initialization, batch sampling and the kink search
# on disjoint streams even when all derive from the same user-facing seed.
_INIT_STREAM = 101
_BATCH_STREAM = 102
_SEARCH_STREAM = 103
# Learning rates start at this multiple of the configured ones and decay
# geometrically to them by the last iteration.
_INITIAL_LR_FACTOR = 10.0
# Kink search: iterations between checks, training rows it scores proposals
# on, the share of them a kink must keep on each side to count as alive, and
# the random directions screened per replaced row.
_SEARCH_EVERY = 500
_SEARCH_ROWS = 4000
_DEAD_SHARE = 0.05
_CANDIDATES = 16


@dataclass(frozen=True)
class VariantSpec:
    """One training arm: "can" with a target intervention size, or "dense"."""

    kind: str
    k: int | None = None

    def __post_init__(self):
        if self.kind not in ("can", "dense"):
            raise ValueError(f"variant kind must be 'can' or 'dense', got {self.kind!r}")
        if self.kind == "dense" and self.k is not None:
            raise ValueError(f"'dense' takes no k, got k={self.k}")
        if self.kind == "can":
            integral = isinstance(self.k, numbers.Integral) and not isinstance(self.k, bool)
            if not integral or self.k < 0:
                raise ValueError(
                    f"'can' needs an integer target intervention size k >= 0, got k={self.k}"
                )
            object.__setattr__(self, "k", int(self.k))

    def label(self) -> str:
        return f"can{self.k}" if self.kind == "can" else "dense"


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer settings; defaults follow the simulated-experiment protocol."""

    learning_rate_g: float = 1e-3
    learning_rate_f: float = 1e-3
    batch_size: int = 500
    iterations: int = 50_000
    eval_every: int = 100
    seed: int = 0

    def __post_init__(self):
        if not all(0.0 < lr < math.inf for lr in (self.learning_rate_g, self.learning_rate_f)):
            raise ValueError("learning rates must be positive and finite")
        if self.batch_size <= 0 or self.eval_every <= 0 or self.iterations < 0:
            raise ValueError("batch_size and eval_every must be positive, iterations >= 0")


class ParamSet:
    """All free parameters of one trainable model in one contiguous float64 buffer.

    ``vec`` is the buffer; ``W``, ``c``, ``shared_L``, ``shared_logS``,
    ``shared_b``, ``dom_L``, ``dom_logS`` and ``dom_b`` are fixed views of
    it, in that order.  A view cannot be rebound (``p.W = ...`` raises
    ``AttributeError``); write through it in place (``p.W[...] = ...``).
    ``W`` and ``c`` parameterize the observation layer in the inverse
    direction (``u = W x + c``).  Entries of ``shared_L`` and ``dom_L`` on or
    above the diagonal of the full ``L`` are structural zeros: training keeps
    them at 0 and ``TrainableILD.mechanism_arrays`` masks them out.
    """

    def __init__(
        self, dim: int, num_domains: int, domain_rows: int, vec: np.ndarray | None = None
    ):
        ns = dim - domain_rows
        shapes = (
            (dim, dim),
            (dim,),
            (ns, dim),
            (ns,),
            (ns,),
            (num_domains, domain_rows, dim),
            (num_domains, domain_rows),
            (num_domains, domain_rows),
        )
        ends = list(accumulate(math.prod(shape) for shape in shapes))
        if vec is None:
            vec = np.zeros(ends[-1])
        elif vec.shape != (ends[-1],):
            raise ValueError(f"expected {ends[-1]} entries, got shape {vec.shape}")
        self._layout = (dim, num_domains, domain_rows)
        self._vec = vec
        self._views = tuple(
            vec[end - math.prod(shape) : end].reshape(shape) for end, shape in zip(ends, shapes)
        )

    vec = property(lambda self: self._vec)
    W = property(lambda self: self._views[0])
    c = property(lambda self: self._views[1])
    shared_L = property(lambda self: self._views[2])
    shared_logS = property(lambda self: self._views[3])
    shared_b = property(lambda self: self._views[4])
    dom_L = property(lambda self: self._views[5])
    dom_logS = property(lambda self: self._views[6])
    dom_b = property(lambda self: self._views[7])

    def copy(self) -> ParamSet:
        return ParamSet(*self._layout, self._vec.copy())

    def zeros_like(self) -> ParamSet:
        return ParamSet(*self._layout)


@dataclass
class TrainableILD:
    """Parameterized model with hard row sharing across domains.

    ``domain_rows`` is the number of trailing mechanism rows that carry
    per-domain parameters: the target intervention size for "can" and the full
    dimension for "dense".
    """

    dim: int
    num_domains: int
    domain_rows: int
    params: ParamSet

    @property
    def shared_rows(self) -> int:
        return self.dim - self.domain_rows

    @classmethod
    def initialize(
        cls,
        dim: int,
        num_domains: int,
        kind: str = "dense",
        k: int | None = None,
        seed: int = 0,
    ) -> TrainableILD:
        """Seeded initialization: mechanism entries 0.1-scaled standard normal
        with ``log S = 0``; the output layer starts at ``W = I``, ``c = 0``.
        ``(kind, k)`` must form a ``VariantSpec``, with ``k <= dim``.
        """
        k = VariantSpec(kind, k).k
        kk = dim if k is None else k
        if kk > dim:
            raise ValueError(f"k={kk} must lie in [0, dim={dim}]")
        ns = dim - kk
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, _INIT_STREAM])))
        strict = np.tril(np.ones((dim, dim)), k=-1)
        L_all = rng.standard_normal((num_domains, dim, dim)) * 0.1 * strict
        b_all = rng.standard_normal((num_domains, dim)) * 0.1
        params = ParamSet(dim, num_domains, kk)
        params.W[...] = np.eye(dim)
        params.shared_L[...] = L_all[0, :ns]
        params.shared_b[...] = b_all[0, :ns]
        params.dom_L[...] = L_all[:, ns:]
        params.dom_b[...] = b_all[:, ns:]
        return cls(dim, num_domains, kk, params)

    def copy(self) -> TrainableILD:
        return replace(self, params=self.params.copy())

    @cached_property
    def _strict(self) -> np.ndarray:
        """Strictly-lower-triangular 0/1 mask of the full ``L``, built once per model."""
        return np.tril(np.ones((self.dim, self.dim)), k=-1)

    def mechanism_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every domain's full ``(L, logS, b)``, stacked along a leading domain axis."""
        p, ns = self.params, self.shared_rows
        L = np.empty((self.num_domains, self.dim, self.dim))
        logS, b = np.empty((2, self.num_domains, self.dim))
        L[:, :ns], logS[:, :ns], b[:, :ns] = p.shared_L, p.shared_logS, p.shared_b
        L[:, ns:], logS[:, ns:], b[:, ns:] = p.dom_L, p.dom_logS, p.dom_b
        L *= self._strict
        return L, logS, b

    def materialize(self) -> ILDModel:
        """The current parameters as an immutable model."""
        L, logS, b = self.mechanism_arrays()
        scms = tuple(map(AffineSCM, L, np.exp(logS), b))
        G = np.linalg.inv(self.params.W)
        mix = (LeakyRelu(LEAKY_SLOPE), AffineDense(G, -G @ self.params.c))
        return ILDModel(LayerChain(self.dim, mix), scms)

    def free_vector(self) -> np.ndarray:
        """A copy of the parameter buffer."""
        return self.params.vec.copy()

    def with_free_vector(self, vec: np.ndarray) -> TrainableILD:
        """A copy of the model with ``vec`` loaded as its parameter buffer."""
        vec = np.array(vec, dtype=float)
        return replace(self, params=ParamSet(self.dim, self.num_domains, self.domain_rows, vec))


def _kink_crossing_term(U: np.ndarray) -> np.ndarray:
    """Per-sample boundary term of the expected-NLL gradient with respect to ``U``.

    Each negative pre-activation adds ``log s`` to a sample's NLL, so the
    per-sample NLL jumps where a point crosses a kink and its pathwise
    gradient misses how the expected NLL changes as parameters move the kink
    through the data: ``d/dc_j E[log s * 1{u_j < 0}] = -log s * p_j(0)``, with
    ``p_j`` the density of ``u_j``.  The column means of the returned array are
    Gaussian-kernel estimates of ``-log s * p_j(0)`` (Silverman bandwidth
    ``1.06 sd n^(-1/5)`` on the batch, ``sd`` from column sums taken as products with
    a ones vector); chained through ``u = W x + c`` it gives the ``W`` term.
    """
    n = U.shape[0]
    ones = np.ones(n)
    centered = U - (ones @ U) / n
    sd = np.sqrt((ones @ (centered * centered)) / n)
    h = 1.06 * np.maximum(sd, 1e-12) * n ** -0.2
    return (-math.log(LEAKY_SLOPE) / (h * math.sqrt(2.0 * math.pi))) * np.exp(
        -0.5 * (U / h) ** 2
    )


def _nll_grad(
    trainable: TrainableILD,
    X: np.ndarray,
    labels: np.ndarray,
    kink_term: bool = False,
    out: ParamSet | None = None,
) -> ParamSet:
    """Gradient of the batch's mean negative log-likelihood.

    Works entirely in the inverse direction: ``u = W x + c``, so
    ``log |det J_fwd|`` of the dense layer contributes ``-log |det W|``.
    Without ``kink_term`` the result is the exact gradient of the batch
    loss; with it, ``_kink_crossing_term`` is added, which makes the result
    an estimate of the gradient of the expected NLL (the training update).
    One stacked pass serves every domain: a float one-hot mask of the labels
    keeps each row's own domain (a label outside ``[1, nd]`` keeps none), and
    column sums are products with a ones vector.  Every entry of ``out`` (a
    fresh buffer when ``None``) is overwritten, so one buffer serves all steps.
    A singular ``W`` raises ``LinAlgError``.
    """
    p = trainable.params
    m, nd, ns = trainable.dim, trainable.num_domains, trainable.shared_rows
    n, s = X.shape[0], LEAKY_SLOPE
    grads = p.zeros_like() if out is None else out

    U = X @ p.W.T + p.c
    Z = LeakyRelu(s).inverse(U)
    ones = np.ones(n)
    onehot = (labels[:, None] == np.arange(1, nd + 1)).astype(float)
    counts = ones @ onehot

    L, logS, b = trainable.mechanism_arrays()
    M = np.eye(m) - L
    M2 = M.reshape(nd * m, m)
    inv_S = np.exp(-logS)
    # Column block d of Eps holds eps = M_d (z - b_d) / S_d; the one-hot
    # product puts 1 / S_d in each row's own block and 0 in the others.
    scale = onehot @ (np.eye(nd)[:, :, None] * inv_S[:, None, :]).reshape(nd, nd * m)
    Eps = (Z @ M2.T - (M @ b[:, :, None]).ravel()) * scale
    Wgt = Eps * scale
    sq_sums = (ones @ (Eps * Eps)).reshape(nd, m)
    wgt_sums = (ones @ Wgt).reshape(nd, m)

    # Per-domain gradients in columns [L row | logS | b]; shared rows sum them.
    g = np.empty((nd, m, m + 2))
    g[:, :, :m] = (Wgt.T @ Z).reshape(nd, m, m) - wgt_sums[:, :, None] * b[:, None, :]
    g[:, :, :m] *= -trainable._strict
    g[:, :, m] = counts[:, None] - sq_sums
    g[:, :, m + 1] = -(wgt_sums[:, None, :] @ M)[:, 0]
    shared = (np.ones(nd) @ g[:, :ns].reshape(nd, ns * (m + 2))).reshape(ns, m + 2)
    grads.shared_L[...], grads.shared_logS[...], grads.shared_b[...] = (
        shared[:, :m], shared[:, m], shared[:, m + 1]
    )
    grads.dom_L[...], grads.dom_logS[...], grads.dom_b[...] = (
        g[:, ns:, :m], g[:, ns:, m], g[:, ns:, m + 1]
    )

    dU = Wgt @ M2
    dU *= np.where(U < 0.0, 1.0 / s, 1.0)
    if kink_term:
        dU += _kink_crossing_term(U)
    grads.W[...] = dU.T @ X - n * np.linalg.inv(p.W).T
    grads.c[...] = ones @ dU
    grads.vec[...] /= n
    return grads


def _profile_fit(
    trainable: TrainableILD, X: np.ndarray, labels: np.ndarray, choose_rows: bool = False
) -> tuple[TrainableILD, float]:
    """Maximum-likelihood mechanisms for the current observation layer.

    With ``W`` and ``c`` fixed the latents ``z`` are fixed, and each mechanism
    row is a least-squares regression of ``z_j`` on ``[1, z_<j]``: pooled over
    domains for the shared rows, per domain for the trailing ``k``.  All
    regressions of a group come from one Cholesky factor ``C`` of the group's
    moment matrix of ``[1, z]`` (the modified Cholesky decomposition): below
    the constant row, row ``j`` of ``C^{-1}`` is ``(1/S_j) [-a_j, (I - L)_j]``
    with ``a_j`` the intercept.  Those rows hold ``F^{-1}`` and ``-a / S``,
    and ``b = (I - L)^{-1} a`` takes one solve.  Each group's moment matrix
    must be positive definite, so each needs more rows than regressors.  With
    ``choose_rows`` the rows of ``(W, c)`` are first permuted so that the
    ``m - k`` coordinates whose joint law varies least across domains are the
    shared ones (the Gaussian likelihood depends only on that split, not on
    the order within each group).  Returns the refitted copy and its mean NLL
    on ``(X, labels)``, whose mechanism part is ``sum(count * log S) / n``.
    """
    p = trainable.params
    m, nd, ns = trainable.dim, trainable.num_domains, trainable.shared_rows
    n = X.shape[0]
    U = X @ p.W.T + p.c
    Z1 = np.hstack([np.ones((n, 1)), LeakyRelu(LEAKY_SLOPE).inverse(U)])
    groups = [Z1[labels == d0 + 1] for d0 in range(nd)]
    counts = np.array([len(g) for g in groups])
    moments = np.stack([g.T @ g / max(len(g), 1) for g in groups])
    pooled = np.tensordot(counts / n, moments, axes=1)
    perm = np.arange(m)
    if choose_rows and 0 < ns < m:

        def variation(shared: tuple[int, ...]) -> float:
            # The covariance of z[idx] is the Schur complement of the constant
            # row in these moments, so both have the same determinant.
            idx = np.concatenate([[0], np.array(shared) + 1])
            pooled_logdet = np.linalg.slogdet(pooled[np.ix_(idx, idx)])[1]
            return n * pooled_logdet - counts @ np.linalg.slogdet(moments[:, idx][:, :, idx])[1]

        shared = min(combinations(range(m), ns), key=variation)
        perm = np.array(list(shared) + [j for j in range(m) if j not in shared])
    out = trainable.copy()
    q = out.params
    q.W[...], q.c[...] = p.W[perm], p.c[perm]
    order = np.concatenate([[0], perm + 1])
    moments = moments[:, order][:, :, order]
    pooled = pooled[np.ix_(order, order)]

    # Shared rows from the pooled factor, the trailing k from each domain's.
    # ``inv`` pivots and may leave rounding above the diagonal; ``tril`` drops it.
    T = np.linalg.inv(np.linalg.cholesky(moments))[:, 1:]
    T[:, :ns] = np.linalg.inv(np.linalg.cholesky(pooled))[1 : ns + 1]
    F_inv = np.tril(T[:, :, 1:])
    S = 1.0 / np.diagonal(F_inv, axis1=1, axis2=2)
    L = np.tril(np.eye(m) - S[:, :, None] * F_inv, k=-1)
    b = np.linalg.solve(F_inv, -T[:, :, :1])[:, :, 0]
    logS = np.log(S)
    q.shared_L[...], q.shared_logS[...], q.shared_b[...] = L[0, :ns], logS[0, :ns], b[0, :ns]
    q.dom_L[...], q.dom_logS[...], q.dom_b[...] = L[:, ns:], logS[:, ns:], b[:, ns:]
    nll = (
        0.5 * m * (LOG_TWO_PI + 1.0)
        + counts @ logS.sum(axis=1) / n
        + math.log(LEAKY_SLOPE) * np.count_nonzero(U < 0.0) / n
        - np.linalg.slogdet(q.W)[1]
    )
    return out, nll


class _KinkSearch:
    """Proposes new directions for leaky-ReLU kinks that are dead or useless.

    A kink with (nearly) every training point on one side is dead: the layer
    is linear there and no gradient reaches it.  Fits from the identity start
    settle into local optima with some kinks dead or pointing in directions
    that explain little.  Each check first judges the pending proposal: it is
    kept if the mean NLL on a fixed training subsample (``dataset_nll``, the
    records' evaluator) did not rise since it was made, otherwise the
    parameters are restored and the wait before the next proposal doubles.  A proposal replaces the row of ``(W, c)`` of every
    dead kink, or if none is dead the kink whose removal costs the least
    profile NLL, by the candidate with the lowest profile NLL
    (``_profile_fit``) among random directions in whitened coordinates, each
    with the kink at the median and either orientation.  The rows are
    then re-split into shared and per-domain ones and the mechanisms refitted
    in closed form.
    """

    def __init__(
        self, X: np.ndarray, labels: np.ndarray, num_domains: int, config: TrainConfig
    ):
        self.rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([config.seed, _SEARCH_STREAM]))
        )
        rows = np.sort(self.rng.choice(len(X), size=min(len(X), _SEARCH_ROWS), replace=False))
        self.X, self.labels = X[rows], labels[rows]
        m = X.shape[1]
        evals, evecs = np.linalg.eigh(np.cov(X.T).reshape(m, m))
        self.white = (evecs / np.sqrt(np.maximum(evals, 1e-300))) @ evecs.T
        self.wait = _SEARCH_EVERY
        self.next_proposal = 0
        self.last_proposal = config.iterations - _SEARCH_EVERY
        # The closed-form refit needs more rows than regressors in every domain.
        if np.bincount(self.labels, minlength=num_domains + 1)[1:].min() <= m + 1:
            self.last_proposal = -1
        self.pending: tuple[ParamSet, float] | None = None

    def check(self, work: TrainableILD, iteration: int) -> bool:
        """Judge the pending proposal, maybe propose; True if ``work`` changed."""
        if self.pending is not None:
            before, nll_before = self.pending
            self.pending = None
            if dataset_nll(work.materialize(), self.X, self.labels) > nll_before:
                work.params = before
                self.wait *= 2
                self.next_proposal = iteration + self.wait
                return True
            self.wait = _SEARCH_EVERY
        if not self.next_proposal <= iteration <= self.last_proposal:
            return False
        U = self.X @ work.params.W.T + work.params.c
        share = np.mean(U < 0.0, axis=0)
        rows = np.flatnonzero((share < _DEAD_SHARE) | (share > 1.0 - _DEAD_SHARE))
        if rows.size == 0:
            rows = [self._least_useful_row(work, U)]
        self.pending = (work.params.copy(), dataset_nll(work.materialize(), self.X, self.labels))
        for j in rows:
            work.params.W[j], work.params.c[j] = self._best_row(work, j)
        work.params = _profile_fit(work, self.X, self.labels, choose_rows=True)[0].params
        return True

    def _least_useful_row(self, work: TrainableILD, U: np.ndarray) -> int:
        """The row whose kink, moved below all the data, costs the least profile NLL."""
        costs = []
        for j in range(work.dim):
            trial = work.copy()
            trial.params.c[j] -= U[:, j].min() - 1.0
            costs.append(_profile_fit(trial, self.X, self.labels)[1])
        return int(np.argmin(costs))

    def _best_row(self, work: TrainableILD, j: int) -> tuple[np.ndarray, float]:
        """The candidate ``(W_j, c_j)`` with the lowest profile NLL."""
        best, best_nll = (work.params.W[j].copy(), float(work.params.c[j])), math.inf
        trial = work.copy()
        for direction in self.rng.standard_normal((_CANDIDATES, work.dim)):
            row = (direction / np.linalg.norm(direction)) @ self.white
            kink = float(np.median(self.X @ row))
            for sign in (1.0, -1.0):
                trial.params.W[j], trial.params.c[j] = sign * row, -sign * kink
                if _invertible_slogdet(trial.params.W) is None:
                    continue
                nll = _profile_fit(trial, self.X, self.labels)[1]
                if nll < best_nll:
                    best, best_nll = (sign * row, -sign * kink), nll
        return best


def nll_gradient(trainable: TrainableILD, batch) -> ParamSet:
    """Exact gradient of ``dataset_nll(trainable.materialize(), X, labels)``
    with respect to every free parameter; bad input raises as
    ``domcf.ild._labeled_rows`` says."""
    return _nll_grad(trainable, *_labeled_rows(batch, trainable))


class Adam:
    """Adam with bias correction, moment decay rates ``ADAM_BETA1`` and
    ``ADAM_BETA2``, and per-group learning rates.

    The observation-layer group (``W``, ``c``) uses ``learning_rate_g``; all
    mechanism parameters use ``learning_rate_f``.  If a step would make the
    observation layer numerically non-invertible (``_invertible_slogdet``), the
    step is rejected and retried at half the learning rate; moments are
    updated once per step either way.  The moments ``m``, ``v`` and the
    per-entry learning rates ``lr`` are flat vectors over the parameter buffer.
    """

    def __init__(self, config: TrainConfig):
        self.config = config
        self.t = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self.lr: np.ndarray | None = None

    def step(self, params: ParamSet, grads: ParamSet, lr_scale: float = 1.0) -> None:
        cfg = self.config
        if self.m is None:
            self.m = np.zeros_like(grads.vec)
            self.v = np.zeros_like(grads.vec)
            lr = grads.zeros_like()
            lr.vec[:] = cfg.learning_rate_f
            lr.W[...] = lr.c[...] = cfg.learning_rate_g
            self.lr = lr.vec
        self.t += 1
        c1 = 1.0 - ADAM_BETA1**self.t
        c2 = 1.0 - ADAM_BETA2**self.t
        g, m, v, x = grads.vec, self.m, self.v, params.vec
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g**2
        delta = -(lr_scale * self.lr) * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)

        scale = 1.0
        for _ in range(60):
            x += delta * scale
            if _invertible_slogdet(params.W) is not None:
                return
            x -= delta * scale
            scale *= 0.5
        raise RuntimeError("observation layer stayed singular after 60 step halvings")


def train(
    trainable: TrainableILD, dataset, config: TrainConfig
) -> tuple[ILDModel, list[tuple[int, float, float]]]:
    """Seeded minibatch Adam with validation-based checkpoint selection.

    Each step follows the kink-corrected update (see the module docstring) at
    learning rates decaying from 10 times the configured rates to them; every
    500 iterations the kink search may replace rows of the observation layer
    (and then restarts Adam's moments).
    Records (iteration, train NLL, validation NLL) at iteration 0 and then
    every ``eval_every`` iterations, both over the full splits.  Returns the
    materialized model from the recorded iteration with the lowest validation
    NLL, plus the history.  Bad splits raise as ``domcf.ild._labeled_rows``
    says, a non-finite value as "train data (or val data) holds a non-finite
    value".  Before the first step, ``ValueError`` refuses a zero-variance
    train column (no invertible observation layer fits it) and rank-deficient
    train data (the likelihood is unbounded).
    Data too large for float64 raises ``ValueError`` too: a non-finite
    gradient or an overflowed Adam second moment names its iteration, and a
    history whose validation NLLs are all non-finite is rejected after the
    loop.  The input ``trainable`` is not mutated.  Batches are drawn with
    replacement from a PCG64 stream seeded by ``config.seed``; the kink search
    draws from its own stream.
    """
    Xtr, dtr = _labeled_rows(dataset.train, trainable, name="train data")
    Xval, dval = _labeled_rows(dataset.val, trainable, name="val data")
    hi, lo = Xtr.max(axis=0), Xtr.min(axis=0)
    flat = np.flatnonzero(hi == lo)
    if flat.size:
        raise ValueError(f"train column {flat[0] + 1} has zero variance")
    Y = Xtr / np.maximum(hi, -lo)  # cannot overflow; exact for power-of-two scales
    Y -= np.ones(len(Y)) @ Y / len(Y)
    rank = np.linalg.matrix_rank(Y)
    if rank < trainable.dim:
        raise ValueError(f"train data is rank-deficient: centered rank {rank} < {trainable.dim}")

    work = trainable.copy()
    optimizer = Adam(config)
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([config.seed, _BATCH_STREAM]))
    )
    history: list[tuple[int, float, float]] = []
    best_val = math.inf
    best_params = work.params.copy()

    def record(iteration: int) -> None:
        nonlocal best_val, best_params
        model = work.materialize()
        train_nll = dataset_nll(model, Xtr, dtr)
        val_nll = dataset_nll(model, Xval, dval)
        history.append((iteration, train_nll, val_nll))
        if val_nll < best_val:
            best_val = val_nll
            best_params = work.params.copy()

    search = None
    grads = work.params.zeros_like()
    record(0)
    for it in range(1, config.iterations + 1):
        idx = rng.integers(0, len(Xtr), size=config.batch_size)
        _nll_grad(work, Xtr[idx], dtr[idx], kink_term=True, out=grads)
        if not np.isfinite(grads.vec).all():
            raise ValueError(f"non-finite gradient at iteration {it}")
        decay = (config.iterations - it) / max(config.iterations - 1, 1)
        optimizer.step(work.params, grads, lr_scale=_INITIAL_LR_FACTOR**decay)
        if not np.isfinite(optimizer.v).all():  # g**2 overflowed: every step is 0
            raise ValueError(f"Adam's second moment overflowed at iteration {it}")
        if it % _SEARCH_EVERY == 0 and it < config.iterations:
            search = search or _KinkSearch(Xtr, dtr, work.num_domains, config)
            if search.check(work, it):  # rows of W were rewritten
                optimizer = Adam(config)
        if it % config.eval_every == 0:
            record(it)

    if not np.isfinite([val for _, _, val in history]).any():
        raise ValueError("no recorded validation NLL is finite")
    return replace(work, params=best_params).materialize(), history
