"""The shared observation (mixing) function as a chain of invertible layers.

Canonicalization composes the observation function with triangular mechanisms
and coordinate swaps, so the representation has to be closed under those
compositions: a chain of primitive invertible layers is the minimal such
representation.  Layers are applied first-to-last on the forward pass.  The
layers are ``AffineDense``, ``LeakyRelu``, ``Permute`` and the mechanism
``AffineSCM`` itself, placed in the chain as it stands: every layer has
``dim``, ``forward``, ``inverse``, ``log_abs_det(x)`` and ``lipschitz_bound``.

``LayerChain.layers`` is the public form (serialization, the Lipschitz bound,
canonicalization).  Evaluation walks *stages* instead, built on first use:
each maximal run of adjacent affine layers (dense, triangular, permutation) is
fused into one cached map ``y = G x + b`` with its inverse ``G^{-1}``,
composed from the layers' own cached matrices, and each leaky ReLU is a stage
of its own.  A leaky ReLU is ``max(x, s x)`` (``min`` for ``s > 1``),
which equals the two-branch form bit for bit.
Every pass, ``LayerChain``'s and the kernels' of ``domcf.ild``, is one walk
of the stages on rows transposed to ``(m, rows)`` (``_walk_columns``), each
step rounding as its row-major form.  Cached matrices keep their memory order:
``G @ v`` is as fast for either, and the rounding of a one-row block's
matrix-vector product depends on it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from typing import Union

import numpy as np

from .scm import AffineSCM, DimensionMismatch, _check_vector, _frozen_array

_MIN_ABS_DET = 1e-12


def _invertible_slogdet(G: np.ndarray) -> tuple[float, float] | None:
    """``np.linalg.slogdet(G)`` if ``|det G| > 1e-12``, else ``None``: the one
    invertibility test of layers, training steps and ground-truth draws."""
    sign, logabsdet = np.linalg.slogdet(G)
    return (sign, logabsdet) if sign != 0.0 and logabsdet > math.log(_MIN_ABS_DET) else None


@dataclass(frozen=True)
class AffineDense:
    """Invertible dense affine layer ``y = G x + b``.

    ``G^{-1}`` is computed once at construction (``np.linalg.inv``, stored in
    Fortran order, for which OpenBLAS runs ``x @ G^{-1}.T`` about 3x faster on
    thin batches), so ``inverse`` is one matrix product.
    """

    G: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        G = _frozen_array(self.G)
        b = _frozen_array(self.b)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise DimensionMismatch(f"G must be square, got shape {G.shape}")
        if b.shape != (G.shape[0],):
            raise DimensionMismatch(f"b must have shape ({G.shape[0]},), got {b.shape}")
        if not (np.isfinite(G).all() and np.isfinite(b).all()):
            raise ValueError("G and b must be finite")
        slogdet = _invertible_slogdet(G)
        if slogdet is None:
            raise ValueError("G is numerically singular (|det| <= 1e-12)")
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_G_inv", _frozen_array(np.asfortranarray(np.linalg.inv(G))))
        object.__setattr__(self, "_logabsdet", float(slogdet[1]))

    @property
    def dim(self) -> int:
        return self.G.shape[0]

    def forward(self, x):
        return x @ self.G.T + self.b

    def inverse(self, y):
        return (np.asarray(y, dtype=float) - self.b) @ self._G_inv.T

    def log_abs_det(self, x):
        del x  # constant Jacobian
        return self._logabsdet

    def lipschitz_bound(self) -> float:
        return float(np.linalg.norm(self.G, 2))


@dataclass(frozen=True)
class LeakyRelu:
    """Elementwise ``v -> v if v >= 0 else slope * v``.

    The derivative at exactly 0 is taken as 1 (the ``v >= 0`` branch); this is
    measure-zero but fixed for determinism.  Any positive slope whose value and
    reciprocal are finite is accepted, above 1 included, since a model file may
    hold one.
    """

    slope: float

    def __post_init__(self):
        if not 0.0 < self.slope < math.inf or math.isinf(1.0 / float(self.slope)):
            raise ValueError(f"slope must be positive with a finite reciprocal, got {self.slope!r}")

    dim = None

    # With s <= 1, s*v lies between v and 0, so the branch ``v >= 0`` keeps
    # the larger of v and s*v (and the smaller of v and v/s); s > 1 swaps
    # the two.  Rounding keeps s*v on the same side of v, and both candidates
    # carry v's sign, so the result is bit-identical to the two-branch form,
    # -0.0 and NaN included.
    def forward(self, x):
        x = np.asarray(x, dtype=float)
        out = np.multiply(x, self.slope, out=np.empty_like(x))
        return (np.maximum if self.slope <= 1.0 else np.minimum)(x, out, out=out)

    def inverse(self, y):
        y = np.asarray(y, dtype=float)
        out = np.divide(y, self.slope, out=np.empty_like(y))
        return (np.minimum if self.slope <= 1.0 else np.maximum)(y, out, out=out)

    def log_abs_det(self, x):
        x = np.asarray(x, dtype=float)
        n_neg = np.count_nonzero(x < 0.0, axis=-1)
        return n_neg * math.log(self.slope)

    def lipschitz_bound(self) -> float:
        return max(1.0, self.slope)


@dataclass(frozen=True)
class Permute:
    """Coordinate permutation; ``pi`` is 1-based and ``forward(x)[k] = x[pi[k]-1]``."""

    pi: tuple[int, ...]

    def __post_init__(self):
        pi = tuple(int(p) for p in self.pi)
        if sorted(pi) != list(range(1, len(pi) + 1)) or pi != tuple(self.pi):
            raise ValueError(f"pi must be a permutation of 1..{len(pi)}, got {tuple(self.pi)}")
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "_idx", np.asarray(pi, dtype=int) - 1)
        object.__setattr__(self, "_inv_idx", np.argsort(np.asarray(pi) - 1))

    @property
    def dim(self) -> int:
        return len(self.pi)

    @classmethod
    def swap(cls, m: int, j: int, j_prime: int) -> Permute:
        """The self-inverse permutation exchanging 1-based coordinates j and j'."""
        pi = list(range(1, m + 1))
        pi[j - 1], pi[j_prime - 1] = pi[j_prime - 1], pi[j - 1]
        return cls(tuple(pi))

    def forward(self, x):
        return np.asarray(x, dtype=float)[..., self._idx]

    def inverse(self, y):
        return np.asarray(y, dtype=float)[..., self._inv_idx]

    def log_abs_det(self, x):
        del x
        return 0.0

    def lipschitz_bound(self) -> float:
        return 1.0


Layer = Union[AffineDense, LeakyRelu, Permute, AffineSCM]


@dataclass(frozen=True)
class _AffineStage:
    """A run of adjacent affine layers fused into ``y = G x + b``.

    ``log_dets`` are the layers' constant log-dets in forward order, so a
    likelihood adds them one at a time, as a walk over the layers would.
    """

    G: np.ndarray
    b: np.ndarray
    G_inv: np.ndarray
    log_dets: tuple[float, ...]

    @classmethod
    def fuse(cls, run: tuple[Layer, ...]) -> _AffineStage:
        """Compose the layers' cached matrices; no factorization, no new check."""
        G, b, G_inv = _affine_map(run[0])
        for layer in run[1:]:
            G_l, b_l, G_inv_l = _affine_map(layer)
            G, b, G_inv = G_l @ G, G_l @ b + b_l, G_inv @ G_inv_l
        return cls(G, b, G_inv, tuple(layer.log_abs_det(None) for layer in run))


def _walk_columns(v, stages, inverse: bool, out=None, log_dets=None):
    """Run ``v``, a row block transposed to ``(m, rows)``, through ``stages`` in
    the order given, forward or each inverted, never writing ``v``: ``G @ v``
    and ``v + b[:, None]``, each rounding as its row-major form.  With ``out``
    (rows, m), a last affine stage writes ``v.T @ G.T`` into ``out`` (the
    result of a leaky-last or empty walk is copied in).  Each leaky stage
    appends its negative count times its log-slope to ``log_dets``."""
    for i, s in enumerate(stages):
        if isinstance(s, LeakyRelu):
            v = s.inverse(v) if inverse else s.forward(v)
            if log_dets is not None:
                log_dets.append(int(np.count_nonzero(v < 0.0)) * math.log(s.slope))
            continue
        if inverse:  # in place once the walk owns v
            v = np.subtract(v, s.b[:, None], out=v if i else np.empty(v.shape))
        G, last = (s.G_inv if inverse else s.G), out is not None and i == len(stages) - 1
        v = np.matmul(v.T, G.T, out=out) if last else G @ v
        if not inverse:
            v += s.b if last else s.b[:, None]
    if out is not None and v is not out:
        out[...] = v.T
    return v if out is None else out


def _affine_map(layer: Layer) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(G, b, G^{-1})`` of an affine layer, from the matrices it caches."""
    if isinstance(layer, AffineDense):
        return layer.G, layer.b, layer._G_inv
    if isinstance(layer, AffineSCM):
        return layer.matrix, layer.b, layer.inverse_matrix
    P = np.eye(layer.dim)[layer._idx]
    return P, np.zeros(layer.dim), P.T


@dataclass(frozen=True)
class LayerChain:
    """Ordered invertible layers; the empty chain is the identity.

    An exact likelihood needs one reverse pass: ``inverse_and_log_det``.
    ``forward``, ``inverse`` and ``inverse_and_log_det`` walk the cached
    stages (see the module docstring) into new arrays, not the layers.
    """

    dim: int
    layers: tuple[Layer, ...] = ()

    def __post_init__(self):
        layers = tuple(self.layers)
        for layer in layers:
            if layer.dim is not None and layer.dim != self.dim:
                raise DimensionMismatch(
                    f"layer dim {layer.dim} does not match chain dim {self.dim}"
                )
        object.__setattr__(self, "layers", layers)

    @cached_property
    def stages(self) -> tuple[Union[_AffineStage, LeakyRelu], ...]:
        """Each leaky ReLU, and each maximal run of affine layers fused, in order."""
        stages = []
        for leaky, run in groupby(self.layers, key=lambda layer: isinstance(layer, LeakyRelu)):
            if leaky:
                stages.extend(run)
            else:
                stages.append(_AffineStage.fuse(tuple(run)))
        return tuple(stages)

    def forward(self, x):
        return self._walk(x, self.stages, inverse=False)

    def inverse(self, y):
        return self._walk(y, self.stages[::-1], inverse=True)

    def _walk(self, x, stages, inverse: bool) -> np.ndarray:
        """``x`` through ``stages`` as one ``(m, rows)`` walk, into a new C-ordered array."""
        x = _check_vector(x, self.dim)
        out = np.empty(x.shape)
        _walk_columns(x.reshape(-1, self.dim).T, stages, inverse, out=out.reshape(-1, self.dim))
        return out

    def inverse_and_log_det(self, y):
        """``x = g^{-1}(y)`` and log |det J| of the forward map at ``x``, in one pass.

        Walks the stages once in reverse, one ``_walk_columns`` call each; a
        leaky ReLU's log-det is taken at its forward input, the stage's output,
        and affine layers contribute their constants.  The per-layer terms are
        summed in forward order.  Returns ``(x, scalar)`` for a single input
        and ``(x, (n,) array)`` for a batch.
        """
        y = _check_vector(y, self.dim)
        v, terms = y.reshape(-1, self.dim).T, []
        for stage in reversed(self.stages):
            v = _walk_columns(v, (stage,), inverse=True)
            if isinstance(stage, _AffineStage):
                terms.extend(reversed(stage.log_dets))
            else:
                terms.append(stage.log_abs_det(v.T))
        total = np.zeros(v.shape[1])
        for term in reversed(terms):
            total = total + term
        x = np.array(v.T, order="C").reshape(y.shape)  # a copy, also of the empty chain's y
        return x, (float(total[0]) if y.ndim == 1 else total)

    def append_right(self, layer: Layer) -> LayerChain:
        """New chain applying ``layer`` before this chain (input side)."""
        return LayerChain(self.dim, (layer,) + self.layers)

    def lipschitz_upper_bound(self) -> float:
        """Product of per-layer spectral-norm bounds; >= the true constant."""
        bound = 1.0
        for layer in self.layers:
            bound *= layer.lipschitz_bound()
        return bound
