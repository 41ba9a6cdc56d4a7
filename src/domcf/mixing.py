"""The shared observation (mixing) function as a chain of invertible layers.

Canonicalization composes the observation function with triangular mechanisms
and coordinate swaps, so the representation has to be closed under those
compositions: a chain of primitive invertible layers is the minimal such
representation.  Layers are applied first-to-last on the forward pass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .scm import AffineSCM, DimensionMismatch, _frozen_array

_MIN_ABS_DET = 1e-12


def spectral_norm(A: np.ndarray, iterations: int = 200, tol: float = 1e-10) -> float:
    """Largest singular value by power iteration on ``A^T A``.

    Starts from the normalized all-ones vector so repeated calls are
    bit-reproducible.  Convergence assumes the start vector is not orthogonal
    to the dominant singular subspace, which holds for generic matrices.
    """
    A = np.asarray(A, dtype=float)
    m = A.shape[1]
    v = np.ones(m) / math.sqrt(m)
    sigma = 0.0
    for _ in range(iterations):
        w = A.T @ (A @ v)
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0
        v = w / norm
        new_sigma = float(np.linalg.norm(A @ v))
        if abs(new_sigma - sigma) <= tol:
            return new_sigma
        sigma = new_sigma
    return sigma


@dataclass(frozen=True)
class AffineDense:
    """Invertible dense affine layer ``y = G x + b``."""

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
        sign, logabsdet = np.linalg.slogdet(G)
        if sign == 0.0 or logabsdet <= math.log(_MIN_ABS_DET):
            raise ValueError("G is numerically singular (|det| <= 1e-12)")
        lu, piv = lu_factor(G, check_finite=False)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_lu", lu)
        object.__setattr__(self, "_piv", piv)
        object.__setattr__(self, "_logabsdet", float(logabsdet))

    @property
    def dim(self) -> int:
        return self.G.shape[0]

    def forward(self, x):
        return x @ self.G.T + self.b

    def inverse(self, y):
        y = np.asarray(y, dtype=float)
        rhs = (y - self.b).T if y.ndim == 2 else y - self.b
        sol = lu_solve((self._lu, self._piv), rhs, check_finite=False)
        return sol.T if y.ndim == 2 else sol

    def log_abs_det(self, x):
        del x  # constant Jacobian
        return self._logabsdet

    def lipschitz_bound(self) -> float:
        return spectral_norm(self.G)

    def invert(self) -> AffineDense:
        G_inv = lu_solve((self._lu, self._piv), np.eye(self.dim), check_finite=False)
        return AffineDense(G_inv, -G_inv @ self.b)


@dataclass(frozen=True)
class LeakyRelu:
    """Elementwise ``v -> v if v >= 0 else slope * v``.

    The derivative at exactly 0 is taken as 1 (the ``v >= 0`` branch); this is
    measure-zero but fixed for determinism.  Slopes above 1 are allowed so the
    layer family is closed under inversion (the inverse has slope ``1/slope``).
    """

    slope: float

    def __post_init__(self):
        if not self.slope > 0.0:
            raise ValueError("slope must be positive")

    dim = None

    def forward(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0.0, x, self.slope * x)

    def inverse(self, y):
        y = np.asarray(y, dtype=float)
        return np.where(y >= 0.0, y, y / self.slope)

    def log_abs_det(self, x):
        x = np.asarray(x, dtype=float)
        n_neg = np.count_nonzero(x < 0.0, axis=-1)
        return n_neg * math.log(self.slope)

    def lipschitz_bound(self) -> float:
        return max(1.0, self.slope)

    def invert(self) -> LeakyRelu:
        return LeakyRelu(1.0 / self.slope)


@dataclass(frozen=True)
class Permute:
    """Coordinate permutation; ``pi`` is 1-based and ``forward(x)[k] = x[pi[k]-1]``."""

    pi: tuple[int, ...]

    def __post_init__(self):
        pi = tuple(int(p) for p in self.pi)
        if sorted(pi) != list(range(1, len(pi) + 1)):
            raise ValueError(f"pi must be a permutation of 1..{len(pi)}, got {pi}")
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

    def invert(self) -> Permute:
        return Permute(tuple(int(i) + 1 for i in self._inv_idx))


@dataclass(frozen=True)
class Triangular:
    """A triangular affine mechanism used as an invertible layer."""

    scm: AffineSCM

    @property
    def dim(self) -> int:
        return self.scm.dim

    def forward(self, x):
        return self.scm.forward(x)

    def inverse(self, y):
        return self.scm.inverse(y)

    def log_abs_det(self, x):
        del x
        return self.scm.log_abs_det()

    def lipschitz_bound(self) -> float:
        return spectral_norm(self.scm.matrix)

    def invert(self) -> Triangular:
        return Triangular(self.scm.invert())


Layer = Union[AffineDense, LeakyRelu, Permute, Triangular]


@dataclass(frozen=True)
class LayerChain:
    """Ordered invertible layers; the empty chain is the identity.

    An exact likelihood needs one reverse pass: ``inverse_and_log_det``.
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

    def _check(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim:
            raise DimensionMismatch(
                f"expected trailing dimension {self.dim}, got shape {x.shape}"
            )
        return x

    def forward(self, x):
        v = self._check(x)
        for layer in self.layers:
            v = layer.forward(v)
        return v

    def inverse(self, y):
        v = self._check(y)
        for layer in reversed(self.layers):
            v = layer.inverse(v)
        return v

    def inverse_and_log_det(self, y):
        """``x = g^{-1}(y)`` and log |det J| of the forward map at ``x``, in one pass.

        Walks the layers once in reverse; each layer's log-det is taken at its
        forward input, the value the inverse pass has just produced.  The
        per-layer terms are summed in forward order.  Returns ``(x, scalar)``
        for a single input and ``(x, (n,) array)`` for a batch.
        """
        v = self._check(y)
        terms = []
        for layer in reversed(self.layers):
            v = layer.inverse(v)
            terms.append(layer.log_abs_det(v))
        total = 0.0 if v.ndim == 1 else np.zeros(v.shape[0])
        for term in reversed(terms):
            total = total + term
        return v, (float(total) if v.ndim == 1 else total)

    def append(self, layer: Layer) -> LayerChain:
        """New chain applying ``layer`` after this chain (output side)."""
        return LayerChain(self.dim, self.layers + (layer,))

    def append_right(self, layer: Layer) -> LayerChain:
        """New chain applying ``layer`` before this chain (input side)."""
        return LayerChain(self.dim, (layer,) + self.layers)

    def invert(self) -> LayerChain:
        """A chain computing the inverse map."""
        return LayerChain(self.dim, tuple(l.invert() for l in reversed(self.layers)))

    def lipschitz_upper_bound(self) -> float:
        """Product of per-layer spectral-norm bounds; >= the true constant."""
        bound = 1.0
        for layer in self.layers:
            bound *= layer.lipschitz_bound()
        return bound
