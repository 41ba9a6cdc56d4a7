"""Triangular affine invertible causal mechanisms.

A mechanism maps exogenous noise ``eps`` to latent causal variables ``z``
through ``z = F eps + b`` with ``F = (I - L)^{-1} diag(S)``, where ``L`` is
strictly lower triangular and ``S`` is a strictly positive diagonal.  The
family is closed under composition and inversion, which is what the
canonicalization pipeline relies on.

All indices in the public API (intervention sets, coordinates) are 1-based;
internal numpy arrays are 0-based.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Tolerance used to decide whether two inverse mechanisms differ.
DEFAULT_INTERVENTION_TOL = 1e-8

# Upper-triangular leakage above this magnitude is treated as a real violation
# rather than roundoff.
TRIANGULARITY_TOL = 1e-12


class DimensionMismatch(ValueError):
    """Operands have incompatible dimensions."""


class NotLowerTriangular(ValueError):
    """A matrix expected to be lower triangular has significant upper entries."""


class NonPositiveDiagonal(ValueError):
    """A triangular factor has a zero or negative diagonal entry."""


def _frozen_array(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def _integer(value, error: str, low: int | None = None) -> int:
    """``value`` as an ``int`` if it is a ``numbers.Integral`` but no ``bool``
    (numpy integers pass) and not below ``low`` (when given), else
    ``ValueError(error.format(value))``."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not integral or (low is not None and value < low):
        raise ValueError(error.format(value))
    return int(value)


def _check_fields(L: np.ndarray, S: np.ndarray, b: np.ndarray, batch_ndim: int) -> None:
    """Check mechanism fields stacked over ``batch_ndim`` leading axes: ``L``
    (..., m, m) finite and strictly lower triangular, ``S`` and ``b`` (..., m)
    finite, ``S`` strictly positive."""
    if L.ndim != batch_ndim + 2 or L.shape[-1] != L.shape[-2]:
        raise DimensionMismatch(f"L must be square, got shape {L.shape}")
    if S.shape != L.shape[:-1] or b.shape != L.shape[:-1]:
        raise DimensionMismatch(
            f"S and b must have shape {L.shape[:-1]}, got {S.shape} and {b.shape}"
        )
    if not (np.isfinite(L).all() and np.isfinite(S).all() and np.isfinite(b).all()):
        raise ValueError("L, S and b must be finite")
    if np.any(np.triu(L) != 0.0):
        raise NotLowerTriangular("L must be strictly lower triangular")
    if np.any(S <= 0.0):
        raise NonPositiveDiagonal("S must be strictly positive")


def _check_vector(x, dim: int) -> np.ndarray:
    """``x`` as a float vector ``(dim,)`` or batch ``(n, dim)``."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != dim:
        raise DimensionMismatch(f"expected trailing dimension {dim}, got shape {x.shape}")
    return x


@dataclass(frozen=True)
class AffineSCM:
    """Invertible autoregressive affine mechanism ``z = F eps + b``.

    L: (m, m) strictly lower-triangular dependency matrix.
    S: (m,) strictly positive diagonal scales.
    b: (m,) additive bias.
    All entries must be finite.

    ``F = (I - L)^{-1} diag(S)`` is lower triangular with ``diag(F) = S``, so
    ``det F = prod(S) > 0``.  Instances are immutable and all operations are
    pure, so they are safe to share across threads.
    """

    L: np.ndarray
    S: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        L, S, b = _frozen_array(self.L), _frozen_array(self.S), _frozen_array(self.b)
        _check_fields(L, S, b, batch_ndim=0)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.L.shape[0]

    @classmethod
    def identity(cls, m: int) -> AffineSCM:
        return cls(np.zeros((m, m)), np.ones(m), np.zeros(m))

    @classmethod
    def from_matrix(cls, A, b) -> AffineSCM:
        """Check and factor a lower-triangular matrix ``A`` into ``(L, S)`` with ``F = A``.

        Raises NotLowerTriangular if any upper entry of ``A`` exceeds 1e-12 in
        magnitude, NonPositiveDiagonal if any diagonal entry is <= 0.
        """
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatch(f"A must be square, got shape {A.shape}")
        m = A.shape[0]
        if b.shape != (m,):
            raise DimensionMismatch(f"b must have shape ({m},), got {b.shape}")
        upper = np.triu(A, k=1)
        if np.any(np.abs(upper) > TRIANGULARITY_TOL):
            raise NotLowerTriangular(
                f"upper entries up to {np.abs(upper).max():.3e} exceed {TRIANGULARITY_TOL:.0e}"
            )
        S = np.diag(A).copy()
        if np.any(S <= 0.0):
            raise NonPositiveDiagonal(f"diagonal of A must be positive, got {S}")
        # F = (I - L)^{-1} diag(S)  =>  L = I - diag(S) A^{-1}.
        L = np.tril(np.eye(m) - S[:, None] * np.linalg.inv(np.tril(A)), k=-1)
        return cls(L, S, b)

    @classmethod
    def from_inverse(cls, F_inv, b) -> AffineSCM:
        """The mechanism whose inverse map is ``F_inv``, with no solve: the
        family of one of ``_family_from_inverse``."""
        (f,), _ = _family_from_inverse(np.asarray(F_inv, dtype=float)[None], np.asarray(b)[None])
        return f

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense ``F = (I - L)^{-1} diag(S)``, once on first use (read-only), by forward
        substitution on ``F = L F + diag(S)``: exactly lower triangular with ``diag(F) == S``,
        in Fortran order, for which OpenBLAS runs ``eps @ F.T`` about 3x faster."""
        F = np.zeros((self.dim, self.dim), order="F")
        for i in range(self.dim):
            F[i] = self.L[i] @ F
            F[i, i] = self.S[i]
        return _frozen_array(F)

    @cached_property
    def inverse_matrix(self) -> np.ndarray:
        """Dense ``F^{-1} = diag(1/S) (I - L)``, built once on first use (read-only)."""
        return _frozen_array((np.eye(self.dim) - self.L) / self.S[:, None])

    def forward(self, eps) -> np.ndarray:
        """Evaluate ``z = F eps + b`` with the cached ``F``.

        Accepts a single vector ``(m,)`` or a batch ``(n, m)``.
        """
        return _check_vector(eps, self.dim) @ self.matrix.T + self.b

    def inverse(self, z) -> np.ndarray:
        """Evaluate ``eps = F^{-1}(z - b)`` with the cached ``F^{-1}``."""
        return (_check_vector(z, self.dim) - self.b) @ self.inverse_matrix.T

    def log_abs_det(self, x=None) -> float:
        """log |det F| = sum(log S); ``x``, taken by every chain layer, is ignored."""
        del x
        return float(np.sum(np.log(self.S)))

    def lipschitz_bound(self) -> float:
        """Spectral norm of ``F``, the mechanism's Lipschitz constant."""
        return float(np.linalg.norm(self.matrix, 2))

    def invert(self) -> AffineSCM:
        """The mechanism computing ``eps = F^{-1}(z - b)`` as an AffineSCM."""
        return AffineSCM.from_inverse(self.matrix, -(self.inverse_matrix @ self.b))


def compose(outer: AffineSCM, inner: AffineSCM) -> AffineSCM:
    """The mechanism ``outer(inner(eps))``: ``F = F_out F_in``, ``b = F_out b_in + b_out``.

    Built solve-free from the cached inverses: ``F^{-1} = F_in^{-1} F_out^{-1}``.
    """
    if outer.dim != inner.dim:
        raise DimensionMismatch(f"dims differ: {outer.dim} vs {inner.dim}")
    return AffineSCM.from_inverse(
        inner.inverse_matrix @ outer.inverse_matrix, outer.matrix @ inner.b + outer.b
    )


def _family(L, S, b) -> tuple[tuple[AffineSCM, ...], np.ndarray]:
    """The mechanisms ``(L[d], S[d], b[d])`` of the stacks ``L`` (nd, m, m),
    ``S`` and ``b`` (nd, m), and their inverse maps as one stack (nd, m, m).

    The stacks are copied, frozen and checked once, as ``AffineSCM`` checks
    one mechanism.  Each member's fields are read-only views of the stacks,
    and its cached ``inverse_matrix`` is a view of the returned stack, which
    evaluates the cached property's expression elementwise, so it has the
    same bits.
    """
    L, S, b = _frozen_array(L), _frozen_array(S), _frozen_array(b)
    _check_fields(L, S, b, batch_ndim=1)
    F_inv = (np.eye(L.shape[-1]) - L) / S[..., None]
    F_inv.setflags(write=False)
    family = []
    for fields in zip(L, S, b, F_inv):
        f = object.__new__(AffineSCM)
        f.__dict__.update(zip(("L", "S", "b", "inverse_matrix"), fields))
        family.append(f)
    return tuple(family), F_inv


def _family_from_inverse(F_inv: np.ndarray, b) -> tuple[tuple[AffineSCM, ...], np.ndarray]:
    """``_family`` of the mechanisms whose inverse maps are the stack ``F_inv``
    (nd, m, m), with biases ``b`` (nd, m).

    ``S = 1/diag(F_inv)`` and ``L = I - diag(S) F_inv`` below the diagonal;
    the upper triangles of ``F_inv`` are ignored.
    """
    S = 1.0 / np.diagonal(F_inv, axis1=-2, axis2=-1)
    return _family(np.tril(np.eye(S.shape[-1]) - S[..., None] * F_inv, k=-1), S, b)


@dataclass(frozen=True)
class InterventionSet:
    """Sorted 1-based indices where the inverse mechanisms of a family differ."""

    indices: tuple[int, ...]
    tolerance: float

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(sorted(int(i) for i in self.indices)))

    @property
    def size(self) -> int:
        return len(self.indices)


def intervention_set(scms) -> InterventionSet:
    """Indices (1-based) where some pair of mechanisms has differing inverse rows.

    Coordinate ``j`` is intervened iff for some pair (d, d') the j-th row of
    the inverse affine maps differs:
    ``max(||row_j(F_d^-1) - row_j(F_d'^-1)||_inf, |off_j(d) - off_j(d')|) > tol``
    with ``off = -F^{-1} b`` and ``tol = DEFAULT_INTERVENTION_TOL``.  Comparing
    affine parameters is exact for this family; a pointwise oracle is only used
    in tests.
    """
    scms = list(scms)
    if len(scms) < 2:
        raise ValueError("need at least two mechanisms")
    m = scms[0].dim
    for f in scms:
        if f.dim != m:
            raise DimensionMismatch("all mechanisms must share one dimension")
    return _stacked_intervention_set(*_stack(scms), DEFAULT_INTERVENTION_TOL)


def _stack(scms) -> tuple[np.ndarray, np.ndarray]:
    """A family as new arrays ``F_inv`` (nd, m, m) and ``b`` (nd, m)."""
    return np.stack([f.inverse_matrix for f in scms]), np.stack([f.b for f in scms])


def _stacked_intervention_set(F_inv: np.ndarray, b: np.ndarray, tol: float) -> InterventionSet:
    """``intervention_set`` of the stacks ``F_inv`` and ``b``.

    An entry's largest pairwise deviation is its range over domains; rounding
    is monotone (``max`` over pairs of ``fl(|a - c|)`` is ``fl(max - min)``),
    so the decisions match a pairwise loop bit for bit.
    """
    offs = -(F_inv @ b[:, :, None])[:, :, 0]
    dev = np.maximum(np.ptp(F_inv, axis=0).max(axis=1), np.ptp(offs, axis=0))
    return InterventionSet(tuple(int(j) + 1 for j in np.nonzero(dev > tol)[0]), tol)
