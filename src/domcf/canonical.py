"""Rewriting a model so the intervened coordinates are the trailing ones.

The family is held as stacked inverse maps ``F_inv`` (nd, m, m) and biases
``b`` (nd, m), and goes through three array passes:

1. Rebase on domain 1 (``f_d -> f_1^{-1} o f_d``, ``g -> g o f_1``): one
   batched product ``F_d^{-1} F_1``; domain 1 becomes exactly the identity.
2. Repeatedly swap the largest intervened coordinate below the largest
   non-intervened one up into its place: permute every stacked map and
   right-compose ``g`` with the swap.  The permuted maps stay lower triangular
   because the coordinates in between are non-intervened.
3. Undo the rebasing (``f_d -> f_1 o f_d``, ``g -> g o f_1^{-1}``), one more
   product; mechanisms are built only for the two returned models.

Every step preserves all domain counterfactuals, every domain's observed
distribution, and the intervention set size.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ild import ILDModel
from .mixing import Permute
from .scm import (
    DEFAULT_INTERVENTION_TOL,
    TRIANGULARITY_TOL,
    AffineSCM,
    InterventionSet,
    _stack,
    _stacked_intervention_set,
    intervention_set,
)

class TriangularityBroken(RuntimeError):
    """A swap left the family non-triangular; indicates a precondition bug."""


@dataclass(frozen=True)
class CanonicalizationReport:
    """Audit trail of one canonicalization run."""

    original_intervention: InterventionSet
    final_intervention: InterventionSet
    swaps: tuple[tuple[int, int], ...]
    steps: tuple[str, ...]


def _trailing_block(m: int, k: int) -> tuple[int, ...]:
    return tuple(range(m - k + 1, m + 1))


def is_canonical(
    model: ILDModel, tol: float = DEFAULT_INTERVENTION_TOL
) -> tuple[bool, InterventionSet]:
    """Whether the intervention set is exactly the trailing block of its size."""
    iset = intervention_set(model.scms, tol)
    return iset.indices == _trailing_block(model.dim, iset.size), iset


def _swap(g, F_inv: np.ndarray, b: np.ndarray, j: int, j_prime: int):
    """Conjugate every mechanism with the swap of ``j`` and ``j_prime``; extend ``g``."""
    perm = Permute.swap(F_inv.shape[-1], j, j_prime)
    idx = np.asarray(perm.pi) - 1
    F_inv, b = F_inv[:, idx][:, :, idx], b[:, idx]
    upper = float(np.abs(np.triu(F_inv, k=1)).max())
    if upper > TRIANGULARITY_TOL or np.any(np.diagonal(F_inv, axis1=1, axis2=2) <= 0.0):
        raise TriangularityBroken(
            f"swap ({j}, {j_prime}) broke triangularity: upper entries up to "
            f"{upper:.3e} (tolerance {TRIANGULARITY_TOL:.0e}) or a non-positive diagonal"
        )
    return g.append_right(perm), F_inv, b


def canonicalize(
    model: ILDModel, tol: float = DEFAULT_INTERVENTION_TOL
) -> tuple[ILDModel, ILDModel, CanonicalizationReport]:
    """Move the intervention set to the trailing coordinates.

    Returns ``(canonical, identity_canonical, report)``: the identity-first
    model produced after the swap phase (domain 1 is the identity mechanism)
    and the general canonical model with domain 1's original mechanism
    restored.  Both preserve counterfactuals, distributions, and the
    intervention set size; termination is guaranteed because every swap
    strictly increases the sum of intervened indices.
    """
    m = model.dim
    F_inv, b = _stack(model.scms)
    original = _stacked_intervention_set(F_inv, b, tol)
    steps: list[str] = []

    f1 = model.scms[0]
    F_inv = F_inv @ f1.matrix
    b = (b - f1.b) @ f1.inverse_matrix.T
    F_inv[0], b[0] = np.eye(m), 0.0
    g = model.g.append_right(f1)
    steps.append("step1: rebased all mechanisms so domain 1 is the identity")

    swaps: list[tuple[int, int]] = []
    k = original.size
    for _ in range(k * (m - k) + 1):
        iset = _stacked_intervention_set(F_inv, b, tol)
        free = [t for t in range(1, m + 1) if t not in iset]
        if not free:
            break
        j_prime = max(free)
        hits = [t for t in iset if t < j_prime]
        if not hits:
            break
        j = max(hits)
        g, F_inv, b = _swap(g, F_inv, b, j, j_prime)
        swaps.append((j, j_prime))
        steps.append(f"step2: swapped coordinates {j} and {j_prime}")
    else:
        raise RuntimeError("swap phase failed to terminate; detection tolerance too loose?")

    identity_canonical = ILDModel(g, tuple(map(AffineSCM.from_inverse, F_inv, b)))
    restored = map(AffineSCM.from_inverse, F_inv @ f1.inverse_matrix, b @ f1.matrix.T + f1.b)
    canonical = ILDModel(g.append_right(f1.invert()), tuple(restored))
    steps.append("step3: restored domain 1's original mechanism")

    final = intervention_set(canonical.scms, tol)
    if final.size != original.size:
        raise RuntimeError(
            f"intervention size changed ({original.size} -> {final.size}); "
            "detection tolerance too loose for this model"
        )
    report = CanonicalizationReport(
        original_intervention=original,
        final_intervention=final,
        swaps=tuple(swaps),
        steps=tuple(steps),
    )
    return canonical, identity_canonical, report
