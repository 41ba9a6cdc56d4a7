"""Rewriting a model so the intervened coordinates are the trailing ones.

The family is held as stacked inverse maps ``F_inv`` (nd, m, m) and biases
``b`` (nd, m), and goes through three array passes:

1. Rebase on domain 1 (``f_d -> f_1^{-1} o f_d``, ``g -> g o f_1``): one
   batched product ``F_d^{-1} F_1``; domain 1 becomes exactly the identity.
2. Plan the swaps on the detected index set: while some intervened
   coordinate lies below the largest non-intervened one, swap the largest
   such coordinate up into its place.  Conjugating the family by a swap
   swaps the two coordinates in the intervention set, so the plan needs no
   arrays.  Then permute every stacked map once by the composed swaps, check
   once that the result is lower triangular with a positive diagonal (it is,
   because the coordinates each swap passes over are non-intervened), and
   right-compose ``g`` with one ``Permute`` layer per swap.
3. Undo the rebasing (``f_d -> f_1 o f_d``, ``g -> g o f_1^{-1}``), one more
   product.  Each of the two returned families is built and checked as one
   stack, and the final intervention set is read off the restored stack.

Every step preserves all domain counterfactuals, every domain's observed
distribution, and the intervention set size.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ild import ILDModel
from .mixing import LayerChain, Permute
from .scm import (
    DEFAULT_INTERVENTION_TOL,
    TRIANGULARITY_TOL,
    InterventionSet,
    _family_from_inverse,
    _stack,
    _stacked_intervention_set,
)

class TriangularityBroken(ValueError):
    """The detected set was wrong for this model: the swaps left the family
    non-triangular, or its intervention set off the trailing block."""


@dataclass(frozen=True)
class CanonicalizationReport:
    """Audit trail of one canonicalization run."""

    original_intervention: InterventionSet
    final_intervention: InterventionSet
    swaps: tuple[tuple[int, int], ...]
    steps: tuple[str, ...]


def _trailing_block(m: int, k: int) -> tuple[int, ...]:
    return tuple(range(m - k + 1, m + 1))


def canonicalize(model: ILDModel) -> tuple[ILDModel, ILDModel, CanonicalizationReport]:
    """Move the intervention set to the trailing coordinates.

    Returns ``(canonical, identity_canonical, report)``: the identity-first
    model produced after the swap phase (domain 1 is the identity mechanism)
    and the general canonical model with domain 1's original mechanism
    restored.  Both preserve counterfactuals, distributions, and the
    intervention set size; the swap plan ends because every swap strictly
    increases the sum of intervened indices.
    """
    m = model.dim
    F_inv, b = _stack(model.scms)
    original = _stacked_intervention_set(F_inv, b, DEFAULT_INTERVENTION_TOL)
    steps: list[str] = []

    f1 = model.scms[0]
    F_inv = F_inv @ f1.matrix
    b = (b - f1.b) @ f1.inverse_matrix.T
    F_inv[0], b[0] = np.eye(m), 0.0
    steps.append("step1: rebased all mechanisms so domain 1 is the identity")

    swaps: list[tuple[int, int]] = []
    intervened = set(original.indices)
    idx = np.arange(m)
    while True:
        free = [t for t in range(1, m + 1) if t not in intervened]
        hits = [t for t in intervened if free and t < free[-1]]
        if not hits:
            break
        j, j_prime = max(hits), free[-1]
        intervened ^= {j, j_prime}
        idx[[j - 1, j_prime - 1]] = idx[[j_prime - 1, j - 1]]
        swaps.append((j, j_prime))
        steps.append(f"step2: swapped coordinates {j} and {j_prime}")
    F_inv, b = F_inv[:, idx][:, :, idx], b[:, idx]
    upper = float(np.abs(np.triu(F_inv, k=1)).max())
    if upper > TRIANGULARITY_TOL or np.any(np.diagonal(F_inv, axis1=1, axis2=2) <= 0.0):
        raise TriangularityBroken(
            f"swaps {swaps} broke triangularity: upper entries up to {upper:.3e} "
            f"(tolerance {TRIANGULARITY_TOL:.0e}) or a non-positive diagonal"
        )
    swap_layers = tuple(Permute.swap(m, j, j_prime) for j, j_prime in reversed(swaps))
    g = LayerChain(m, swap_layers + (f1,) + model.g.layers)

    identity_canonical = ILDModel(g, _family_from_inverse(F_inv, b)[0])
    b = b @ f1.matrix.T + f1.b
    restored, F_inv = _family_from_inverse(F_inv @ f1.inverse_matrix, b)
    canonical = ILDModel(g.append_right(f1.invert()), restored)
    steps.append("step3: restored domain 1's original mechanism")

    final = _stacked_intervention_set(F_inv, b, DEFAULT_INTERVENTION_TOL)
    if final.indices != _trailing_block(m, original.size):
        raise TriangularityBroken(
            f"intervention set {original.indices} became {final.indices}, not the "
            "trailing block of its size; detection tolerance too loose for this model"
        )
    report = CanonicalizationReport(
        original_intervention=original,
        final_intervention=final,
        swaps=tuple(swaps),
        steps=tuple(steps),
    )
    return canonical, identity_canonical, report
