"""Canonicalize a worked 4-dimensional, 2-domain model and print every step.

The first mechanism is the all-ones lower-triangular accumulator; the second
differs in its second row.  The intervention set starts at {2, 3} and ends at
{3, 4} after two coordinate swaps.
"""
from domcf import (
    AffineDense,
    AffineSCM,
    ILDModel,
    LayerChain,
    canonicalize,
    check_counterfactual_equiv,
    check_distribution_equiv,
    construct_equivalent,
)

import numpy as np  # after domcf, so its one-thread BLAS default applies


def main() -> None:
    f1 = AffineSCM.from_matrix(np.tril(np.ones((4, 4))), np.zeros(4))
    f2 = AffineSCM.from_matrix(
        np.array([[1.0, 0, 0, 0], [2, 2, 0, 0], [1, 1, 1, 0], [1, 1, 1, 1]]),
        np.zeros(4),
    )
    model = ILDModel(
        LayerChain(4, (AffineDense(np.eye(4), np.zeros(4)),)), (f1, f2)
    )

    rebased = construct_equivalent(model, f1.invert(), AffineSCM.identity(4))
    canonical, identity_canonical, report = canonicalize(model)

    np.set_printoptions(precision=3, suppress=True)
    print("input mechanisms:")
    for i, f in enumerate(model.scms, 1):
        print(f"  domain {i}:\n{f.matrix}")
    print(f"\nintervention set: {report.original_intervention.indices}")
    print("\nafter rebasing on domain 1:")
    print(rebased.scms[1].matrix)
    print(f"\nswaps applied: {list(report.swaps)}")
    print("\nidentity-canonical domain-2 mechanism:")
    print(identity_canonical.scms[1].matrix)
    print("\ngeneral canonical domain-2 mechanism:")
    print(canonical.scms[1].matrix)
    print(f"\nfinal intervention set: {report.final_intervention.indices}")

    probes = (
        np.concatenate([model.sample(d, 200, seed=d) for d in (1, 2)]),
        np.repeat([1, 2], 200),
    )
    ok_cf, dev_cf = check_counterfactual_equiv(model, canonical, probes, tol=1e-8)
    ok_d, dev_d = check_distribution_equiv(model, canonical, probes, tol=1e-8)
    print(f"\ncounterfactuals preserved: {ok_cf} (max deviation {dev_cf:.2e})")
    print(f"densities preserved: {ok_d} (max deviation {dev_d:.2e})")


if __name__ == "__main__":
    main()
