"""Shared builders for randomized models used across the suite.

Random models are kept well-conditioned on purpose: equivalence checks run at
1e-8 and badly scaled mixing functions would eat the tolerance budget with
roundoff rather than genuine disagreement.
"""
from __future__ import annotations

import numpy as np
import pytest

from domcf import AffineDense, AffineSCM, ILDModel, LayerChain, LeakyRelu, Permute


def random_scm(rng: np.random.Generator, m: int, spread: float = 0.6) -> AffineSCM:
    L = np.tril(rng.standard_normal((m, m)), k=-1) * spread / max(1.0, np.sqrt(m))
    S = np.exp(rng.uniform(-0.4, 0.4, size=m))
    b = rng.normal(0.0, 0.5, size=m)
    return AffineSCM(L, S, b)


def random_dense_layer(rng: np.random.Generator, m: int) -> AffineDense:
    G = np.eye(m) + 0.3 * rng.standard_normal((m, m)) / np.sqrt(m)
    return AffineDense(G, rng.normal(0.0, 0.3, size=m))


def random_chain(rng: np.random.Generator, m: int, with_permute: bool = True) -> LayerChain:
    layers = [random_dense_layer(rng, m), LeakyRelu(0.5)]
    if with_permute:
        layers.append(Permute(tuple(rng.permutation(m) + 1)))
    layers.append(random_dense_layer(rng, m))
    return LayerChain(m, tuple(layers))


def kink_distance(chain: LayerChain, x) -> np.ndarray:
    """Smallest |coordinate| at any leaky-relu input of the forward pass, per row."""
    v = np.asarray(x, dtype=float)
    dist = np.full(v.shape[:-1], np.inf)
    for layer in chain.layers:
        if isinstance(layer, LeakyRelu):
            dist = np.minimum(dist, np.min(np.abs(v), axis=-1))
        v = layer.forward(v)
    return dist


def random_model(rng: np.random.Generator, m: int, num_domains: int) -> ILDModel:
    return ILDModel(
        random_chain(rng, m),
        tuple(random_scm(rng, m) for _ in range(num_domains)),
    )


def family_with_intervention(
    rng: np.random.Generator, m: int, num_domains: int, indices: tuple[int, ...]
) -> ILDModel:
    """Random model whose inverse-level intervention set is exactly ``indices``.

    The family is built in the inverse parameterization (eps = A z + c), where
    rows map one-to-one onto the intervention criterion, and converted back;
    sharing mechanism rows instead would leak differing biases into descendant
    rows of the inverse map.
    """
    rows = [i - 1 for i in indices]

    def draw_inverse():
        A = np.tril(rng.standard_normal((m, m)), k=-1) * 0.5 / max(1.0, np.sqrt(m))
        A += np.diag(np.exp(rng.uniform(-0.4, 0.4, size=m)))
        c = rng.normal(0.0, 0.5, size=m)
        return A, c

    A0, c0 = draw_inverse()
    scms = []
    for _ in range(num_domains):
        A, c = A0.copy(), c0.copy()
        if rows:
            A_new, c_new = draw_inverse()
            A[rows] = A_new[rows]
            c[rows] = c_new[rows]
        F = np.linalg.inv(A)
        scms.append(AffineSCM.from_matrix(F, -F @ c))
    return ILDModel(random_chain(rng, m), tuple(scms))


def probe_points(model: ILDModel, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Probes drawn from every domain of the model, labels cycling 1..N_d."""
    per = -(-n // model.num_domains)
    xs, ds = [], []
    for d in range(1, model.num_domains + 1):
        xs.append(model.sample(d, per, seed + d))
        ds.append(np.full(per, d, dtype=int))
    x = np.concatenate(xs)[:n]
    d = np.concatenate(ds)[:n]
    return x, d


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
