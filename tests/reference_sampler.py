"""The sweep sampler written one mixture at a time: the reference for `bounds._draw_pairs`.

Each mixture is drawn with the generator calls the batched sampler
imitates (`dirichlet` included) and built as a validated
`MixingDistribution`, so a test can hold the batched draw to these bits.
"""

import math

import numpy as np

from gmdiv.bounds import InstanceFamily
from gmdiv.mixtures import Compact, GaussianMixture, MixingDistribution, Subgaussian


def sample_compact(rng, M: float, d: int, max_atoms: int) -> MixingDistribution:
    k = int(rng.integers(1, max_atoms + 1))
    dirs = rng.standard_normal((k, d))
    norms = np.sqrt(np.sum(dirs * dirs, axis=1))
    norms[norms < 1e-12] = 1.0
    radii = M * rng.random(k) ** (1.0 / d)
    locs = dirs / norms[:, None] * radii[:, None]
    w = rng.dirichlet(np.ones(k))
    w = np.maximum(w, 1e-9)
    w /= w.sum()
    return MixingDistribution(locs, w, Compact(M))


def sample_subgaussian(rng, K: float, d: int, max_atoms: int) -> MixingDistribution:
    # an atomic K-subgaussian law must put mass at the origin; draw the rest
    # Gaussian and repair weights outer-to-inner so every step-tail
    # constraint holds with margin
    k = int(rng.integers(1, max_atoms + 1))
    locs = np.zeros((k, d))
    if k > 1:
        locs[1:] = rng.standard_normal((k - 1, d)) * (K / 2.0)
    w = rng.dirichlet(np.ones(k))
    w = np.maximum(w, 1e-9)
    w /= w.sum()
    radii = np.sqrt(np.sum(locs * locs, axis=1))
    order = np.argsort(radii)[::-1]
    cum = 0.0
    for j in order:
        s = radii[j]
        if s <= 0:
            continue
        cap = math.exp(-s * s / (2.0 * K * K)) * (1.0 - 1e-9) - cum
        if w[j] > cap:
            w[j] = max(cap, 0.0)
        cum += w[j]
    w[0] += 1.0 - w.sum()
    keep = w > 0
    locs, w = locs[keep], w[keep]
    w = w / w.sum()
    return MixingDistribution(locs, w, Subgaussian(K))


def sample_mixing(rng, family: InstanceFamily) -> MixingDistribution:
    tag = family.tag
    if isinstance(tag, Compact):
        return sample_compact(rng, tag.M, family.d, family.max_atoms)
    return sample_subgaussian(rng, tag.K, family.d, family.max_atoms)


def reference_pair(seed: int, index: int, family: InstanceFamily):
    """The (p, q) pair of sweep instance `index`, as `bounds.make_pair` must draw it."""
    rng = np.random.default_rng([seed, index])
    p_mix = sample_mixing(rng, family)
    if index % 10 == 0:
        q_mix = MixingDistribution(np.zeros((1, family.d)), np.array([1.0]), family.tag)
    elif index % 50 == 1:
        q_mix = p_mix
    else:
        q_mix = sample_mixing(rng, family)
    return GaussianMixture(p_mix), GaussianMixture(q_mix)
