import math

import numpy as np
import pytest

from gmdiv import Compact, GaussianMixture, estimation
from gmdiv.divergences import DivergenceKind, IntegralEstimate, _compute_pairs
from gmdiv.mixtures import _Batch
from reference_sampler import sample_compact


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def hellinger_calls(monkeypatch):
    """List of the (p, q) pairs the estimation layer integrates, in call order."""
    calls = []
    original = estimation.divergence

    def counted(kind, p, q, **kwargs):
        calls.append((p, q))
        return original(kind, p, q, **kwargs)

    monkeypatch.setattr(estimation, "divergence", counted)
    return calls


@pytest.fixture
def gram_fills(monkeypatch):
    """List of the candidate lists whose Hellinger table was filled, in call order."""
    fills = []
    original = estimation._gram_h2

    def counted(elements, tol):
        fills.append(list(elements))
        return original(elements, tol)

    monkeypatch.setattr(estimation, "_gram_h2", counted)
    return fills


def random_compact(rng, M=2.0, d=1, max_atoms=8) -> GaussianMixture:
    """Random Compact(M)-tagged mixture, same family the sweeps draw from."""
    return GaussianMixture(sample_compact(rng, M, d, max_atoms))


def pair_estimates(est) -> list[dict]:
    """Each pair's {kind: IntegralEstimate} of `_compute_pairs`'s columns, as `_compute_divergences` builds its one pair's."""
    return [
        {
            k: IntegralEstimate(
                float(v[i]),
                float(est.bound[k][i]),
                math.inf if k is DivergenceKind.L2Sq else float(est.radius[i]),
                0 if k is DivergenceKind.L2Sq else int(est.points[i]),
            )
            for k, v in est.value.items()
        }
        for i in range(len(est.points))
    ]


def compute_pairs(kinds, pairs, tol=None, domain_radius=None, lam=None) -> list[dict]:
    """`_compute_pairs` on a list of (p, q) mixture pairs: each pair's {kind: IntegralEstimate}."""
    p_env, q_env = _Batch.of([p for p, _ in pairs]), _Batch.of([q for _, q in pairs])
    tags = {gm.mixing.tag for pair in pairs for gm in pair}
    return pair_estimates(_compute_pairs(kinds, p_env, q_env, tags, tol, domain_radius, lam))


def single_gaussian(mean, M=None) -> GaussianMixture:
    """N(mean, I) as a one-atom mixture, Compact-tagged at its own radius."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    radius = float(np.linalg.norm(mean))
    return GaussianMixture.from_atoms([mean], tag=Compact(M if M is not None else max(radius, 1.0)))
