import numpy as np
import pytest

from gmdiv import Compact, GaussianMixture, estimation
from gmdiv.bounds import _sample_compact


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


def random_compact(rng, M=2.0, d=1, max_atoms=8) -> GaussianMixture:
    """Random Compact(M)-tagged mixture, same family the sweeps draw from."""
    return GaussianMixture(_sample_compact(rng, M, d, max_atoms))


def single_gaussian(mean, M=None) -> GaussianMixture:
    """N(mean, I) as a one-atom mixture, Compact-tagged at its own radius."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    radius = float(np.linalg.norm(mean))
    return GaussianMixture.from_atoms([mean], tag=Compact(M if M is not None else max(radius, 1.0)))
