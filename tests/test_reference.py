import mpmath
import pytest

from gmdiv import DivergenceKind
from conftest import single_gaussian
from reference import HARD_PAIRS, KINDS, oracle, stored


def test_oracle_matches_single_gaussian_closed_forms():
    # N(0, 1) against N(delta, 1): KL = delta^2 / 2, H^2 = 2 - 2 e^(-delta^2 / 8),
    # chi^2 = e^(delta^2) - 1 and TV = erf(delta / (2 sqrt 2)), TV cut at its one root
    delta = 1.5
    p, q = stored(single_gaussian(0.0, M=2.0)), stored(single_gaussian(delta, M=2.0))
    with mpmath.workdps(60):
        d = mpmath.mpf(delta)
        exact = {
            DivergenceKind.KL: d**2 / 2,
            DivergenceKind.HellingerSq: 2 - 2 * mpmath.exp(-(d**2) / 8),
            DivergenceKind.ChiSq: mpmath.expm1(d**2),
            DivergenceKind.TV: mpmath.erf(d / (2 * mpmath.sqrt(2))),
        }
        for kind in KINDS:
            assert abs(oracle(kind, p, q) / exact[kind] - 1) < mpmath.mpf(10) ** -40


def test_hard_pairs_are_the_defects_corpus():
    # the eps-family at eps in {1e-6, 1e-8, 1e-10, 1e-12} and M in {1, 2}, and
    # the moment-matched pairs at L in {12, 14, 16, 18}, M = 1 and L = 20, M = 2
    assert len(HARD_PAIRS) == 13
    make, L, M = HARD_PAIRS["moments,L=14,M=1"]
    p, q = make(L, M)
    assert p.mixing.n_atoms + q.mixing.n_atoms == L + 1
    for k in range(1, L):
        assert sum(w * a**k for a, w in stored(p)) == pytest.approx(sum(w * a**k for a, w in stored(q)), abs=1e-12)
    make, eps, M = HARD_PAIRS["eps=1e-10,M=2"]
    assert stored(make(eps, M)[0]) == [(0.0, 1.0 - 1e-10), (2.0, 1e-10)]
