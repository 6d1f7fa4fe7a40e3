"""High-precision d = 1 references: mpmath over a pair's stored atoms and weights, and the hard-pair corpus.

`oracle(kind, stored(p), stored(q))` integrates a kind's integrand at 60
digits over the atoms and weights the mixtures store (a weight 1 - eps is
the double nearest it, not 1 - eps), so it is the value of the very pair
the package integrates:

  KL   the Bregman form p log(p/q) - p + q,
  H^2  (sqrt p - sqrt q)^2,
  chi^2  (p - q)^2 / q,
  TV   |p - q| / 2, cut at mpmath's roots of p - q.

The line is integrated over [lo - w, hi + w], lo and hi the extreme atom
locations of p and q and w = (hi - lo) + 24, in panels at most 4 wide
(mpmath's Gauss-Legendre rule, raised in degree until two degrees agree):
every integrand above is at most a Gaussian of unit variance centred in
[2 lo - hi, 2 hi - lo] (p^2 / q peaks at 2 a - b for atoms a of p and b of
q), so what lies beyond is below e^-288 of its peak.  The roots of p - q
are bracketed where its sign changes on a grid of step 1/64 over the same
range and polished by bisection, so two roots closer than the step are
not found.

The corpus is the pairs the package is known to find hard in d = 1:
`eps_pair(eps, M)`, (1 - eps) N(0, 1) + eps N(M, 1) against N(0, 1), and
`moment_matched_pair(L, M)`, whose two mixing distributions in Compact(M)
match moments 1 ... L - 1 with disjoint atoms.  `HARD_PAIRS` names each
with its constructor's arguments.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

from gmdiv import Compact, DivergenceKind, GaussianMixture

KINDS = (DivergenceKind.KL, DivergenceKind.HellingerSq, DivergenceKind.ChiSq, DivergenceKind.TV)


def eps_pair(eps, M):
    """p = (1 - eps) N(0, 1) + eps N(M, 1) against q = N(0, 1), both Compact(M)."""
    p = GaussianMixture.from_atoms([[0.0], [M]], [1.0 - eps, eps], tag=Compact(M))
    return p, GaussianMixture.from_atoms([[0.0]], [1.0], tag=Compact(M))


def moment_matched_pair(L, M):
    """p and q on the L + 1 Chebyshev-Lobatto nodes M cos(i pi / L), split by the sign of their weights.

    The weights (-1)^i / prod_{j != i} |x_i - x_j| are the divided
    difference of order L, which annihilates the polynomials of degree
    below L: the even nodes (p) and the odd nodes (q), each normalised, have
    equal moments 1 ... L - 1 (and equal mass before normalising).
    """
    i = np.arange(L + 1)
    x = M * np.cos(i * np.pi / L)
    gaps = np.abs(x[:, None] - x[None, :]) + np.eye(L + 1)
    w = 1.0 / np.prod(gaps, axis=1)
    side = [i % 2 == 0, i % 2 == 1]
    return tuple(GaussianMixture.from_atoms(x[s, None], w[s] / w[s].sum(), tag=Compact(M)) for s in side)


HARD_PAIRS = {
    **{f"eps={eps:g},M={M:g}": (eps_pair, eps, M) for eps in (1e-6, 1e-8, 1e-10, 1e-12) for M in (1.0, 2.0)},
    **{f"moments,L={L},M=1": (moment_matched_pair, L, 1.0) for L in (12, 14, 16, 18)},
    "moments,L=20,M=2": (moment_matched_pair, 20, 2.0),
}


def stored(gm):
    """A d = 1 mixture's stored atoms, as (location, weight) floats."""
    return [(float(a), float(w)) for a, w in zip(gm.mixing.locations[:, 0], gm.mixing.weights)]


def _density(atoms, x):
    return mpmath.fsum(w * mpmath.exp(-((x - a) ** 2) / 2) for a, w in atoms) / mpmath.sqrt(2 * mpmath.pi)


def _roots(f, lo, hi):
    """The roots of f in [lo, hi] bracketed on a grid of step 1/64, each to the working precision."""
    grid = [lo + (hi - lo) * mpmath.mpf(k) / math.ceil(64 * (hi - lo)) for k in range(math.ceil(64 * (hi - lo)) + 1)]
    values = [f(x) for x in grid]
    roots = []
    for a, b, fa, fb in zip(grid, grid[1:], values, values[1:]):
        if fa == 0:
            roots.append(a)
        elif fa * fb < 0:
            roots.append(mpmath.findroot(f, (a, b), solver="bisect"))
    return roots


def oracle(kind, p, q, dps=60):
    """`kind`'s value between two d = 1 mixtures given by their stored atoms (`stored`), at `dps` digits, as an mpf.

    Raises ArithmeticError when the quadrature's own error estimate exceeds
    10^(-dps/2) of the value.
    """
    with mpmath.workdps(dps):
        P, Q = ([(mpmath.mpf(a), mpmath.mpf(w)) for a, w in atoms] for atoms in (p, q))
        locs = [a for a, _ in P + Q]
        width = max(locs) - min(locs) + 24
        lo, hi = min(locs) - width, max(locs) + width
        cuts = [lo + (hi - lo) * mpmath.mpf(k) / math.ceil((hi - lo) / 4) for k in range(math.ceil((hi - lo) / 4) + 1)]

        def integrand(x):
            px, qx = _density(P, x), _density(Q, x)
            if kind == DivergenceKind.KL:
                return px * mpmath.log(px / qx) - px + qx
            if kind == DivergenceKind.HellingerSq:
                return (mpmath.sqrt(px) - mpmath.sqrt(qx)) ** 2
            if kind == DivergenceKind.ChiSq:
                return (px - qx) ** 2 / qx
            if kind == DivergenceKind.TV:
                return abs(px - qx) / 2
            raise ValueError(f"the oracle has no kind {kind!r}")

        if kind == DivergenceKind.TV:
            cuts = sorted(cuts + _roots(lambda x: _density(P, x) - _density(Q, x), lo, hi))
        value, err = mpmath.quad(integrand, cuts, method="gauss-legendre", error=True)
        if err > abs(value) * mpmath.mpf(10) ** (-dps // 2):
            raise ArithmeticError(f"the oracle's {kind} did not converge: error {mpmath.nstr(err, 3)}")
        return value
