"""f-divergences between Gaussian mixtures with certified domain truncation.

KL, H^2, chi^2, TV and the Renyi power integral are integrals over R^d,
computed as an adaptive quadrature over a centered ball plus a rigorous
bound on everything outside the ball.  The outside-the-ball certificates
come from per-atom envelopes: for a mixture with atoms at radii s_j and
weights w_j and any r >= max_j s_j,

    p(x)  <= (2 pi)^(-d/2) sum_j w_j exp(-(r - s_j)^2 / 2),   ||x|| = r,
    p(x)  >= (2 pi)^(-d/2) w_j exp(-(r + s_j)^2 / 2)          (any fixed j),

so the log-ratio of two mixtures is bounded by an affine function of r
beyond the truncation radius, which is exactly the growth rate the score
bound (|grad log p| <= 3 r + 4 M) gives.  Tail integrals of the resulting
(polynomial) x (Gaussian envelope) integrands are bounded in closed form
via exponential moments, so no quadrature enters the certificates.

Kinds and their tail treatment:

  KL        integrand p log(p/q) - p + q (pointwise nonnegative);
            tail <= envelope(p) * affine log-ratio bound + mass tail of q.
  H^2, TV   tail bounded by the two mass tails.
  power     int p^lam / q^(lam-1): tail <= envelope of p e^{(lam-1)(a r + b)}
            (Gaussian after completing the square; KL shares the atom sum).
  chi^2     tail <= the lam = 2 power tail + mass tail of q.

One pass (`_tail_bounds`) bounds every kind of a batch of pairs at their
radii: it forms the mass tails of p and of q and the log-ratio line once,
and the radius search makes one such pass per step.  A pair's certificates
are the rows of its last step, where it kept its radius; only a fixed
radius, which runs no search, makes a pass of its own.

L2^2 is not integrated.  In every d it is the closed form

    ||p - q||_2^2 = (4 pi)^(-d/2) sum_ij c_i c_j exp(-||x_i - x_j||^2 / 4)

over the atoms x_i of p and q with coefficients c = (w, -v), atoms at one
location merged (`_l2_closed_form`), so q = p gives exactly 0 and a swap of
p and q gives the same bits.  Its `truncation_bound` is a forward-error
bound on the rounding of that sum, its `domain_radius` is inf and its
`quadrature_points` 0.  Distinct atoms at nearly equal locations still
cancel, so its accuracy floor is about eps * sum_ij |c_i c_j|.

d in {1, 2, 3} uses certified quadrature: one driver (`_refine`) refines a
nested tensor-product rule (`_Rule`: 1-d Gauss-Legendre panels, cut at the
sign changes of p - q for TV; radial panels x angular rule for d in {2, 3})
on a ball sized by one radius search (`_search_radius`).  A level-0 panel
is at most 4 wide with 16 nodes, which resolves unit-width Gaussian
features to rounding, and each radial level halves the panels.  In d in
{2, 3} the search tries the multiples of 4 only (but for TV), so the
level-0 radial panels of a searched ball are [4k, 4k + 4], those of the
start radius are the grown ball's inner panels bit for bit, and a grown
radius keeps their start-pass values and evaluates only its new panels.
The driver refines units: a member's line in d = 1, one level-0 radial
panel of a member in d in {2, 3}, each at its own level pair.  A radial
level is judged by the 33-point Gauss-Kronrod extension of its panels
(Kronrod 1965; QUADPACK, Piessens et al. 1983): the Gauss pass gives the
Gauss sum G and, from the same node values, the Kronrod weights' sum at
those nodes, and the judgement adds the 17 nodes a panel that complete
the Kronrod sum K, so it costs 17/16 of a level rather than a level of
twice the nodes.  `_refine` refines in phases, one axis each, and each
phase is one loop over the units still pending in it.  A member settles
once its units' steps are within the stopping bound of its value, the
sum of its units' values: a unit's step is its |K - G| (and, past level
0, how far K moved from the level below) in the radial phase, and how
far one more level moved its value on the other axes, and the steps of
one round add signed, those of earlier rounds by magnitude.  d = 1 keeps
K.  In d in {2, 3} the radial phase runs on the coarsest angular rule and
keeps G, and the angular phase then refines the angle at each unit's
radial level, stepping each unit on its own while its step exceeds an
equal share of its member's bound, so the angle is refined where it
carries the error.  So the radial step is judged on the coarsest angular
rule.  TV in d in {2, 3} bends along p = q, where a Kronrod difference
can be small by chance and a judgement on one axis can be fooled, so its
radial phases step a whole radial level to judge one, a member's units
step together on both axes, and it runs the two phases twice: the radius
again at its final angular level, then the angle again.  No level pair
of a unit is evaluated twice.  In d = 2 the
trapezoid angles of one level are every
other angle of the next, so an angular step evaluates only the new angles
and adds half the value of the level below (Trefethen & Weideman, SIAM
Rev. 2014), and no node is evaluated twice either, but for the first
radial step of TV's re-check, which evaluates its level in full.  d = 3's
angular rule is nu Gauss-Legendre nodes in cos(polar) times 2 nu
trapezoid azimuths, nu = 8, 12, 16, 24, ..., 512 (`_ANGULAR`), so each
level has about 2x the directions of the last, as in d = 2; the
Gauss-Legendre axis does not nest, so each d = 3 angular step evaluates
its level in full.  Both run on a batch of members at once, as arrays
over members: `_compute_pairs` takes the pairs as two `mixtures._Batch`es,
the atoms of every p and of every q padded to one count, which a sweep
draws as arrays and a one-pair caller builds from its mixtures
(`_Batch.of`), and makes one `_refine` call.  From the start radii,
`_refine` runs the start pass
(level 0 of the uncut rule, which sets the truncation targets), the radius
search with one tail pass for every kind per step, builds the rule on the
final radii (cut at the TV sign changes in d = 1, at the level-0 panel
edges in d in {2, 3}), keeps the start pass as level 0 where a unit's
panels stayed (every start-pass panel in d in {2, 3}; in d = 1 where the
radius stayed and the rule is uncut), and runs the refinement phases over
all units still pending, each at its own level pair; each pair stops at
its own levels and keeps its own radius, splits, tails and point count.
Within a step the pending units are evaluated in groups of consecutive
units with at most _NODE_BUDGET nodes, so no temporary grows with the
batch; a sweep integrates all its pairs as one batch.  A larger unit
goes alone, and its level is streamed: its nodes are built by range (the
outer product of the radial rows a range touches, trimmed) and evaluated
_NODE_BUDGET at a time, the log-density kernel's block, into one buffer
of weighted integrand values that one segment sum reads.  So a level
holds one float per node per kind and weight row, and its values are
those of the whole level in one piece, bit for bit.  Each node range is
one pass of the kernel for log p and log q together (`log_densities`)
and one pass over them for every kind's integrand (`_integrands`),
weighted by one row of weights per sum (a Gauss pass forms G and the
Kronrod weights' sum from the same values).  `_compute_pairs` integrates its pairs in
atom-count order, so a block of d = 1 nodes pads few atoms, and returns
their estimates in the caller's order as columns (`_Columns`: each kind's
values and truncation bounds, each pair's radius and points); only
`_compute_divergences` builds `IntegralEstimate`s, for its one pair.
One pair (`_compute_divergences`, `divergence`, `renyi_integral`), the
Gram pass of the Hellinger table and `plancherel_l2` are one-member
batches of the same `_refine`; a fixed `domain_radius` and the Gram pass,
whose target does not depend on the value, pass no tail test.  In d = 1
the TV cuts are the roots of log p - log q, bracketed between neighbouring
nodes of a 2049-node grid per pair (finer beyond R = 64, for a step of at
most 1/16) where the test log p - log q < 0 flips, and found by `brentq`,
a vectorized port of Brent's method that iterates every bracket at once,
takes scipy's steps and returns its roots bit for bit (an end where the
log-ratio is exactly 0 as it is), so the package needs numpy alone.  The
grid is searched by bisection from 17 evenly spaced nodes, and an
interval is dropped when the log-ratio's slope bound (the span of the
pair's atoms) and a rounding bound show the test cannot flip inside it,
so only a small part of the grid is evaluated (all of it for q = p, whose
log-ratio is 0 at every node) and the brackets are still the full
grid's.  For d > 3 the integrated kinds fall back to seeded
importance-sampling Monte Carlo where `truncation_bound` reports a 95%
confidence half-width instead of a hard bound.

`tol` is a relative target: refinement stops when the Kronrod difference
(or, on an angular axis and TV's radial axis in d >= 2, successive levels)
differs by less than tol/2 relative to the current value, and the domain
grows until the certified tail bound is below tol/2 of the value scale.
The quadrature error is that estimate only; it is not certified.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapabilityError, HypothesisError, QuadratureError
from .mixtures import (
    _BLOCK,
    LOG_2PI,
    Compact,
    GaussianMixture,
    Subgaussian,
    Unconstrained,
    _Batch,
    log_densities,
)


class DivergenceKind(enum.Enum):
    KL = "kl"
    HellingerSq = "h2"
    ChiSq = "chi2"
    TV = "tv"
    L2Sq = "l2"


@dataclass(frozen=True)
class IntegralEstimate:
    """A divergence value with its certified truncation error bound.

    value:             quadrature result over the ball ||x|| <= domain_radius.
    truncation_bound:  certified upper bound on the contribution omitted
                       outside the ball (confidence half-width in MC mode).
    domain_radius:     radius of the integration ball (inf in MC mode).
    quadrature_points: total integrand evaluations used.

    L2^2 is a closed-form sum, not an integral: `truncation_bound` bounds
    the rounding error of that sum (|value - exact| <= truncation_bound),
    `domain_radius` is inf and `quadrature_points` is 0.
    """

    value: float
    truncation_bound: float
    domain_radius: float
    quadrature_points: int


class _Columns(NamedTuple):
    """Estimates of several kinds for m pairs as columns, row i for pair i: what `_compute_pairs` returns."""

    value: dict  # each kind's (m,) values, in the order of the kinds
    bound: dict  # each kind's (m,) truncation bounds
    radius: np.ndarray  # (m,) each pair's domain radius, inf when L2^2 is its only kind
    points: np.ndarray  # (m,) each pair's integrand evaluations, shared by its integrated kinds


# Surface area of the unit sphere in R^d (d=1 counts the two endpoints).
_SURFACE = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}

# Constants c_d making P[||Z_d|| > t] <= c_d exp(-t^2/2) valid on the range
# of t that truncation_radius can produce for double-precision tolerances
# (for d=3 the chi tail is <= sqrt(2/pi)(t + 1/t) e^{-t^2/2}, and
# sqrt(2 ln(64/tol)) <= 79 whenever tol is representable).
_C_D = {1: 2.0, 2: 2.0, 3: 64.0}

_FLOOR = 1e-300
_TRUNC_FLOOR = 1e-15
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

# The 33-point Gauss-Kronrod extension of that rule on [-1, 1] (Kronrod 1965):
# the 17 nodes it adds, ascending, and its 33 weights, first at the 16 Gauss
# nodes (in _GL_NODES order), then at the 17 added nodes.  It integrates
# polynomials up to degree 49 exactly.
_KRONROD_NODES = np.array([
    -0.9982392741454446, -0.9715059509693926, -0.9091576670123429, -0.8142402870624444,
    -0.6897411066817623, -0.5404076763521397, -0.37148378087841627, -0.18916857901808373,
    0.0,
    0.18916857901808373, 0.37148378087841627, 0.5404076763521397, 0.6897411066817623,
    0.8142402870624444, 0.9091576670123429, 0.9715059509693926, 0.9982392741454446,
])
_KRONROD_WEIGHTS = np.array([
    0.013257930688091158, 0.031260543647380526, 0.047506215976407015, 0.062358806011834855,
    0.07476982388559955, 0.08459580379259064, 0.09129203282819166, 0.09472840124723005,
    0.09472840124723005, 0.09129203282819166, 0.08459580379259064, 0.07476982388559955,
    0.062358806011834855, 0.047506215976407015, 0.031260543647380526, 0.013257930688091158,
    0.004742777049247318, 0.022498859440049444, 0.039512951202421966, 0.055205633095422174,
    0.06886299519153125, 0.08005394126371929, 0.08833750257911273, 0.09343867406092123,
    0.0951542160804983,
    0.09343867406092123, 0.08833750257911273, 0.08005394126371929, 0.06886299519153125,
    0.055205633095422174, 0.039512951202421966, 0.022498859440049444, 0.004742777049247318,
])


def default_tol(d: int) -> float:
    return 1e-8 if d == 1 else 1e-6


def truncation_radius(tag, d: int, tol: float) -> float:
    """Radius R with total class mass outside ||x|| <= R at most tol.

    Compact(M):     R = M + sqrt(2 ln(c_d / tol)).
    Subgaussian(K): the atom tail and the Gaussian shell each get tol/2,
                    R = K sqrt(2 ln(2/tol)) + sqrt(2 ln(2 c_d / tol)).
    """
    if not (0 < tol < 1):
        raise HypothesisError(f"truncation tolerance must lie in (0, 1), got {tol}")
    if d not in _C_D:
        raise CapabilityError(f"certified truncation radius needs d <= 3, got d={d}")
    c_d = _C_D[d]
    if isinstance(tag, Compact):
        return tag.M + math.sqrt(2.0 * math.log(c_d / tol))
    if isinstance(tag, Subgaussian):
        return tag.K * math.sqrt(2.0 * math.log(2.0 / tol)) + math.sqrt(
            2.0 * math.log(2.0 * c_d / tol)
        )
    raise CapabilityError("unconstrained mixing distributions have no certified tail")


def gaussian_radial_tail(t, d: int):
    """Certified upper bound on P[||Z_d|| > t] for standard Gaussian Z_d, elementwise in t.

    1.0 where t <= 0, in any d; CapabilityError for t > 0 and d not in {1, 2, 3}.
    """
    t = np.asarray(t, dtype=float)
    if d not in _SURFACE and np.any(t > 0):
        raise CapabilityError(f"no radial tail bound for d={d}")
    bound = np.exp(-0.5 * t * t)
    if d == 3:
        u = np.where(t > 0, t, 1.0)
        bound = math.sqrt(2.0 / math.pi) * (u + 1.0 / u) * bound
    out = np.where(t > 0, np.minimum(1.0, bound), 1.0)
    return float(out) if out.ndim == 0 else out


# -- envelopes and tail certificates, as arrays over mixtures -------------------


def _atom_sum(terms) -> np.ndarray:
    """Sum over the last (atom) axis in atom order, so trailing zeros change no bit."""
    return np.cumsum(terms, axis=-1)[..., -1]


def _mass_tail(batch: _Batch, R, d: int) -> np.ndarray:
    """Per mixture of the batch, its mass outside its ball of radius R."""
    return _atom_sum(batch.weights * gaussian_radial_tail(R[:, None] - batch.radii, d))


def _anchor(batch: _Batch, R) -> tuple[np.ndarray, np.ndarray]:
    """Per mixture, the radius t and log-weight log v of the atom with the best lower bound.

    That bound is log q >= log v - (r + t)^2 / 2 at r = R, up to the shared
    -d/2 log 2 pi.
    """
    scores = batch.logw - 0.5 * (R[:, None] + batch.radii) ** 2
    at = np.arange(scores.shape[0]), np.argmax(scores, axis=1)
    return batch.radii[at], batch.logw[at]


def _log_ratio_line(p_env: _Batch, q_env: _Batch, R):
    """Per pair, a*r + b dominating log(p/q) on spheres of radius r >= R."""
    t0, logv0 = _anchor(q_env, R)
    a = p_env.s_max + t0
    b = 0.5 * (t0 * t0 - p_env.s_max**2) - logv0
    return a, b


def _ru_poly(d: int, R) -> list:
    # coefficients (ascending in u) of (R + u)^(d-1)
    if d == 1:
        return [1.0]
    if d == 2:
        return [R, 1.0]
    return [R * R, 2.0 * R, 1.0]


def _times_linear(coeffs, c0, c1) -> list:
    # coefficients of (sum_m coeffs_m u^m) (c0 + c1 u)
    out = [coeffs[0] * c0]
    for lo, hi in itertools.pairwise(coeffs):
        out.append(hi * c0 + lo * c1)
    return out + [coeffs[-1] * c1]


_KAPPA_MIN = 0.25


def _atom_tails(p_env: _Batch, R, poly, beta, c) -> np.ndarray:
    """Per pair, sum_j w_j exp(s_j beta + beta^2/2 + c - kappa_j^2/2) moments(poly, kappa_j).

    kappa_j = R - (s_j + beta).  Bounds the integral over u >= 0 of poly(u)
    times p's atom envelopes at radius R + u tilted by e^{beta (R + u) + c};
    the moments are int_0^inf poly(u) e^(-kappa u) du = sum_m poly_m m! /
    kappa^(m+1).  Infinite for a pair with an atom at kappa < _KAPPA_MIN or
    past exp(700).
    """
    beta, c = np.broadcast_to(beta, R.shape)[:, None], np.broadcast_to(c, R.shape)[:, None]
    s = p_env.radii
    kappa = R[:, None] - (s + beta)
    log_c = s * beta + 0.5 * beta * beta + c - 0.5 * kappa * kappa
    bad = p_env.real & ((kappa < _KAPPA_MIN) | (log_c > 700.0))
    # pads and bad atoms get a harmless kappa and log_c and add 0
    used = p_env.real & ~bad
    kappa, log_c = np.where(used, kappa, 1.0), np.where(used, log_c, 0.0)
    moments, fact = 0.0, 1.0
    for m, coef in enumerate(poly):
        if m > 0:
            fact *= m
        moments = moments + np.asarray(coef)[..., None] * fact / kappa ** (m + 1)
    terms = np.where(used, p_env.weights * np.exp(log_c) * moments, 0.0)
    return np.where(bad.any(axis=1), np.inf, _atom_sum(terms))


def _tail_bounds(kinds, p_env: _Batch, q_env: _Batch, R, d, lam=None) -> np.ndarray:
    """Per pair i and kind j, a certified bound on the integral of kinds[j] outside radius R[i]: (pairs, kinds).

    One pass for every kind: the mass tails of p and of q and the log-ratio
    line are formed once, and only if a kind reads them, so each column is
    the same bits as the one-kind call gives it.
    """
    need = set(kinds)
    norm = _SURFACE[d] * math.exp(-0.5 * d * LOG_2PI)
    mass_q = _mass_tail(q_env, R, d) if need - {"renyi"} else None
    both = _mass_tail(p_env, R, d) + mass_q if need & {DivergenceKind.HellingerSq, DivergenceKind.TV} else None
    a, b = _log_ratio_line(p_env, q_env, R) if need - {DivergenceKind.HellingerSq, DivergenceKind.TV} else (None, None)
    # p^lam / q^(lam-1) <= p e^{(lam-1)(a r + b)} on ||x|| = r >= R
    power = lambda lam: norm * _atom_tails(p_env, R, _ru_poly(d, R), (lam - 1.0) * a, (lam - 1.0) * b)  # noqa: E731
    columns = {
        DivergenceKind.HellingerSq: lambda: both,
        DivergenceKind.TV: lambda: 0.5 * both,
        DivergenceKind.KL: lambda: norm * _atom_tails(
            p_env, R, _times_linear(_ru_poly(d, R), np.maximum(0.0, a * R + b), a), 0.0, 0.0
        ) + mass_q,
        # p^2/q - 2p + q <= p^2/q + q, and int p^2/q is the lam = 2 power integral
        DivergenceKind.ChiSq: lambda: power(2.0) + mass_q,
        "renyi": lambda: power(lam),
    }
    out = np.stack([columns[kind]() for kind in kinds], axis=1)
    return np.where((R < np.maximum(p_env.s_max, q_env.s_max) + _KAPPA_MIN)[:, None], np.inf, out)


# -- integrands ---------------------------------------------------------------


def _integrands(kinds, logp: np.ndarray, logq: np.ndarray, lam=None) -> np.ndarray:
    """The integrand of each kind at the nodes, one row per kind, from one pass over log p and log q.

    lr = log p - log q and |lr| are formed once, and q = exp(log q),
    exp(max(log p, log q)) and expm1(-|lr|) once if a kind reads them.  KL
    and chi^2 switch formulas by node: each forms its first formula at
    every node and overwrites only the nodes of the second (|lr| <= 0.5 for
    KL, lr > 0 for chi^2), so only those are gathered.  Each node's value
    is the same bits as the one-kind formulas give it.
    """
    lr = logp - logq
    need = set(kinds)
    abs_lr = np.abs(lr)
    q = np.exp(logq) if need & {DivergenceKind.KL, DivergenceKind.ChiSq} else None
    larger = np.exp(np.maximum(logp, logq)) if need & {DivergenceKind.HellingerSq, DivergenceKind.TV} else None
    # max(p, q) above; expm1(-|lr|) is expm1(lr) where lr <= 0 and expm1(-lr) where lr > 0
    fall = np.expm1(-abs_lr) if need & {DivergenceKind.ChiSq, DivergenceKind.TV} else None
    out = np.empty((len(kinds), lr.size))
    for kind, row in zip(kinds, out):
        if kind == DivergenceKind.KL:
            # pointwise-nonnegative Bregman form p log(p/q) - p + q; for small
            # log-ratios switch to q((1+s)log1p(s) - s) with s = p/q - 1 to
            # avoid cancellation
            np.multiply(np.exp(logp), lr - 1.0, out=row)
            row += q
            small = ~(abs_lr > 0.5)
            s = np.expm1(lr[small])
            row[small] = q[small] * ((1.0 + s) * np.log1p(s) - s)
        elif kind == DivergenceKind.HellingerSq:
            np.multiply(larger, np.expm1(-0.5 * abs_lr) ** 2, out=row)
        elif kind == DivergenceKind.ChiSq:
            np.multiply(q, fall ** 2, out=row)
            pos = lr > 0
            # an overflow to inf is reported by the driver, which raises on a
            # value that is not finite
            with np.errstate(over="ignore"):
                row[pos] = np.exp(2.0 * logp[pos] - logq[pos]) * fall[pos] ** 2
        elif kind == DivergenceKind.TV:
            np.multiply(0.5 * larger, -fall, out=row)
        elif kind == "renyi":
            with np.errstate(over="ignore"):
                np.exp(lam * logp - (lam - 1.0) * logq, out=row)
        else:
            raise ValueError(f"unknown kind {kind!r}")
    return out


# -- quadrature driver ----------------------------------------------------------

# The angular rule of each level, (polar, azimuthal) node counts per d:
# d = 2 takes 32 2^j trapezoid angles; d = 3 takes nu Gauss-Legendre nodes
# in cos(polar) times 2 nu trapezoid azimuths, nu = 8, 12, 16, 24, ..., 512,
# so each level has about 2x the directions of the last, as in d = 2, and
# level 2i is 8 2^i x 16 2^i.  A finer d = 3 ladder would put levels too
# close in degree for one step to judge convergence.
_ANGULAR = {
    1: ((1, 1),),
    2: tuple((1, 32 << j) for j in range(7)),
    3: tuple((nu, 2 * nu) for nu in ((8, 12)[j % 2] << j // 2 for j in range(13))),
}
_DIRECTIONS = {d: np.array([nu * nt for nu, nt in sizes]) for d, sizes in _ANGULAR.items()}

# Level caps of the nested rules, (radial, angular) per d: d = 1 doubles its
# panels at most 14 times; d in {2, 3} refines the radial panels at most 7
# times, and the angle through every level of _ANGULAR: 6 times in d = 2
# (to 2,048 angles) and 12 times in d = 3 (to 512 x 1,024 directions).  In
# every d, no member's rule has more than _MAX_POINTS nodes, so d = 3's last
# angular level (16 radial nodes x 524,288 directions) is never reached.
_MAX_LEVELS = {1: (15, 1), 2: (8, len(_ANGULAR[2])), 3: (8, len(_ANGULAR[3]))}
_MAX_POINTS = 6_000_000

# A level-0 radial panel is at most this wide: 16 Gauss-Legendre nodes
# resolve unit-width Gaussian features over it to rounding.
_PANEL_WIDTH = 4.0

# Members of a batch are evaluated in groups of consecutive members whose
# nodes number at most _NODE_BUDGET, and a larger member alone, a slice of
# _NODE_BUDGET nodes at a time, so a batch as large as a whole sweep and a
# level as large as _MAX_POINTS keep every temporary bounded.  It is the
# log-density kernel's block: a slice then starts where one of the member's
# blocks starts, and each block sees the nodes it sees in one whole call.
_NODE_BUDGET = _BLOCK


def _groups(counts, keys=None) -> list[slice]:
    """Consecutive runs of members with at most _NODE_BUDGET nodes in all, a larger one alone, and one key each."""
    groups, lo, total = [], 0, 0
    for i, c in enumerate(counts):
        if i > lo and (total + c > _NODE_BUDGET or keys is not None and keys[i] != keys[lo]):
            groups.append(slice(lo, i))
            lo, total = i, 0
        total += c
    return groups + [slice(lo, len(counts))]


# The panel rule of each part of a radial level, its nodes on [-1, 1] and its
# weight rows: "gauss" the 16 Gauss-Legendre nodes; "both" those nodes with
# two rows, the Gauss weights and the Kronrod weights there; "kronrod" the 17
# nodes the Kronrod extension adds, with its weights there.
_PANEL_RULES = {
    "gauss": (_GL_NODES, _GL_WEIGHTS[None]),
    "both": (_GL_NODES, np.stack([_GL_WEIGHTS, _KRONROD_WEIGHTS[:16]])),
    "kronrod": (_KRONROD_NODES, _KRONROD_WEIGHTS[None, 16:]),
}


def _panel_nodes(lo: np.ndarray, hi: np.ndarray, part: str) -> tuple[np.ndarray, np.ndarray]:
    """The part's nodes (n,) on the panels [lo, hi], panel after panel, and its weight rows (rows, n)."""
    t, tw = _PANEL_RULES[part]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * t[None, :]
    w = half[None, :, None] * tw[:, None, :]
    return x.ravel(), w.reshape(tw.shape[0], -1)


@functools.cache
def _angular_rule(d: int, level: int, nest: bool = False) -> tuple[np.ndarray, np.ndarray]:
    # unit directions and weights of a level's angular rule, sized by
    # _ANGULAR (d = 2: the periodic trapezoid rule; d = 3: Gauss-Legendre in
    # cos(polar) x trapezoid in the azimuth); cached, so read-only.  d = 2
    # with `nest`: only the angles that level - 1 lacks, the odd ones, as
    # 2 pi (2i) / (2n) is 2 pi i / n exactly
    nu, nt = _ANGULAR[d][level]
    if d == 2:
        k = np.arange(nt)[1::2] if nest else np.arange(nt)
        theta = 2.0 * math.pi * k / nt
        omegas = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        weights = np.full(k.size, 2.0 * math.pi / nt)
    else:
        u, wu = np.polynomial.legendre.leggauss(nu)
        theta = 2.0 * math.pi * np.arange(nt) / nt
        su = np.sqrt(1.0 - u * u)
        omegas = np.empty((nu * nt, 3))
        omegas[:, 0] = np.outer(su, np.cos(theta)).ravel()
        omegas[:, 1] = np.outer(su, np.sin(theta)).ravel()
        omegas[:, 2] = np.repeat(u, nt)
        weights = np.repeat(wu, nt) * (2.0 * math.pi / nt)
    omegas.setflags(write=False)
    weights.setflags(write=False)
    return omegas, weights


class _Rule:
    """Nested tensor-product rules on the balls ||x|| <= R[i] of a batch of members, unit by unit.

    Each member owns cut panels [lo, hi]: in d = 1, [-R, R] cut at the
    member's splits (ascending, `counts[i]` of them for member i); in d in
    {2, 3}, the radial interval [0, R] cut at them (`_radial_cuts` cuts it
    at its level-0 panel edges).  A unit is what the driver refines on its
    own: in d = 1 a member's whole line, every cut panel of it; in d in
    {2, 3} one cut panel of the radius.  Units are numbered member after
    member, in panel order, and the `members` of a call are units.  A
    unit's level is a pair (i, j), one level per axis.  Radial level i
    divides a cut panel into max(1, ceil((hi - lo) / _PANEL_WIDTH)) << i
    equal panels (the panel edges are those of np.linspace) of 16
    Gauss-Legendre nodes each.  A call takes one `part` of each panel
    (`_PANEL_RULES`): its Gauss nodes with the Gauss weights ("gauss"), or
    with the Gauss and the Kronrod weights as two weight rows ("both"), or
    the 17 nodes of the 33-point Gauss-Kronrod extension that the Gauss
    rule lacks ("kronrod").  In d >= 2 the radial nodes r, weights wr
    carry the angular rule of level j: nodes r omega, weights wr r^(d-1)
    wa.  d = 1 has the one axis and j = 0.  A `nest`ed call (d = 2, j >= 1)
    gets only the angles of level j that level j - 1 lacks.  The units of
    one `counts` call may sit at different level pairs; those of one
    `radial` call at different radial levels, and those of one `nodes`
    call share one angular level.  Each unit's cut panels and level-0
    panel count are built once, here.  Past the level cap of an axis
    (_MAX_LEVELS), or past _MAX_POINTS nodes of the member's whole rule at
    a unit's level pair (every unit of the member at that level pair, the
    Gauss-Kronrod rule of 33 nodes a panel for the "kronrod" part), in
    every d, there is no rule and QuadratureError names the axis and the
    level pair.
    """

    def __init__(self, d: int, R, splits=None):
        self.d = d
        R = np.asarray(R, dtype=float)
        roots, counts = splits or (np.empty(0), np.zeros(R.size, dtype=int))
        # the member of each cut panel, whose ends are [lo, roots...] and [roots..., R]
        member = np.repeat(np.arange(R.size), counts + 1)
        ends = np.cumsum(counts)
        self.lo = np.insert(roots, ends - counts, -R if d == 1 else 0.0)
        self.hi = np.insert(roots, ends, R)
        # level-0 divisions of each cut panel, clamped before the int64 cast:
        # a ball that wide fails the node cap at level 0 (`counts`)
        self.base = np.clip(np.ceil((self.hi - self.lo) / _PANEL_WIDTH), 1, _MAX_POINTS).astype(np.int64)
        # the unit of each cut panel, the member of each unit, and each unit's place among its member's
        self.owner = member if d == 1 else np.arange(member.size)
        self.member = np.arange(R.size) if d == 1 else member
        self.first = np.searchsorted(self.member, np.arange(R.size))
        self.index = np.arange(self.member.size) - self.first[self.member]
        self.size = self.member.size
        # the level-0 panel count of each unit, and of its member's whole rule
        self.panels = np.bincount(self.owner, self.base).astype(np.int64)
        self.whole = np.bincount(member, self.base).astype(np.int64)[self.member]

    def _where(self, level, axis) -> str:
        i, j = level
        if self.d == 1:
            return f"level {i}"
        return f"angular level {j} at radial level {i}" if axis else f"radial level {i} at angular level {j}"

    def counts(self, levels, members, nest=False, part="gauss") -> np.ndarray:
        """Nodes evaluated for each unit at its level pair; QuadratureError past a cap.

        `levels` holds one level pair per unit, or one for all; a `nest`ed
        unit evaluates half its angles, a "kronrod" part 17 nodes a panel,
        and the cap counts the member's whole rule at the unit's level pair.
        """
        levels = np.broadcast_to(levels, (members.size, 2))
        caps = _MAX_LEVELS[self.d]
        past = levels >= caps
        if past.any():
            row = np.argmax(past.any(axis=1))
            axis = int(np.argmax(past[row]))
            name = f"{('radial', 'angular')[axis]} level" if self.d > 1 else "level"
            raise QuadratureError(
                f"quadrature did not converge: {self._where(levels[row], axis)} "
                f"is past the last {name} {caps[axis] - 1}"
            )
        directions = _DIRECTIONS[self.d][levels[:, 1]]
        whole = (self.whole[members] << levels[:, 0]) * directions
        big = whole * (_KRONROD_WEIGHTS.size if part == "kronrod" else _GL_NODES.size) > _MAX_POINTS
        if big.any():
            level = levels[np.argmax(big)]
            where = self._where(level, level[1] > 0)
            raise QuadratureError(f"quadrature did not converge: {where} would exceed {_MAX_POINTS:,} nodes")
        return (self.panels[members] << levels[:, 0]) * directions * _PANEL_RULES[part][0].size >> nest

    def radial(self, level, members, rows=None, part="gauss"):
        """Radial nodes r and weight rows wr of the units, unit i at radial level level[i].

        In d = 1 these are the nodes and weights on the line.  rows = (a, b)
        takes rows a..b-1 of the call alone, from the panels that hold them.
        """
        # the units' cut panels, each divided at its unit's radial level
        position = np.full(self.size, -1)
        position[members] = np.arange(members.size)
        at = position[self.owner]
        keep = at >= 0
        lo, hi = self.lo[keep], self.hi[keep]
        n = self.base[keep] << level[at[keep]]
        per = _PANEL_RULES[part][0].size
        a, b = rows or (0, int(n.sum()) * per)
        # panel k is panel i of its cut panel, of `per` rows each; the edges are
        # np.linspace(lo, hi, n + 1) of every cut panel: edge i is i * step + lo, the last is hi
        starts = np.cumsum(n) - n
        k = np.arange(a // per, -(-b // per))
        panel = np.searchsorted(starts, k, side="right") - 1
        i = k - starts[panel]
        step = (hi - lo) / n
        left = i * step[panel] + lo[panel]
        right = (i + 1) * step[panel] + lo[panel]
        ends = i == n[panel] - 1
        right[ends] = hi[panel[ends]]
        x, w = _panel_nodes(left, right, part)
        trim = slice(a % per, a % per + b - a)
        return x[trim], w[:, trim]

    def nodes(self, levels, members, nest=False, span=None, part="gauss"):
        """Nodes X (n, d) and weight rows W (rows, n) of the units at their level pairs, unit after unit.

        The units share one angular level.  span = (lo, hi) takes nodes
        lo..hi-1 of the call alone: the outer product of the radial
        rows they touch (of the directions they touch, within one row),
        trimmed, so they are that slice of the whole rule bit for bit and no
        node is gathered one by one.
        """
        rows, cut = None, slice(None)
        if span is not None:
            lo, hi = span
            nd = int(_DIRECTIONS[self.d][levels[0, 1]]) >> nest
            rows = lo // nd, -(-hi // nd)
            cut = slice(lo - rows[0] * nd, hi - rows[0] * nd)
        r, wr = self.radial(levels[:, 0], members, rows, part)
        if self.d == 1:
            return r[:, None], wr
        omegas, wa = _angular_rule(self.d, levels[0, 1], nest)
        if rows is not None and rows[1] - rows[0] == 1:
            omegas, wa, cut = omegas[cut], wa[cut], slice(None)
        X = (r[:, None, None] * omegas[None, :, :]).reshape(-1, self.d)
        W = ((wr * r ** (self.d - 1))[:, :, None] * wa).reshape(len(wr), -1)
        return X[cut], W[:, cut]


def _segment_sums(vals, counts) -> np.ndarray:
    """Sums of vals (..., n) over consecutive segments of the given lengths: (..., members)."""
    return np.add.reduceat(vals, np.cumsum(counts) - counts, axis=-1)


def _integrate(measure, rule: _Rule, levels, units, nest=False, part="gauss"):
    """measure on the units' rules at their level pairs, and the points of each.

    `levels` holds one (radial, angular) pair per unit, or one for all;
    with `nest` each unit takes only the angles its angular level - 1
    lacks, and `part` is the part of each radial panel taken (`_Rule`).
    measure(read, counts, members) returns one row per unit, one block of
    columns per weight row, `members` holding each unit's member; units go
    through it in groups of at most _NODE_BUDGET nodes of one angular
    level (a group ends where it changes), a larger unit alone, and
    read(span=None) builds the group's nodes X (n, d) and weight rows
    W (rows, n): all of them, or nodes lo..hi-1 of the group with
    span = (lo, hi) (`_Rule.nodes`).  A row that is not finite raises
    QuadratureError naming its unit's level pair.
    """
    levels = np.broadcast_to(levels, (units.size, 2))
    counts = rule.counts(levels, units, nest, part)
    rows = np.concatenate([
        measure(functools.partial(rule.nodes, levels[g], units[g], nest, part=part), counts[g], rule.member[units[g]])
        for g in _groups(counts, levels[:, 1])
    ])
    finite = np.isfinite(rows).reshape(units.size, -1).all(axis=1)
    if not finite.all():
        level = levels[np.argmin(finite)]
        raise QuadratureError(f"quadrature value is not finite at {rule._where(level, level[1] > 0)}")
    return rows, counts


def _radial_cuts(d: int, R):
    """In d >= 2, the inner edges of each member's level-0 radial panels as `_Rule` splits; None in d = 1.

    Member i's radius is cut into n = ceil(R[i] / _PANEL_WIDTH) equal
    panels, at the edges k R[i] / n of np.linspace, so a radius that is a
    multiple of _PANEL_WIDTH has its edges at the multiples of it, and the
    panels of a smaller such radius are its inner panels bit for bit.  n
    stops at the least count whose level-0 rule is past _MAX_POINTS, where
    the node cap fails the ball before any node is built.
    """
    if d == 1:
        return None
    R = np.asarray(R, dtype=float)
    n = np.clip(np.ceil(R / _PANEL_WIDTH), 1, _MAX_POINTS // _GL_NODES.size + 1).astype(np.int64)
    member = np.repeat(np.arange(R.size), n - 1)
    k = 1 + np.arange(member.size) - np.repeat(np.cumsum(n - 1) - (n - 1), n - 1)
    return k * (R / n)[member], n - 1


def _unsettled(rule: _Rule, moved, values, bound, stepped, each=False) -> np.ndarray:
    """The units to refine next: every unit of a member still unsettled, or with `each` those over their share.

    moved and values hold each unit's last step and value, per entry of
    the measure: a step is how far one more level moved the unit's value,
    signed, or a Kronrod judgement's error estimate, which is not
    negative.  `stepped` are the units the last round moved; a member none
    of whose units it moved settled before.  A member is settled once, for
    every entry, |the sum of its stepped units' steps| plus the sum of its
    other units' |steps| is within bound(the sum of its units' values),
    every sum in panel order: the steps of one round are those of one rule,
    and cancel where their values do (TV's kink moves between the panels
    its ray crosses), but a step from an earlier round is not, and counts
    whole.  With `each`, a unit of a member that is not settled is refined
    while its own step exceeds an equal share of that bound, for some
    entry; a member whose steps are all within their shares is settled.
    """
    fresh = np.zeros(rule.size, dtype=bool)
    fresh[stepped] = True
    total = np.abs(np.add.reduceat(np.where(fresh[:, None], moved, 0.0), rule.first, axis=0))
    total += np.add.reduceat(np.where(fresh[:, None], 0.0, np.abs(moved)), rule.first, axis=0)
    limit = np.broadcast_to(bound(np.add.reduceat(values, rule.first, axis=0)), total.shape)
    unsettled = (~(total <= limit).all(axis=1) & np.logical_or.reduceat(fresh, rule.first))[rule.member]
    if each:
        unsettled &= (np.abs(moved) > (limit / np.bincount(rule.member)[:, None])[rule.member]).any(axis=1)
    return np.flatnonzero(unsettled)


def _refine(measure, d: int, R, bound, met=None, tv=None):
    """One certified integral per member: its ball, its rule and its refinement.

    R holds each member's radius.  With a tail test `met`, R is where the
    radius search starts: the start pass integrates level (0, 0) of the
    uncut rule there, and `_search_radius` grows each radius until
    met(R, start_pass, members) holds, R and start_pass being the radii
    and the start-pass rows (which set the truncation targets) of the
    members still growing.  Without one, R is the radius.  The rule on
    the final radii is then built here: in d >= 2 cut at its level-0
    radial panel edges (`_radial_cuts`), and in d = 1, where `tv` is the
    envelopes (p_env, q_env) of a batch that integrates TV, cut at the
    sign changes of log p - log q (`_sign_change_splits`).  Its units
    (`_Rule`: a member's line in d = 1, one level-0 radial panel in d >= 2)
    are refined each on its own.  A unit whose panels the start rule had
    keeps its start-pass row as level (0, 0): in d >= 2 every start-pass
    panel, as a searched radius grows by whole panels (`_search_radius`)
    and keeps its inner ones (TV, off that grid, where its radius stayed),
    and in d = 1 a member whose radius stayed and whose rule is uncut.  The
    other units evaluate level (0, 0) on the final rule.

    Then come the phases, each one loop over the units still pending in
    it: d = 1 refines its panels (one radial phase), d >= 2 the radius,
    then the angle.  Each step gives every unit it moves a step per entry
    of the measure, and a member is settled once, for every entry, its
    units' steps are within bound(value), the value being the sum of its
    units' values in panel order: the steps of the last round summed
    signed, as one rule's step, and the earlier ones by magnitude
    (`_unsettled`).  Until then a radial phase moves all its units, and an
    angular phase each of its units whose own step exceeds an equal share
    of that bound.  In d = 1 a member is
    its one unit.  A radial level L is judged by its Gauss-Kronrod
    extension: each Gauss pass of it (the start pass and level 0 included)
    gives the Gauss sum G and the Kronrod weights' sum at the same nodes,
    and a judgement evaluates only the 17 Kronrod nodes a panel that
    complete the 33-point sum K.  A unit's step is |K - G| or, past level
    0, how far K moved from the level below if that is more, and the bound
    is that of the sum of K.  K - G reuses the Gauss nodes' values, so
    their rounding errors partly cancel in it, and the level below's K, on
    other nodes, shows what they move (without it, TV between
    (1 - 1e-10) N(0, 1) + 1e-10 N(1, 1) and N(0, 1) settled 1.1e-8
    relative off at tol 1e-8).  d = 1 keeps K, the finer value; the radial
    phase of d >= 2 keeps G, the coarser one, so the angle is refined on
    the Gauss rule at each unit's radial level and radial convergence is
    judged on the coarsest angular rule.  An angular step moves a unit one
    angular level, its step is how far that moved its value, and it keeps
    the finer level and value.

    TV in d >= 2 bends where the rays cross p = q, and a Kronrod
    difference across a kink can be small by chance, so with `tv` its
    radial phases step one radial level at a time as the angular ones do,
    the first keeping the coarser level and value; a member's units step
    together in its angular phases too, as a panel's angular step carries
    the kink's radial error and need not fall with the angular level; and
    as a judgement on one axis can be fooled too, it runs the two phases
    twice: the radius again at its final angular level, then the angle
    again.  Its radius search stays off the panel grid: whether its first
    radial phase settles before the last radial level at a tight tol
    turns on where its kinks fall among the panel edges (at tol 1e-7,
    `make_pair(3, i, InstanceFamily(Compact(2.0), 2))` pairs 0 and 4
    settle at radius 7.80 and raise at 8).  In d = 2 an angular step
    evaluates only the angles the level below lacks (the trapezoid angles
    of level j are every other one of level j + 1) and adds half the value
    of the level below, so the measure must be linear in the weights.  No
    level pair of a unit is evaluated twice; in d = 2 no node is either,
    but for the first radial step of TV's second radial phase, which
    evaluates its level in full, angular level 0 included, which the first
    radial phase had.  A measure
    that is not finite raises QuadratureError at its level (`_integrate`).
    Returns the value of each member (its units' last measures summed in
    panel order), its points (the start pass included) and its radius.
    """
    R = start = np.asarray(R, dtype=float)
    m = start.size
    part = "gauss" if tv is not None and d > 1 else "both"
    # the Gauss sums of rows that may hold the Kronrod sums too
    gauss = lambda rows: rows[:, : rows.shape[1] // len(_PANEL_RULES[part][1])]  # noqa: E731
    pts = np.zeros(m, dtype=np.int64)
    if met is not None:
        # the d >= 2 panel grid (but for TV): the search starts at the next multiple of the panel width
        grid = d > 1 and tv is None
        if grid:
            start = _PANEL_WIDTH * np.ceil(start / _PANEL_WIDTH)
        first = _Rule(d, start, _radial_cuts(d, start))
        kept, n = _integrate(measure, first, 0, np.arange(first.size), part=part)
        np.add.at(pts, first.member, n)
        scale = gauss(np.add.reduceat(kept, first.first, axis=0))
        R = _search_radius(start, lambda R, members: met(R, scale[members], members), grid)
    splits = _radial_cuts(d, R)
    if d == 1 and tv is not None:
        # cuts only add nodes: a ball past the node cap fails before the root search
        _Rule(d, R).counts(0, np.arange(m))
        splits = _sign_change_splits(*tv, R)
    rule = _Rule(d, R, splits)
    keep = np.zeros(rule.size, dtype=bool)
    if met is not None:
        # a unit keeps its start-pass row where its one cut panel is that of the start rule's
        # unit in its place (a start unit has one cut panel, of its own index): every inner panel
        # of a grown radius on the d >= 2 grid, and off it a member whose radius stayed and whose rule is uncut
        source = np.minimum(first.first[rule.member] + rule.index, first.size - 1)
        cut = np.searchsorted(rule.owner, np.arange(rule.size))
        keep = (rule.index < np.bincount(first.member)[rule.member]) & (np.bincount(rule.owner) == 1)
        keep &= (first.lo[source] == rule.lo[cut]) & (first.hi[source] == rule.hi[cut])
        last = np.empty((rule.size, kept.shape[1]))
        last[keep] = kept[source[keep]]
    fresh = np.flatnonzero(~keep)
    if fresh.size:
        # level (0, 0) of the units without a start-pass row to keep
        cur, n = _integrate(measure, rule, 0, fresh, part=part)
        np.add.at(pts, rule.member[fresh], n)
        last = cur if met is None else last
        last[fresh] = cur
    levels = np.zeros((rule.size, 2), dtype=np.int64)
    phases = [(1, 0)] if d == 1 else [(1, 0), (0, 1)] * (1 + (tv is not None))
    if part == "both":
        # the radial phase: `sums` holds each pending unit's G and its Kronrod sum at the Gauss nodes
        pending, sums, below = np.arange(rule.size), last, None
        last = gauss(last).copy()
        moved, kronrod = np.empty_like(last), np.empty_like(last)
        while True:
            extra, n = _integrate(measure, rule, levels[pending], pending, part="kronrod")
            np.add.at(pts, rule.member[pending], n)
            coarse, fine = np.split(sums, 2, axis=1)
            fine = fine + extra
            moved[pending] = np.abs(fine - coarse)
            if below is not None:
                # past level 0, the Kronrod value must also stay within the bound of the level below's
                moved[pending] = np.maximum(moved[pending], np.abs(fine - below))
            kronrod[pending] = fine
            last[pending] = fine if d == 1 else coarse
            pending = _unsettled(rule, moved, kronrod, bound, pending)
            if not pending.size:
                break
            below = kronrod[pending]
            levels[pending, 0] += 1
            sums, n = _integrate(measure, rule, levels[pending], pending, part="both")
            np.add.at(pts, rule.member[pending], n)
        phases = phases[1:]
    moved = np.empty_like(last)
    for phase, step in enumerate(phases):
        nest = d == 2 and step[1] == 1
        # TV's first radial phase in d >= 2 keeps the coarser level and value
        coarse = last.copy() if part == "gauss" and phase == 0 else None
        pending = np.arange(rule.size)
        while pending.size:
            levels[pending] += step
            cur, n = _integrate(measure, rule, levels[pending], pending, nest)
            np.add.at(pts, rule.member[pending], n)
            if nest:
                cur += 0.5 * last[pending]
            moved[pending] = cur - last[pending]
            if coarse is not None:
                coarse[pending] = last[pending]
            last[pending] = cur
            pending = _unsettled(rule, moved, last, bound, pending, each=step[1] == 1 and tv is None)
        if coarse is not None:
            levels -= step
            last = coarse
    return np.add.reduceat(last, rule.first, axis=0), pts, R


def _relative(tol):
    """Convergence bound of tol/2 relative to each current value."""
    return lambda cur: 0.5 * tol * np.maximum(np.abs(cur), _FLOOR)


def _start_radius(tags, s_max, d, tol) -> np.ndarray:
    """Where each member's radius search starts: max(truncation radii, s_max + 1).

    `tags` are the class tags of every mixture of the batch, s_max[i] the
    largest atom radius of the mixtures member i integrates.
    """
    trunc = max(truncation_radius(tag, d, tol) for tag in tags)
    return np.maximum(trunc, np.asarray(s_max) + 1.0)


def _search_radius(R, met, grid) -> np.ndarray:
    """Per member, the first of R, R + step, ... that meets `met`.

    The step is _PANEL_WIDTH on the `grid`, so a radius that starts at a
    multiple of the level-0 panel width grows by whole panels and keeps
    its inner ones (`_radial_cuts`), and max(0.5, 0.04 R) off it
    (`_refine` says which searches take the grid).  met(R, members)
    tells, for the radii R of the given members, which of them meet their
    target.  It is asked about the members still growing only: a member
    that met keeps its radius.  Once a member's 400th radius misses,
    CapabilityError is raised.
    """
    R = np.array(R, dtype=float)
    pending = np.arange(R.size)
    for _ in range(400):
        pending = pending[~met(R[pending], pending)]
        if not pending.size:
            return R
        R[pending] += _PANEL_WIDTH if grid else np.maximum(0.5, 0.04 * R[pending])
    raise CapabilityError("certified tail bound cannot reach the tolerance")


_BRENT_RTOL = 4.0 * float(np.finfo(float).eps)
_BRENT_MAXITER = 100


def brentq(f, a, b, xtol):
    """Roots of f in the brackets [a[i], b[i]], one Brent iteration for all at a time.

    f(x, which) returns f at x[j] for bracket which[j], for the brackets
    still open.  Per bracket, Brent's method (R. P. Brent, *Algorithms for
    Minimization Without Derivatives*, 1973, ch. 4) step for step as in
    scipy's `brentq.c`: relative tolerance 4 eps and at most 100
    iterations; each step is the secant or inverse-quadratic step when
    2|s| < min(|s_prev|, 3|s_bisect| - delta) and bisection otherwise, and
    moves by at least delta = (xtol + rtol |x|) / 2.  The same f values give
    bitwise scipy's root.  An endpoint where f is 0 is returned as is.
    Raises QuadratureError when f has one sign at both ends of a bracket,
    when f is NaN, or when a bracket is still open after 100 iterations.
    """

    def value(x, which):
        fx = np.asarray(f(x, which), dtype=float)
        if np.isnan(fx).any():
            raise QuadratureError(f"root search: f({float(x[np.isnan(fx)][0])!r}) is NaN")
        return fx

    xpre, xcur = np.array(a, dtype=float), np.array(b, dtype=float)
    which = np.arange(xpre.size)
    fpre, fcur = value(xpre, which), value(xcur, which)
    roots = np.where(fpre == 0, xpre, xcur)
    open_ = (fpre != 0) & (fcur != 0)
    same = open_ & ((fpre < 0) == (fcur < 0))
    if same.any():
        j = np.argmax(same)
        raise QuadratureError(
            f"root search: f has one sign at both ends of [{float(xpre[j])!r}, {float(xcur[j])!r}]"
        )
    state = [v[open_] for v in (which, xpre, fpre, xcur, fcur)] + [np.zeros(open_.sum())] * 4
    which, xpre, fpre, xcur, fcur, xblk, fblk, spre, scur = state
    for _ in range(_BRENT_MAXITER):
        # where the root lies between xpre and xcur, they become the bracket
        flip = (fpre < 0) != (fcur < 0)
        xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
        spre = scur = np.where(flip, xcur - xpre, spre)
        # keep the end with the smaller |f| as the current iterate
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = np.where(swap, xcur, xpre), np.where(swap, xblk, xcur), np.where(swap, xcur, xblk)
        fpre, fcur, fblk = np.where(swap, fcur, fpre), np.where(swap, fblk, fcur), np.where(swap, fcur, fblk)
        delta = (xtol + _BRENT_RTOL * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0) | (np.abs(sbis) < delta)
        roots[which[done]] = xcur[done]
        keep = ~done
        which, xpre, fpre, xcur, fcur, xblk, fblk, spre, scur, delta, sbis = (
            v[keep] for v in (which, xpre, fpre, xcur, fcur, xblk, fblk, spre, scur, delta, sbis)
        )
        if which.size == 0:
            return roots
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # an infinite or NaN step (a zero divisor) never passes the test below
            secant = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            quadratic = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            stry = np.where(xpre == xblk, secant, quadratic)
            interpolate = (np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
            interpolate &= 2 * np.abs(stry) < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta)
        spre, scur = np.where(interpolate, scur, sbis), np.where(interpolate, stry, sbis)
        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
        fcur = value(xcur, which)
    raise QuadratureError(f"root search did not converge in {_BRENT_MAXITER} iterations")


_TV_GRID = 2049
_TV_STRIDE = 128


def _tv_node(R, j, n):
    """Node j of np.linspace(-R, R, n + 1), in linspace's own arithmetic."""
    return np.where(j == n, R, j * ((R - -R) / n) + -R)


def _log_ratio_rounding(p_env: _Batch, q_env: _Batch, R) -> np.ndarray:
    """Per pair, rho: twice a bound on the rounding error of log p - log q at |x| <= R in d = 1.

    With u = 2^-53, atoms |a_j| <= s, log-weights |log w_j| <= W and at
    most k atoms a mixture, the kernel's logit a_j x + (log w_j - a_j^2 / 2)
    errs by at most u (2 s R + 2 s^2 + 6 W); its log-sum-exp adds at most
    u (6 k + 8) (np.exp and np.log within 4 ulps, k terms in [0, 1] summed
    in order, the largest 1); adding back the largest logit, -x^2 / 2 and
    the constant adds at most 3 u ((R + s)^2 + W + log k + 1).  Both
    densities and their difference stay within 32 u A of the exact values
    for the stored atoms, A = (R + s)^2 + W + k + 1, and rho = 64 u A.  The
    surplus also covers the rounding of the drop test of
    `_sign_change_splits`.
    """
    real = np.concatenate([p_env.real, q_env.real], axis=1)
    logw = np.where(real, np.concatenate([p_env.logw, q_env.logw], axis=1), 0.0)
    s = np.maximum(p_env.s_max, q_env.s_max)
    k = np.maximum(p_env.counts, q_env.counts)
    return 64.0 * _UNIT_ROUNDOFF * ((R + s) ** 2 + np.max(np.abs(logw), axis=1) + k + 1.0)


def _sign_change_splits(p_env: _Batch, q_env: _Batch, R):
    """Roots of log p_i - log q_i in [-R[i], R[i]], where pair i's TV panels are cut.

    On each pair's grid np.linspace(-R, R, 2048 * 2^s + 1), s the least
    s >= 0 that makes its step at most 1/16 (s = 0 for R <= 64), each
    computed value of the log-ratio f lies on one of two sides, f < 0 or
    not.  A root is bracketed between neighbouring nodes on opposite sides
    and found by `brentq` to 1e-13, which returns an end where f is exactly
    0 as it is: a pair symmetric about 0 has its root on the middle node.
    In a run of exact zeros, the bracket is the run's end next to the
    negative value: - 0 0 + cuts at the run's first zero, + 0 0 - at its
    last, - 0 0 - at both and + 0 0 + nowhere (and - 0 - at its one zero
    twice, an empty panel).  A pair with q = p has f = 0 at every node, on
    one side, and no root.  Returns the roots, pair after pair and
    ascending within a pair, and their count per pair.

    Only the nodes that can change that answer are evaluated.  The
    log-ratio f has f' = E_p[a | x] - E_q[a | x], so |f'| <= L, the span of
    the real atom locations of p and q together, and its computed value
    lies within rho / 2 of f at every node (`_log_ratio_rounding`).  The
    search evaluates every (128 * 2^s)th node (17 a pair), then halves
    every pair's stride at once until it is 1, and drops each interval
    whose computed ends are on one side and
    |f_l| + |f_r| > L (x_r - x_l) + 4 rho.
    Had a node inside it a computed value on the other side, then (for
    ends not below 0, a zero end included) the exact f would be below
    rho / 2 there and above -rho / 2 at the ends, and by the slope bound
    from both ends
    |f_l| + |f_r| <= L (x_r - x_l) + 2 rho.  So every node inside a
    dropped interval is on its ends' side: the stride-1 intervals left
    hold every bracket of the full grid, and the roots are the full
    grid's, bit for bit.  The nodes are computed in linspace's arithmetic
    (`_tv_node`); the bookkeeping holds the intervals still alive, never a
    whole grid.  A grid of s > 0 divides the step of s = 0 by 2^s exactly,
    so every node of that grid stays a node bit for bit, and a pair's roots
    do not depend on the other pairs of its call.
    """
    m = R.size
    locs = np.concatenate([p_env.locations[:, :, 0], q_env.locations[:, :, 0]], axis=1)
    real = np.concatenate([p_env.real, q_env.real], axis=1)
    span = np.max(np.where(real, locs, -np.inf), axis=1) - np.min(np.where(real, locs, np.inf), axis=1)
    slack = 4.0 * _log_ratio_rounding(p_env, q_env, R)

    def log_ratio(pair, x):
        # pair ascends, so the nodes of a pair form one segment
        counts = np.bincount(pair, minlength=m)
        members = np.flatnonzero(counts)
        logp, logq = log_densities([p_env[members], q_env[members]], x[:, None], counts[members])
        return logp - logq

    # per pair, the least s >= 0 with a step of (2 R / 2048) / 2^s <= 1/16,
    # and the coarse nodes of s = 0 as nodes of its grid
    frac, e = np.frexp(16.0 * ((R - -R) / (_TV_GRID - 1)))
    s = np.maximum(e - (frac == 0.5), 0).astype(np.int64)
    stride, size = _TV_STRIDE << s, (_TV_GRID - 1) << s
    coarse = np.arange(0, _TV_GRID, _TV_STRIDE)
    pair = np.repeat(np.arange(m), coarse.size)
    j = np.tile(coarse, m) << s[pair]
    x = _tv_node(R[pair], j, size[pair])
    f = log_ratio(pair, x)
    left = j < size[pair]
    pair, jl, xl, fl, xr, fr = pair[left], j[left], x[left], f[left], x[1:][left[:-1]], f[1:][left[:-1]]
    done = []
    while True:
        split = (fl < 0) != (fr < 0)
        keep = split | ~(np.abs(fl) + np.abs(fr) > span[pair] * (xr - xl) + slack[pair])
        # a pair is done when its stride is 1; the pairs of one grid size finish together
        last = keep & (stride[pair] == 1)
        done.append([v[last & split] for v in (pair, xl, xr)])
        pair, jl, xl, fl, xr, fr = (v[keep & ~last] for v in (pair, jl, xl, fl, xr, fr))
        if pair.size == 0:
            break
        stride //= 2
        jm = jl + stride[pair]
        xm = _tv_node(R[pair], jm, size[pair])
        fm = log_ratio(pair, xm)
        # each interval becomes its two halves, in node order
        pair = np.repeat(pair, 2)
        jl, xl, fl, xr, fr = (
            np.stack([a, b], axis=1).ravel() for a, b in ((jl, jm), (xl, xm), (fl, fm), (xm, xr), (fm, fr))
        )
    # back in pair order, each pair's brackets still in node order
    pair, xl, xr = (np.concatenate(v) for v in zip(*done))
    order = np.argsort(pair, kind="stable")
    pair, xl, xr = pair[order], xl[order], xr[order]
    roots = brentq(lambda x, which: log_ratio(pair[which], x), xl, xr, xtol=1e-13)
    return roots, np.bincount(pair, minlength=m)


# -- L2^2 in closed form -------------------------------------------------------

_UNIT_ROUNDOFF = 2.0**-53


def _gamma(n):
    """Higham's gamma_n = n u / (1 - n u): the relative error of n rounded operations."""
    return n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)


def _merged_atoms(p_env: _Batch, q_env: _Batch):
    """Per pair, the atoms of p - q merged by location, in sorted location order.

    An atom of p brings +w and one of q brings -v; the atoms at one location
    merge into c = P - Q, with P and Q the sums of p's and of q's weights
    there in atom order, so a swap of p and q negates every c exactly.  A
    row holds its pair's merged atoms sorted by location (first coordinate
    first), then pads with c = 0 at the origin.  Returns the locations
    (m, k, d), c (m, k), a bound e (m, k) on the rounding error of each c
    and the count of merged atoms of each pair.  Summing n_p weights into P
    errs by at most gamma_{n_p - 1} P, so e = gamma_{n_p - 1} P +
    gamma_{n_q - 1} Q + gamma_1 |c|, which is 0 where one atom of p and one
    of q cancel.
    """
    m, _, d = p_env.locations.shape
    real = np.concatenate([p_env.real, q_env.real], axis=1)
    locs = np.concatenate([p_env.locations, q_env.locations], axis=1)[real]
    plus = np.concatenate([p_env.weights, 0.0 * q_env.weights], axis=1)[real]
    minus = np.concatenate([0.0 * p_env.weights, q_env.weights], axis=1)[real]
    keys, at = np.unique(np.column_stack([np.nonzero(real)[0], locs]), axis=0, return_inverse=True)
    P, Q = np.bincount(at, plus), np.bincount(at, minus)
    n_p, n_q = np.bincount(at, plus > 0), np.bincount(at, minus > 0)
    row = keys[:, 0].astype(np.int64)
    counts = np.bincount(row, minlength=m)
    col = np.arange(row.size) - np.repeat(np.cumsum(counts) - counts, counts)
    k = counts.max()
    X, c, e = np.zeros((m, k, d)), np.zeros((m, k)), np.zeros((m, k))
    X[row, col], c[row, col] = keys[:, 1:], P - Q
    e[row, col] = _gamma(n_p - 1) * P + _gamma(n_q - 1) * Q + _gamma(1) * np.abs(P - Q)
    return X, c, e, counts


def _l2_closed_form(p_env: _Batch, q_env: _Batch) -> tuple[np.ndarray, np.ndarray]:
    """||p_i - q_i||_2^2 of each pair in closed form, with a bound on its rounding error: two columns.

    Over the merged atoms x_i, c_i of `_merged_atoms` the value is
    (4 pi)^(-d/2) sum_i c_i sum_j c_j G_ij, G_ij = exp(-a_ij),
    a_ij = ||x_i - x_j||^2 / 4.  Both sums run in atom order, so pads add
    exact zeros at the end, and a negative sum is clipped to 0.  Members go
    through in groups of at most _NODE_BUDGET coordinate differences.

    The bound is the forward-error analysis of Higham (*Accuracy and
    Stability of Numerical Algorithms*, 2002, ch. 3) with u = 2^-53.  The
    computed a_ij carries a relative error of at most gamma_{d+2}, which
    moves G_ij by a relative gamma_{d+2} a_ij to first order.  The exp
    (taken accurate to 4u), the two products, the 2(k - 1) additions, the
    final product and the constant (d/2 + 2 roundings) add at most
    gamma_{2k+d+8} per term, for k merged atoms.  With c+ = |c| + e,

        |value - exact| <= 1.02 (4 pi)^(-d/2) sum_ij G_ij [c+_i c+_j (gamma_{2k+d+8}
                           + gamma_{d+2} a_ij) + e_i (c+_j + |c_j|)] + n^2 2^-1070,

    where the e terms are the coefficients' rounding, 1.02 covers the
    second-order terms and the rounding of the bound itself, and the last
    term the underflow of the n^2 products of the n nonzero coefficients.
    """
    X, c, e, counts = _merged_atoms(p_env, q_env)
    m, k, d = X.shape
    gamma = _gamma(2 * counts + d + 8)
    value, bound = np.empty(m), np.empty(m)
    for g in _groups(np.full(m, k * k * d)):
        diff = X[g, :, None, :] - X[g, None, :, :]
        a = 0.25 * np.sum(diff * diff, axis=3)
        G = np.exp(-a)
        cg, eg = c[g], e[g]
        value[g] = _atom_sum(cg * _atom_sum(cg[:, None, :] * G))
        big = np.abs(cg) + eg
        rounding = big[:, :, None] * big[:, None, :] * (gamma[g, None, None] + _gamma(d + 2) * a)
        merging = eg[:, :, None] * (big + np.abs(cg))[:, None, :]
        bound[g] = _atom_sum(_atom_sum((rounding + merging) * G))
    norm = (4.0 * math.pi) ** (-0.5 * d)
    value = np.where(value > 0, norm * value, 0.0)
    bound = 1.02 * norm * bound + np.count_nonzero(c, axis=1) ** 2 * 2.0**-1070
    return value, bound


# -- main entry points ----------------------------------------------------------


def _require_certifiable(tag):
    if isinstance(tag, Unconstrained):
        raise CapabilityError(
            "unconstrained mixtures carry no certifiable tail; tag the mixing "
            "distribution as Compact or Subgaussian"
        )


def _compute_pairs(
    kinds, p_env: _Batch, q_env: _Batch, tags, tol, domain_radius=None, lam=None
) -> _Columns:
    """Estimates of several kinds for each pair (p_i, q_i), row i of the batches, in one d <= 3, as columns.

    `tags` are the class tags of every mixture of both batches, and both
    batches have one dimension d (`_compute_divergences` and the sweeps see
    to it).  L2^2 is `_l2_closed_form`; the arguments are checked alike for
    every kind.  The other kinds are one `_refine` call over all pairs, from
    the start radii (or the fixed `domain_radius`) with the tail bounds of
    every kind as its tail test, one `_tail_bounds` table per radius step,
    so every step runs as arrays over the pairs and each pair stops at its
    own level and keeps its own radius, splits, tails and point count.  A
    pair's truncation bounds are the rows its last step computed, at the
    radius it kept; a fixed `domain_radius` runs no search and computes one
    table.  The pairs are integrated sorted by (p's atom count, q's atom
    count) (`np.lexsort`), so a block of d = 1 nodes, whose logits have a
    row per atom of its largest mixture, pads few atoms; values, tail
    tables, radii and point counts come back in the caller's order.  A
    pair's estimates are the same bits whatever other pairs share its
    batch, in whatever order.  The measure weights each kind's integrand
    values by every weight row of the rule (the Gauss and the Kronrod sums
    of a Gauss pass come from one kernel pass) and returns one block of
    kinds per row.  The `_Columns` hold each kind's value and bound column,
    in the order of `kinds`, and no `IntegralEstimate` is built:
    `_compute_divergences` builds its one pair's.  `lam` is the renyi
    power; `tol` defaults to `default_tol(d)`; a `domain_radius` that is not finite, or
    that comes within 0.25 of an atom radius, raises HypothesisError for
    every kind.
    """
    d = p_env.locations.shape[2]
    if tol is None:
        tol = default_tol(d)
    for tag in tags:
        _require_certifiable(tag)
    s_max = np.maximum(p_env.s_max, q_env.s_max)
    start = _start_radius(tags, s_max, d, tol)
    if domain_radius is not None and not (
        math.isfinite(domain_radius) and np.all(domain_radius >= s_max + _KAPPA_MIN)
    ):
        raise HypothesisError(
            f"domain_radius {domain_radius} must be finite and exceed the atom radius {s_max.max()}"
        )
    value, bound = {}, {}
    if DivergenceKind.L2Sq in kinds:
        value[DivergenceKind.L2Sq], bound[DivergenceKind.L2Sq] = _l2_closed_form(p_env, q_env)
    integrated = [k for k in kinds if k != DivergenceKind.L2Sq]
    if not integrated:
        return _Columns(value, bound, np.full(len(s_max), math.inf), np.zeros(len(s_max), dtype=np.int64))
    # the pairs in atom-count order, so a block of d = 1 nodes pads few atoms
    order = np.lexsort((q_env.counts, p_env.counts))
    p_env, q_env, start = p_env[order], q_env[order], start[order]

    def measure(read, counts, members):
        # one float a node a kind a weight row: a unit over the budget goes
        # through a slice of _NODE_BUDGET nodes at a time into the products;
        # a pair's units are consecutive, and the kernel takes them as one segment
        n = int(counts.sum())
        whole = n <= _NODE_BUDGET
        starts = np.flatnonzero(np.diff(members, prepend=-1))
        pair = [p_env[members[starts]], q_env[members[starts]]]
        for lo in range(0, n, _NODE_BUDGET):
            X, W = read() if whole else read(span=(lo, min(n, lo + _NODE_BUDGET)))
            logp, logq = log_densities(pair, X, np.add.reduceat(counts, starts) if whole else [len(X)])
            if lo == 0:
                products = np.empty((len(W), len(integrated), n))
            vals = _integrands(integrated, logp, logq, lam)
            np.multiply(vals, W[:, None, :], out=products[:, :, lo : lo + len(X)])
        return _segment_sums(products, counts).transpose(2, 0, 1).reshape(members.size, -1)

    def met(R, start_pass, members):
        # a member that meets its target keeps R, so its last rows here are its certificates;
        # the start pass fixes the value scale of each truncation target
        tails[members] = _tail_bounds(integrated, p_env[members], q_env[members], R, d, lam)
        return np.all(tails[members] <= 0.5 * tol * np.maximum(np.abs(start_pass), _TRUNC_FLOOR), axis=1)

    tails = np.empty((len(s_max), len(integrated)))
    if domain_radius is not None:
        start, met = np.full(len(s_max), float(domain_radius)), None
    tv = (p_env, q_env) if DivergenceKind.TV in kinds else None
    values, pts, R = _refine(measure, d, start, _relative(tol), met, tv)
    if met is None:
        # a fixed radius runs no search: its one table, once the ball is known to integrate
        tails = _tail_bounds(integrated, p_env, q_env, R, d, lam)
    # back to the caller's order
    inverse = np.argsort(order)
    value.update(zip(integrated, values[inverse].T))
    bound.update(zip(integrated, tails[inverse].T))
    return _Columns({k: value[k] for k in kinds}, {k: bound[k] for k in kinds}, R[inverse], pts[inverse])


def _compute_divergences(kinds, p, q, tol=None, domain_radius=None, lam=None):
    """Several kinds for one pair, {kind: IntegralEstimate}: the one-pair case of `_compute_pairs`.

    L2^2's estimate has domain radius inf and no points; the integrated
    kinds share the pair's radius and points.

    For d > 3 L2^2 is still `_l2_closed_form` and the other kinds are Monte
    Carlo estimates.
    """
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: p.dim={p.dim}, q.dim={q.dim}")
    d = p.dim
    if d > 3:
        if tol is None:
            tol = default_tol(d)
        if domain_radius is not None:
            raise CapabilityError(f"domain_radius needs certified quadrature (d <= 3), got d={d}")
        if not (0 < tol < 1):
            raise HypothesisError(f"tolerance must lie in (0, 1), got {tol}")
        return {
            k: IntegralEstimate(*(float(c[0]) for c in _l2_closed_form(_Batch.of([p]), _Batch.of([q]))), math.inf, 0)
            if k == DivergenceKind.L2Sq
            else _mc_divergence(k, p, q)
            for k in kinds
        }
    tags = (p.mixing.tag, q.mixing.tag)
    est = _compute_pairs(kinds, _Batch.of([p]), _Batch.of([q]), tags, tol, domain_radius, lam)
    ball = float(est.radius[0]), int(est.points[0])
    return {
        k: IntegralEstimate(float(v[0]), float(est.bound[k][0]), *((math.inf, 0) if k == DivergenceKind.L2Sq else ball))
        for k, v in est.value.items()
    }


def divergence(kind, p: GaussianMixture, q: GaussianMixture, tol=None, domain_radius=None):
    """Certified divergence of the given kind between two mixtures.

    `tol` is a relative accuracy target (defaults: 1e-8 for d=1, 1e-6 for
    d in {2,3}).  `domain_radius` overrides the automatic domain (it must
    be finite and at least 0.25 beyond every atom radius, else
    HypothesisError, for every kind); this is mainly for stability checks.
    For d > 3 the value is a seeded Monte Carlo estimate: a `tol` in (0, 1)
    is accepted but does not change it, and `domain_radius` is rejected.
    L2^2 is a closed-form sum in every d (`_l2_closed_form`), whatever `tol`.
    """
    kind = DivergenceKind(kind)
    return _compute_divergences([kind], p, q, tol=tol, domain_radius=domain_radius)[kind]


def renyi_integral(p: GaussianMixture, q: GaussianMixture, lam: float, tol=None):
    """The power integral int p^lam / q^(lam-1) with certified truncation.

    Requires Compact-tagged mixtures (the certificate completes the square
    against the affine log-ratio bound).  For single-atom p, q at u, v the
    value is exp(lam (lam-1) ||u-v||^2 / 2).  The radius search and the
    quadrature are those of `divergence`, and `quadrature_points` likewise
    counts each integrand evaluation once: the start pass that sets the
    truncation target is level 0 of the final rule unless the radius grew.
    """
    if not (lam > 1):
        raise HypothesisError(f"renyi integral needs lambda > 1, got {lam}")
    if p.dim > 3:
        raise CapabilityError("certified renyi integral supports d <= 3")
    if not (isinstance(p.mixing.tag, Compact) and isinstance(q.mixing.tag, Compact)):
        raise CapabilityError("renyi integral requires Compact-tagged mixtures")
    return _compute_divergences(["renyi"], p, q, tol, lam=lam)["renyi"]


def _mc_divergence(kind, p, q, n=1 << 19, seed=0):
    # importance sampling from the balanced mixture (p+q)/2; reported
    # truncation_bound is a 95% confidence half-width, not a hard bound
    kind = DivergenceKind(kind)
    n_p = n // 2
    X = np.concatenate([p.sample(n_p, seed), q.sample(n - n_p, seed + 1)], axis=0)
    logp = p.log_density(X)
    logq = q.log_density(X)
    logm = np.logaddexp(logp, logq) - math.log(2.0)
    vals = _integrands([kind], logp, logq)[0] * np.exp(-logm)
    est = float(np.mean(vals))
    half = 1.96 * float(np.std(vals)) / math.sqrt(n)
    return IntegralEstimate(est, half, math.inf, n)


# -- pairwise Hellinger table ----------------------------------------------------

# The Gram pass holds at most this many square-root density values at once,
# and sets those below _GRAM_FLOOR to zero: every product it then forms is a
# normal double (subnormal operands slow a matrix product many times over),
# and no entry moves by more than about _GRAM_FLOOR.
_GRAM_ENTRIES = 1 << 20
_GRAM_FLOOR = 1e-140


def _gram_h2(elements, tol) -> np.ndarray:
    """Pairwise H^2 of a candidate list from one shared-grid Gram pass.

    One radius R serves every member: the radius search runs until the
    pair tail bound of the worst member, 2 max_i mass_tail_i(R), is at most
    tol/2.  That target does not depend on the value, so the search runs
    first and `_refine` gets R with no tail test.  On each level of the
    rule on the ball of radius R the square roots S_i = sqrt(p_i) at the
    nodes, from one shared-node pass of the density kernel
    (`log_densities`), give G = (S w) S^T and H^2_ij = G_ii + G_jj - 2 G_ij,
    which is int (sqrt(p_i) - sqrt(p_j))^2 over the ball, one such table
    per weight row w of the level (a Gauss pass has the Gauss and the
    Kronrod rows), one table per unit (a level-0 radial panel in d >= 2)
    summed in panel order.  `_refine` stops once no entry's Kronrod
    difference (or angular step), summed over the units, exceeds tol/2, so
    `tol` is an absolute H^2
    accuracy (default `default_tol(d)`); the entries are clipped at 0 only
    after that, since an angular step in d = 2 reuses the level below.  The
    members are processed in an order fixed by their contents and the upper
    triangle is mirrored, so each entry is bitwise independent of the order
    of `elements` (for one BLAS build and thread count; another thread
    count can move entries by rounding, about 1e-15 on a 1000-candidate
    grid).
    """
    n = len(elements)
    if n < 2:
        return np.zeros((n, n))
    d = elements[0].dim
    if tol is None:
        tol = default_tol(d)

    def content(i):
        mixing = elements[i].mixing
        return mixing.locations.tobytes(), mixing.weights.tobytes()

    order = sorted(range(n), key=content)
    batch = _Batch.of([elements[i] for i in order])
    R = _search_radius(
        _start_radius({e.mixing.tag for e in elements}, [batch.s_max.max()], d, tol),
        lambda R, _: 2.0 * _mass_tail(batch, R, d).max(keepdims=True) <= 0.5 * tol,
        False,
    )
    step = max(1, _GRAM_ENTRIES // n)

    def measure(read, counts, _):
        # one row a unit (one level-0 radial panel in d >= 2), from its own nodes
        rows = []
        for end, count in zip(np.cumsum(counts).tolist(), counts.tolist()):
            G = 0.0
            for lo in range(end - count, end, step):
                X, W = read(span=(lo, min(end, lo + step)))
                (S,) = log_densities([batch], X)
                S *= 0.5
                np.exp(S, out=S)
                S[S < _GRAM_FLOOR] = 0.0
                G = G + np.stack([(S * w) @ S.T for w in W])
            diag = np.diagonal(G, axis1=1, axis2=2)
            rows.append(np.triu(diag[:, :, None] + diag[:, None, :] - 2.0 * G, 1).reshape(1, -1))
        return np.concatenate(rows)

    # the measure stays linear in the weights, as `_refine` needs; clip after
    h2 = np.maximum(_refine(measure, d, R, lambda cur: 0.5 * tol)[0].reshape(n, n), 0.0)
    h2 += h2.T
    position = np.argsort(order)
    return h2[np.ix_(position, position)]


# -- characteristic-function route ---------------------------------------------


def characteristic_function(gm: GaussianMixture, t) -> np.ndarray:
    """Psi(t) = (sum_j w_j e^{i t a_j}) e^{-t^2/2} for a 1-d mixture."""
    if gm.dim != 1:
        raise CapabilityError("characteristic_function is implemented for d=1 only")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    locs = gm.mixing.locations[:, 0]
    phase = np.exp(1j * t[:, None] * locs[None, :])
    return np.sum(gm.mixing.weights[None, :] * phase, axis=1) * np.exp(-0.5 * t * t)


def plancherel_l2(p: GaussianMixture, q: GaussianMixture, tol=1e-8) -> float:
    """||p - q||_2^2 via (1/2pi) int |Psi_p - Psi_q|^2 dt (d = 1 only).

    |Psi_p - Psi_q|^2 <= 4 e^{-t^2}, so the t-domain is cut where that
    envelope is negligible against tol, by the radius search of the
    x-domain quadratures started at 6, and the remainder integrated by the
    same driver and panel rule, judged by its Kronrod extension.
    """
    if p.dim != 1 or q.dim != 1:
        raise CapabilityError("plancherel_l2 is implemented for d=1 only")
    if not (0 < tol < 1):
        raise HypothesisError(f"plancherel tolerance must lie in (0, 1), got {tol}")

    def measure(read, counts, _):
        X, W = read()
        t = X[:, 0]
        diff = characteristic_function(p, t) - characteristic_function(q, t)
        return _segment_sums((diff.real**2 + diff.imag**2) * W, counts).T

    def met(T, start_pass, _):
        # two-sided tail of 4 e^{-t^2} beyond T is below 4 e^{-T^2} / T
        scale = np.maximum(np.abs(start_pass[:, 0]) / (2.0 * math.pi), _TRUNC_FLOOR)
        return 4.0 * np.exp(-T * T) / T <= 0.5 * tol * scale * (2.0 * math.pi)

    values = _refine(measure, 1, [6.0], _relative(tol), met)[0]
    return float(values[0, 0]) / (2.0 * math.pi)
