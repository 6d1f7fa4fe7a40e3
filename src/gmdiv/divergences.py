"""f-divergences between Gaussian mixtures with certified domain truncation.

Each divergence is an integral over R^d, computed as an adaptive quadrature
over a centered ball plus a rigorous bound on everything outside the ball.
The outside-the-ball certificates come from per-atom envelopes: for a
mixture with atoms at radii s_j and weights w_j and any r >= max_j s_j,

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
  L2^2      tail <= sup density on the sphere * mass tails.

d in {1, 2, 3} uses certified quadrature: one driver (`_refine`) refines a
nested tensor-product rule (1-d Gauss-Legendre panels, cut at the sign
changes of p - q for TV; radial panels x angular rule for d in {2, 3}) on a
ball sized by one radius search (`_search_radius`), which the Hellinger
table's Gram pass and `plancherel_l2` share.  In d = 1 the TV sign changes
are the roots of log p - log q, found by `brentq`, an in-house port of
Brent's method that takes scipy's steps and returns its roots bit for bit,
so the package needs numpy alone.  d > 3 falls back to seeded
importance-sampling Monte Carlo where `truncation_bound` reports a 95%
confidence half-width instead of a hard bound.

`tol` is a relative target: refinement stops when successive levels differ
by less than tol/2 relative to the current value, and the domain grows
until the certified tail bound is below tol/2 of the value scale.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, HypothesisError, QuadratureError
from .mixtures import LOG_2PI, Compact, GaussianMixture, Subgaussian, Unconstrained


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
    """

    value: float
    truncation_bound: float
    domain_radius: float
    quadrature_points: int


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


def gaussian_radial_tail(t: float, d: int) -> float:
    """Certified upper bound on P[||Z_d|| > t] for standard Gaussian Z_d."""
    if t <= 0:
        return 1.0
    if d in (1, 2):
        return min(1.0, math.exp(-0.5 * t * t))
    if d == 3:
        return min(1.0, math.sqrt(2.0 / math.pi) * (t + 1.0 / t) * math.exp(-0.5 * t * t))
    raise CapabilityError(f"no radial tail bound for d={d}")


# -- per-mixture envelope data -------------------------------------------------


class _Envelope:
    """Atom radii/weights of a mixture, as used by the tail certificates."""

    def __init__(self, gm: GaussianMixture):
        self.weights = gm.mixing.weights
        self.radii = gm.mixing.radii
        self.logw = np.log(gm.mixing.weights)
        self.s_max = float(self.radii.max())

    def mass_tail(self, R: float, d: int) -> float:
        return float(
            sum(w * gaussian_radial_tail(R - s, d) for w, s in zip(self.weights, self.radii))
        )

    def sup_density(self, R: float, d: int) -> float:
        # upper bound on the density anywhere on or outside the sphere of
        # radius R (valid for R >= s_max, where each bump term decreases).
        z = np.exp(-0.5 * (R - self.radii) ** 2)
        return float(np.sum(self.weights * z)) * math.exp(-0.5 * d * LOG_2PI)

    def anchor(self, R: float) -> tuple[float, float]:
        # fixed atom giving the best lower bound log q >= log v - (r+t)^2/2
        # (up to the shared -d/2 log 2pi), chosen at r = R
        scores = self.logw - 0.5 * (R + self.radii) ** 2
        j = int(np.argmax(scores))
        return float(self.radii[j]), float(self.logw[j])


def _log_ratio_line(p_env: _Envelope, q_env: _Envelope, R: float) -> tuple[float, float]:
    """Affine a*r + b dominating log(p/q) on spheres of radius r >= R."""
    t0, logv0 = q_env.anchor(R)
    a = p_env.s_max + t0
    b = 0.5 * (t0 * t0 - p_env.s_max**2) - logv0
    return a, b


def _ru_poly(d: int, R: float) -> list[float]:
    # coefficients (ascending in u) of (R + u)^(d-1)
    if d == 1:
        return [1.0]
    if d == 2:
        return [R, 1.0]
    return [R * R, 2.0 * R, 1.0]


def _exp_moment_sum(coeffs, kappa: float) -> float:
    # sum_m c_m m! / kappa^(m+1)  =  int_0^inf (sum c_m u^m) e^(-kappa u) du
    total = 0.0
    fact = 1.0
    for m, c in enumerate(coeffs):
        if m > 0:
            fact *= m
        total += c * fact / kappa ** (m + 1)
    return total


_KAPPA_MIN = 0.25


def _atom_tails(p_env, R, poly, beta, c) -> float:
    """sum_j w_j exp(s_j beta + beta^2/2 + c - kappa_j^2/2) moments(poly, kappa_j).

    kappa_j = R - (s_j + beta).  Bounds the integral over u >= 0 of poly(u)
    times p's atom envelopes at radius R + u tilted by e^{beta (R + u) + c}.
    """
    total = 0.0
    for w, s in zip(p_env.weights, p_env.radii):
        kappa = R - (s + beta)
        if kappa < _KAPPA_MIN:
            return math.inf
        log_c = s * beta + 0.5 * beta * beta + c - 0.5 * kappa * kappa
        if log_c > 700.0:
            return math.inf
        total += w * math.exp(log_c) * _exp_moment_sum(poly, kappa)
    return total


def _tail_bound(kind, p_env, q_env, R, d, lam=None) -> float:
    """Certified bound on the integral of `kind` outside the radius-R ball."""
    if R < max(p_env.s_max, q_env.s_max) + _KAPPA_MIN:
        return math.inf
    norm = _SURFACE[d] * math.exp(-0.5 * d * LOG_2PI)
    if kind == DivergenceKind.HellingerSq:
        return p_env.mass_tail(R, d) + q_env.mass_tail(R, d)
    if kind == DivergenceKind.TV:
        return 0.5 * (p_env.mass_tail(R, d) + q_env.mass_tail(R, d))
    if kind == DivergenceKind.L2Sq:
        sup = max(p_env.sup_density(R, d), q_env.sup_density(R, d))
        return sup * (p_env.mass_tail(R, d) + q_env.mass_tail(R, d))
    if kind == DivergenceKind.KL:
        a, b = _log_ratio_line(p_env, q_env, R)
        poly = np.convolve(_ru_poly(d, R), [max(0.0, a * R + b), a])
        return norm * _atom_tails(p_env, R, poly, beta=0.0, c=0.0) + q_env.mass_tail(R, d)
    if kind == DivergenceKind.ChiSq:
        # p^2/q - 2p + q <= p^2/q + q, and int p^2/q is the lam = 2 power integral
        return _tail_bound("renyi", p_env, q_env, R, d, 2.0) + q_env.mass_tail(R, d)
    if kind == "renyi":
        # p^lam / q^(lam-1) <= p e^{(lam-1)(a r + b)} on ||x|| = r >= R
        a, b = _log_ratio_line(p_env, q_env, R)
        return norm * _atom_tails(p_env, R, _ru_poly(d, R), (lam - 1.0) * a, (lam - 1.0) * b)
    raise ValueError(f"unknown kind {kind!r}")


# -- integrands ---------------------------------------------------------------


def _kind_values(kind, logp: np.ndarray, logq: np.ndarray, lam=None) -> np.ndarray:
    lr = logp - logq
    if kind == DivergenceKind.KL:
        # pointwise-nonnegative Bregman form p log(p/q) - p + q; for small
        # log-ratios switch to q((1+s)log1p(s) - s) with s = p/q - 1 to
        # avoid cancellation
        out = np.empty_like(lr)
        big = np.abs(lr) > 0.5
        out[big] = np.exp(logp[big]) * (lr[big] - 1.0) + np.exp(logq[big])
        s = np.expm1(lr[~big])
        out[~big] = np.exp(logq[~big]) * ((1.0 + s) * np.log1p(s) - s)
        return out
    if kind == DivergenceKind.HellingerSq:
        m = np.maximum(logp, logq)
        return np.exp(m) * np.expm1(-0.5 * np.abs(lr)) ** 2
    if kind == DivergenceKind.ChiSq:
        pos = lr > 0
        out = np.empty_like(lr)
        out[pos] = np.exp(2.0 * logp[pos] - logq[pos]) * np.expm1(-lr[pos]) ** 2
        out[~pos] = np.exp(logq[~pos]) * np.expm1(lr[~pos]) ** 2
        return out
    if kind == DivergenceKind.TV:
        m = np.maximum(logp, logq)
        return 0.5 * np.exp(m) * (-np.expm1(-np.abs(lr)))
    if kind == DivergenceKind.L2Sq:
        m = np.maximum(logp, logq)
        return np.exp(2.0 * m) * np.expm1(-np.abs(lr)) ** 2
    if kind == "renyi":
        return np.exp(lam * logp - (lam - 1.0) * logq)
    raise ValueError(f"unknown kind {kind!r}")


# -- quadrature driver ----------------------------------------------------------

# Level caps of the nested rules: d = 1 doubles its panels at most 14 times;
# d in {2, 3} refines radius and angle together at most 7 times, and never
# past _MAX_POINTS nodes in one level.
_MAX_LEVELS = {1: 14, 2: 7, 3: 7}
_MAX_POINTS = 6_000_000


def _panel_nodes(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    w = half[:, None] * np.broadcast_to(_GL_WEIGHTS, (lo.size, 16))
    return x.ravel(), w.ravel()


def _angular_rule(d: int, level: int) -> tuple[np.ndarray, np.ndarray]:
    if d == 2:
        nt = 32 << level
        theta = 2.0 * math.pi * np.arange(nt) / nt
        omegas = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        return omegas, np.full(nt, 2.0 * math.pi / nt)
    nu = 8 << level
    nt = 16 << level
    u, wu = np.polynomial.legendre.leggauss(nu)
    theta = 2.0 * math.pi * np.arange(nt) / nt
    su = np.sqrt(1.0 - u * u)
    omegas = np.empty((nu * nt, 3))
    omegas[:, 0] = np.outer(su, np.cos(theta)).ravel()
    omegas[:, 1] = np.outer(su, np.sin(theta)).ravel()
    omegas[:, 2] = np.repeat(u, nt)
    weights = np.repeat(wu, nt) * (2.0 * math.pi / nt)
    return omegas, weights


def _rule(d: int, R: float, splits=()):
    """Nested tensor-product rule on ||x|| <= R: level -> (X, factors) or None.

    X holds the nodes, shape (n, d); factors are the weights as an open mesh
    (np.ix_ layout) over the node grid.  d = 1: Gauss-Legendre panels on
    [-R, R] cut at `splits`, one factor.  d in {2, 3}: radial panels times
    the angular rule, factors wr r^(d-1) (a column) and wa.  None past the
    level cap.
    """
    edges = [-R, *sorted(splits), R]

    def rule(level):
        if level >= _MAX_LEVELS[d]:
            return None
        if d == 1:
            xs, ws = [], []
            for a, b in itertools.pairwise(edges):
                n = max(2, int(math.ceil((b - a) / 2.0))) << level
                x, w = _panel_nodes(np.linspace(a, b, n + 1))
                xs.append(x)
                ws.append(w)
            return np.concatenate(xs)[:, None], (np.concatenate(ws),)
        nr = max(4, int(math.ceil(R / 2.0))) << level
        r, wr = _panel_nodes(np.linspace(0.0, R, nr + 1))
        omegas, wa = _angular_rule(d, level)
        if r.size * omegas.shape[0] > _MAX_POINTS:
            return None
        X = (r[:, None, None] * omegas[None, :, :]).reshape(-1, d)
        return X, ((wr * r ** (d - 1))[:, None], wa)

    return rule


def _weigh(vals, factors):
    """Rows of vals, an (m, n) array over the nodes, times the open-mesh weights."""
    vals = vals.reshape(-1, *map(len, factors))
    for f in factors:
        vals = vals * f
    return vals


def _quadrature(pack):
    """Measure integrating each row of pack(X), an (m, n) array."""
    return lambda X, factors: _weigh(pack(X), factors).sum(axis=tuple(range(1, 1 + len(factors))))


def _integrate(measure, rule, level):
    """measure(X, factors) on level `level` of `rule`, and the points spent."""
    nodes = rule(level)
    if nodes is None:
        raise QuadratureError(f"quadrature did not converge in {level} levels")
    return measure(*nodes), nodes[0].shape[0]


def _refine(measure, rule, bound, level0=None, pts=0):
    """Refine `rule` until measure(X, factors), an array, settles level to level.

    Stops once every entry moves by at most bound(cur).  `level0` holds
    level 0's measure if the caller already took it (it is not evaluated
    again); `pts` counts points the caller already spent.  Returns the last
    measure and the points spent.
    """
    prev = level0
    for level in itertools.count(0 if level0 is None else 1):
        cur, n = _integrate(measure, rule, level)
        pts += n
        if prev is not None and np.all(np.abs(cur - prev) <= bound(cur)):
            return cur, pts
        prev = cur


def _relative(tol):
    """Convergence bound of tol/2 relative to each current value."""
    return lambda cur: 0.5 * tol * np.maximum(np.abs(cur), _FLOOR)


def _start_radius(mixtures, tol) -> float:
    """Where a radius search starts: max(truncation radii, s_max + 1)."""
    radii = [truncation_radius(m.mixing.tag, m.dim, tol) for m in mixtures]
    return max(*radii, max(float(m.mixing.radii.max()) for m in mixtures) + 1.0)


def _search_radius(R, met) -> float:
    """First of R, R + max(0.5, 0.04 R), ... that meets `met`; 400 misses raise."""
    for _ in range(400):
        if met(R):
            return R
        R += max(0.5, 0.04 * R)
    raise CapabilityError("certified tail bound cannot reach the tolerance")


_BRENT_RTOL = 4.0 * float(np.finfo(float).eps)
_BRENT_MAXITER = 100


def brentq(f, a, b, xtol):
    """A root of the scalar function f in [a, b], where f(a) and f(b) differ in sign.

    Brent's method (R. P. Brent, *Algorithms for Minimization Without
    Derivatives*, 1973, ch. 4), step for step as in scipy's `brentq.c`:
    relative tolerance 4 eps and at most 100 iterations; each step is the
    secant or inverse-quadratic step when 2|s| < min(|s_prev|, 3|s_bisect| -
    delta) and bisection otherwise, and moves by at least delta =
    (xtol + rtol |x|) / 2.  The same f values give bitwise the same root.
    An endpoint where f is 0 is returned as is.  Raises QuadratureError when
    f(a) and f(b) share a sign, when f is NaN, or after 100 iterations.
    """

    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise QuadratureError(f"root search: f({x!r}) is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise QuadratureError(f"root search: f has one sign at both ends of [{xpre!r}, {xcur!r}]")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if (fpre < 0) != (fcur < 0):
            # the root lies between xpre and xcur: they become the bracket
            # (an fcur of 0 is returned just below either way)
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            # keep the end with the smaller |f| as the current iterate
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = None
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)  # secant
                else:  # inverse quadratic through all three points
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # an infinite step never passes the test below
                pass
        if stry is not None and 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise QuadratureError(f"root search did not converge in {_BRENT_MAXITER} iterations")


def _sign_change_splits(p: GaussianMixture, q: GaussianMixture, R: float) -> list[float]:
    # locate roots of p - q so |p - q| is integrated piecewise-smoothly
    grid = np.linspace(-R, R, 2049)
    s = p.log_density(grid[:, None]) - q.log_density(grid[:, None])
    f = lambda x: p.log_density(np.array([x])) - q.log_density(np.array([x]))
    idx = np.nonzero(np.sign(s[:-1]) * np.sign(s[1:]) < 0)[0]
    return [float(brentq(f, grid[i], grid[i + 1], xtol=1e-13)) for i in idx]


# -- main entry points ----------------------------------------------------------


def _require_certifiable(gm: GaussianMixture):
    if isinstance(gm.mixing.tag, Unconstrained):
        raise CapabilityError(
            "unconstrained mixtures carry no certifiable tail; tag the mixing "
            "distribution as Compact or Subgaussian"
        )


def _compute_divergences(kinds, p, q, tol=None, domain_radius=None, lam=None):
    """Shared-grid computation of several kinds for one pair; `lam` is the renyi power."""
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: p.dim={p.dim}, q.dim={q.dim}")
    d = p.dim
    if tol is None:
        tol = default_tol(d)
    if d > 3:
        if domain_radius is not None:
            raise CapabilityError(f"domain_radius needs certified quadrature (d <= 3), got d={d}")
        if not (0 < tol < 1):
            raise HypothesisError(f"tolerance must lie in (0, 1), got {tol}")
        return {k: _mc_divergence(k, p, q) for k in kinds}
    _require_certifiable(p)
    _require_certifiable(q)

    p_env, q_env = _Envelope(p), _Envelope(q)
    s_max = max(p_env.s_max, q_env.s_max)
    start = R = _start_radius([p, q], tol)

    def pack(X):
        logp = p.log_density(X)
        logq = q.log_density(X)
        return np.stack([_kind_values(k, logp, logq, lam) for k in kinds])

    # cached: the final radius's tails were already met by the search
    tails_at = functools.cache(lambda R: [_tail_bound(k, p_env, q_env, R, d, lam) for k in kinds])
    measure = _quadrature(pack)
    level0, pts0 = None, 0
    if domain_radius is not None:
        if domain_radius < s_max + _KAPPA_MIN:
            raise HypothesisError(
                f"domain_radius {domain_radius} must exceed the atom radius {s_max}"
            )
        R = float(domain_radius)
    else:
        # level 0 of the rule at the start radius fixes the value scale for
        # the truncation targets; if the radius stays, refinement reuses it
        level0, pts0 = _integrate(measure, _rule(d, R), 0)
        targets = 0.5 * tol * np.maximum(np.abs(level0), _TRUNC_FLOOR)
        R = _search_radius(R, lambda R: all(t <= g for t, g in zip(tails_at(R), targets)))

    splits = _sign_change_splits(p, q, R) if d == 1 and DivergenceKind.TV in kinds else ()
    if splits or R != start:
        level0 = None
    values, pts = _refine(measure, _rule(d, R, splits), _relative(tol), level0, pts0)
    return {
        k: IntegralEstimate(float(v), float(t), R, int(pts))
        for k, v, t in zip(kinds, values, tails_at(R))
    }


def divergence(kind, p: GaussianMixture, q: GaussianMixture, tol=None, domain_radius=None):
    """Certified divergence of the given kind between two mixtures.

    `tol` is a relative accuracy target (defaults: 1e-8 for d=1, 1e-6 for
    d in {2,3}).  `domain_radius` overrides the automatic domain (it must
    still exceed every atom radius); this is mainly for stability checks.
    For d > 3 the value is a seeded Monte Carlo estimate: a `tol` in (0, 1)
    is accepted but does not change it, and `domain_radius` is rejected.
    """
    kind = DivergenceKind(kind)
    return _compute_divergences([kind], p, q, tol=tol, domain_radius=domain_radius)[kind]


def renyi_integral(p: GaussianMixture, q: GaussianMixture, lam: float, tol=None):
    """The power integral int p^lam / q^(lam-1) with certified truncation.

    Requires Compact-tagged mixtures (the certificate completes the square
    against the affine log-ratio bound).  For single-atom p, q at u, v the
    value is exp(lam (lam-1) ||u-v||^2 / 2).  The radius search and the
    quadrature are those of `divergence`, and `quadrature_points` likewise
    counts each integrand evaluation once: the coarse pass that sets the
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
    vals = _kind_values(kind, logp, logq) * np.exp(-logm)
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
    tol/2.  On each level of `_rule(d, R)` the square roots S_i = sqrt(p_i)
    at the nodes give G = (S w) S^T and H^2_ij = G_ii + G_jj - 2 G_ij
    (clipped at 0), which is int (sqrt(p_i) - sqrt(p_j))^2 over the ball.
    `_refine` stops once no entry moves by more than tol/2, so `tol` is an
    absolute H^2 accuracy (default `default_tol(d)`).  The members are
    processed in an order fixed by their contents and the upper triangle is
    mirrored, so each entry is bitwise independent of the order of
    `elements` (for one BLAS build and thread count; another thread count
    can move entries by rounding, about 1e-15 on a 1000-candidate grid).
    """
    n = len(elements)
    if n < 2:
        return np.zeros((n, n))
    d = elements[0].dim
    if tol is None:
        tol = default_tol(d)
    envs = [_Envelope(e) for e in elements]
    R = _search_radius(
        _start_radius(elements, tol),
        lambda R: 2.0 * max(env.mass_tail(R, d) for env in envs) <= 0.5 * tol,
    )

    def content(i):
        mixing = elements[i].mixing
        return mixing.locations.tobytes(), mixing.weights.tobytes()

    order = sorted(range(n), key=content)
    members = [elements[i] for i in order]
    step = max(1, _GRAM_ENTRIES // n)

    def measure(X, factors):
        w = _weigh(np.ones(X.shape[0]), factors).ravel()  # the node weights, flat
        G = np.zeros((n, n))
        S = np.empty((n, min(step, X.shape[0])))
        for lo in range(0, X.shape[0], step):
            block = X[lo : lo + step]
            Sb = S[:, : block.shape[0]]
            for i, e in enumerate(members):
                np.exp(0.5 * e.log_density(block), out=Sb[i])
            Sb[Sb < _GRAM_FLOOR] = 0.0
            G += (Sb * w[lo : lo + step]) @ Sb.T
        diag = np.diag(G)
        return np.triu(np.maximum(diag[:, None] + diag[None, :] - 2.0 * G, 0.0), 1)

    h2, _ = _refine(measure, _rule(d, R), lambda cur: 0.5 * tol)
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
    same driver and panel-doubling rule.
    """
    if p.dim != 1 or q.dim != 1:
        raise CapabilityError("plancherel_l2 is implemented for d=1 only")
    if not (0 < tol < 1):
        raise HypothesisError(f"plancherel tolerance must lie in (0, 1), got {tol}")

    def pack(X):
        t = X[:, 0]
        diff = characteristic_function(p, t) - characteristic_function(q, t)
        return (diff.real**2 + diff.imag**2)[None, :]

    measure = _quadrature(pack)
    start = 6.0
    level0, _ = _integrate(measure, _rule(1, start), 0)
    scale = max(abs(float(level0[0])) / (2.0 * math.pi), _TRUNC_FLOOR)
    # two-sided tail of 4 e^{-t^2} beyond T is below 4 e^{-T^2} / T
    target = 0.5 * tol * scale * (2.0 * math.pi)
    T = _search_radius(start, lambda T: 4.0 * math.exp(-T * T) / T <= target)
    values, _ = _refine(measure, _rule(1, T), _relative(tol), level0 if T == start else None)
    return float(values[0]) / (2.0 * math.pi)
