"""Hellinger nets, projection, batch net-MLE, sequential forecasting, rates.

Model classes are explicit finite candidate lists (parameter grids of
atomic mixtures); covers are greedy farthest-point, which yields a set
that is simultaneously an epsilon-cover of the candidates and an
epsilon-packing, hence within the usual packing/covering sandwich of the
optimum.  All tie-breaks are first-index so results are reproducible; the
farthest-point step treats distances within `_TIE` of the farthest as
tied, so a cover does not hang on the last bits of a distance.

Covers take a `HellingerTable`, which computes the Hellinger distances of
one candidate list once: its `h2` matrix is filled in one shared-grid Gram
pass the first time it is read, and every global cover, local cover, net,
projection and risk estimate built on that table reads it.  `h2_from` is
the one branch for a point that is not a candidate (an outside ball
center, a projected density), which costs per-pair quadratures.  A plain
list goes through `HellingerTable(...)` or `pairwise_hellinger`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .divergences import DivergenceKind, _Envelope, _gram_h2, _require_certifiable, divergence
from .errors import CapabilityError, HypothesisError
from .mixtures import GaussianMixture, shared_log_density

# Farthest-point distances within _TIE (in H) of the farthest count as tied.
_TIE = 1e-9


def hellinger(p: GaussianMixture, q: GaussianMixture, tol=None) -> float:
    """Hellinger distance H = sqrt(H^2) via the certified quadrature."""
    return math.sqrt(max(divergence(DivergenceKind.HellingerSq, p, q, tol=tol).value, 0.0))


class HellingerTable:
    """Symmetric Hellinger distances over a fixed candidate list.

    `h2` is the matrix of squared distances, filled at its first read by
    the shared-grid Gram pass `_gram_h2`; constructing a table computes
    nothing.  `tol` is the absolute H^2 accuracy of the entries (default
    `default_tol(d)`), and entries do not depend on the order of
    `elements`.  Every cover, local cover and net built on one table shares
    its entries.  The candidates must share one dimension d <= 3 and carry
    a Compact or Subgaussian tag.
    """

    def __init__(self, elements, tol=None):
        self.elements = list(elements)
        self.tol = tol
        if len({e.dim for e in self.elements}) > 1:
            raise ValueError("table candidates must share one dimension")
        for e in self.elements:
            _require_certifiable(e.mixing.tag)
            if e.dim > 3:
                raise CapabilityError(f"a Hellinger table needs d <= 3, got d={e.dim}")
        self._position = {}
        for i, e in enumerate(self.elements):
            self._position.setdefault(id(e), i)

    def __len__(self):
        return len(self.elements)

    @cached_property
    def h2(self) -> np.ndarray:
        """Squared Hellinger distances between every pair of candidates."""
        return _gram_h2(self.elements, self.tol)

    def h2_from(self, f: GaussianMixture, among: np.ndarray) -> np.ndarray:
        """Squared distances from density f to the candidates at indices `among`.

        An f that is a candidate (by identity) reads its table row; any other
        f costs one per-pair quadrature per index, at the table's `tol`.
        """
        i = self._position.get(id(f))
        if i is not None:
            return self.h2[i, among]
        kind = DivergenceKind.HellingerSq
        return np.array([divergence(kind, f, self.elements[j], tol=self.tol).value for j in among])


def pairwise_hellinger(elements, tol=None) -> np.ndarray:
    """Symmetric matrix of pairwise Hellinger distances, zero diagonal."""
    return np.sqrt(HellingerTable(elements, tol).h2)


@dataclass
class Net:
    """A finite Hellinger cover: the candidates at `index` in a distance table."""

    table: HellingerTable
    index: np.ndarray
    radius: float
    elements: list = field(init=False)

    def __post_init__(self):
        self.index = np.asarray(self.index, dtype=int)
        self.elements = [self.table.elements[i] for i in self.index]

    @property
    def distance_cache(self) -> np.ndarray:
        """Pairwise Hellinger distances among the elements, read from the table."""
        return np.sqrt(self.table.h2[np.ix_(self.index, self.index)])

    def __len__(self):
        return len(self.elements)


def _farthest_point(table: HellingerTable, among: np.ndarray, eps: float) -> Net:
    """Farthest-point greedy eps-cover of the candidates at indices `among`.

    Reads only the rows of the promoted centers, restricted to `among`.  The
    promoted candidate is the first one within `_TIE` of the farthest (and
    still uncovered), so near-ties that only rounding separates resolve to
    the first index.
    """
    centers = [among[0]]
    mindist = np.sqrt(table.h2[among[0], among])
    while True:
        top = mindist.max()
        if top <= eps:
            break
        far = int(np.argmax(mindist > max(eps, top - _TIE)))
        centers.append(among[far])
        mindist = np.minimum(mindist, np.sqrt(table.h2[among[far], among]))
    return Net(table, centers, eps)


def greedy_cover(table: HellingerTable, eps: float) -> Net:
    """Farthest-point greedy epsilon-cover of the table's candidates.

    Starts from index 0 and repeatedly promotes the candidate farthest from
    the current centers until everything is within eps.  The output is also
    eps-separated, so its size is at most the eps/2-covering's packing bound.
    """
    if not (eps > 0):
        raise HypothesisError(f"cover radius must be positive, got {eps}")
    if not len(table):
        raise ValueError("candidate list must be non-empty")
    return _farthest_point(table, np.arange(len(table)), eps)


def local_cover(table: HellingerTable, center: GaussianMixture, eta: float) -> Net:
    """Cover of the Hellinger ball B(center, eta) among the table's candidates at radius eta/2.

    A center that is one of the candidates (by identity) reads its row of the
    table; any other center costs one quadrature per candidate.
    """
    if not (eta > 0):
        raise HypothesisError(f"ball radius must be positive, got {eta}")
    everyone = np.arange(len(table))
    ball = everyone[np.sqrt(table.h2_from(center, everyone)) <= eta]
    if not ball.size:
        return Net(table, ball, eta / 2.0)
    return _farthest_point(table, ball, eta / 2.0)


def local_covering_number(table: HellingerTable, eps: float, eta_grid) -> int:
    """sup over every candidate as center and eta >= eps of |cover(B(center, eta), eta/2)|.

    The sup runs over the supplied eta grid only (the continuum sup is not
    desk-realizable); callers should flag that in downstream reports.
    Returns 0 when no eta in the grid reaches eps.  Every local cover reads
    the one table.
    """
    if not (eps > 0):
        raise HypothesisError(f"epsilon must be positive, got {eps}")
    best = 0
    for eta in eta_grid:
        if eta < eps:
            continue
        for c in table.elements:
            best = max(best, len(local_cover(table, c, eta)))
    return best


def hellinger_project(f: GaussianMixture, net: Net) -> GaussianMixture:
    """Nearest net element to f in Hellinger distance (first-index ties).

    Projection at most doubles the distance to anything the net covers:
    H(project(f), g) <= 2 H(f, g) whenever some net element is within
    H(f, g) of f.  Distances come from the net table's `h2_from`.
    """
    if not net.elements:
        raise ValueError("net must be non-empty")
    return net.elements[int(np.argmin(np.sqrt(net.table.h2_from(f, net.index))))]


def _net_loglik(net: Net, data) -> tuple[np.ndarray, np.ndarray]:
    """The data as (T, d) points and the (N, T) log-likelihoods of the net's elements on them.

    One shared-node pass of the density kernel; row i is element i's own
    `log_density` on the points bit for bit.
    """
    if not net.elements:
        raise ValueError("net must be non-empty")
    pts, _ = net.elements[0]._as_points(data)
    if pts.shape[0] < 1:
        raise ValueError("data must be non-empty")
    env = _Envelope.of(net.elements)
    return pts, shared_log_density(env.locations, env.logw, pts)


def batch_net_mle(net: Net, data) -> GaussianMixture:
    """Net element maximizing the sample log-likelihood (first-index ties)."""
    _, loglik = _net_loglik(net, data)
    return net.elements[int(np.argmax(loglik.sum(axis=1)))]


@dataclass
class ForecastResult:
    """Per-step state of the Bayesian mixture forecaster.

    predictive_weights[t] is the weight vector used to predict X_t (uniform
    prior times the likelihood of X_1..X_{t-1}); step_log_loss[t] is
    -log(predictive density at X_t); cum_regret[t] is the regret against the
    true density through step t, sum over s <= t of log q*(X_s) +
    step_log_loss[s] (None without a true density); regret_vs_best is the
    cumulative log loss minus the best single net element's, at most
    log(len(net)) exactly in floating point.
    """

    predictive_weights: np.ndarray
    step_log_loss: np.ndarray
    cum_regret: np.ndarray | None
    regret_vs_best: float


def sequential_forecaster(net: Net, stream, true_density: GaussianMixture | None = None) -> ForecastResult:
    """Uniform-prior Bayesian mixture over the net, in closed form.

    With l the (N, T) log-likelihoods on the stream and b the batch net MLE,
    post[:, t] = -log N + sum over s < t of (l[:, s] - l[b, s]), t = 0..T,
    are the log weights relative to b before step t, and marg[t], their
    log-sum-exp over elements, is the log marginal likelihood of X_1..X_t
    relative to b.  The log predictive density of X_t is
    l[b, t] + marg[t + 1] - marg[t], the weights are exp(post - marg), and
    regret_vs_best = -marg[T] <= log N exactly: post[b, T] = -log N bit for
    bit, and a log-sum-exp is at least its largest term.  A true density
    that is a net element (by identity) reads its row of l.
    """
    pts, loglik = _net_loglik(net, stream)
    best = loglik[int(np.argmax(loglik.sum(axis=1)))]
    post = np.zeros((loglik.shape[0], loglik.shape[1] + 1))
    np.cumsum(loglik - best, axis=1, out=post[:, 1:])
    post -= math.log(len(loglik))
    top = post.max(axis=0)
    marg = top + np.log(_exp(post - top).sum(axis=0))
    pred = best + np.diff(marg)
    cum_regret = None
    if true_density is not None:
        # a net element's log-likelihoods are already rows of loglik
        rows = [i for i, e in enumerate(net.elements) if e is true_density]
        cum_regret = np.cumsum((loglik[rows[0]] if rows else true_density.log_density(pts)) - pred)
    return ForecastResult(
        predictive_weights=_exp(post[:, :-1] - marg[:-1]).T,
        step_log_loss=-pred,
        cum_regret=cum_regret,
        regret_vs_best=float(-marg[-1]),
    )


def _exp(x: np.ndarray) -> np.ndarray:
    """np.exp(x) bit for bit, in place.

    exp rounds every argument below log(2^-1075) = -745.133... to +0.0, and
    numpy's exp takes a slow path on them (most of the forecaster's
    weights), so only the arguments >= -745.2 are exponentiated and the
    max with 0 then sets the others to +0.0 (a NaN stays NaN).
    """
    np.exp(x, out=x, where=x >= -745.2)
    return np.maximum(x, 0.0, out=x)


@dataclass
class RateFunctional:
    """Exact grid minimum of an entropy rate objective.

    local=True:  batch objective  eps^2 + log(N_loc(eps)) / n
    local=False: sequential objective  n eps^2 + log(N(eps))
    """

    epsilons: np.ndarray
    log_cover: np.ndarray
    n: int
    local: bool
    objective: np.ndarray
    eps_star: float
    value: float


def rate_functional(epsilons, cover_sizes, n: int, local: bool) -> RateFunctional:
    """Minimize the batch or sequential entropy objective over the grid."""
    eps = np.asarray(list(epsilons), dtype=float)
    sizes = np.asarray(list(cover_sizes), dtype=float)
    if eps.size == 0 or eps.size != sizes.size:
        raise ValueError("epsilon grid and cover sizes must be non-empty and aligned")
    if np.any(sizes < 1):
        raise ValueError("cover sizes must be >= 1")
    if n < 1:
        raise ValueError("sample size must be >= 1")
    log_cover = np.log(sizes)
    if local:
        objective = eps**2 + log_cover / n
    else:
        objective = n * eps**2 + log_cover
    j = int(np.argmin(objective))
    return RateFunctional(
        epsilons=eps,
        log_cover=log_cover,
        n=n,
        local=bool(local),
        objective=objective,
        eps_star=float(eps[j]),
        value=float(objective[j]),
    )


def batch_risk_mc(candidates, net: Net, n: int, trials: int, seed: int) -> dict:
    """Monte Carlo worst-case batch risk of the net MLE over the candidates.

    For each candidate as truth, draws `trials` samples of size n, runs the
    net MLE, and averages the squared Hellinger loss; reports per-candidate
    means with 95% half-widths and their maximum.  This is a measurement,
    not an assertion against any rate characterization.  Losses come from
    the net table's `h2_from`.
    """
    if not len(candidates):
        raise ValueError("candidate list must be non-empty")
    if n < 1 or trials < 1:
        raise ValueError("n and trials must be positive")
    loss = np.array([net.table.h2_from(f, net.index) for f in candidates])
    rows = []
    for i, f in enumerate(candidates):
        losses = np.empty(trials)
        for t in range(trials):
            child_seed = int(np.random.SeedSequence([seed, i, t]).generate_state(1)[0])
            _, loglik = _net_loglik(net, f.sample(n, child_seed))
            losses[t] = loss[i, np.argmax(loglik.sum(axis=1))]
        rows.append(
            {
                "candidate": i,
                "mean_h2": float(np.mean(losses)),
                "half_width": float(1.96 * np.std(losses) / math.sqrt(trials)),
            }
        )
    worst = max(rows, key=lambda r: r["mean_h2"])
    return {"per_candidate": rows, "risk": worst["mean_h2"], "half_width": worst["half_width"]}
