"""Hellinger nets, projection, batch net-MLE, sequential forecasting, rates.

Model classes are explicit finite candidate lists (parameter grids of
atomic mixtures); covers are greedy farthest-point, which yields a set
that is simultaneously an epsilon-cover of the candidates and an
epsilon-packing, hence within the usual packing/covering sandwich of the
optimum.  All tie-breaks are first-index so results are reproducible.

Hellinger distances are computed once per candidate list: a
`HellingerTable` holds each pair the first time any cover reads it, and
every global cover, local cover and net built on that table shares it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .divergences import DivergenceKind, divergence
from .errors import HypothesisError
from .mixtures import GaussianMixture, mixture_to_record


def hellinger(p: GaussianMixture, q: GaussianMixture, tol=None) -> float:
    """Hellinger distance H = sqrt(H^2) via the certified quadrature."""
    return math.sqrt(max(divergence(DivergenceKind.HellingerSq, p, q, tol=tol).value, 0.0))


class HellingerTable:
    """Symmetric Hellinger distances over a fixed candidate list, filled lazily.

    Each unordered pair (i, j) is computed at most once, as
    hellinger(elements[min(i, j)], elements[max(i, j)], tol), the first time
    a cover reads it.  Every cover, local cover and net built on one table
    shares its entries, so a candidate family costs at most N(N-1)/2
    quadratures however many covers are taken of it.
    """

    def __init__(self, elements, tol=None):
        self.elements = list(elements)
        self.tol = tol
        n = len(self.elements)
        self._dist = np.zeros((n, n))
        self._known = np.eye(n, dtype=bool)

    def __len__(self):
        return len(self.elements)

    def row(self, i: int, among: np.ndarray) -> np.ndarray:
        """Distances from candidate i to the candidates at indices `among`."""
        for j in among[~self._known[i, among]]:
            a, b = min(i, j), max(i, j)
            self._dist[a, b] = self._dist[b, a] = hellinger(self.elements[a], self.elements[b], self.tol)
            self._known[a, b] = self._known[b, a] = True
        return self._dist[i, among]

    def block(self, index: np.ndarray) -> np.ndarray:
        """Pairwise distances among the candidates at `index` (a copy)."""
        for i in index:
            self.row(i, index)
        return self._dist[np.ix_(index, index)]


def _table(candidates, tol) -> HellingerTable:
    """The caller's table, or a fresh one over a plain candidate list."""
    if isinstance(candidates, HellingerTable):
        return candidates
    return HellingerTable(candidates, tol)


def pairwise_hellinger(elements, tol=None) -> np.ndarray:
    """Symmetric matrix of pairwise Hellinger distances, zero diagonal.

    `elements` is a candidate list or a `HellingerTable` (whose tol applies).
    """
    table = _table(elements, tol)
    return table.block(np.arange(len(table)))


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
        return self.table.block(self.index)

    def __len__(self):
        return len(self.elements)


def _farthest_point(table: HellingerTable, among: np.ndarray, eps: float) -> Net:
    """Farthest-point greedy eps-cover of the candidates at indices `among`.

    Reads only the rows of the promoted centers, restricted to `among`.
    """
    centers = [among[0]]
    mindist = table.row(among[0], among)
    while True:
        far = int(np.argmax(mindist))
        if mindist[far] <= eps:
            break
        centers.append(among[far])
        mindist = np.minimum(mindist, table.row(among[far], among))
    return Net(table, centers, eps)


def greedy_cover(candidates, eps: float, tol=None) -> Net:
    """Farthest-point greedy epsilon-cover of the candidates.

    Starts from index 0 and repeatedly promotes the candidate farthest from
    the current centers until everything is within eps.  The output is also
    eps-separated, so its size is at most the eps/2-covering's packing bound.
    `candidates` is a list or a `HellingerTable` (whose tol then applies).
    """
    if eps <= 0:
        raise HypothesisError(f"cover radius must be positive, got {eps}")
    table = _table(candidates, tol)
    if not len(table):
        raise ValueError("candidate list must be non-empty")
    return _farthest_point(table, np.arange(len(table)), eps)


def local_cover(candidates, center: GaussianMixture, eta: float, tol=None) -> Net:
    """Cover of the Hellinger ball B(center, eta) among candidates at radius eta/2.

    `candidates` is a list or a `HellingerTable` (whose tol then applies).  A
    center that is one of the candidates (by identity) reads its row of the
    table; any other center costs one quadrature per candidate.
    """
    if eta <= 0:
        raise HypothesisError(f"ball radius must be positive, got {eta}")
    table = _table(candidates, tol)
    everyone = np.arange(len(table))
    i = next((k for k, c in enumerate(table.elements) if c is center), None)
    if i is None:
        dist = np.array([hellinger(center, c, table.tol) for c in table.elements])
    else:
        dist = table.row(i, everyone)
    ball = everyone[dist <= eta]
    if not ball.size:
        return Net(table, ball, eta / 2.0)
    return _farthest_point(table, ball, eta / 2.0)


def local_covering_number(candidates, eps: float, eta_grid, centers=None, tol=None) -> int:
    """sup over supplied centers and eta >= eps of |cover(B(center, eta), eta/2)|.

    The sup runs over the supplied eta grid only (the continuum sup is not
    desk-realizable); callers should flag that in downstream reports.
    Returns 0 when no eta in the grid reaches eps.  `candidates` is a list
    or a `HellingerTable` (whose tol then applies); every local cover reads
    that one table.
    """
    if eps <= 0:
        raise HypothesisError(f"epsilon must be positive, got {eps}")
    table = _table(candidates, tol)
    if centers is None:
        centers = table.elements
    best = 0
    for eta in eta_grid:
        if eta < eps:
            continue
        for c in centers:
            best = max(best, len(local_cover(table, c, eta)))
    return best


def hellinger_project(f: GaussianMixture, net: Net, tol=None) -> GaussianMixture:
    """Nearest net element to f in Hellinger distance (first-index ties).

    Projection at most doubles the distance to anything the net covers:
    H(project(f), g) <= 2 H(f, g) whenever some net element is within
    H(f, g) of f.
    """
    if not net.elements:
        raise ValueError("net must be non-empty")
    dists = [hellinger(e, f, tol) for e in net.elements]
    return net.elements[int(np.argmin(dists))]


def batch_net_mle(net: Net, data) -> GaussianMixture:
    """Net element maximizing the sample log-likelihood (first-index ties)."""
    if not net.elements:
        raise ValueError("net must be non-empty")
    pts = np.atleast_2d(np.asarray(data, dtype=float))
    if pts.shape[0] < 1:
        raise ValueError("data must be non-empty")
    scores = [float(np.sum(e.log_density(pts))) for e in net.elements]
    return net.elements[int(np.argmax(scores))]


@dataclass
class ForecastResult:
    """Per-step state of the Bayesian mixture forecaster.

    predictive_weights[t] is the weight vector used to predict X_t (uniform
    prior times the likelihood of X_1..X_{t-1}); step_log_loss[t] is
    -log(predictive density at X_t); regret_vs_best compares cumulative log
    loss against the best single net element and never exceeds log(len(net)).
    """

    predictive_weights: np.ndarray
    step_log_loss: np.ndarray
    cum_regret: float | None
    regret_vs_best: float


def sequential_forecaster(net: Net, stream, true_density: GaussianMixture | None = None):
    """Uniform-prior Bayesian mixture over the net, updated per observation."""
    if not net.elements:
        raise ValueError("net must be non-empty")
    pts = np.atleast_2d(np.asarray(stream, dtype=float))
    n_steps = pts.shape[0]
    n_el = len(net.elements)
    loglik = np.stack([e.log_density(pts) for e in net.elements], axis=1)  # (T, N)
    lw = np.full(n_el, -math.log(n_el))
    weights = np.empty((n_steps, n_el))
    pred = np.empty(n_steps)
    for t in range(n_steps):
        weights[t] = np.exp(lw)
        row = lw + loglik[t]
        m = row.max()
        pred[t] = m + math.log(np.sum(np.exp(row - m)))
        lw = row - pred[t]
    regret_vs_best = float(np.max(np.sum(loglik, axis=0)) - np.sum(pred))
    cum_regret = None
    if true_density is not None:
        cum_regret = float(np.sum(true_density.log_density(pts) - pred))
    return ForecastResult(
        predictive_weights=weights,
        step_log_loss=-pred,
        cum_regret=cum_regret,
        regret_vs_best=regret_vs_best,
    )


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

    def to_dict(self) -> dict:
        return {
            "epsilons": [float(e) for e in self.epsilons],
            "log_cover": [float(v) for v in self.log_cover],
            "n": self.n,
            "local": self.local,
            "objective": [float(v) for v in self.objective],
            "eps_star": self.eps_star,
            "value": self.value,
        }


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


def batch_risk_mc(candidates, net: Net, n: int, trials: int, seed: int, tol=None) -> dict:
    """Monte Carlo worst-case batch risk of the net MLE over the candidates.

    For each candidate as truth, draws `trials` samples of size n, runs the
    net MLE, and averages the squared Hellinger loss; reports per-candidate
    means with 95% half-widths and their maximum.  This is a measurement,
    not an assertion against any rate characterization.
    """
    if n < 1 or trials < 1:
        raise ValueError("n and trials must be positive")
    loss = {}
    for i, f in enumerate(candidates):
        for j, e in enumerate(net.elements):
            loss[(i, j)] = divergence(DivergenceKind.HellingerSq, e, f, tol=tol).value
    element_index = {id(e): j for j, e in enumerate(net.elements)}
    rows = []
    for i, f in enumerate(candidates):
        losses = np.empty(trials)
        for t in range(trials):
            child_seed = int(np.random.SeedSequence([seed, i, t]).generate_state(1)[0])
            data = f.sample(n, child_seed)
            est = batch_net_mle(net, data)
            losses[t] = loss[(i, element_index[id(est)])]
        rows.append(
            {
                "candidate": i,
                "mean_h2": float(np.mean(losses)),
                "half_width": float(1.96 * np.std(losses) / math.sqrt(trials)),
            }
        )
    worst = max(rows, key=lambda r: r["mean_h2"])
    return {"per_candidate": rows, "risk": worst["mean_h2"], "half_width": worst["half_width"]}


def net_to_json(net: Net) -> dict:
    """JSON-ready serialization of a net (elements as mixture records)."""
    return {
        "radius": net.radius,
        "elements": [mixture_to_record(e.mixing) for e in net.elements],
        "distance_cache": [[float(v) for v in row] for row in net.distance_cache],
    }
