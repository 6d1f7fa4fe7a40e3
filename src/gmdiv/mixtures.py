"""Atomic mixing distributions and their Gaussian mixtures.

A mixing distribution here is a finite list of weighted atoms in R^d; the
associated Gaussian mixture is its convolution with the standard normal,

    p(x) = sum_j w_j (2 pi)^(-d/2) exp(-||x - a_j||^2 / 2).

Everything is evaluated in log domain (max-shifted exponential sums), so
log-densities are finite for every finite input and scores are stable far
from the atoms.  Expanding the square turns the kernel into one matrix
product:

    log p(x) = -||x||^2 / 2 + logsumexp_j(c_j + x . a_j) - (d/2) log(2 pi),
    c_j = log w_j - ||a_j||^2 / 2,

so the logits are one GEMM with inner dimension d, `A @ X.T + c`, and
-||x||^2 / 2 is subtracted once per point after the logsumexp.  They are
held atom-major, (k, n), so the max and the sum over atoms are elementwise
passes over contiguous rows of length n rather than n short reductions;
the sum runs in atom order.  The kernel reads mixtures as a `_Batch`, the
atoms of m mixtures padded to one count with the offsets c_j formed once
when the batch is built; a `GaussianMixture` holds its own one-row batch.
One block pass, `_block_logits`, builds the logits of one or more batches
at the same nodes, in one of two layouts: in per-mixture segments (the
quadrature's), or shared, every mixture at the same nodes (a net's
log-likelihoods on a stream, the Hellinger Gram pass).  In d >= 2 each
mixture's part of a block of nodes is one GEMM over that mixture's own
real atoms, and the max, the exp and the sum over atoms cover those rows
only, so its bits do not depend on the other mixtures of the call and no
pad row is formed.  In d = 1 the logits are a_j x + c_j elementwise, the
atoms of each node's mixture gathered with `np.repeat` in segments,
whether a block spans one segment or several, and broadcast over the
nodes when they are shared: the same products as the GEMM's, and several
times faster than a GEMM with inner dimension 1.  There a block's logits
have a row per atom of its largest mixture, and a pad adds an exact 0
after the real atoms and changes no sum.  It yields exp(logits - column
max) and the column max.  Its log-sum-exp reduction is `log_densities`, one output per batch from
one walk over the blocks that finds each block's segments and forms
||x||^2 once for all of them (log p and log q of a batch of pairs), each
row of an output its mixture's own `GaussianMixture.log_density` bit for
bit, which is row 0 of its one-row batch in the shared layout; its other
reduction is `GaussianMixture.score`, the softmax applied to the atoms,
minus x; -||x||^2 / 2 cancels in the softmax and never enters.  Points are processed in blocks of _BLOCK, and shared nodes in
groups of at most _BLOCK (mixture, node) pairs, so no temporary is larger
than _BLOCK * k doubles whatever n and m are.  The tail certificates of
`divergences` read a batch's radii and log-weights: one pass per radius
step (`_tail_bounds`) bounds every kind of every pair.  Class tags
(Compact / Subgaussian / Unconstrained) record which tail certificates
are available downstream.
"""

from __future__ import annotations

import bisect
import itertools
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# numpy >= 2 loads numpy.random on first use; sampling, sweep instances and
# seq streams all draw from it, so it loads with the package instead of
# inside the first job that samples (about 13 ms).
import numpy.random  # noqa: F401

from .errors import HypothesisError

LOG_2PI = math.log(2.0 * math.pi)

# Constructors renormalize weights when |sum - 1| is below this and reject
# otherwise.
WEIGHT_TOL = 1e-12

# Relative slack when checking atom radii / step tails, to absorb the
# rounding of norm computations.
_RADIUS_SLACK = 1e-9

# Points (or shared-layout (mixture, point) pairs) per block of the kernel:
# bounds every logits temporary at _BLOCK * k doubles (4 MB at k = 64).
_BLOCK = 8192


@dataclass(frozen=True)
class Compact:
    """Mixing distribution supported on the centered ball of radius M."""

    M: float

    def __post_init__(self):
        if not (self.M > 0):
            raise HypothesisError(f"Compact radius must be positive, got M={self.M}")


@dataclass(frozen=True)
class Subgaussian:
    """Mixing distribution with tail P[||X|| > t] <= exp(-t^2 / (2 K^2))."""

    K: float

    def __post_init__(self):
        if not (self.K > 0):
            raise HypothesisError(f"Subgaussian level must be positive, got K={self.K}")


@dataclass(frozen=True)
class Unconstrained:
    """No tail information; certified integration is unavailable."""


ClassTag = Compact | Subgaussian | Unconstrained


@dataclass(frozen=True)
class MixingDistribution:
    """Finite atomic mixing distribution on R^d.

    locations: (k, d) array of atom positions.
    weights:   (k,) array of strictly positive weights summing to one
               (renormalized when the deviation is below WEIGHT_TOL).
    tag:       class membership certificate; validated at construction.
    """

    locations: np.ndarray
    weights: np.ndarray
    tag: ClassTag = field(default_factory=Unconstrained)

    def __post_init__(self):
        locs = np.atleast_2d(np.asarray(self.locations, dtype=float))
        w = np.asarray(self.weights, dtype=float).ravel()
        if locs.ndim != 2 or locs.shape[0] < 1 or locs.shape[1] < 1:
            raise ValueError(f"locations must be a (k, d) array, got shape {locs.shape}")
        if w.shape != (locs.shape[0],):
            raise ValueError(
                f"weights shape {w.shape} does not match {locs.shape[0]} atoms"
            )
        locs = np.ascontiguousarray(locs)
        (w,) = validate_atoms(locs[None], w[None], [locs.shape[0]], self.tag)
        locs.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.locations.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.locations.shape[0]

    @cached_property
    def radii(self) -> np.ndarray:
        """Euclidean norms of the atom locations."""
        r = np.sqrt(np.sum(self.locations**2, axis=1))
        r.setflags(write=False)
        return r


class GaussianMixture:
    """A mixing distribution convolved with the standard Gaussian on R^d."""

    def __init__(self, mixing: MixingDistribution):
        self.mixing = mixing
        self.dim = mixing.dim

    @cached_property
    def _batch(self) -> _Batch:
        """Its one-row `_Batch`, the density kernel's input, built at the first evaluation."""
        return _Batch(self.mixing.locations[None], self.mixing.weights[None])

    @classmethod
    def from_atoms(cls, locations, weights=None, tag: ClassTag | None = None):
        """Build a mixture from raw atoms; uniform weights when omitted."""
        locs = np.atleast_2d(np.asarray(locations, dtype=float))
        if weights is None:
            weights = np.full(locs.shape[0], 1.0 / locs.shape[0])
        if tag is None:
            tag = Unconstrained()
        return cls(MixingDistribution(locs, np.asarray(weights, dtype=float), tag))

    def __repr__(self):
        return (
            f"GaussianMixture(k={self.mixing.n_atoms}, d={self.dim}, "
            f"tag={self.mixing.tag!r})"
        )

    # -- pointwise evaluation ------------------------------------------------

    def _as_points(self, x) -> tuple[np.ndarray, bool]:
        pts = np.asarray(x, dtype=float)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(
                f"points of dimension {pts.shape[-1] if pts.ndim else '?'} "
                f"passed to a mixture of dimension {self.dim}"
            )
        return pts, single

    def log_density(self, x):
        """log p(x), finite for every finite x.

        Accepts a single point of shape (d,) or a batch of shape (n, d); row
        0 of `log_densities` on its one-row batch, every node shared.
        """
        pts, single = self._as_points(x)
        (out,) = log_densities([self._batch], pts)
        return float(out[0, 0]) if single else out[0]

    def score(self, x):
        """Gradient of log p: sum_j u_j a_j - x, with u the softmax of the logits."""
        pts, single = self._as_points(x)
        out = np.empty(pts.shape)
        for at, blk, ((u, _),) in _block_logits([self._batch], pts, [pts.shape[0]]):
            u /= u.sum(axis=0)
            np.subtract((self.mixing.locations.T @ u).T, blk, out=out[at])
        return out[0] if single else out

    def sample(self, n: int, seed: int) -> np.ndarray:
        """n iid draws; deterministic given the seed."""
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"sample size must be a positive integer, got {n}")
        rng = np.random.default_rng(seed)
        idx = rng.choice(self.mixing.n_atoms, size=n, p=self.mixing.weights)
        return self.mixing.locations[idx] + rng.standard_normal((n, self.dim))


class _Batch:
    """The atoms of m mixtures padded to one count, row i for mixture i: the density kernel's input.

    locations (m, k, d) and weights (m, k) hold each mixture's validated
    atoms (`validate_atoms`) and then its pads, counts[i] real atoms in row
    i.  A pad has location 0, weight 0 and log-weight -inf, and sits after
    the real atoms, so it adds an exact 0 to every sum over a row's atoms in
    atom order and never wins a max.  Formed once, when the batch is built:
    real (weight > 0), counts, logw (log w, -inf on a pad), radii ||a_j||,
    s_max (each row's largest radius) and the kernel's offsets
    c_j = log w_j - ||a_j||^2 / 2 (-inf on a pad).  `of` pads a list of
    `GaussianMixture`s, and batch[rows] is the batch of those rows, its
    arrays sliced rather than formed again, so a row has the bits of its
    mixture's own one-row batch.  A slice gathers an array at its first
    read, so a caller that reads three arrays gathers three.
    """

    def __init__(self, locations, weights):
        self.locations, self.weights = locations, weights
        self.real = weights > 0
        self.counts = self.real.sum(axis=1)
        self.logw = np.full(weights.shape, -np.inf)
        self.logw[self.real] = np.log(weights[self.real])
        square = np.add.reduce(locations * locations, axis=2)
        self.offsets = self.logw - 0.5 * square
        self.radii = np.sqrt(square)
        self.s_max = self.radii.max(axis=1)

    @classmethod
    def of(cls, mixtures) -> _Batch:
        """The batch of a list of `GaussianMixture`s."""
        counts = [gm.mixing.n_atoms for gm in mixtures]
        m, k, d = len(mixtures), max(counts), mixtures[0].dim
        rows = np.repeat(np.arange(m), counts)
        cols = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
        locations, weights = np.zeros((m, k, d)), np.zeros((m, k))
        locations[rows, cols] = np.concatenate([gm.mixing.locations for gm in mixtures])
        weights[rows, cols] = np.concatenate([gm.mixing.weights for gm in mixtures])
        return cls(locations, weights)

    def __getitem__(self, rows) -> _Batch:
        return _Rows(self, rows)


class _Rows(_Batch):
    """batch[rows]: each array is gathered from the batch at its first read."""

    def __init__(self, batch, rows):
        self._batch, self._rows = batch, rows

    def __getattr__(self, name):
        return self.__dict__.setdefault(name, getattr(self._batch, name)[self._rows])


def _block_logits(batches, pts, counts=None):
    """Per part of a block of nodes: its output index, its nodes, and each batch's exp(logits - m) and column max m.

    batches: `_Batch`es of m mixtures each (p's and q's for the pair pass),
             every batch read at the same nodes;
    pts:     (n, d) nodes, in one of two layouts:
             segments (counts given): the first counts[0] nodes for
             mixture 0, the next counts[1] for mixture 1, and so on
             (sum(counts) = n); a block is _BLOCK nodes and an index is a
             slice of the n outputs;
             shared (counts None): every mixture at every node; an index is
             (a mixture or a group of them, nodes) of the (m, n) output.

    The logits of a node are c_j + a_j . x over the atoms of its mixture.
    In d >= 2 a part is one mixture's nodes in a block and its logits are
    (real atoms, nodes), so its bits do not depend on the other mixtures of
    the call.  In d = 1 a part is the whole block: its logits are (k, nodes)
    in segments, k the block's largest real count, with -inf on the rows a
    mixture lacks, and (k, mixtures, nodes) for a group of at most _BLOCK
    (mixture, node) pairs, unless one mixture's nodes are more, in the
    shared layout.  Both layouts cut the nodes at multiples of _BLOCK, as a
    one-mixture call does, so in d >= 2 no part is a lone node that the
    mixture's own call would not have (numpy sends a one-column product
    through a matrix-vector routine, which may round differently).  The
    batches' logits of a part come from a generator, so a caller that
    reduces one batch before it takes the next holds one batch's logits at
    a time.
    """
    n, d = pts.shape
    ends = None if counts is None else list(itertools.accumulate(counts))
    shared = lambda rows: rows.T[:, :, None]  # noqa: E731  (g, k) -> (k, g, 1), broadcast over the nodes
    for lo in range(0, n, _BLOCK):
        blk = pts[lo : lo + _BLOCK]
        hi = lo + blk.shape[0]
        if ends is None:
            size = 1 if d > 1 else max(1, _BLOCK // (hi - lo))
            for i in range(0, batches[0].counts.size, size):
                own = i if d > 1 else slice(i, i + size)
                yield (own, slice(lo, hi)), blk, (_logits(b, own, blk, shared) for b in batches)
            continue
        # mixtures first..last own the nodes of this block, each its columns a:b
        first, last = bisect.bisect_right(ends, lo), bisect.bisect_right(ends, hi - 1)
        seg_ends = np.array(ends[first : last + 1])
        a = np.maximum(seg_ends - counts[first : last + 1], lo) - lo
        b = np.minimum(seg_ends, hi) - lo
        if d > 1:
            for j, i, k in zip(range(first, last + 1), a.tolist(), b.tolist()):
                yield slice(lo + i, lo + k), blk[i:k], (_logits(batch, j, blk[i:k]) for batch in batches)
            continue
        spread = lambda rows: np.repeat(rows.T, b - a, axis=1)  # noqa: E731
        yield slice(lo, hi), blk, (_logits(batch, slice(first, last + 1), blk, spread) for batch in batches)


def _logits(batch, at, nodes, spread=None):
    """exp(logits - m) and the column max m of one batch at one part of `_block_logits`.

    at:     the part's mixture (d >= 2) or mixtures (d = 1);
    spread: (mixtures, k) rows to the atom-major logits shape (d = 1).
    """
    if nodes.shape[1] > 1:
        # one GEMM over the mixture's own real atoms (the gather that d = 1
        # takes, summed over d coordinates, is slower here)
        k = batch.counts[at]
        logits = batch.locations[at, :k] @ nodes.T
        logits += batch.offsets[at, :k, None]
    else:
        # the atoms of each node's mixture times the node: the GEMM's own
        # products, and several times faster than a GEMM of inner dimension 1
        k = batch.counts[at].max()
        logits = spread(batch.locations[at, :k, 0]) * nodes[:, 0]
        logits += spread(batch.offsets[at, :k])
    m = logits.max(axis=0)
    logits -= m
    np.exp(logits, out=logits)
    return logits, m


def log_densities(batches, pts, counts=None) -> list[np.ndarray]:
    """Log-densities of each batch's mixtures, one output per batch, from one walk over the blocks.

    The arguments are those of `_block_logits`: with counts, mixture i of
    each batch at the i-th segment of the nodes, an (n,) output; without,
    every mixture at every node, an (m, n) output.  The blocks' segments are
    found and ||x||^2 is formed once for every batch.  A mixture's output is
    its own `GaussianMixture.log_density` bit for bit, whatever the other
    mixtures and batches, as long as none of its parts in a block of _BLOCK
    nodes is a lone node that its own call would not have (numpy sends a
    one-column product through a matrix-vector routine, which may round
    differently in d >= 2).
    """
    n, d = pts.shape
    outs = [np.empty(n if counts is not None else (batch.counts.size, n)) for batch in batches]
    for at, blk, logits in _block_logits(batches, pts, counts):
        half = blk[:, 0] * blk[:, 0]
        for i in range(1, d):
            half += blk[:, i] * blk[:, i]
        half *= 0.5
        for out in outs:
            # one batch's logits at a time: they are freed before the next batch's are formed
            _reduce(out[at], half, *next(logits))
    for out in outs:
        out -= 0.5 * d * LOG_2PI
    return outs


def _reduce(res, half, u, m):
    """res = log(the sum of u's rows, in atom order) + m - half."""
    total = u[0]
    for row in u[1:]:
        total += row
    np.log(total, out=res)
    res += m
    res -= half


def row_sums(values, counts) -> np.ndarray:
    """Per row i, the sum of values[i, :counts[i]], in the bits of that slice's own `sum()`.

    Rows are summed one count at a time, as a contiguous (rows, count)
    block, which numpy sums row by row exactly as it sums a 1-d array; a
    row summed with its trailing zeros can round differently.
    """
    counts = np.asarray(counts)
    if np.all(counts == values.shape[1]):
        return values.sum(axis=1)
    out = np.empty(counts.size)
    for c in np.flatnonzero(np.bincount(counts)):
        rows = np.flatnonzero(counts == c)
        out[rows] = values[rows, :c].sum(axis=1)
    return out


def validate_atoms(locations, weights, counts, tag: ClassTag) -> np.ndarray:
    """Check m mixing distributions of one class; return their weights normalized.

    locations and weights are in the padded-atom format of `_Batch`, row i
    holding counts[i] real atoms.  Each check runs over every row, and the first row that fails it raises
    the ValueError that `MixingDistribution` raises for that row alone:
    finite locations, finite and strictly positive weights summing to 1
    within WEIGHT_TOL, then the class condition (atom radii within M, or
    the step-tail bound of `subgaussian_check`).  Each row is divided by
    its own sum, as `MixingDistribution` does, so the weights it returns are
    those of each row's `MixingDistribution` bit for bit.
    """
    counts = np.asarray(counts)
    real = np.arange(weights.shape[1]) < counts[:, None]
    if not np.isfinite(locations).all():
        raise ValueError("atom locations must be finite")
    # a NaN fails the minimum test, an infinite weight makes the sum infinite
    total = row_sums(weights, counts)
    lightest = np.where(real, weights, np.inf).min(axis=1)
    if not np.all((lightest > 0) & np.isfinite(total)):
        raise ValueError("weights must be finite and strictly positive")
    off = np.abs(total - 1.0) > WEIGHT_TOL
    if off.any():
        raise ValueError(f"weights sum to {total[np.argmax(off)]!r}, beyond tolerance {WEIGHT_TOL}")
    w = weights / total[:, None]
    if isinstance(tag, Compact):
        max_r = np.sqrt(np.sum(locations**2, axis=2)).max(axis=1)
        outside = max_r > tag.M * (1.0 + _RADIUS_SLACK)
        if outside.any():
            raise ValueError(
                f"atom at radius {max_r[np.argmax(outside)]} lies outside the Compact({tag.M}) ball"
            )
    elif isinstance(tag, Subgaussian):
        radii = np.sqrt(np.sum(locations**2, axis=2))
        if not _step_tails_hold(radii, w, real, tag.K).all():
            raise ValueError(f"atoms violate the {tag.K}-subgaussian step-tail bound")
    return w


def _step_tails_hold(radii, weights, real, K) -> np.ndarray:
    """Per row, whether its atoms (`real`) meet the step-tail bound at level K.

    Atoms go by decreasing radius, ties in atom order and pads last; the
    tail at radius s is the cumulative weight at the last atom of radius s.
    """
    order = np.argsort(np.where(real, -radii, np.inf), axis=1, kind="stable")
    at = np.arange(radii.shape[0])[:, None], order
    r = radii[at]
    tails = np.cumsum(weights[at], axis=1)
    last = np.ones(r.shape, dtype=bool)
    last[:, :-1] = r[:, 1:] != r[:, :-1]
    last &= (r > 0) & real[at]
    held = np.log(tails) <= -r * r / (2.0 * K * K) + _RADIUS_SLACK
    return np.all(held | ~last, axis=1)


def subgaussian_check(m: MixingDistribution, K: float) -> bool:
    """Step-tail subgaussian test at level K.

    For a finite atomic law the tail t -> P[||X|| > t] is a step function, so
    checking just below each atom radius s (total weight at radius >= s
    against exp(-s^2 / (2 K^2))) is exact.  Comparison runs in log domain
    with a small relative slack for norm rounding.  `validate_atoms` runs
    the same test on many mixtures at once.
    """
    if not (K > 0):
        raise HypothesisError(f"subgaussian level must be positive, got K={K}")
    real = np.ones((1, m.n_atoms), dtype=bool)
    return bool(_step_tails_hold(m.radii[None], m.weights[None], real, K)[0])


@dataclass(frozen=True)
class DichotomyParams:
    """Parameters of the two-atom blow-up family; h_r is derived, not free."""

    K: float
    r: float
    h_r: float = field(init=False)

    def __post_init__(self):
        if not (self.K > 1):
            raise HypothesisError(f"dichotomy regime needs K > 1, got K={self.K}")
        if not (self.r > 1):
            raise HypothesisError(f"dichotomy regime needs r > 1, got r={self.r}")
        object.__setattr__(self, "h_r", math.exp(-self.r * self.r / (2.0 * self.K * self.K)))


def dichotomy_family(K: float, r: float) -> MixingDistribution:
    """Two-atom family (1 - h_r) delta_0 + h_r delta_r with h_r = exp(-r^2/(2K^2)).

    Drives the KL / Hellinger-squared ratio to infinity as r grows whenever
    K > 1; the output is K-subgaussian with equality in the step tail at t=r.
    """
    h_r = DichotomyParams(K, r).h_r
    if h_r <= 0.0:
        raise HypothesisError(
            f"tail weight exp(-r^2/(2K^2)) underflows double precision at K={K}, r={r}"
        )
    return MixingDistribution(
        np.array([[0.0], [r]]),
        np.array([1.0 - h_r, h_r]),
        Subgaussian(K),
    )


# -- serialization -----------------------------------------------------------

# each class tag's record name, class and parameters, in both directions
_TAGS = {"compact": (Compact, ("M",)), "subgaussian": (Subgaussian, ("K",)), "unconstrained": (Unconstrained, ())}


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def mixture_to_record(m: MixingDistribution) -> dict:
    """Structured record {dim, atoms, class_tag, params}; field order fixed."""
    tag = m.tag
    name, names = next((name, names) for name, (cls, names) in _TAGS.items() if type(tag) is cls)
    return {
        "dim": m.dim,
        "atoms": [[list(map(float, loc)), float(w)] for loc, w in zip(m.locations, m.weights)],
        "class_tag": name,
        "params": {p: getattr(tag, p) for p in names},
    }


def mixture_from_record(rec: dict) -> MixingDistribution:
    """Inverse of mixture_to_record; validates the record shape.

    dim is an integer, and params holds exactly the class tag's parameters,
    each a real number.
    """
    required = {"dim", "atoms", "class_tag", "params"}
    missing = required - set(rec)
    if missing:
        raise ValueError(f"mixture record missing fields: {sorted(missing)}")
    unknown = set(rec) - required
    if unknown:
        raise ValueError(f"mixture record has unknown fields: {sorted(unknown)}")
    dim = rec["dim"]
    if not (isinstance(dim, numbers.Integral) and _is_real(dim)):
        raise ValueError(f"mixture record dim must be an integer, got {dim!r}")
    locs = np.array([a[0] for a in rec["atoms"]], dtype=float)
    weights = np.array([a[1] for a in rec["atoms"]], dtype=float)
    if locs.ndim != 2 or locs.shape[1] != dim:
        raise ValueError("atom locations do not match the declared dimension")
    name, params = rec["class_tag"], rec["params"]
    if name not in _TAGS:
        raise ValueError(f"unknown class_tag {name!r}")
    cls, names = _TAGS[name]
    if not (isinstance(params, dict) and set(params) == set(names) and all(map(_is_real, params.values()))):
        raise ValueError(f"class_tag {name!r} takes params {list(names)}, each a number, got {params!r}")
    tag = cls(**{p: float(params[p]) for p in names})
    return MixingDistribution(locs, weights, tag)
