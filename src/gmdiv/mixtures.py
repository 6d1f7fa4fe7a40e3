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
passes over contiguous rows of length n rather than n short reductions.
The score is the softmax of the same logits applied to the atoms, minus x;
-||x||^2 / 2 cancels in the softmax and never enters.  Points are processed
in blocks of _BLOCK, so no (k, n) temporary is larger than _BLOCK * k
doubles whatever n is.  Class tags (Compact / Subgaussian /
Unconstrained) record which tail certificates are available downstream.
"""

from __future__ import annotations

import math
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

# Points per block in log_density and score: bounds every (k, n) temporary
# at _BLOCK * k doubles (4 MB at k = 64).
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
        if not np.all(np.isfinite(locs)):
            raise ValueError("atom locations must be finite")
        if w.shape != (locs.shape[0],):
            raise ValueError(
                f"weights shape {w.shape} does not match {locs.shape[0]} atoms"
            )
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ValueError("weights must be finite and strictly positive")
        total = w.sum()
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights sum to {total!r}, beyond tolerance {WEIGHT_TOL}")
        w = w / total
        locs = np.ascontiguousarray(locs)
        locs.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "weights", w)
        self._validate_tag()

    def _validate_tag(self):
        tag = self.tag
        if isinstance(tag, Compact):
            max_r = float(self.radii.max())
            if max_r > tag.M * (1.0 + _RADIUS_SLACK):
                raise ValueError(
                    f"atom at radius {max_r} lies outside the Compact({tag.M}) ball"
                )
        elif isinstance(tag, Subgaussian):
            if not subgaussian_check(self, tag.K):
                raise ValueError(
                    f"atoms violate the {tag.K}-subgaussian step-tail bound"
                )

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
        locs = mixing.locations
        self._const = (np.log(mixing.weights) - 0.5 * np.sum(locs * locs, axis=1))[:, None]

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

    def _log_kernel(self, pts: np.ndarray) -> np.ndarray:
        # (k, n) array of log w_j - ||a_j||^2 / 2 + a_j . x, which is
        # log w_j - ||x - a_j||^2 / 2 shifted by ||x||^2 / 2 in each column
        logits = self.mixing.locations @ pts.T
        logits += self._const
        return logits

    def _softmax_shifted(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # exp(logits - column max), computed in place, and the column max
        u = self._log_kernel(pts)
        m = u.max(axis=0)
        u -= m
        np.exp(u, out=u)
        return u, m

    def log_density(self, x):
        """log p(x), finite for every finite x.

        Accepts a single point of shape (d,) or a batch of shape (n, d).
        """
        pts, single = self._as_points(x)
        out = np.empty(pts.shape[0])
        for start in range(0, pts.shape[0], _BLOCK):
            blk = pts[start : start + _BLOCK]
            res = out[start : start + _BLOCK]
            u, m = self._softmax_shifted(blk)
            np.log(u.sum(axis=0), out=res)
            res += m
            sq = blk[:, 0] * blk[:, 0]
            for i in range(1, self.dim):
                sq += blk[:, i] * blk[:, i]
            res -= 0.5 * sq
        out -= 0.5 * self.dim * LOG_2PI
        return float(out[0]) if single else out

    def score(self, x):
        """Gradient of log p: sum_j u_j a_j - x, with u the softmax of the logits."""
        pts, single = self._as_points(x)
        out = np.empty(pts.shape)
        for start in range(0, pts.shape[0], _BLOCK):
            blk = pts[start : start + _BLOCK]
            u, _ = self._softmax_shifted(blk)
            u /= u.sum(axis=0)
            np.subtract((self.mixing.locations.T @ u).T, blk, out=out[start : start + _BLOCK])
        return out[0] if single else out

    def sample(self, n: int, seed: int) -> np.ndarray:
        """n iid draws; deterministic given the seed."""
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"sample size must be a positive integer, got {n}")
        rng = np.random.default_rng(seed)
        idx = rng.choice(self.mixing.n_atoms, size=n, p=self.mixing.weights)
        return self.mixing.locations[idx] + rng.standard_normal((n, self.dim))


def subgaussian_check(m: MixingDistribution, K: float) -> bool:
    """Step-tail subgaussian test at level K.

    For a finite atomic law the tail t -> P[||X|| > t] is a step function, so
    checking just below each atom radius s (total weight at radius >= s
    against exp(-s^2 / (2 K^2))) is exact.  Comparison runs in log domain
    with a small relative slack for norm rounding.
    """
    if not (K > 0):
        raise HypothesisError(f"subgaussian level must be positive, got K={K}")
    radii = m.radii
    for s in np.unique(radii):
        if s <= 0:
            continue
        tail = float(m.weights[radii >= s].sum())
        if math.log(tail) > -s * s / (2.0 * K * K) + _RADIUS_SLACK:
            return False
    return True


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

_TAG_NAMES = {Compact: "compact", Subgaussian: "subgaussian", Unconstrained: "unconstrained"}


def mixture_to_record(m: MixingDistribution) -> dict:
    """Structured record {dim, atoms, class_tag, params}; field order fixed."""
    tag = m.tag
    if isinstance(tag, Compact):
        params = {"M": tag.M}
    elif isinstance(tag, Subgaussian):
        params = {"K": tag.K}
    else:
        params = {}
    return {
        "dim": m.dim,
        "atoms": [[list(map(float, loc)), float(w)] for loc, w in zip(m.locations, m.weights)],
        "class_tag": _TAG_NAMES[type(tag)],
        "params": params,
    }


def mixture_from_record(rec: dict) -> MixingDistribution:
    """Inverse of mixture_to_record; validates the record shape."""
    required = {"dim", "atoms", "class_tag", "params"}
    missing = required - set(rec)
    if missing:
        raise ValueError(f"mixture record missing fields: {sorted(missing)}")
    unknown = set(rec) - required
    if unknown:
        raise ValueError(f"mixture record has unknown fields: {sorted(unknown)}")
    dim = int(rec["dim"])
    locs = np.array([a[0] for a in rec["atoms"]], dtype=float)
    weights = np.array([a[1] for a in rec["atoms"]], dtype=float)
    if locs.ndim != 2 or locs.shape[1] != dim:
        raise ValueError("atom locations do not match the declared dimension")
    name = rec["class_tag"]
    params = rec["params"]
    if name == "compact":
        tag: ClassTag = Compact(float(params["M"]))
    elif name == "subgaussian":
        tag = Subgaussian(float(params["K"]))
    elif name == "unconstrained":
        tag = Unconstrained()
    else:
        raise ValueError(f"unknown class_tag {name!r}")
    return MixingDistribution(locs, weights, tag)
