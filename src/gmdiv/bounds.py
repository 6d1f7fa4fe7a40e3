"""Closed-form comparison bounds and randomized verification sweeps.

Every comparison inequality between divergences of Gaussian mixtures that
this package tracks has an identifier in `BoundId`; `bound_rhs` evaluates
the right-hand side exactly as printed in its source statement, and
`verify_sweep` draws seeded random mixture pairs from the matching class
and checks lhs <= rhs instance by instance, with slack derived from the
certified truncation bounds so a quadrature artifact can never produce a
false failure.

Each bound is one `_BOUNDS` row: its symbols, its right-hand side (called
by name with them, checking its own argument), its class hypothesis
(M >= 2 for Thm1, 0 < K < 1 for Thm3, ...), its sweep (the family class,
the kinds integrated per pair, the lhs and rhs-argument kinds and the
dimensions it holds in) and, for ChiSqThm, its log-domain right-hand
side.  `bound_rhs`, `bound_rhs_log` and the sweeps read the same row; a
sweep checks the class once and binds its parameters into the row's
formula, so each instance checks only its own argument.
"""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# a sweep integrates all its pairs in one `_compute_pairs` call;
# `_compute_divergences` stays bound here because perfbench's tracer wraps
# it by this name
from .divergences import DivergenceKind, _compute_divergences, _compute_pairs  # noqa: F401
from .errors import CapabilityError, HypothesisError
from .mixtures import (
    ClassTag,
    Compact,
    DichotomyParams,
    GaussianMixture,
    MixingDistribution,
    Subgaussian,
    _Batch,
    row_sums,
    validate_atoms,
)
from .textio import format_float, write_csv

# The proof of the dimension-free compact bound ends with this constant in
# front of M^2 H^2; the statement uses 200, which is what sweeps test.
THM2_PROOF_CONSTANT = 97.0


class BoundId(enum.Enum):
    Thm1 = "Thm1"
    Thm2 = "Thm2"
    Thm3 = "Thm3"
    Thm5 = "Thm5"
    ChiSqThm = "ChiSqThm"
    TVfromL2 = "TVfromL2"
    L2fromTV = "L2fromTV"
    HO = "HO"
    DichotomyKL_LB = "DichotomyKL_LB"
    DichotomyH2_UB = "DichotomyH2_UB"
    LemFormula = "LemFormula"


_KL, _H2, _CHI2 = DivergenceKind.KL, DivergenceKind.HellingerSq, DivergenceKind.ChiSq
_TV, _L2 = DivergenceKind.TV, DivergenceKind.L2Sq


def _check_h2(h2: float, upper: float = 2.0):
    if not (0.0 < h2 <= upper):
        raise HypothesisError(f"H^2 must lie in (0, {upper}], got {h2}")


# -- right-hand sides, each checking its own argument ----------------------------


def _thm1(M, d, h2):
    _check_h2(h2)
    return 5154.0 * max(M * M, d) * h2


def _thm2(M, h2):
    _check_h2(h2)
    return 200.0 * M * M * h2 + 16.0 * h2 * math.log(1.0 / h2)


def _thm3(K, d, h2):
    _check_h2(h2)
    return 1660056.0 * max(1.0 / (1.0 - K) ** 3, 8.0 * d**3) * h2


def _thm5(K, h2):
    _check_h2(h2, upper=4.0)
    return (10240.0 * K**4 + 652.0) * h2 * math.log(4.0 / h2)


def _chisq_log(M, d, h2):
    _check_h2(h2)
    return math.log(2.0) + 50.0 * max(M * M, d) + math.log(h2)


def _chisq(M, d, h2):
    # 2 e^(50 max(M^2, d)) overflows a double once M >= 4
    log_rhs = _chisq_log(M, d, h2)
    return math.exp(log_rhs) if log_rhs < 709.0 else math.inf


def _tv_from_l2(M, l2):
    if not (0 < l2 < 1):
        raise HypothesisError(f"TVfromL2 requires 0 < ||p-q||_2 < 1, got {l2}")
    return (8.0 * math.sqrt(M) + 2.0 * math.log(1.0 / l2) ** 0.25) * l2


def _l2_from_tv(tv):
    if not (0 < tv <= 1):
        raise HypothesisError(f"L2fromTV requires 0 < TV <= 1, got {tv}")
    return max(math.log(1.0 / tv) ** 0.25, 3.0) * tv


def ho_bound(delta: float, lam: float, h2: float, renyi: float) -> float:
    """Change-of-measure assembly bounding KL by H^2 plus a power integral.

    Value: 2 log(1/d)/(1-d)^2 * h2 + 4 d log(1/d)/(1-d)^2 + d^((lam-1)/2) * renyi.
    Requires 0 < delta < e^(-1/2), lam > 1, and the compatibility condition
    loglog(1/delta)/log(1/delta) <= (lam-1)/2 (automatic for lam = 3 and
    any delta < 1/2).
    """
    if not (0.0 < delta < math.exp(-0.5)):
        raise HypothesisError(
            f"delta must lie in (0, e^(-1/2)) ~ (0, 0.6065), got {delta}"
        )
    if not (lam > 1):
        raise HypothesisError(f"lambda must exceed 1, got {lam}")
    big_l = math.log(1.0 / delta)
    if math.log(big_l) / big_l > (lam - 1.0) / 2.0:
        raise HypothesisError(
            f"condition loglog(1/delta)/log(1/delta) <= (lambda-1)/2 fails for "
            f"delta={delta}, lambda={lam}"
        )
    denom = (1.0 - delta) ** 2
    return 2.0 * big_l / denom * h2 + 4.0 * delta * big_l / denom + delta ** (
        (lam - 1.0) / 2.0
    ) * renyi


def lambda_star(K: float) -> float:
    """The exponent with lam*(lam-1) = 1/(4K^2): lam = (1 + sqrt(1 + 1/K^2))/2."""
    if not (K > 0):
        raise HypothesisError(f"K must be positive, got {K}")
    return 0.5 * (1.0 + math.sqrt(1.0 + 1.0 / (K * K)))


def delta_star(lam: float, h2: float) -> float:
    """delta = (h2/4)^(max(8/(lam-1)^2, 1)); satisfies delta <= h2/4 <= 1/2."""
    if not (lam > 1):
        raise HypothesisError(f"lambda must exceed 1, got {lam}")
    _check_h2(h2)
    return (h2 / 4.0) ** max(8.0 / (lam - 1.0) ** 2, 1.0)


@dataclass(frozen=True)
class DichotomyBoundValues:
    kl_lb: float
    h2_ub: float


def dichotomy_bounds(params: DichotomyParams) -> DichotomyBoundValues:
    """One-sided certificates for the two-atom family against N(0,1):

    KL >= (r^2/10 - r^2/(10 K^2) - 3/10) h_r,  H^2 <= (2 + 2r) h_r.
    """
    K, r, h_r = params.K, params.r, params.h_r
    kl_lb = (r * r / 10.0 - r * r / (10.0 * K * K) - 0.3) * h_r
    h2_ub = (2.0 + 2.0 * r) * h_r
    return DichotomyBoundValues(kl_lb=kl_lb, h2_ub=h2_ub)


@dataclass(frozen=True)
class LemFormulaGap:
    lhs: float
    rhs: float
    g: float
    log_lhs: float
    log_rhs: float


def lem_formula_gap(t: float | None = None, M: float = 1.0, log_t: float | None = None):
    """Both sides of  t log t - t + 1 <= 9 M^2 (sqrt(t) - 1)^2  on [0, e^(8M^2)].

    Also exposes g(t) = lhs / (sqrt(t)-1)^2 (NaN at t = 1), which is
    non-decreasing in t.  Supply log_t instead of t to stay in log domain
    when t would overflow; lhs/rhs are then +inf but g and the log fields
    remain exact.
    """
    if (t is None) == (log_t is None):
        raise ValueError("supply exactly one of t, log_t")
    if not (M >= 1):
        raise HypothesisError(f"the t log t inequality requires M >= 1, got M={M}")
    cap = 8.0 * M * M
    if log_t is not None:
        if not (log_t <= cap):
            raise HypothesisError(f"log t = {log_t} exceeds the hypothesis cap 8M^2 = {cap}")
        lt = float(log_t)
        t = math.exp(lt) if lt < 700.0 else math.inf
    else:
        if not (t >= 0):
            raise HypothesisError(f"t must be nonnegative, got {t}")
        if t > 0 and math.log(t) > cap * (1.0 + 1e-12):
            raise HypothesisError(f"t = {t} exceeds the hypothesis cap exp(8M^2)")
        lt = math.log(t) if t > 0 else -math.inf

    if t == 0.0:
        lhs, sq = 1.0, 1.0
        log_lhs, log_sq = 0.0, 0.0
    elif math.isfinite(t):
        s = t - 1.0
        lhs = (1.0 + s) * math.log1p(s) - s
        root = math.sqrt(t)
        sq = (s / (root + 1.0)) ** 2
        log_lhs = math.log(lhs) if lhs > 0 else -math.inf
        log_sq = math.log(sq) if sq > 0 else -math.inf
    else:
        # t too large for a double: lhs ~ t(log t - 1), (sqrt t - 1)^2 ~ t
        lhs = math.inf
        sq = math.inf
        log_lhs = lt + math.log(lt - 1.0)
        log_sq = lt + 2.0 * math.log1p(-math.exp(-0.5 * lt))
    rhs = 9.0 * M * M * sq
    log_rhs = math.log(9.0 * M * M) + log_sq
    g = math.nan if t == 1.0 else (lhs / sq if math.isfinite(lhs) else math.exp(log_lhs - log_sq))
    return LemFormulaGap(lhs=lhs, rhs=rhs, g=g, log_lhs=log_lhs, log_rhs=log_rhs)


class _Sweep(NamedTuple):
    """What a sweep of a comparison bound integrates and compares."""

    family: type | None  # the family class it requires; None: Compact or Subgaussian
    kinds: tuple  # the kinds integrated per pair
    lhs: DivergenceKind  # the kind on the left-hand side
    arg: DivergenceKind  # the kind whose value is the rhs argument, the symbol arg.value (L2 as ||p - q||_2)
    dims: tuple | None = None  # the dimensions the bound holds in; None: every d


class _Bound(NamedTuple):
    """One bound: everything `bound_rhs`, `bound_rhs_log` and the sweeps know of it."""

    symbols: tuple  # the parameters of its statement, exactly
    rhs: Callable  # its right-hand side, called by name with the symbols
    hypothesis: tuple | None = None  # (name, lower, upper): name >= lower, or lower < name < upper
    sweep: _Sweep | None = None  # None: not sweepable
    log_rhs: Callable | None = None  # log of rhs, exact where rhs overflows a double


_BOUNDS = {
    BoundId.Thm1: _Bound(("M", "d", "h2"), _thm1, ("M", 2, None), _Sweep(Compact, (_KL, _H2), _KL, _H2)),
    BoundId.Thm2: _Bound(("M", "h2"), _thm2, ("M", 1, None), _Sweep(Compact, (_KL, _H2), _KL, _H2)),
    BoundId.Thm3: _Bound(("K", "d", "h2"), _thm3, ("K", 0, 1), _Sweep(Subgaussian, (_KL, _H2), _KL, _H2)),
    BoundId.Thm5: _Bound(("K", "h2"), _thm5, ("K", 0, None), _Sweep(Subgaussian, (_KL, _H2), _KL, _H2)),
    BoundId.ChiSqThm: _Bound(
        ("M", "d", "h2"), _chisq, ("M", 2, None), _Sweep(Compact, (_KL, _H2, _CHI2), _CHI2, _H2), _chisq_log
    ),
    BoundId.TVfromL2: _Bound(
        ("M", "l2"), _tv_from_l2, ("M", 1, None), _Sweep(Compact, (_KL, _H2, _TV, _L2), _TV, _L2, (1,))
    ),
    BoundId.L2fromTV: _Bound(("tv",), _l2_from_tv, sweep=_Sweep(None, (_KL, _H2, _TV, _L2), _L2, _TV, (1,))),
    BoundId.HO: _Bound(("delta", "lam", "h2", "renyi"), ho_bound),
    BoundId.DichotomyKL_LB: _Bound(("K", "r"), lambda K, r: dichotomy_bounds(DichotomyParams(K, r)).kl_lb),
    BoundId.DichotomyH2_UB: _Bound(("K", "r"), lambda K, r: dichotomy_bounds(DichotomyParams(K, r)).h2_ub),
    BoundId.LemFormula: _Bound(("t", "M"), lambda t, M: lem_formula_gap(t, M).rhs),
}


def _check_params(bound: BoundId, params: dict) -> _Bound:
    """Require exactly the symbols of the bound, then its class hypothesis; return its row."""
    row = _BOUNDS[bound]
    if set(params) != set(row.symbols):
        raise ValueError(f"{bound.value} takes parameters {sorted(row.symbols)}, got {sorted(params)}")
    if row.hypothesis is not None:
        name, lower, upper = row.hypothesis
        x = params[name]
        if upper is None:
            holds, statement = x >= lower, f"{name} >= {lower}"
        else:
            holds, statement = lower < x < upper, f"{lower} < {name} < {upper}"
        if not holds:
            raise HypothesisError(f"{bound.value} requires {statement}, got {name}={x}")
    return row


def bound_rhs(bound, **params) -> float:
    """Right-hand side of the identified bound, exactly as stated.

    Each id takes exactly the symbols of its statement (M, d, K, h2, tv,
    l2, ...); out-of-range parameters raise HypothesisError naming the
    violated hypothesis.  ChiSqThm overflows float64 once M >= 4; use
    bound_rhs_log for that comparison.
    """
    return _check_params(BoundId(bound), params).rhs(**params)


def bound_rhs_log(bound, **params) -> float:
    """Natural log of bound_rhs; exact in log domain for ChiSqThm."""
    row = _check_params(BoundId(bound), params)
    if row.log_rhs is not None:
        return row.log_rhs(**params)
    value = row.rhs(**params)
    return -math.inf if value <= 0 else math.log(value)


# -- randomized verification sweeps ---------------------------------------------


@dataclass(frozen=True)
class InstanceFamily:
    """Random-instance family for a sweep: class tag, dimension, atom budget."""

    tag: ClassTag
    d: int = 1
    max_atoms: int = 8

    def __post_init__(self):
        # max_atoms is an array dimension of the sweep's draw
        for name in ("d", "max_atoms"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if not (1 <= self.max_atoms <= 64):
            raise ValueError(f"max_atoms must lie in [1, 64], got {self.max_atoms}")


@dataclass(frozen=True)
class SweepInstance:
    seed: int
    index: int
    params: dict
    lhs: float
    rhs: float
    ratio: float
    passed: bool
    kl_ge_h2: bool
    chi2_ge_kl: bool | None
    quadrature_points: int


@dataclass(frozen=True)
class SweepReport:
    bound: BoundId
    seed: int
    instances: list[SweepInstance] = field(repr=False)
    max_ratio: float
    argmax_index: int
    failures: int
    ordering_failures: int

    CSV_HEADER = (
        "seed",
        "index",
        "M",
        "K",
        "d",
        "natoms_p",
        "natoms_q",
        "lhs",
        "rhs",
        "ratio",
        "pass",
    )

    def csv_rows(self):
        for inst in self.instances:
            p = inst.params
            yield (
                inst.seed,
                inst.index,
                "" if p.get("M") is None else format_float(p["M"]),
                "" if p.get("K") is None else format_float(p["K"]),
                p["d"],
                p["natoms_p"],
                p["natoms_q"],
                inst.lhs,
                inst.rhs,
                inst.ratio,
                inst.passed,
            )

    def write_csv(self, path):
        write_csv(path, self.CSV_HEADER, list(zip(*self.csv_rows())))

    def summary(self) -> dict:
        """The sweep's outcome and cost; argmax_params is None when no ratio is finite.

        Cost is the integrand evaluations of each instance's pair: their
        total and the nearest-rank 50th and 99th percentiles per instance.
        """
        points = sorted(inst.quadrature_points for inst in self.instances)

        def percentile(q):
            return points[max(0, math.ceil(q * len(points)) - 1)] if points else None

        return {
            "bound": self.bound.value,
            "seed": self.seed,
            "n": len(self.instances),
            "failures": self.failures,
            "ordering_failures": self.ordering_failures,
            "max_ratio": self.max_ratio,
            "argmax_index": self.argmax_index,
            "argmax_params": (
                self.instances[self.argmax_index].params if self.argmax_index >= 0 else None
            ),
            "quadrature_points": sum(points),
            "quadrature_points_p50": percentile(0.5),
            "quadrature_points_p99": percentile(0.99),
        }


class _Comparison(NamedTuple):
    """The parts of a sweep's instance check that every pair shares, built once per sweep."""

    bound: BoundId
    sweep: _Sweep  # the bound's row's sweep
    family_params: dict  # M, K and d, as every instance reports them
    rhs: Callable  # the row's rhs with the class parameters bound; takes the rhs argument by name
    log_rhs: Callable | None  # the row's log_rhs, bound alike


def _comparison(bound: BoundId, family: InstanceFamily) -> _Comparison:
    """Check that a sweep of `bound` can run on `family`, and build what its instances share."""
    row = _BOUNDS[bound]
    sweep = row.sweep
    if sweep is None:
        raise HypothesisError(f"{bound.value} is not a sweepable comparison bound")
    tag = family.tag
    if not isinstance(tag, (Compact, Subgaussian)):
        raise HypothesisError("sweep families must be Compact or Subgaussian")
    if sweep.family is not None and not isinstance(tag, sweep.family):
        raise HypothesisError(f"{bound.value} requires a {sweep.family.__name__} family")
    family_params = {
        "M": tag.M if isinstance(tag, Compact) else None,
        "K": tag.K if isinstance(tag, Subgaussian) else None,
        "d": family.d,
    }
    rhs_params = {name: family_params[name] for name in row.symbols if name != sweep.arg.value}
    # the rhs argument comes from the pairs; only the class parameters are checked here
    _check_params(bound, {**rhs_params, sweep.arg.value: None})
    if sweep.dims is not None and family.d not in sweep.dims:
        raise HypothesisError(f"{bound.value} is a one-dimensional comparison")
    if family.d > 3:
        # d > 3 divergences are Monte Carlo estimates with confidence
        # half-widths, so a zero failure count would certify nothing
        raise CapabilityError(f"sweeps need certified quadrature (d <= 3), got d={family.d}")
    log_rhs = row.log_rhs and functools.partial(row.log_rhs, **rhs_params)
    return _Comparison(bound, sweep, family_params, functools.partial(row.rhs, **rhs_params), log_rhs)


class _Atoms(NamedTuple):
    """Mixtures in the padded-atom format of `mixtures._Batch`, row i with counts[i] real atoms."""

    locations: np.ndarray  # (n, k, d)
    weights: np.ndarray  # (n, k)
    counts: np.ndarray  # (n,)


def _draw_pairs(seed: int, indices, family: InstanceFamily) -> _Atoms:
    """The atoms of the sweep instances `indices`, before validation.

    Row j holds the p of instance indices[j] and row n + j its q, for n
    instances.  Instance i draws from `np.random.default_rng([seed, i])`,
    its p first and then its q.  A mixture draws its atom count k uniform in
    [1, max_atoms], then
    - Compact(M): k uniform directions and radii M U^(1/d);
    - Subgaussian(K): an atom at the origin (an atomic K-subgaussian law
      must put mass there) and k - 1 atoms N(0, (K/2)^2 I),
    and Dirichlet(1, ..., 1) weights, floored at 1e-9 and renormalized.
    Subgaussian weights are then repaired outer-to-inner so every
    step-tail constraint holds with margin, the origin takes up the
    remaining mass, and atoms left without weight are dropped.  Every 10th
    instance forces q to the standard Gaussian (the dichotomy-adjacent
    regime) and every 50th (offset 1) sets q = p.

    Each mixture makes the generator calls of a mixture drawn alone, in
    the same order, written into padded arrays: `integers`, then
    `standard_normal` and `random`, then `standard_exponential` where
    `dirichlet` was, its weights computed as numpy computes `dirichlet`
    (the exponentials times the reciprocal of their left-to-right sum).
    Every other sum over a mixture's atoms is `row_sums`, so each mixture
    has the bits it has when drawn alone.
    """
    tag, d, top = family.tag, family.d, family.max_atoms
    n = len(indices)
    counts = np.ones(2 * n, dtype=np.int64)
    normal = np.zeros((2 * n, top, d))
    uniform = np.zeros((2 * n, top))
    expo = np.zeros((2 * n, top))
    drawn = np.zeros(2 * n, dtype=bool)
    compact = isinstance(tag, Compact)
    for i, index in enumerate(indices):
        rng = np.random.default_rng([seed, index])
        for row in (i,) if index % 10 == 0 or index % 50 == 1 else (i, n + i):
            k = counts[row] = int(rng.integers(1, top + 1))
            if compact:
                rng.standard_normal(out=normal[row, :k])
                rng.random(out=uniform[row, :k])
            elif k > 1:
                rng.standard_normal(out=normal[row, 1:k])
            rng.standard_exponential(out=expo[row, :k])
            drawn[row] = True

    real = np.arange(top) < counts[:, None]
    # the left-to-right sums, 1 where nothing was drawn
    total = np.where(drawn, np.cumsum(expo, axis=1)[:, -1], 1.0)
    w = np.where(real, np.maximum(expo * (1.0 / total)[:, None], 1e-9), 0.0)
    w /= row_sums(w, counts)[:, None]
    if compact:
        norms = np.sqrt(np.sum(normal * normal, axis=2))
        norms[norms < 1e-12] = 1.0
        radii = tag.M * uniform ** (1.0 / d)
        locs = normal / norms[..., None] * radii[..., None]
    else:
        locs, w, counts = _repair_subgaussian(normal * (tag.K / 2.0), w, counts, real, tag.K)

    index = np.asarray(indices)
    same = np.flatnonzero(index % 50 == 1)
    locs[n + same], w[n + same], counts[n + same] = locs[same], w[same], counts[same]
    # the standard Gaussian: one atom at the origin, of weight 1
    w[n + np.flatnonzero(index % 10 == 0), 0] = 1.0
    k = counts.max()
    return _Atoms(np.ascontiguousarray(locs[:, :k]), np.ascontiguousarray(w[:, :k]), counts)


def _repair_subgaussian(locs, w, counts, real, K):
    """Cap each Subgaussian draw's weights outer-to-inner under its step tails.

    Per row, atoms at positive radius s go by decreasing s and take weight
    at most exp(-s^2 / (2 K^2)) (1 - 1e-9) less the weight already taken,
    the origin (atom 0) takes up the rest of the unit mass, atoms without
    weight are dropped and the rest renormalized.  The caps are `math.exp`
    of each atom's exponent.
    """
    m, top = w.shape
    radii = np.sqrt(np.sum(locs * locs, axis=2))
    outer = real & (radii > 0)
    exponent = -radii[outer] * radii[outer] / (2.0 * K * K)
    caps = np.zeros((m, top))
    caps[outer] = [math.exp(x) for x in exponent.tolist()]
    caps *= 1.0 - 1e-9
    # outer atoms by decreasing radius, as np.argsort(radii)[::-1] orders a row
    order = np.argsort(np.where(outer, radii, -1.0), axis=1, kind="stable")[:, ::-1]
    rows, cum = np.arange(m), np.zeros(m)
    for j in range(int(np.count_nonzero(outer, axis=1).max(initial=0))):
        at = rows, order[:, j]
        live, wj, cap = outer[at], w[at], caps[at] - cum
        wj = np.where(live & (wj > cap), np.maximum(cap, 0.0), wj)
        w[at] = wj
        cum = np.where(live, cum + wj, cum)
    w[:, 0] += 1.0 - row_sums(w, counts)
    # keep the atoms with weight, in their order, and pad the rest
    keep = real & (w > 0)
    at = rows[:, None], np.argsort(~keep, axis=1, kind="stable")
    counts = np.count_nonzero(keep, axis=1)
    kept = np.arange(top) < counts[:, None]
    locs = np.where(kept[..., None], locs[at], 0.0)
    w = np.where(kept, w[at], 0.0)
    w /= row_sums(w, counts)[:, None]
    return locs, w, counts


def make_pair(seed: int, index: int, family: InstanceFamily):
    """The (p, q) mixture pair of a sweep instance; deterministic in (seed, index).

    It is instance `index` of `_draw_pairs`, the one-instance case of a
    sweep's draw.
    """
    atoms = _draw_pairs(seed, [index], family)
    return tuple(
        GaussianMixture(MixingDistribution(atoms.locations[row, :k], atoms.weights[row, :k], family.tag))
        for row, k in enumerate(atoms.counts)
    )


def _slack(bound_a, bound_b) -> float:
    return 2.0 * (bound_a + bound_b) + 1e-9


def _side(kind, est) -> tuple[float, float]:
    """A comparison side's value and the bound on its error, in the units the bound is stated in.

    The L2 comparisons are stated for ||p - q||_2, the root of the L2^2
    estimate v.  Its bound b goes through the root too: ||p - q||_2 lies in
    [sqrt(max(v - b, 0)), sqrt(v + b)], and the side's bound is the larger
    distance from sqrt(v) to an end.
    """
    if kind is not _L2:
        return est.value, est.truncation_bound
    v, b = max(est.value, 0.0), est.truncation_bound
    root = math.sqrt(v)
    return root, max(math.sqrt(v + b) - root, root - math.sqrt(max(v - b, 0.0)))


def _one_instance(comparison: _Comparison, seed: int, index: int, natoms_p, natoms_q, est):
    """The checked instance of a pair with these atom counts; `est` maps each kind of the sweep to its estimate."""
    kl, h2 = est[_KL], est[_H2]
    params = {**comparison.family_params, "natoms_p": natoms_p, "natoms_q": natoms_q}

    kl_ge_h2 = h2.value <= kl.value + _slack(kl.truncation_bound, h2.truncation_bound)
    chi2_ge_kl = None
    sweep = comparison.sweep
    (lhs, lhs_bound), (arg, arg_bound) = (_side(k, est[k]) for k in (sweep.lhs, sweep.arg))
    slack = _slack(lhs_bound, arg_bound)
    kw = {sweep.arg.value: arg}

    if comparison.bound is BoundId.ChiSqThm:
        # the rhs overflows a double once M >= 4, so compare in the log domain
        chi2_ge_kl = kl.value <= lhs + _slack(lhs_bound, kl.truncation_bound)
        if arg <= 0:
            rhs, passed, ratio = 0.0, lhs <= slack, math.nan
        else:
            log_rhs, rhs = comparison.log_rhs(**kw), comparison.rhs(**kw)
            passed = lhs <= slack or math.log(lhs) <= log_rhs + 1e-12
            ratio = math.exp(math.log(lhs) - log_rhs) if lhs > 0 else 0.0
    else:
        rhs = 0.0 if arg <= 0 else comparison.rhs(**kw)
        passed = lhs <= rhs + slack
        ratio = lhs / rhs if rhs > 0 else math.nan

    return SweepInstance(
        seed=seed,
        index=index,
        params=params,
        lhs=float(lhs),
        rhs=float(rhs),
        ratio=float(ratio),
        passed=bool(passed),
        kl_ge_h2=bool(kl_ge_h2),
        chi2_ge_kl=chi2_ge_kl,
        # every integrated kind of a pair shares its points; L2^2 spends none
        quadrature_points=max(e.quadrature_points for e in est.values()),
    )


def verify_sweep(
    bound,
    family: InstanceFamily,
    n: int,
    seed: int,
    tol: float | None = None,
) -> SweepReport:
    """Check a comparison bound on n seeded random pairs from a family.

    Instance i draws its pair from `default_rng([seed, i])`, exactly as
    `make_pair(seed, i, family)`, but all pairs are drawn as padded arrays
    (`_draw_pairs`) and validated once (`validate_atoms`), and no mixture
    object is built.  All pairs are integrated as one batch
    (`_compute_pairs`) on the calling thread, so the report is
    deterministic across reruns.  A failure means lhs exceeded the stated
    rhs by more than the certified numerical slack.
    """
    bound = BoundId(bound)
    comparison = _comparison(bound, family)
    if n < 1:
        raise ValueError(f"sweep size must be positive, got {n}")

    atoms = _draw_pairs(seed, range(n), family)
    weights = validate_atoms(*atoms, family.tag)
    p_env, q_env = (_Batch(atoms.locations[rows], weights[rows]) for rows in (slice(0, n), slice(n, None)))
    estimates = _compute_pairs(comparison.sweep.kinds, p_env, q_env, (family.tag,), tol)
    counts = atoms.counts.tolist()
    instances = [
        _one_instance(comparison, seed, i, counts[i], counts[n + i], e) for i, e in enumerate(estimates)
    ]

    ratios = [inst.ratio for inst in instances if math.isfinite(inst.ratio)]
    if ratios:
        max_ratio = max(ratios)
        argmax_index = next(
            inst.index for inst in instances if inst.ratio == max_ratio
        )
    else:
        max_ratio, argmax_index = math.nan, -1
    failures = sum(not inst.passed for inst in instances)
    ordering_failures = sum(
        (not inst.kl_ge_h2) + (inst.chi2_ge_kl is False) for inst in instances
    )
    return SweepReport(
        bound=bound,
        seed=seed,
        instances=instances,
        max_ratio=max_ratio,
        argmax_index=argmax_index,
        failures=failures,
        ordering_failures=ordering_failures,
    )
