"""Closed-form comparison bounds and randomized verification sweeps.

Every comparison inequality between divergences of Gaussian mixtures that
this package tracks has an identifier in `BoundId`; `bound_rhs` evaluates
the right-hand side exactly as printed in its source statement, and
`verify_sweep` draws seeded random mixture pairs from the matching class
and checks lhs <= rhs for every instance, with slack derived from the
certified truncation bounds so a quadrature artifact can never produce a
false failure.

Each bound is one `_BOUNDS` row: its symbols, its right-hand side (called
by name with them, checking its own argument), its class hypothesis
(M >= 2 for Thm1, 0 < K < 1 for Thm3, ...), its sweep (the family class,
the kinds integrated per pair, the lhs and rhs-argument kinds and the
dimensions it holds in), for ChiSqThm its log-domain right-hand side,
and for Thm2 and Thm5 the log of a right-hand side too small to be a
normal double, as a sum of logs.  `bound_rhs`, `bound_rhs_log` and the sweeps read the same row; a
sweep checks the class once and binds its parameters into the row's
formula, so each instance checks only its own argument.

A sweep runs as columns over its instances: one pass of numpy's
SeedSequence hash gives every instance's generator state
(`_pcg64_states`), `_compute_pairs` returns each kind's values and bounds
as arrays, and `_check` forms every instance's sides, slacks, passes and
ratios at once.  Each instance is a `SweepInstance` named tuple whose
leading fields are its CSV row.
"""

from __future__ import annotations

import collections
import enum
import functools
import itertools
import math
import operator
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


_SMALLEST_NORMAL = 2.0**-1022


def _log_over(c, x):
    """log(c / x), as log c - log x where c / x overflows a double (x at or near subnormal)."""
    ratio = c / x
    return math.log(ratio) if ratio < math.inf else math.log(c) - math.log(x)


# -- right-hand sides, each checking its own argument ----------------------------


def _thm1(M, d, h2):
    _check_h2(h2)
    return 5154.0 * max(M * M, d) * h2


def _thm2(M, h2):
    # the proof ends with 97 M^2 H^2; the statement uses 200, which is what sweeps test
    _check_h2(h2)
    return 200.0 * M * M * h2 + 16.0 * h2 * _log_over(1.0, h2)


def _thm3(K, d, h2):
    _check_h2(h2)
    return 1660056.0 * max(1.0 / (1.0 - K) ** 3, 8.0 * d**3) * h2


def _thm5(K, h2):
    _check_h2(h2, upper=4.0)
    return (10240.0 * K**4 + 652.0) * h2 * _log_over(4.0, h2)


# The logs of the Thm2 and Thm5 right-hand sides as sums of logs, for an rhs
# that is not a normal double: a subnormal carries too few bits for its log.
def _thm2_log(M, h2):
    return math.log(h2) + math.log(200.0 * M * M + 16.0 * _log_over(1.0, h2))


def _thm5_log(K, h2):
    return math.log(h2) + math.log(10240.0 * K**4 + 652.0) + math.log(_log_over(4.0, h2))


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
    big_l = _log_over(1.0, delta)
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
    tiny_log: Callable | None = None  # log of rhs where rhs is positive but not a normal double


_BOUNDS = {
    BoundId.Thm1: _Bound(("M", "d", "h2"), _thm1, ("M", 2, None), _Sweep(Compact, (_KL, _H2), _KL, _H2)),
    BoundId.Thm2: _Bound(("M", "h2"), _thm2, ("M", 1, None), _Sweep(Compact, (_KL, _H2), _KL, _H2), tiny_log=_thm2_log),
    BoundId.Thm3: _Bound(("K", "d", "h2"), _thm3, ("K", 0, 1), _Sweep(Subgaussian, (_KL, _H2), _KL, _H2)),
    BoundId.Thm5: _Bound(
        ("K", "h2"), _thm5, ("K", 0, None), _Sweep(Subgaussian, (_KL, _H2), _KL, _H2), tiny_log=_thm5_log
    ),
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
    """Natural log of bound_rhs; exact in log domain for ChiSqThm, and for Thm2 and Thm5 where the rhs is subnormal."""
    row = _check_params(BoundId(bound), params)
    if row.log_rhs is not None:
        return row.log_rhs(**params)
    value = row.rhs(**params)
    if 0 < value < _SMALLEST_NORMAL and row.tiny_log is not None:
        return row.tiny_log(**params)
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
        if not isinstance(self.tag, (Compact, Subgaussian)):
            raise HypothesisError("sweep families must be Compact or Subgaussian")


class SweepInstance(NamedTuple):
    """One checked instance of a sweep; its first eleven fields are its CSV row."""

    seed: int
    index: int
    M: float | None  # the family's parameters, None where it lacks one
    K: float | None
    d: int
    natoms_p: int
    natoms_q: int
    lhs: float
    rhs: float
    ratio: float
    passed: bool
    kl_ge_h2: bool
    chi2_ge_kl: bool | None  # None but for ChiSqThm
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

    CSV_HEADER = (*SweepInstance._fields[:10], "pass")

    def write_csv(self, path):
        """One row per instance: its leading fields, M and K "" where the family lacks them."""
        columns = list(zip(*self.instances))[: len(self.CSV_HEADER)]
        columns[2:4] = [["" if v is None else format_float(v) for v in column] for column in columns[2:4]]
        write_csv(path, self.CSV_HEADER, columns)

    def summary(self) -> dict:
        """The sweep's outcome and cost; argmax_params is None when no ratio is finite.

        Cost is the integrand evaluations of each instance's pair: their
        total and the nearest-rank 50th and 99th percentiles per instance.
        """
        points = sorted(inst.quadrature_points for inst in self.instances)
        argmax = self.instances[self.argmax_index] if self.argmax_index >= 0 else None

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
            # the argmax instance's family parameters and atom counts
            "argmax_params": argmax and dict(zip(SweepInstance._fields[2:7], argmax[2:7])),
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


# numpy's SeedSequence hash (NEP 19 keeps it stream-stable) and PCG64's multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _MASK32, _MASK128 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF, (1 << 128) - 1
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _pcg64_states(seed: int, indices) -> list[dict]:
    """The PCG64 state of `np.random.default_rng([seed, i])` for each i, hashed for all i at once.

    numpy's SeedSequence reads seed and i as their 32-bit words, low first
    (a negative one raises ValueError), hashes the first four words (0 past
    the end) into a pool of four, mixes every pool word into every other and
    then each further word into every pool word, and draws 8 words from the
    pool.  Read as 4 little-endian 64-bit words they are PCG64's 128-bit
    seed and increment, and PCG64 steps its LCG twice from them.  The hash
    runs as uint32 arrays over the instances, a row's further words only
    where it has them; the 128-bit steps are Python integers.
    """

    def words(x):
        if (x := operator.index(x)) < 0:
            raise ValueError(f"expected non-negative integer, got {x}")
        return [x >> s & _MASK32 for s in range(0, max(x.bit_length(), 1), 32)]

    shift = lambda value: value ^ value >> 16  # noqa: E731
    mix = lambda x, y: shift(np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y)  # noqa: E731

    def hashmix(value, const, mult):
        # as numpy's: const is a one-element list, multiplied by mult at each call
        value = value ^ np.uint32(const[0])
        const[0] = const[0] * mult & _MASK32
        return shift(value * np.uint32(const[0]))

    rows = [words(seed) + words(i) for i in indices]
    lengths = np.array([len(row) for row in rows])
    width = max(4, lengths.max(initial=0))
    entropy = np.array([row + [0] * (width - len(row)) for row in rows], dtype=np.uint32).reshape(-1, width)
    const = [_INIT_A]
    pool = [hashmix(entropy[:, j], const, _MULT_A) for j in range(4)]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src], const, _MULT_A))
    for src in range(4, width):
        for dst in range(4):
            pool[dst] = np.where(src < lengths, mix(pool[dst], hashmix(entropy[:, src], const, _MULT_A)), pool[dst])
    const = [_INIT_B]
    drawn = [hashmix(pool[j % 4], const, _MULT_B).astype(np.uint64) for j in range(8)]
    # PCG64 takes seed s and stream i, high word first: with inc = 2 i + 1 it
    # steps its LCG from state 0, adds s and steps again
    s_hi, s_lo, i_hi, i_lo = ((drawn[j] | drawn[j + 1] << 32).tolist() for j in range(0, 8, 2))
    incs = [(hi << 65 | lo << 1 | 1) & _MASK128 for hi, lo in zip(i_hi, i_lo)]
    return [
        {"state": (((hi << 64 | lo) + inc) * _PCG64_MULT + inc) & _MASK128, "inc": inc}
        for hi, lo, inc in zip(s_hi, s_lo, incs)
    ]


def _draw_pairs(seed: int, indices, family: InstanceFamily) -> _Atoms:
    """The atoms of the sweep instances `indices`, before validation.

    Row j holds the p of instance indices[j] and row n + j its q, for n
    instances.  Instance i draws from `np.random.default_rng([seed, i])`,
    its p first and then its q: one generator takes each instance's state
    in turn, hashed for all of them at once (`_pcg64_states`).  A mixture
    draws its atom count k uniform in [1, max_atoms], then
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
    rng = np.random.Generator(np.random.PCG64(0))
    for i, (index, state) in enumerate(zip(indices, _pcg64_states(seed, indices))):
        rng.bit_generator.state = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
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


def _stated(kind, value, bound):
    """A comparison side's values and the bounds on their errors, in the units the bound is stated in.

    The L2 comparisons are stated for ||p - q||_2, the root of the L2^2
    estimate v, which `_l2_closed_form` clips at 0.  Its bound b goes
    through the root too: ||p - q||_2 lies in
    [sqrt(max(v - b, 0)), sqrt(v + b)], and the side's bound is the larger
    distance from sqrt(v) to an end.
    """
    if kind is not _L2:
        return value, bound
    root = np.sqrt(value)
    return root, np.maximum(np.sqrt(value + bound) - root, root - np.sqrt(np.maximum(value - bound, 0.0)))


# a sweep's checks as columns, row i for instance i: the `SweepInstance` fields lhs to chi2_ge_kl
_Checked = collections.namedtuple("_Checked", SweepInstance._fields[7:13])


def _check(comparison: _Comparison, est) -> _Checked:
    """Check every pair of a sweep at once; `est` is `_compute_pairs`'s columns, read by kind.

    Sides, slacks and the ordering checks are IEEE array arithmetic.  The
    rhs of each argument not <= 0 (one <= 0 compares with rhs 0) is the
    row's formula on a Python float, and so are ChiSqThm's log-domain
    comparison and ratio, as its rhs overflows a double once M >= 4.
    chi2_ge_kl holds None but for ChiSqThm.
    """
    value, bound, sweep, n = est.value, est.bound, comparison.sweep, len(est.points)
    (lhs, lhs_bound), (arg, arg_bound) = (_stated(k, value[k], bound[k]) for k in (sweep.lhs, sweep.arg))
    slack = _slack(lhs_bound, arg_bound)
    kl_ge_h2 = value[_H2] <= value[_KL] + _slack(bound[_KL], bound[_H2])
    rhs, chi2_ge_kl = np.zeros(n), np.full(n, None)
    rows = [(i, x) for i, x in enumerate(arg.tolist()) if not x <= 0]
    if comparison.bound is not BoundId.ChiSqThm:
        rhs[[i for i, _ in rows]] = [comparison.rhs(**{sweep.arg.value: x}) for _, x in rows]
        ratio = np.divide(lhs, rhs, out=np.full(n, math.nan), where=rhs > 0)
        return _Checked(lhs, rhs, ratio, lhs <= rhs + slack, kl_ge_h2, chi2_ge_kl)
    chi2_ge_kl = value[_KL] <= lhs + _slack(lhs_bound, bound[_KL])
    passed, ratio, sides = lhs <= slack, np.full(n, math.nan), lhs.tolist()
    for i, x in rows:
        log_rhs, rhs[i] = comparison.log_rhs(h2=x), comparison.rhs(h2=x)
        passed[i] = passed[i] or math.log(sides[i]) <= log_rhs + 1e-12
        ratio[i] = math.exp(math.log(sides[i]) - log_rhs) if sides[i] > 0 else 0.0
    return _Checked(lhs, rhs, ratio, passed, kl_ge_h2, chi2_ge_kl)


# the `SweepInstance` of one row of a sweep's checks; perfbench's tracer counts instances by this name
_one_instance = SweepInstance


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
    deterministic across reruns, and checked at once (`_check`).  A
    failure means lhs exceeded the stated rhs by more than the certified
    numerical slack.
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
    columns = [column.tolist() for column in _check(comparison, estimates)] + [estimates.points.tolist()]
    shared = ([v] * n for v in comparison.family_params.values())  # M, K and d, in field order
    instances = list(map(_one_instance, [seed] * n, range(n), *shared, counts[:n], counts[n:], *columns))
    ratios, passed, kl_ge_h2, chi2_ge_kl = columns[2:6]
    finite = [r for r in ratios if math.isfinite(r)]
    max_ratio = max(finite, default=math.nan)
    argmax_index = ratios.index(max_ratio) if finite else -1
    failures, ordering_failures = passed.count(False), kl_ge_h2.count(False) + chi2_ge_kl.count(False)
    return SweepReport(
        bound=bound,
        seed=seed,
        instances=instances,
        max_ratio=max_ratio,
        argmax_index=argmax_index,
        failures=failures,
        ordering_failures=ordering_failures,
    )
