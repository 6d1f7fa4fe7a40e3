"""Closed-form comparison bounds and randomized verification sweeps.

Every comparison inequality between divergences of Gaussian mixtures that
this package tracks has an identifier in `BoundId`; `bound_rhs` evaluates
the right-hand side exactly as printed in its source statement, and
`verify_sweep` draws seeded random mixture pairs from the matching class
and checks lhs <= rhs instance by instance, with slack derived from the
certified truncation bounds so a quadrature artifact can never produce a
false failure.

Each bound's class hypothesis (M >= 2 for Thm1, 0 < K < 1 for Thm3, ...)
is one `_CLASS_HYPOTHESES` entry, checked by `bound_rhs` and by the sweeps
alike; each sweepable bound is one `_SWEEPS` entry naming its family class,
the kinds integrated per pair, and the lhs and rhs-argument kinds.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

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


_REQUIRED_PARAMS = {
    BoundId.Thm1: {"M", "d", "h2"},
    BoundId.Thm2: {"M", "h2"},
    BoundId.Thm3: {"K", "d", "h2"},
    BoundId.Thm5: {"K", "h2"},
    BoundId.ChiSqThm: {"M", "d", "h2"},
    BoundId.TVfromL2: {"M", "l2"},
    BoundId.L2fromTV: {"tv"},
    BoundId.HO: {"delta", "lam", "h2", "renyi"},
    BoundId.DichotomyKL_LB: {"K", "r"},
    BoundId.DichotomyH2_UB: {"K", "r"},
    BoundId.LemFormula: {"t", "M"},
}


# The class hypothesis of each comparison bound on its family parameter:
# parameter >= lower, or lower < parameter < upper when an upper end is set.
_CLASS_HYPOTHESES = {
    BoundId.Thm1: ("M", 2, None),
    BoundId.Thm2: ("M", 1, None),
    BoundId.Thm3: ("K", 0, 1),
    BoundId.Thm5: ("K", 0, None),
    BoundId.ChiSqThm: ("M", 2, None),
    BoundId.TVfromL2: ("M", 1, None),
}


def _check_params(bound: BoundId, params: dict):
    """Require exactly the symbols of the bound, then its class hypothesis."""
    need = _REQUIRED_PARAMS[bound]
    if set(params) != need:
        raise ValueError(
            f"{bound.value} takes parameters {sorted(need)}, got {sorted(params)}"
        )
    if bound not in _CLASS_HYPOTHESES:
        return
    name, lower, upper = _CLASS_HYPOTHESES[bound]
    x = params[name]
    if upper is None:
        holds, statement = x >= lower, f"{name} >= {lower}"
    else:
        holds, statement = lower < x < upper, f"{lower} < {name} < {upper}"
    if not holds:
        raise HypothesisError(f"{bound.value} requires {statement}, got {name}={x}")


def _check_h2(h2: float, upper: float = 2.0):
    if not (0.0 < h2 <= upper):
        raise HypothesisError(f"H^2 must lie in (0, {upper}], got {h2}")


def bound_rhs(bound, **params) -> float:
    """Right-hand side of the identified bound, exactly as stated.

    Each id takes exactly the symbols of its statement (M, d, K, h2, tv,
    l2, ...); out-of-range parameters raise HypothesisError naming the
    violated hypothesis.  ChiSqThm overflows float64 once M >= 4; use
    bound_rhs_log for that comparison.
    """
    bound = BoundId(bound)
    if bound is BoundId.ChiSqThm:
        log_rhs = bound_rhs_log(bound, **params)
        return math.exp(log_rhs) if log_rhs < 709.0 else math.inf
    _check_params(bound, params)
    if bound is BoundId.Thm1:
        M, d, h2 = params["M"], params["d"], params["h2"]
        _check_h2(h2)
        return 5154.0 * max(M * M, d) * h2
    if bound is BoundId.Thm2:
        M, h2 = params["M"], params["h2"]
        _check_h2(h2)
        return 200.0 * M * M * h2 + 16.0 * h2 * math.log(1.0 / h2)
    if bound is BoundId.Thm3:
        K, d, h2 = params["K"], params["d"], params["h2"]
        _check_h2(h2)
        return 1660056.0 * max(1.0 / (1.0 - K) ** 3, 8.0 * d**3) * h2
    if bound is BoundId.Thm5:
        K, h2 = params["K"], params["h2"]
        _check_h2(h2, upper=4.0)
        return (10240.0 * K**4 + 652.0) * h2 * math.log(4.0 / h2)
    if bound is BoundId.TVfromL2:
        M, l2 = params["M"], params["l2"]
        if not (0 < l2 < 1):
            raise HypothesisError(f"TVfromL2 requires 0 < ||p-q||_2 < 1, got {l2}")
        return (8.0 * math.sqrt(M) + 2.0 * math.log(1.0 / l2) ** 0.25) * l2
    if bound is BoundId.L2fromTV:
        tv = params["tv"]
        if not (0 < tv <= 1):
            raise HypothesisError(f"L2fromTV requires 0 < TV <= 1, got {tv}")
        return max(math.log(1.0 / tv) ** 0.25, 3.0) * tv
    if bound is BoundId.HO:
        return ho_bound(params["delta"], params["lam"], params["h2"], params["renyi"])
    if bound is BoundId.DichotomyKL_LB:
        return dichotomy_bounds(DichotomyParams(params["K"], params["r"])).kl_lb
    if bound is BoundId.DichotomyH2_UB:
        return dichotomy_bounds(DichotomyParams(params["K"], params["r"])).h2_ub
    if bound is BoundId.LemFormula:
        return lem_formula_gap(params["t"], params["M"]).rhs
    raise ValueError(f"unhandled bound {bound!r}")


def bound_rhs_log(bound, **params) -> float:
    """Natural log of bound_rhs; exact in log domain for ChiSqThm."""
    bound = BoundId(bound)
    if bound is BoundId.ChiSqThm:
        _check_params(bound, params)
        M, d, h2 = params["M"], params["d"], params["h2"]
        _check_h2(h2)
        return math.log(2.0) + 50.0 * max(M * M, d) + math.log(h2)
    value = bound_rhs(bound, **params)
    if value <= 0:
        return -math.inf
    return math.log(value)


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


# -- randomized verification sweeps ---------------------------------------------


@dataclass(frozen=True)
class InstanceFamily:
    """Random-instance family for a sweep: class tag, dimension, atom budget."""

    tag: ClassTag
    d: int = 1
    max_atoms: int = 8

    def __post_init__(self):
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
        write_csv(path, self.CSV_HEADER, self.csv_rows())

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


_KL, _H2, _CHI2 = DivergenceKind.KL, DivergenceKind.HellingerSq, DivergenceKind.ChiSq
_TV, _L2 = DivergenceKind.TV, DivergenceKind.L2Sq

# What a sweep of each comparison bound needs: the family class it requires
# (None: Compact or Subgaussian), the kinds integrated per pair, the kind on
# the left-hand side and the kind whose value is the rhs argument (named by
# its kind value among the bound's parameters; L2 enters as ||p - q||_2).
_SWEEPS = {
    BoundId.Thm1: (Compact, (_KL, _H2), _KL, _H2),
    BoundId.Thm2: (Compact, (_KL, _H2), _KL, _H2),
    BoundId.Thm3: (Subgaussian, (_KL, _H2), _KL, _H2),
    BoundId.Thm5: (Subgaussian, (_KL, _H2), _KL, _H2),
    BoundId.ChiSqThm: (Compact, (_KL, _H2, _CHI2), _CHI2, _H2),
    BoundId.TVfromL2: (Compact, (_KL, _H2, _TV, _L2), _TV, _L2),
    BoundId.L2fromTV: (None, (_KL, _H2, _TV, _L2), _L2, _TV),
}


def _family_params(family: InstanceFamily) -> dict:
    tag = family.tag
    return {
        "M": tag.M if isinstance(tag, Compact) else None,
        "K": tag.K if isinstance(tag, Subgaussian) else None,
        "d": family.d,
    }


def _rhs_params(bound: BoundId, family: InstanceFamily, argument) -> dict:
    """The bound_rhs keywords of a sweep pair whose rhs argument is `argument`."""
    arg_kind = _SWEEPS[bound][3]
    known = {**_family_params(family), arg_kind.value: argument}
    return {name: known[name] for name in _REQUIRED_PARAMS[bound]}


def _check_family(bound: BoundId, family: InstanceFamily):
    if bound not in _SWEEPS:
        raise HypothesisError(f"{bound.value} is not a sweepable comparison bound")
    required, tag = _SWEEPS[bound][0], family.tag
    if not isinstance(tag, (Compact, Subgaussian)):
        raise HypothesisError("sweep families must be Compact or Subgaussian")
    if required is not None and not isinstance(tag, required):
        raise HypothesisError(f"{bound.value} requires a {required.__name__} family")
    # the rhs argument comes from the pairs; only the class parameters are checked here
    _check_params(bound, _rhs_params(bound, family, None))
    if bound in (BoundId.TVfromL2, BoundId.L2fromTV) and family.d != 1:
        raise HypothesisError(f"{bound.value} is a one-dimensional comparison")
    if family.d > 3:
        # d > 3 divergences are Monte Carlo estimates with confidence
        # half-widths, so a zero failure count would certify nothing
        raise CapabilityError(f"sweeps need certified quadrature (d <= 3), got d={family.d}")


def _sample_compact(rng, M: float, d: int, max_atoms: int) -> MixingDistribution:
    k = int(rng.integers(1, max_atoms + 1))
    dirs = rng.standard_normal((k, d))
    norms = np.sqrt(np.sum(dirs * dirs, axis=1))
    norms[norms < 1e-12] = 1.0
    radii = M * rng.random(k) ** (1.0 / d)
    locs = dirs / norms[:, None] * radii[:, None]
    w = rng.dirichlet(np.ones(k))
    w = np.maximum(w, 1e-9)
    w /= w.sum()
    return MixingDistribution(locs, w, Compact(M))


def _sample_subgaussian(rng, K: float, d: int, max_atoms: int) -> MixingDistribution:
    # an atomic K-subgaussian law must put mass at the origin; draw the rest
    # Gaussian and repair weights outer-to-inner so every step-tail
    # constraint holds with margin
    k = int(rng.integers(1, max_atoms + 1))
    locs = np.zeros((k, d))
    if k > 1:
        locs[1:] = rng.standard_normal((k - 1, d)) * (K / 2.0)
    w = rng.dirichlet(np.ones(k))
    w = np.maximum(w, 1e-9)
    w /= w.sum()
    radii = np.sqrt(np.sum(locs * locs, axis=1))
    order = np.argsort(radii)[::-1]
    cum = 0.0
    for j in order:
        s = radii[j]
        if s <= 0:
            continue
        cap = math.exp(-s * s / (2.0 * K * K)) * (1.0 - 1e-9) - cum
        if w[j] > cap:
            w[j] = max(cap, 0.0)
        cum += w[j]
    w[0] += 1.0 - w.sum()
    keep = w > 0
    locs, w = locs[keep], w[keep]
    w = w / w.sum()
    return MixingDistribution(locs, w, Subgaussian(K))


def _sample_mixing(rng, family: InstanceFamily) -> MixingDistribution:
    tag = family.tag
    if isinstance(tag, Compact):
        return _sample_compact(rng, tag.M, family.d, family.max_atoms)
    return _sample_subgaussian(rng, tag.K, family.d, family.max_atoms)


def _standard_normal_mixing(family: InstanceFamily) -> MixingDistribution:
    return MixingDistribution(
        np.zeros((1, family.d)), np.array([1.0]), family.tag
    )


def make_pair(seed: int, index: int, family: InstanceFamily):
    """The (p, q) mixture pair of a sweep instance; deterministic in (seed, index).

    Every 10th instance forces q to the standard Gaussian (the
    dichotomy-adjacent regime) and every 50th (offset 1) sets q = p.
    """
    rng = np.random.default_rng([seed, index])
    p_mix = _sample_mixing(rng, family)
    if index % 10 == 0:
        q_mix = _standard_normal_mixing(family)
    elif index % 50 == 1:
        q_mix = p_mix
    else:
        q_mix = _sample_mixing(rng, family)
    return GaussianMixture(p_mix), GaussianMixture(q_mix)


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


def _one_instance(bound: BoundId, family: InstanceFamily, seed: int, index: int, p, q, est):
    """The checked instance of pair (p, q), whose estimates `est` map kinds to values."""
    _, _, lhs_kind, arg_kind = _SWEEPS[bound]
    kl, h2 = est[_KL], est[_H2]
    params = {
        **_family_params(family),
        "natoms_p": p.mixing.n_atoms,
        "natoms_q": q.mixing.n_atoms,
    }

    kl_ge_h2 = h2.value <= kl.value + _slack(kl.truncation_bound, h2.truncation_bound)
    chi2_ge_kl = None
    (lhs, lhs_bound), (arg, arg_bound) = _side(lhs_kind, est[lhs_kind]), _side(arg_kind, est[arg_kind])
    slack = _slack(lhs_bound, arg_bound)

    if bound is BoundId.ChiSqThm:
        # the rhs overflows a double once M >= 4, so compare in the log domain
        chi2_ge_kl = kl.value <= lhs + _slack(lhs_bound, kl.truncation_bound)
        if arg <= 0:
            rhs, passed, ratio = 0.0, lhs <= slack, math.nan
        else:
            kw = _rhs_params(bound, family, arg)
            log_rhs, rhs = bound_rhs_log(bound, **kw), bound_rhs(bound, **kw)
            passed = lhs <= slack or math.log(lhs) <= log_rhs + 1e-12
            ratio = math.exp(math.log(lhs) - log_rhs) if lhs > 0 else 0.0
    else:
        rhs = 0.0 if arg <= 0 else bound_rhs(bound, **_rhs_params(bound, family, arg))
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

    Instances derive their RNG from (seed, index).  All pairs are
    integrated as one batch (`_compute_pairs`) on the calling thread, so
    the report is deterministic across reruns.  A failure means lhs
    exceeded the stated rhs by more than the certified numerical slack.
    """
    bound = BoundId(bound)
    _check_family(bound, family)
    if n < 1:
        raise ValueError(f"sweep size must be positive, got {n}")

    pairs = [make_pair(seed, i, family) for i in range(n)]
    estimates = _compute_pairs(_SWEEPS[bound][1], pairs, tol)
    instances = [
        _one_instance(bound, family, seed, i, p, q, e)
        for i, ((p, q), e) in enumerate(zip(pairs, estimates))
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
