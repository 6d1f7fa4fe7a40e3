"""The comparison bounds as one if-chain per function, and a sweep's check one instance at a time.

`_REQUIRED_PARAMS`, `_CLASS_HYPOTHESES`, `_check_params`, `_check_h2`,
`bound_rhs` and `bound_rhs_log` as they stood before each bound became one
table row, copied verbatim, so a test can hold the table (`bounds._BOUNDS`)
to these bits and to these exceptions.

`_slack`, `_side` and `_one_instance` as they stood before a sweep checked
its instances as arrays, copied verbatim, and `reference_report`, the
report `verify_sweep` built from them, so a test can hold the array check
(`bounds._check`) and the report to these bits.
"""

import math

from gmdiv.bounds import (
    BoundId,
    SweepInstance,
    SweepReport,
    _Comparison,
    dichotomy_bounds,
    ho_bound,
    lem_formula_gap,
)
from gmdiv.divergences import DivergenceKind
from gmdiv.errors import HypothesisError
from gmdiv.mixtures import DichotomyParams

_KL, _H2, _L2 = DivergenceKind.KL, DivergenceKind.HellingerSq, DivergenceKind.L2Sq


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


def reference_report(bound: BoundId, comparison: _Comparison, seed: int, counts, estimates) -> SweepReport:
    """The report of a sweep whose pairs have these atom counts and per-pair estimates, as `verify_sweep` built it.

    `counts` are the atom counts of the n p's and then the n q's;
    `estimates[i]` maps each kind of the sweep to pair i's
    `IntegralEstimate`.
    """
    n = len(estimates)
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
