"""The comparison bounds as one if-chain per function: the reference for `bounds._BOUNDS`.

`_REQUIRED_PARAMS`, `_CLASS_HYPOTHESES`, `_check_params`, `_check_h2`,
`bound_rhs` and `bound_rhs_log` as they stood before each bound became one
table row, copied verbatim, so a test can hold the table to these bits and
to these exceptions.
"""

import math

from gmdiv.bounds import BoundId, dichotomy_bounds, ho_bound, lem_formula_gap
from gmdiv.errors import HypothesisError
from gmdiv.mixtures import DichotomyParams


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
