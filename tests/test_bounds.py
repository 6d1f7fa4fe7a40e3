import hashlib
import inspect
import itertools
import math
import struct

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmdiv import (
    BoundId,
    CapabilityError,
    Compact,
    DivergenceKind,
    GaussianMixture,
    HypothesisError,
    InstanceFamily,
    Subgaussian,
    Unconstrained,
    bound_rhs,
    bound_rhs_log,
    delta_star,
    dichotomy_bounds,
    divergence,
    ho_bound,
    lambda_star,
    lem_formula_gap,
    renyi_integral,
    subgaussian_check,
    verify_sweep,
)
from gmdiv import bounds, mixtures
from gmdiv.bounds import _draw_pairs, make_pair
from gmdiv.divergences import IntegralEstimate, _Columns, _compute_divergences
from gmdiv.mixtures import DichotomyParams, MixingDistribution, validate_atoms
from gmdiv.textio import dump_json
from conftest import pair_estimates, random_compact, single_gaussian
import reference_bounds
from reference_sampler import reference_pair


class TestBoundRhs:
    def test_statement_values(self):
        assert bound_rhs("Thm1", M=2.0, d=1, h2=0.1) == pytest.approx(2061.6, rel=1e-12)
        assert bound_rhs("Thm2", M=1.0, h2=1.0) == pytest.approx(200.0, rel=1e-12)
        assert bound_rhs("Thm3", K=0.5, d=1, h2=0.5) == pytest.approx(
            1660056.0 * 8.0 * 0.5, rel=1e-12
        )
        assert bound_rhs("Thm5", K=0.0, h2=4.0) == 0.0
        assert bound_rhs("Thm5", K=0.5, h2=1.0) == pytest.approx(
            (10240.0 * 0.5**4 + 652.0) * math.log(4.0), rel=1e-12
        )
        assert bound_rhs("ChiSqThm", M=2.0, d=1, h2=1.0) == pytest.approx(
            2.0 * math.exp(200.0), rel=1e-12
        )
        assert bound_rhs("TVfromL2", M=1.0, l2=0.1) == pytest.approx(
            (8.0 + 2.0 * math.log(10.0) ** 0.25) * 0.1, rel=1e-12
        )
        assert bound_rhs("L2fromTV", tv=0.5) == pytest.approx(
            max(math.log(2.0) ** 0.25, 3.0) * 0.5, rel=1e-12
        )

    def test_dispatch_to_named_operations(self):
        assert bound_rhs("HO", delta=0.1, lam=3.0, h2=0.5, renyi=2.0) == ho_bound(
            0.1, 3.0, 0.5, 2.0
        )
        params = DichotomyParams(2.0, 10.0)
        assert bound_rhs("DichotomyKL_LB", K=2.0, r=10.0) == dichotomy_bounds(params).kl_lb
        assert bound_rhs("DichotomyH2_UB", K=2.0, r=10.0) == dichotomy_bounds(params).h2_ub
        assert bound_rhs("LemFormula", t=0.0, M=2.0) == 36.0

    def test_exact_parameter_sets(self):
        with pytest.raises(ValueError, match="parameters"):
            bound_rhs("Thm1", M=2.0, h2=0.1)
        with pytest.raises(ValueError, match="parameters"):
            bound_rhs("Thm2", M=2.0, h2=0.1, d=1)

    def test_log_domain_checks_the_parameter_set(self):
        with pytest.raises(ValueError, match="takes parameters"):
            bound_rhs_log("ChiSqThm", M=2.0, h2=0.1)
        with pytest.raises(ValueError, match="takes parameters"):
            bound_rhs_log("ChiSqThm", M=2.0, d=1, h2=0.1, K=5)
        with pytest.raises(HypothesisError, match="M >= 2"):
            bound_rhs_log("ChiSqThm", M=1.0, d=1, h2=0.1)

    def test_hypothesis_ranges(self):
        with pytest.raises(HypothesisError, match="M >= 2"):
            bound_rhs("Thm1", M=1.5, d=1, h2=0.1)
        with pytest.raises(HypothesisError, match="M >= 1"):
            bound_rhs("Thm2", M=0.5, h2=0.1)
        with pytest.raises(HypothesisError, match="K < 1"):
            bound_rhs("Thm3", K=1.5, d=1, h2=0.1)
        with pytest.raises(HypothesisError, match="H\\^2"):
            bound_rhs("Thm1", M=2.0, d=1, h2=0.0)
        with pytest.raises(HypothesisError, match="H\\^2"):
            bound_rhs("Thm1", M=2.0, d=1, h2=2.5)
        for l2 in (0.0, 1.0):
            with pytest.raises(HypothesisError, match="0 < \\|\\|p-q\\|\\|_2 < 1"):
                bound_rhs("TVfromL2", M=1.0, l2=l2)
        for tv in (0.0, 1.5):
            with pytest.raises(HypothesisError, match="0 < TV <= 1"):
                bound_rhs("L2fromTV", tv=tv)

    def test_chisq_log_domain_overflow(self):
        # the linear constant overflows for M >= 4 but the log value is exact
        log_rhs = bound_rhs_log("ChiSqThm", M=4.0, d=1, h2=1.0)
        assert log_rhs == pytest.approx(math.log(2.0) + 800.0, rel=1e-12)
        assert bound_rhs("ChiSqThm", M=4.0, d=1, h2=1.0) == math.inf
        small = bound_rhs_log("ChiSqThm", M=2.0, d=1, h2=0.5)
        assert small == pytest.approx(
            math.log(bound_rhs("ChiSqThm", M=2.0, d=1, h2=0.5)), rel=1e-12
        )

    @pytest.mark.parametrize("h2", [1e-310, 5e-324])
    def test_subnormal_h2(self, h2):
        # 1/h2 overflows a double below about 5.6e-309 and 4/h2 below about
        # 2.2e-308, where log(1/h2) read inf; each rhs is within two units of
        # the last place of a subnormal (4.9e-324) of its formula at 50 digits
        with mpmath.workdps(50):
            h = mpmath.mpf(h2)
            exact = {
                ("Thm2", 1.0): 200 * h + 16 * h * mpmath.log(1 / h),
                ("Thm5", 0.5): (10240 * mpmath.mpf(0.5) ** 4 + 652) * h * mpmath.log(4 / h),
            }
        for (bound, c), value in exact.items():
            params = {"M" if bound == "Thm2" else "K": c, "h2": h2}
            rhs = bound_rhs(bound, **params)
            assert math.isclose(rhs, float(value), rel_tol=1e-13, abs_tol=1e-323), (bound, rhs, value)
            # a subnormal rhs has its log from a sum of logs (test_log_of_a_subnormal_rhs)
            assert (bound_rhs_log(bound, **params) == math.log(rhs)) == (rhs >= 2.0**-1022)

    @pytest.mark.parametrize("h2", [5e-324, 1e-320, 1e-310])
    @pytest.mark.parametrize("bound, c", [("Thm2", 1.0), ("Thm2", 3.0), ("Thm5", 0.5), ("Thm5", 2.0)])
    def test_log_of_a_subnormal_rhs(self, bound, c, h2):
        # the log of a subnormal rhs carries its few bits: Thm2 at M = 1 read
        # 4.6e-9 relative off at h2 = 5e-324 and 2.1e-11 off at 1e-320; the
        # sum of logs, and the log of a normal rhs, are within a few units
        # of the last place of the formula's log at 50 digits
        with mpmath.workdps(50):
            h, c_ = mpmath.mpf(h2), mpmath.mpf(c)
            if bound == "Thm2":
                exact = mpmath.log(200 * c_**2 * h + 16 * h * mpmath.log(1 / h))
            else:
                exact = mpmath.log((10240 * c_**4 + 652) * h * mpmath.log(4 / h))
        got = bound_rhs_log(bound, **{"M" if bound == "Thm2" else "K": c, "h2": h2})
        assert math.isclose(got, float(exact), rel_tol=4e-16), (got, exact)

    @pytest.mark.parametrize(
        "bound, params",
        [
            ("Thm1", {"M": 2.0, "d": 1, "h2": 0.1}),
            ("TVfromL2", {"M": 1.0, "l2": 0.1}),
            ("DichotomyH2_UB", {"K": 2.0, "r": 10.0}),
            ("DichotomyKL_LB", {"K": 2.0, "r": 1.1}),
        ],
    )
    def test_log_domain_of_the_other_bounds(self, bound, params):
        # the log of bound_rhs, and -inf where the rhs is not positive
        # (the dichotomy KL lower bound is negative at r = 1.1)
        rhs = bound_rhs(bound, **params)
        assert bound_rhs_log(bound, **params) == (math.log(rhs) if rhs > 0 else -math.inf)
        assert (rhs > 0) == (bound != "DichotomyKL_LB")


# Each symbol's grid: the edges of every argument range and class hypothesis,
# values past them, NaN, ChiSqThm at M >= 4 (rhs inf, log finite) and Thm5's
# H^2 up to 4 and past it.
_GRID = {
    "M": [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 4.5, 10.0, math.nan],
    "d": [1, 2, 3, 5],
    "K": [-0.5, 0.0, 0.25, 0.5, 0.999, 1.0, 2.0, math.nan],
    "h2": [-1.0, 0.0, 1e-300, 1e-12, 0.3, 1.0, 2.0, 2.0000000000000004, 3.9, 4.0, 4.5, math.nan],
    "l2": [-0.1, 0.0, 1e-300, 0.3, 0.9999999999999999, 1.0, 1.5, math.nan],
    "tv": [-0.1, 0.0, 1e-300, 0.5, 1.0, 1.0000000000000002, math.nan],
    "delta": [0.0, 0.1, 0.5, 0.6065, 0.61, math.nan],
    "lam": [1.0, 1.5, 3.0, math.nan],
    "renyi": [0.0, 2.0],
    "r": [0.5, 1.1, 10.0],
    "t": [0.0, 0.5, 1.0, 100.0, 1e30, math.nan],
}


def _outcome(f, bound, params):
    """The value's type and bits, or the exception's type and message."""
    try:
        value = f(bound, **params)
    except Exception as exc:  # every exception is compared
        return type(exc), str(exc)
    return type(value), struct.pack("<d", value)


_INF = float, struct.pack("<d", math.inf)


class TestBoundsTable:
    """Each bound is one `_BOUNDS` row; it gives the bits and the errors of the if-chain it replaced."""

    def test_one_row_per_bound(self):
        assert list(bounds._BOUNDS) == list(BoundId)
        for row in bounds._BOUNDS.values():
            # the formulas are called by name with exactly the symbols
            for f in filter(None, (row.rhs, row.log_rhs)):
                assert set(inspect.signature(f).parameters) == set(row.symbols)
            assert row.hypothesis is None or row.hypothesis[0] in row.symbols

    @pytest.mark.parametrize("bound", list(BoundId), ids=lambda b: b.value)
    def test_same_bits_and_errors_as_the_if_chain(self, bound):
        symbols = bounds._BOUNDS[bound].symbols
        cases = [dict(zip(symbols, values)) for values in itertools.product(*(_GRID[s] for s in symbols))]
        first = cases[0]
        # a missing symbol, an extra one, and the id by its value
        cases += [{k: v for k, v in first.items() if k != symbols[0]}, {**first, "x": 1.0}]
        raised = overflowed = 0
        for params in cases:
            for name in (bound, bound.value):
                rhs, log_rhs = (_outcome(f, name, params) for f in (bound_rhs, bound_rhs_log))
                assert rhs == _outcome(reference_bounds.bound_rhs, name, params), params
                assert log_rhs == _outcome(reference_bounds.bound_rhs_log, name, params), params
            raised += rhs[0] is not float
            # rhs overflows a double but its log does not
            overflowed += rhs == _INF and log_rhs[0] is float and log_rhs != _INF
        assert 0 < raised < len(cases)
        assert (overflowed > 0) == (bound is BoundId.ChiSqThm)

    def test_unknown_bound(self):
        for f in (bound_rhs, bound_rhs_log, reference_bounds.bound_rhs, reference_bounds.bound_rhs_log):
            assert _outcome(f, "Thm4", {"M": 2.0}) == (ValueError, "'Thm4' is not a valid BoundId")


class TestHoBound:
    def test_explicit_arithmetic(self):
        d = math.exp(-2.0)
        val = ho_bound(d, 3.0, 0.01, math.exp(48.0))
        expect = (
            2.0 * 2.0 / (1.0 - d) ** 2 * 0.01
            + 4.0 * d * 2.0 / (1.0 - d) ** 2
            + d * math.exp(48.0)
        )
        assert val == pytest.approx(expect, rel=1e-14)

    def test_lambda3_accepts_any_delta_below_half(self):
        for d in (1e-12, 1e-4, 0.1, 0.3, 0.499):
            assert ho_bound(d, 3.0, 0.5, 10.0) > 0.0

    def test_delta_above_threshold_rejected(self):
        with pytest.raises(HypothesisError, match="delta"):
            ho_bound(0.7, 3.0, 0.5, 10.0)

    def test_compatibility_condition_enforced(self):
        # log log(1/d) / log(1/d) = 1/e at d = e^{-e}, above (lam-1)/2 for lam=1.05
        with pytest.raises(HypothesisError, match="condition"):
            ho_bound(math.exp(-math.e), 1.05, 0.5, 10.0)

    @pytest.mark.parametrize("delta", [1e-310, 5e-324])
    def test_subnormal_delta(self, delta):
        # log(1/delta) read inf where 1/delta overflows a double
        with mpmath.workdps(50):
            d, big_l = mpmath.mpf(delta), -mpmath.log(mpmath.mpf(delta))
            exact = 2 * big_l / (1 - d) ** 2 * mpmath.mpf(0.5) + 4 * d * big_l / (1 - d) ** 2 + d * 10
        assert math.isclose(ho_bound(delta, 3.0, 0.5, 10.0), float(exact), rel_tol=1e-14)

    def test_nan_lambda_rejected(self):
        # NaN passes a `lam <= 1` test and the bound came out NaN
        with pytest.raises(HypothesisError, match="lambda"):
            ho_bound(0.1, math.nan, 0.5, 2.0)


class TestStarParameters:
    @settings(max_examples=50, deadline=None)
    @given(K=st.floats(min_value=1e-3, max_value=1e3))
    def test_lambda_star_quadratic_identity(self, K):
        lam = lambda_star(K)
        target = 1.0 / (4.0 * K * K)
        assert abs(lam * (lam - 1.0) - target) <= 1e-12 * max(1.0, target)

    def test_lambda_star_half(self):
        assert lambda_star(0.5) == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, rel=1e-15)

    def test_delta_star_plugin(self):
        assert delta_star(2.0, 2.0) == pytest.approx(1.0 / 256.0, rel=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(
        lam=st.floats(min_value=1.05, max_value=6.0),
        h2=st.floats(min_value=1e-6, max_value=2.0),
    )
    def test_delta_star_properties(self, lam, h2):
        d = delta_star(lam, h2)
        assert d <= h2 / 4.0 + 1e-15
        assert d <= 0.5
        assert d ** ((lam - 1.0) / 2.0) <= h2 * (1.0 + 1e-12)

    def test_delta_star_nan_lambda_rejected(self):
        with pytest.raises(HypothesisError, match="lambda"):
            delta_star(math.nan, 0.5)


class TestDichotomyBounds:
    def test_plugin_values(self):
        vals = dichotomy_bounds(DichotomyParams(2.0, 10.0))
        h = math.exp(-12.5)
        assert vals.kl_lb == pytest.approx(7.2 * h, rel=1e-12)
        assert vals.h2_ub == pytest.approx(22.0 * h, rel=1e-12)

    def test_envelope_ratio_increases_in_r(self):
        ratios = []
        for r in np.linspace(2.0, 20.0, 19):
            v = dichotomy_bounds(DichotomyParams(2.0, float(r)))
            ratios.append(v.kl_lb / v.h2_ub)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_degenerate_limit_near_k_equal_one(self):
        vals = dichotomy_bounds(DichotomyParams(1.0 + 1e-9, 5.0))
        assert vals.kl_lb < 0.0  # the lower bound collapses as K -> 1+


class TestLemFormula:
    def test_equality_at_one(self):
        g = lem_formula_gap(t=1.0, M=1.0)
        assert g.lhs == 0.0 and g.rhs == 0.0 and math.isnan(g.g)

    def test_value_at_zero(self):
        g = lem_formula_gap(t=0.0, M=2.0)
        assert g.lhs == 1.0 and g.rhs == 36.0

    def test_inequality_and_monotone_g(self):
        M = 1.0
        ts = np.exp(np.linspace(-10.0, 8.0 * M * M, 2000))
        gs = []
        for t in ts:
            gap = lem_formula_gap(t=float(t), M=M)
            assert gap.lhs <= gap.rhs * (1.0 + 1e-12) + 1e-300
            if abs(t - 1.0) > 1e-9:
                gs.append(gap.g)
        gs = np.array(gs)
        assert np.all(np.diff(gs) >= -1e-9 * np.maximum(1.0, gs[:-1]))

    def test_log_domain_route(self):
        M = 10.0
        gap = lem_formula_gap(log_t=790.0, M=M)
        assert gap.lhs == math.inf
        assert gap.g <= 9.0 * M * M
        assert gap.log_lhs <= gap.log_rhs

    def test_hypothesis_cap(self):
        with pytest.raises(HypothesisError, match="cap"):
            lem_formula_gap(t=math.exp(9.0), M=1.0)
        with pytest.raises(HypothesisError, match="cap"):
            lem_formula_gap(log_t=801.0, M=10.0)

    def test_requires_exactly_one_form(self):
        with pytest.raises(ValueError):
            lem_formula_gap(t=1.0, log_t=0.0, M=1.0)

    @pytest.mark.parametrize(
        "kwargs, match",
        [({"t": math.nan}, "nonnegative"), ({"t": 1.0, "M": math.nan}, "M >= 1"), ({"log_t": math.nan}, "cap")],
        ids=["t", "M", "log_t"],
    )
    def test_nan_arguments_rejected(self, kwargs, match):
        # NaN passes `t < 0`, `M < 1` and `log_t > cap`: t then hit a math
        # domain error and M gave rhs = nan
        with pytest.raises(HypothesisError, match=match):
            lem_formula_gap(**kwargs)


class TestSweeps:
    def test_thm1_smoke_zero_failures(self):
        rep = verify_sweep(BoundId.Thm1, InstanceFamily(Compact(2.0), d=1), 25, seed=11)
        assert rep.failures == 0
        assert rep.ordering_failures == 0
        assert len(rep.instances) == 25

    def test_deterministic_and_thread_invariant(self, tmp_path):
        # whole reports, byte for byte, across reruns
        cases = [
            (BoundId.L2fromTV, InstanceFamily(Compact(2.0), d=1), 300),
            (BoundId.Thm1, InstanceFamily(Compact(2.0), d=2), 12),
        ]
        for bound, family, n in cases:
            texts = []
            for run in range(3):
                path = tmp_path / f"{bound.value}_{run}.csv"
                verify_sweep(bound, family, n, seed=3).write_csv(path)
                texts.append(path.read_bytes())
            assert texts[1:] == texts[:-1]

    def test_sweep_integrates_in_one_batch(self, monkeypatch):
        calls = []
        compute_pairs = bounds._compute_pairs

        def counted(kinds, p_env, q_env, tags, tol):
            calls.append((len(p_env.s_max), len(q_env.s_max), tags))
            columns = compute_pairs(kinds, p_env, q_env, tags, tol)
            calls.append([len(columns.value[k]) for k in kinds] + [len(columns.radius), len(columns.points)])
            return columns

        monkeypatch.setattr(bounds, "_compute_pairs", counted)
        rep = verify_sweep(BoundId.L2fromTV, InstanceFamily(Compact(2.0), d=1), 300, seed=3)
        assert calls == [(300, 300, (Compact(2.0),)), [300] * 6]
        assert len(rep.instances) == 300 and rep.failures == 0

    @staticmethod
    def _one_pair(est):
        """One pair's estimates, {kind: IntegralEstimate}, as the columns `_compute_pairs` returns."""
        column = lambda values: np.array(values, dtype=float)  # noqa: E731
        value = {k: column([e.value]) for k, e in est.items()}
        bound = {k: column([e.truncation_bound]) for k, e in est.items()}
        points = max(e.quadrature_points for e in est.values())
        return _Columns(value, bound, column([est[DivergenceKind.KL].domain_radius]), np.array([points]))

    def test_l2_bound_goes_through_the_root(self):
        # L2^2 = 1e-12 +- 1e-12 puts ||p - q||_2 in [0, 1.4e-6], so L2fromTV
        # at TV = 1e-7 (rhs 3e-7) passes; a slack built from the L2^2 bound
        # itself failed lhs = 1e-6
        est = {
            DivergenceKind.KL: IntegralEstimate(1e-6, 0.0, 10.0, 100),
            DivergenceKind.HellingerSq: IntegralEstimate(1e-7, 0.0, 10.0, 100),
            DivergenceKind.TV: IntegralEstimate(1e-7, 0.0, 10.0, 100),
            DivergenceKind.L2Sq: IntegralEstimate(1e-12, 1e-12, math.inf, 0),
        }
        comparison = bounds._comparison(BoundId.L2fromTV, InstanceFamily(Compact(2.0), d=1))
        inst = bounds._check(comparison, self._one_pair(est))
        assert inst.passed[0]
        assert (inst.lhs[0], inst.rhs[0]) == (1e-6, pytest.approx(3e-7, rel=1e-12))
        # with an exact L2^2 the same lhs fails
        est[DivergenceKind.L2Sq] = IntegralEstimate(1e-12, 0.0, math.inf, 0)
        assert not bounds._check(comparison, self._one_pair(est)).passed[0]

    @pytest.mark.parametrize("bound", [BoundId.Thm1, BoundId.ChiSqThm, BoundId.TVfromL2, BoundId.L2fromTV])
    def test_instance_reads_estimates_by_kind(self, bound):
        # the same estimates in reverse kind order check the same instance
        family = InstanceFamily(Compact(2.0), d=1)
        comparison = bounds._comparison(bound, family)
        est = self._one_pair(_compute_divergences(comparison.sweep.kinds, *make_pair(0, 2, family)))
        reverse = est._replace(value=dict(reversed(est.value.items())), bound=dict(reversed(est.bound.items())))
        assert list(reverse.value) == list(reverse.bound) == list(comparison.sweep.kinds)[::-1]
        inst = bounds._check(comparison, est)
        assert math.isfinite(inst.ratio[0]) and inst.passed[0]
        again = bounds._check(comparison, reverse)
        assert [c.tolist() for c in again] == [c.tolist() for c in inst]

    # every sweepable row in d = 1, the d = 2 rows of sweep-d23 and ChiSqThm where its rhs is inf
    REFERENCE_SWEEPS = [
        (BoundId.Thm1, InstanceFamily(Compact(2.0), 1)),
        (BoundId.Thm2, InstanceFamily(Compact(1.0), 1)),
        (BoundId.Thm3, InstanceFamily(Subgaussian(0.5), 1)),
        (BoundId.Thm5, InstanceFamily(Subgaussian(2.0), 1)),
        (BoundId.ChiSqThm, InstanceFamily(Compact(2.0), 1)),
        (BoundId.TVfromL2, InstanceFamily(Compact(2.0), 1)),
        (BoundId.L2fromTV, InstanceFamily(Subgaussian(0.5), 1)),
        (BoundId.Thm1, InstanceFamily(Compact(2.0), 2)),
        (BoundId.ChiSqThm, InstanceFamily(Compact(2.0), 2)),
        (BoundId.ChiSqThm, InstanceFamily(Compact(4.0), 1)),
    ]

    @pytest.mark.parametrize(
        "bound, family", REFERENCE_SWEEPS, ids=lambda x: x.value if isinstance(x, BoundId) else f"{x.tag}-d{x.d}"
    )
    def test_array_check_matches_the_reference(self, bound, family, monkeypatch, tmp_path):
        # the array check against the instance-at-a-time check on the same
        # estimates; n = 120 has q = p pairs (index % 50 == 1), whose rhs
        # argument is 0
        n, seed, columns = 120, 3, []
        compute_pairs = bounds._compute_pairs

        def recorded(*args):
            columns.append(compute_pairs(*args))
            return columns[-1]

        monkeypatch.setattr(bounds, "_compute_pairs", recorded)
        rep = verify_sweep(bound, family, n, seed)
        counts = _draw_pairs(seed, range(n), family).counts.tolist()
        estimates = pair_estimates(columns[0])
        ref = reference_bounds.reference_report(bound, bounds._comparison(bound, family), seed, counts, estimates)
        assert sum(e[bounds._BOUNDS[bound].sweep.arg].value == 0.0 for e in estimates) >= 3
        # repr tells NaN from NaN and a numpy scalar from a float, where == would not
        assert repr(rep.instances) == repr(ref.instances)
        fields = ("failures", "ordering_failures", "max_ratio", "argmax_index")
        assert [repr(getattr(rep, f)) for f in fields] == [repr(getattr(ref, f)) for f in fields]
        for name, report in (("rep", rep), ("ref", ref)):
            report.write_csv(tmp_path / f"{name}.csv")
            dump_json(report.summary(), tmp_path / f"{name}.json")
        for suffix in ("csv", "json"):
            assert (tmp_path / f"rep.{suffix}").read_bytes() == (tmp_path / f"ref.{suffix}").read_bytes()
        if family.tag == Compact(4.0):
            assert all(math.isinf(inst.rhs) for inst in rep.instances if inst.index % 50 != 1)

    def test_degenerate_pair_passes_by_slack(self):
        fam = InstanceFamily(Compact(2.0), d=1)
        rep = verify_sweep(BoundId.Thm2, fam, 2, seed=5)
        inst = rep.instances[1]  # index 1 forces q = p
        assert inst.lhs == 0.0 and inst.rhs == 0.0 and inst.passed

    def test_family_hypothesis_checked(self, monkeypatch):
        integrated = []

        def compute_pairs(*args):
            integrated.append(args)
            raise AssertionError("a rejected sweep integrated its pairs")

        monkeypatch.setattr(bounds, "_compute_pairs", compute_pairs)
        cases = [
            (BoundId.Thm1, Compact(1.0), 1, "M >= 2"),
            (BoundId.Thm2, Compact(0.5), 1, "M >= 1"),
            (BoundId.Thm3, Subgaussian(2.0), 1, "K < 1"),
            (BoundId.ChiSqThm, Compact(1.0), 1, "M >= 2"),
            (BoundId.TVfromL2, Compact(0.5), 1, "M >= 1"),
            (BoundId.Thm1, Subgaussian(0.5), 1, "Compact"),
            (BoundId.L2fromTV, Unconstrained(), 1, "Compact or Subgaussian"),
            (BoundId.TVfromL2, Compact(2.0), 2, "one-dimensional"),
            (BoundId.HO, Compact(2.0), 1, "sweepable"),
        ]
        for bound, tag, d, message in cases:
            with pytest.raises(HypothesisError, match=message):
                verify_sweep(bound, InstanceFamily(tag, d=d), 5, seed=0)
        # every case is rejected before any pair is integrated
        assert integrated == []

    def test_sweep_arguments_are_bound_parameters(self):
        sweeps = {bound: row for bound, row in bounds._BOUNDS.items() if row.sweep is not None}
        assert set(sweeps) == {
            BoundId.Thm1, BoundId.Thm2, BoundId.Thm3, BoundId.Thm5, BoundId.ChiSqThm, BoundId.TVfromL2, BoundId.L2fromTV
        }
        for bound, row in sweeps.items():
            _, kinds, lhs_kind, arg_kind, dims = row.sweep
            assert arg_kind.value in row.symbols
            assert {DivergenceKind.KL, DivergenceKind.HellingerSq, lhs_kind, arg_kind} <= set(kinds)
            # only the TV/L2 pair is restricted in dimension, to d = 1
            assert dims == ((1,) if bound in (BoundId.TVfromL2, BoundId.L2fromTV) else None)

    def test_sweep_above_three_dimensions_rejected(self):
        # d > 3 divergences are Monte Carlo estimates; a sweep over them
        # would report zero failures without certifying anything
        with pytest.raises(CapabilityError, match="d <= 3"):
            verify_sweep(BoundId.Thm1, InstanceFamily(Compact(2.0), d=4), 5, seed=0)

    def test_chisq_sweep_log_domain(self):
        rep = verify_sweep(BoundId.ChiSqThm, InstanceFamily(Compact(2.0), d=1), 15, seed=2)
        assert rep.failures == 0
        for inst in rep.instances:
            if inst.chi2_ge_kl is not None:
                assert inst.chi2_ge_kl

    def test_csv_and_summary(self, tmp_path):
        rep = verify_sweep(BoundId.Thm1, InstanceFamily(Compact(2.0), d=1), 5, seed=1)
        path = tmp_path / "s.csv"
        rep.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "seed,index,M,K,d,natoms_p,natoms_q,lhs,rhs,ratio,pass"
        assert len(lines) == 6
        s = rep.summary()
        assert s["failures"] == 0 and s["n"] == 5

    def test_make_pair_deterministic(self):
        fam = InstanceFamily(Compact(2.0), d=1)
        p1, q1 = make_pair(9, 4, fam)
        p2, q2 = make_pair(9, 4, fam)
        assert np.array_equal(p1.mixing.locations, p2.mixing.locations)
        assert np.array_equal(q1.mixing.weights, q2.mixing.weights)

    @pytest.mark.parametrize("tag", [Unconstrained(), "compact"], ids=repr)
    def test_make_pair_rejects_a_family_it_cannot_draw(self, tag):
        with pytest.raises(HypothesisError, match="sweep families must be Compact or Subgaussian"):
            make_pair(0, 0, InstanceFamily(tag))

    # sha256 of every (locations, weights, tag) that make_pair draws for seeds
    # 0-2 and i < 60: a faster sampler or validation must keep the draws
    SAMPLER_DIGESTS = {
        (Compact(1.0), 1): "a391a75e8df4809bb6f766ac9fa2e0cd0fe693acf9c6b970586f264bd8f00e3e",
        (Compact(1.0), 2): "35c01357bbc8c93671aa8272347fb58d4cbef0a64dee998de392ad8f43bb5be9",
        (Compact(2.0), 1): "a86cd09dee7111323feb6d6874aea9db1c1dc51e4df64d546fc1ae7bad717f6c",
        (Compact(2.0), 2): "453e54f6cefa227e69e2f0ed0d04ffbd082075fa84634f8edacac3c7b9b42a28",
        (Subgaussian(0.5), 1): "9957e957b2bbc740c418aaa8414c851fe69fbc9713435a7d5d63f4a1bbb18bd9",
        (Subgaussian(0.5), 2): "cfe2454fe5f98fc1462438cc3781df2d7ce0a8975fa05756cab6623a1bf396e7",
        (Subgaussian(2.0), 1): "22708c6fe2c6da00ab0413ea77be657f3892e34bfe9808c2119e3a9fc832418e",
        (Subgaussian(2.0), 2): "b4edf2d2adcddae1b5bc70603535c25a60df3747c30bd2e55abf74073b3c6272",
    }

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**32 - 1, 2**32, 2**70 + 3, 2**100])
    def test_instance_states_are_numpys(self, seed):
        # one call hashes indices of one and of two 32-bit words, after a seed of one to four
        indices = [*range(301), 2**32, 2**40]
        states = bounds._pcg64_states(seed, indices)
        assert states == [np.random.default_rng([seed, i]).bit_generator.state["state"] for i in indices]

    def test_negative_seed_raises_as_numpy_does(self):
        for seed, index in ((-1, 0), (1, -2)):
            with pytest.raises(ValueError):
                np.random.default_rng([seed, index])
            with pytest.raises(ValueError):
                bounds._pcg64_states(seed, [0, index])

    @pytest.mark.parametrize("tag, d", list(SAMPLER_DIGESTS), ids=lambda v: repr(v))
    def test_make_pair_draws_pinned(self, tag, d):
        h = hashlib.sha256()
        for seed in range(3):
            for i in range(60):
                for gm in make_pair(seed, i, InstanceFamily(tag, d)):
                    m = gm.mixing
                    h.update(m.locations.tobytes())
                    h.update(m.weights.tobytes())
                    h.update(repr(m.tag).encode())
        assert h.hexdigest() == self.SAMPLER_DIGESTS[tag, d]

    def test_subgaussian_sampler_always_valid(self):
        for K in (0.5, 2.0):
            atoms = _draw_pairs(0, range(25), InstanceFamily(Subgaussian(K), 1, 8))
            # the draws sum to 1 before validation, which would renormalize them
            sums = [row[:k].sum() for row, k in zip(atoms.weights, atoms.counts)]
            assert sums == pytest.approx([1.0] * 50, abs=1e-12)
            weights = validate_atoms(*atoms, Subgaussian(K))
            for locs, w, k in zip(atoms.locations, weights, atoms.counts):
                assert subgaussian_check(MixingDistribution(locs[:k], w[:k]), K)

    FAMILIES = [Compact(2.0), Subgaussian(0.5)]

    @pytest.mark.parametrize("max_atoms", [1, 8, 64])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("tag", FAMILIES, ids=repr)
    def test_batched_draw_matches_the_reference(self, tag, d, max_atoms):
        # a sweep's draw, validated once, against the one-mixture-at-a-time
        # sampler with numpy's dirichlet and a MixingDistribution per mixture
        family = InstanceFamily(tag, d, max_atoms)
        for seed in range(10):
            batch = _draw_pairs(seed, range(60), family)
            weights = validate_atoms(*batch, tag)
            for i in range(60):
                for row, gm in zip((i, 60 + i), reference_pair(seed, i, family)):
                    k = batch.counts[row]
                    assert k == gm.mixing.n_atoms
                    assert batch.locations[row, :k].tobytes() == gm.mixing.locations.tobytes()
                    assert weights[row, :k].tobytes() == gm.mixing.weights.tobytes()
                    assert not batch.weights[row, k:].any()
                    assert not batch.locations[row, k:].any()

    @pytest.mark.parametrize("tag", FAMILIES, ids=repr)
    def test_make_pair_is_a_row_of_the_sweep_draw(self, tag):
        family = InstanceFamily(tag, 2)
        for n in (53, 120):
            batch = _draw_pairs(4, range(n), family)
            weights = validate_atoms(*batch, tag)
            for i in (0, 1, 2, 10, 51, 52):
                for row, gm in zip((i, n + i), make_pair(4, i, family)):
                    k = batch.counts[row]
                    assert np.array_equal(batch.locations[row, :k], gm.mixing.locations)
                    assert weights[row, :k].tobytes() == gm.mixing.weights.tobytes()

    def test_sweep_builds_no_mixture(self, monkeypatch):
        built = []
        post_init = MixingDistribution.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(mixtures.MixingDistribution, "__post_init__", counted)
        rep = verify_sweep(BoundId.L2fromTV, InstanceFamily(Compact(2.0), d=1), 300, seed=3)
        assert len(rep.instances) == 300
        assert built == []
        make_pair(3, 2, InstanceFamily(Compact(2.0), 1))
        assert len(built) == 2

    @pytest.mark.parametrize(
        "field, value",
        [("max_atoms", 2.5), ("max_atoms", True), ("max_atoms", "8"), ("d", True), ("d", 1.0)],
    )
    def test_family_needs_integer_sizes(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            InstanceFamily(Compact(2.0), **{field: value})
        assert InstanceFamily(Compact(2.0), d=np.int64(2), max_atoms=np.int64(3)).max_atoms == 3


class TestAssemblies:
    def test_ho_assembly_on_compact_pairs(self, rng):
        # KL <= ho_bound(exp(-12 M^2) H^2, 3, H^2, renyi_3) on Compact(1)
        M = 1.0
        for _ in range(10):
            p = random_compact(rng, M=M, d=1)
            q = random_compact(rng, M=M, d=1)
            est = _compute_divergences([DivergenceKind.KL, DivergenceKind.HellingerSq], p, q)
            h2 = est[DivergenceKind.HellingerSq].value
            if h2 <= 0:
                continue
            ren = renyi_integral(p, q, 3.0).value
            delta = math.exp(-12.0 * M * M) * h2
            assert est[DivergenceKind.KL].value <= ho_bound(delta, 3.0, h2, ren) + 1e-9

    def test_tightness_ratio_scale(self):
        p = single_gaussian(2.0, M=2.0)
        q = single_gaussian(-2.0, M=2.0)
        kl = divergence(DivergenceKind.KL, p, q).value
        h2 = divergence(DivergenceKind.HellingerSq, p, q).value
        expect = 8.0 / (2.0 - 2.0 * math.exp(-2.0))
        assert kl / h2 == pytest.approx(expect, rel=1e-6)
