import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq
from scipy.stats import norm

from gmdiv import (
    CapabilityError,
    Compact,
    DivergenceKind,
    GaussianMixture,
    HypothesisError,
    QuadratureError,
    Subgaussian,
    Unconstrained,
    characteristic_function,
    default_tol,
    divergence,
    plancherel_l2,
    renyi_integral,
    truncation_radius,
)
from gmdiv import divergences
from gmdiv.bounds import InstanceFamily, make_pair
from gmdiv.divergences import _Envelope, _compute_divergences, _start_radius, _tail_bound
from gmdiv.mixtures import LOG_2PI
from conftest import random_compact, single_gaussian

ALL_KINDS = list(DivergenceKind)


def closed_forms(delta):
    """Exact values for N(delta, 1) against N(0, 1) in one dimension."""
    return {
        DivergenceKind.KL: delta**2 / 2.0,
        DivergenceKind.HellingerSq: 2.0 - 2.0 * math.exp(-(delta**2) / 8.0),
        DivergenceKind.ChiSq: math.exp(delta**2) - 1.0,
        DivergenceKind.TV: 2.0 * norm.cdf(delta / 2.0) - 1.0,
        DivergenceKind.L2Sq: (1.0 - math.exp(-(delta**2) / 4.0)) / math.sqrt(math.pi),
    }


class TestTruncationRadius:
    def test_compact_example_value(self):
        R = truncation_radius(Compact(2.0), 1, math.exp(-8.0))
        assert R == pytest.approx(2.0 + math.sqrt(2.0 * (8.0 + math.log(2.0))), rel=1e-12)
        assert R == pytest.approx(6.1697, abs=1e-4)

    def test_mass_outside_radius_is_below_tol(self):
        # worst member of Compact(M): a point mass at radius M; its shifted
        # Gaussian has mass erfc((R-M)/sqrt(2)) outside the ball
        for tol in (1e-3, 1e-6, math.exp(-8.0)):
            R = truncation_radius(Compact(2.0), 1, tol)
            outside = math.erfc((R - 2.0) / math.sqrt(2.0))
            assert outside <= tol

    def test_subgaussian_mass_outside(self):
        K, tol = 2.0, 1e-6
        R = truncation_radius(Subgaussian(K), 1, tol)
        # dichotomy-style worst case: atom at s with weight exp(-s^2/2K^2)
        for s in np.linspace(0.1, R - 0.1, 50):
            w = math.exp(-(s**2) / (2.0 * K**2))
            outside = min(w, 1.0) * 1.0 + math.erfc((R - s) / math.sqrt(2.0))
            # atom tail + gaussian shell each stay within tol overall
            assert w * math.erfc(0.0) <= 1.0
        assert math.erfc((R - K * math.sqrt(2 * math.log(2 / tol))) / math.sqrt(2)) <= tol

    def test_tol_out_of_range(self):
        with pytest.raises(HypothesisError):
            truncation_radius(Compact(2.0), 1, 1.0)
        with pytest.raises(HypothesisError):
            truncation_radius(Compact(2.0), 1, 0.0)

    def test_monotone_in_m(self):
        rs = [truncation_radius(Compact(m), 1, 1e-6) for m in (1.0, 2.0, 3.0)]
        assert rs[0] < rs[1] < rs[2]

    def test_unconstrained_has_no_radius(self):
        with pytest.raises(CapabilityError):
            truncation_radius(Unconstrained(), 1, 1e-6)


class TestClosedForms:
    @pytest.mark.parametrize("delta", [1.0, 2.5])
    def test_single_gaussians_match(self, delta):
        M = max(delta, 1.0)
        p = single_gaussian(delta, M=M)
        q = single_gaussian(0.0, M=M)
        exact = closed_forms(delta)
        for kind in ALL_KINDS:
            est = divergence(kind, p, q)
            assert est.value == pytest.approx(exact[kind], rel=1e-7), kind

    def test_identity_pairs_are_zero(self, rng):
        p = random_compact(rng, M=2.0, d=1)
        for kind in ALL_KINDS:
            est = divergence(kind, p, p)
            assert est.value == 0.0

    def test_chi2_against_riemann_oracle(self):
        # independent oracle: plain Riemann sum of (p-q)^2/q on a wide grid
        delta = 1.0
        xs = np.linspace(-20.0, 20.0, 800001)
        dx = xs[1] - xs[0]
        pv = norm.pdf(xs, loc=delta)
        qv = norm.pdf(xs)
        oracle = float(np.sum((pv - qv) ** 2 / qv) * dx)
        assert oracle == pytest.approx(math.e - 1.0, rel=1e-6)
        est = divergence(DivergenceKind.ChiSq, single_gaussian(delta), single_gaussian(0.0))
        assert est.value == pytest.approx(oracle, rel=1e-6)

    def test_tv_against_cdf_oracle(self):
        # p - q crosses once at the midpoint, so TV = 2 Phi(delta/2) - 1
        est = divergence(DivergenceKind.TV, single_gaussian(1.0), single_gaussian(0.0))
        assert est.value == pytest.approx(2.0 * norm.cdf(0.5) - 1.0, rel=1e-8)
        assert est.value == pytest.approx(0.382925, abs=1e-6)

    def test_tightness_pair(self):
        p = single_gaussian(2.0, M=2.0)
        q = single_gaussian(-2.0, M=2.0)
        kl = divergence(DivergenceKind.KL, p, q)
        h2 = divergence(DivergenceKind.HellingerSq, p, q)
        assert kl.value == pytest.approx(8.0, rel=1e-7)
        assert h2.value == pytest.approx(2.0 - 2.0 * math.exp(-2.0), rel=1e-7)
        assert h2.value == pytest.approx(1.729329, abs=1e-6)

    @pytest.mark.parametrize("d", [2, 3])
    def test_higher_dimensions_single_atoms(self, d):
        u = np.zeros(d)
        u[0] = 1.5
        p = single_gaussian(u, M=2.0)
        q = single_gaussian(np.zeros(d), M=2.0)
        kl = divergence(DivergenceKind.KL, p, q)
        h2 = divergence(DivergenceKind.HellingerSq, p, q)
        assert kl.value == pytest.approx(1.5**2 / 2.0, rel=1e-6)
        assert h2.value == pytest.approx(2.0 - 2.0 * math.exp(-(1.5**2) / 8.0), rel=1e-6)


class TestTightTolerances:
    # d=2 used to raise QuadratureError at tol <= 1e-8; these pin that it
    # converges there, and to closed-form accuracy on single atoms
    @pytest.mark.parametrize("tol", [1e-8, 1e-9])
    def test_random_d2_pairs_converge(self, rng, tol):
        kinds = [DivergenceKind.KL, DivergenceKind.HellingerSq]
        for _ in range(8):
            p = random_compact(rng, M=2.0, d=2)
            q = random_compact(rng, M=2.0, d=2)
            for est in _compute_divergences(kinds, p, q, tol=tol).values():
                assert math.isfinite(est.value) and est.value >= -tol
                assert est.truncation_bound <= tol * max(abs(est.value), 1e-15)

    @pytest.mark.parametrize("delta", [0.5, 2.0, 4.0])
    def test_single_atom_d2_at_tol_1e_10(self, delta):
        p = single_gaussian([delta, 0.0])
        q = single_gaussian([0.0, 0.0])
        want = closed_forms(delta)
        kinds = [DivergenceKind.KL, DivergenceKind.HellingerSq]
        got = _compute_divergences(kinds, p, q, tol=1e-10)
        for kind in kinds:
            assert got[kind].value == pytest.approx(want[kind], rel=1e-10)


class TestEstimateContracts:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            divergence(DivergenceKind.KL, single_gaussian(0.0), single_gaussian([0.0, 0.0]))

    def test_unconstrained_rejected(self):
        p = GaussianMixture.from_atoms([[0.0]])
        with pytest.raises(CapabilityError):
            divergence(DivergenceKind.KL, p, p)

    def test_bitwise_deterministic(self, rng):
        p = random_compact(rng, M=2.0, d=1)
        q = random_compact(rng, M=2.0, d=1)
        a = divergence(DivergenceKind.KL, p, q)
        b = divergence(DivergenceKind.KL, p, q)
        assert a.value == b.value and a.truncation_bound == b.truncation_bound

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_level_zero_evaluated_once(self, monkeypatch, d):
        # the coarse pass that sets the truncation targets is level 0 of the
        # final rule when the radius search takes no step, so refinement
        # must reuse it rather than evaluate those nodes again
        p = single_gaussian([0.0] * d, M=3.0)
        q = single_gaussian([1.0] + [0.0] * (d - 1), M=3.0)
        calls = []
        original = GaussianMixture.log_density

        def spy(gm, x):
            calls.append((gm is p, len(x), x.tobytes()))
            return original(gm, x)

        monkeypatch.setattr(GaussianMixture, "log_density", spy)
        est = divergence(DivergenceKind.HellingerSq, p, q)
        assert est.domain_radius == truncation_radius(Compact(3.0), d, default_tol(d))
        assert len(calls) == len(set(calls))
        assert est.quadrature_points == sum(n for of_p, n, _ in calls if of_p)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([1, 2]))
    def test_symmetric_kinds(self, seed, d):
        # Hellinger tables store each pair in one orientation only, so a swap
        # of p and q must give the identical estimate, field for field.
        # d=2 TV runs at tol 1e-3: at its default tol it takes seconds per pair.
        rng = np.random.default_rng(seed)
        p = random_compact(rng, M=2.0, d=d)
        q = random_compact(rng, M=2.0, d=d)
        for kind in (DivergenceKind.HellingerSq, DivergenceKind.TV, DivergenceKind.L2Sq):
            tol = 1e-3 if d == 2 and kind is DivergenceKind.TV else None
            assert divergence(kind, p, q, tol=tol) == divergence(kind, q, p, tol=tol)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_ranges_and_ordering(self, seed):
        rng = np.random.default_rng(seed)
        p = random_compact(rng, M=2.0, d=1)
        q = random_compact(rng, M=2.0, d=1)
        est = _compute_divergences(ALL_KINDS, p, q)
        h2 = est[DivergenceKind.HellingerSq].value
        tv = est[DivergenceKind.TV].value
        kl = est[DivergenceKind.KL].value
        chi = est[DivergenceKind.ChiSq].value
        assert 0.0 <= h2 <= 2.0
        assert 0.0 <= tv <= 1.0
        assert kl >= 0.0 and chi >= 0.0 and est[DivergenceKind.L2Sq].value >= 0.0
        slack = 1e-9
        assert h2 <= kl + slack
        assert kl <= chi + slack
        # Le Cam: H^2/2 <= TV <= H sqrt(1 - H^2/4), and Pinsker: TV <= sqrt(KL/2); each
        # side moves by its truncation bound, and both right-hand sides increase in H^2 and KL
        tb = {kind: e.truncation_bound for kind, e in est.items()}
        h2_hi = min(h2 + tb[DivergenceKind.HellingerSq], 2.0)
        tv_lo, tv_hi = tv - tb[DivergenceKind.TV], tv + tb[DivergenceKind.TV]
        assert (h2 - tb[DivergenceKind.HellingerSq]) / 2.0 <= tv_hi + slack
        assert tv_lo <= math.sqrt(h2_hi * (1.0 - h2_hi / 4.0)) + slack
        assert tv_lo <= math.sqrt((kl + tb[DivergenceKind.KL]) / 2.0) + slack

    def test_d2_quadrature_matches_monte_carlo(self):
        # instance 1 of a sweep sets q = p, where both estimates are exactly 0
        family = InstanceFamily(Compact(2.0), 2)
        for i in (0, 2, 3):
            p, q = make_pair(11, i, family)
            for kind in (DivergenceKind.KL, DivergenceKind.HellingerSq):
                mc = divergences._mc_divergence(kind, p, q)
                assert abs(divergence(kind, p, q).value - mc.value) <= 4.0 * mc.truncation_bound

    def test_domain_growth_stability(self, rng):
        p = random_compact(rng, M=2.0, d=1)
        q = random_compact(rng, M=2.0, d=1)
        base = divergence(DivergenceKind.KL, p, q)
        grown = divergence(DivergenceKind.KL, p, q, domain_radius=2.0 * base.domain_radius)
        change = abs(grown.value - base.value)
        assert change <= base.truncation_bound + grown.truncation_bound + 1e-12 * max(1.0, base.value)
        assert grown.truncation_bound <= base.truncation_bound

    def test_product_embedding_consistency(self):
        # same pair placed in coordinate 1 of d=2: KL unchanged and the
        # Hellinger affinity is multiplicative (second factor contributes 1)
        p1, q1 = single_gaussian(0.7), single_gaussian(-0.4)
        p2 = single_gaussian([0.7, 0.0])
        q2 = single_gaussian([-0.4, 0.0])
        kl1 = divergence(DivergenceKind.KL, p1, q1).value
        kl2 = divergence(DivergenceKind.KL, p2, q2).value
        assert kl2 == pytest.approx(kl1, rel=1e-6)
        h1 = divergence(DivergenceKind.HellingerSq, p1, q1).value
        h2 = divergence(DivergenceKind.HellingerSq, p2, q2).value
        assert 1.0 - h2 / 2.0 == pytest.approx(1.0 - h1 / 2.0, rel=1e-7)

    def test_mixed_tags_work(self, rng):
        p = GaussianMixture.from_atoms([[0.0], [1.0]], [0.9, 0.1], tag=Subgaussian(2.0))
        q = random_compact(rng, M=2.0, d=1)
        est = divergence(DivergenceKind.KL, p, q)
        assert est.value >= 0.0 and math.isfinite(est.value)

    def test_monte_carlo_fallback_above_d3(self):
        u = np.zeros(4)
        u[0] = 1.0
        p = single_gaussian(u, M=2.0)
        q = single_gaussian(np.zeros(4), M=2.0)
        est = divergence(DivergenceKind.KL, p, q)
        assert est.domain_radius == math.inf
        assert abs(est.value - 0.5) <= 6.0 * est.truncation_bound

    def test_domain_radius_rejected_above_d3(self):
        # the Monte Carlo estimate has no domain, so a radius would be ignored
        p, q = single_gaussian([1.0, 0.0, 0.0, 0.0], M=2.0), single_gaussian(np.zeros(4), M=2.0)
        with pytest.raises(CapabilityError):
            divergence(DivergenceKind.HellingerSq, p, q, domain_radius=0.1)

    @pytest.mark.parametrize("tol", [5.0, 1.0, 0.0, -1e-6, math.nan])
    def test_bad_tol_rejected_above_d3(self, tol):
        p, q = single_gaussian([1.0, 0.0, 0.0, 0.0], M=2.0), single_gaussian(np.zeros(4), M=2.0)
        with pytest.raises(HypothesisError):
            divergence(DivergenceKind.HellingerSq, p, q, tol=tol)


class TestRadiusSearch:
    """One search sizes every certified ball; perfbench's tracer replays its steps."""

    @staticmethod
    def replayed_steps(p, q, R_final):
        # start radius and growth rule as documented, until R_final is reached
        d = p.dim
        R = max(
            truncation_radius(p.mixing.tag, d, default_tol(d)),
            truncation_radius(q.mixing.tag, d, default_tol(d)),
            max(p.mixing.radii.max(), q.mixing.radii.max()) + 1.0,
        )
        steps = 0
        while R < R_final:
            R += max(0.5, 0.04 * R)
            steps += 1
        assert R == R_final
        return steps

    def test_growth_is_replayed_exactly(self):
        kinds = [DivergenceKind.KL, DivergenceKind.HellingerSq]
        grown = 0
        for i in range(40):
            p, q = make_pair(3, i, InstanceFamily(Compact(2.0), 1))
            R_final = _compute_divergences(kinds, p, q)[DivergenceKind.KL].domain_radius
            grown += self.replayed_steps(p, q, R_final) > 0
        assert grown == 24
        # d = 2 pair 1 grows the radius by ten steps
        p, q = make_pair(3, 1, InstanceFamily(Compact(2.0), 2))
        R_final = _compute_divergences(kinds, p, q)[DivergenceKind.KL].domain_radius
        assert self.replayed_steps(p, q, R_final) > 0

    def test_gives_up_after_400_unmet_radii(self):
        seen = []

        def never(R):
            seen.append(R)
            return False

        with pytest.raises(CapabilityError):
            divergences._search_radius(3.0, never)
        assert len(seen) == 400
        assert divergences._search_radius(3.0, lambda R: R >= seen[-1]) == seen[-1]


def _chi2_tail_written_out(p_env, q_env, R, d):
    """The chi^2 certificate as its own per-atom loop, for cross-checking."""
    if R < max(p_env.s_max, q_env.s_max) + 0.25:
        return math.inf
    t0, logv0 = q_env.anchor(R)
    a = p_env.s_max + t0
    b = 0.5 * (t0 * t0 - p_env.s_max**2) - logv0
    ru = [1.0] if d == 1 else [R, 1.0] if d == 2 else [R * R, 2.0 * R, 1.0]
    total = 0.0
    for w, s in zip(p_env.weights, p_env.radii):
        kappa = R - (s + a)
        if kappa < 0.25:
            return math.inf
        log_c = s * a + 0.5 * a * a + b - 0.5 * kappa * kappa
        if log_c > 700.0:
            return math.inf
        moments, fact = 0.0, 1.0
        for m, c in enumerate(ru):
            fact *= max(m, 1)
            moments += c * fact / kappa ** (m + 1)
        total += w * math.exp(log_c) * moments
    norm = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[d] * math.exp(-0.5 * d * LOG_2PI)
    return norm * total + q_env.mass_tail(R, d)


class TestTailBounds:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([1, 2, 3]),
        M=st.sampled_from([0.5, 2.0, 4.0]),
        step=st.floats(0.0, 15.0),
    )
    def test_chi2_tail_is_renyi2_tail_plus_mass_tail(self, seed, d, M, step):
        rng = np.random.default_rng(seed)
        p_env = _Envelope(random_compact(rng, M=M, d=d))
        q_env = _Envelope(random_compact(rng, M=M, d=d))
        R = max(p_env.s_max, q_env.s_max) + step
        chi2 = _tail_bound(DivergenceKind.ChiSq, p_env, q_env, R, d)
        renyi2 = _tail_bound("renyi", p_env, q_env, R, d, lam=2.0)
        assert chi2 == renyi2 + q_env.mass_tail(R, d)
        assert chi2 == _chi2_tail_written_out(p_env, q_env, R, d)


class TestRenyiIntegral:
    def test_identity_is_one(self, rng):
        p = random_compact(rng, M=1.0, d=1)
        est = renyi_integral(p, p, 3.0)
        assert est.value == pytest.approx(1.0, rel=1e-8)

    @pytest.mark.parametrize("lam", [2.0, 3.0])
    def test_single_atom_closed_form(self, lam):
        for u, v in [
            ([1.2], [-0.8]),
            ([0.6, -0.3], [-0.2, 0.4]),
            ([0.6, -0.3, 0.2], [-0.2, 0.4, 0.1]),
        ]:
            est = renyi_integral(single_gaussian(u, M=2.0), single_gaussian(v, M=2.0), lam)
            dist2 = float(np.sum((np.array(u) - np.array(v)) ** 2))
            assert est.value == pytest.approx(math.exp(lam * (lam - 1.0) * dist2 / 2.0), rel=1e-7)

    def test_lambda3_sup_bound_compact(self, rng):
        for _ in range(10):
            p = random_compact(rng, M=2.0, d=1)
            q = random_compact(rng, M=2.0, d=1)
            est = renyi_integral(p, q, 3.0)
            assert est.value <= math.exp(48.0) * (1.0 + 1e-6)

    def test_lambda_range(self):
        p = single_gaussian(0.0)
        with pytest.raises(HypothesisError):
            renyi_integral(p, p, 1.0)

    def test_nan_lambda_rejected(self):
        # NaN passed `lam <= 1`, searched every radius and raised CapabilityError
        p = single_gaussian(0.0)
        with pytest.raises(HypothesisError, match="lambda"):
            renyi_integral(p, p, math.nan)

    def test_requires_compact(self):
        p = GaussianMixture.from_atoms([[0.0]], tag=Subgaussian(1.0))
        with pytest.raises(CapabilityError):
            renyi_integral(p, p, 3.0)


class TestPlancherel:
    def test_identity_zero(self):
        p = single_gaussian(0.3)
        assert plancherel_l2(p, p) == pytest.approx(0.0, abs=1e-15)

    def test_matches_direct_l2(self, rng):
        for _ in range(10):
            p = random_compact(rng, M=2.0, d=1)
            q = random_compact(rng, M=2.0, d=1)
            via_cf = plancherel_l2(p, q)
            direct = divergence(DivergenceKind.L2Sq, p, q).value
            assert abs(via_cf - direct) <= 1e-6 * max(1.0, direct)

    def test_matches_pair_sum_closed_form(self, rng):
        # third route: int phi(x-a) phi(x-b) dx = exp(-(a-b)^2/4) / (2 sqrt(pi))
        p = random_compact(rng, M=2.0, d=1)
        q = random_compact(rng, M=2.0, d=1)
        locs = np.concatenate([p.mixing.locations[:, 0], q.mixing.locations[:, 0]])
        coef = np.concatenate([p.mixing.weights, -q.mixing.weights])
        gram = np.exp(-0.25 * (locs[:, None] - locs[None, :]) ** 2)
        expected = float(coef @ gram @ coef) / (2.0 * math.sqrt(math.pi))
        assert plancherel_l2(p, q) == pytest.approx(expected, abs=1e-10)

    def test_cf_difference_envelope(self, rng):
        p = random_compact(rng, M=2.0, d=1)
        q = random_compact(rng, M=2.0, d=1)
        ts = np.linspace(-8.0, 8.0, 401)
        diff = np.abs(characteristic_function(p, ts) - characteristic_function(q, ts))
        assert np.all(diff <= 2.0 * np.exp(-0.5 * ts**2) + 1e-15)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_direct_l2_within_truncation_bound(self, seed):
        # the x-domain route misses at most its truncation bound, and each
        # route's refinement stops within tol of its value (L2^2 < 1 here)
        rng = np.random.default_rng(seed)
        p = random_compact(rng, M=2.0, d=1)
        q = random_compact(rng, M=2.0, d=1)
        tol = default_tol(1)
        est = divergence(DivergenceKind.L2Sq, p, q, tol=tol)
        assert abs(plancherel_l2(p, q, tol=tol) - est.value) <= est.truncation_bound + tol

    def test_requires_dimension_one(self):
        p = single_gaussian([0.0, 0.0])
        with pytest.raises(CapabilityError):
            plancherel_l2(p, p)

    @pytest.mark.parametrize("tol", [-1e-8, 0.0, 1.0, math.nan])
    def test_bad_tol_rejected_before_any_quadrature(self, monkeypatch, tol):
        # a negative tol used to keep the cut-off loop growing T forever
        calls = []
        monkeypatch.setattr(divergences, "characteristic_function", lambda *a: calls.append(a))
        p, q = single_gaussian(0.0), single_gaussian(1.0)
        with pytest.raises(HypothesisError):
            plancherel_l2(p, q, tol=tol)
        assert not calls


class TestBrentq:
    FAMILIES = [
        InstanceFamily(Compact(1.0), 1),
        InstanceFamily(Compact(2.0), 1),
        InstanceFamily(Subgaussian(2.0), 1),
    ]

    def test_matches_scipy_on_sign_change_brackets(self, monkeypatch):
        # every bracket `_sign_change_splits` finds on its 2049-point grid,
        # with the f it passes: the port's root is scipy's, bit for bit
        port, pairs = divergences.brentq, []

        def both(f, a, b, xtol):
            root = port(f, a, b, xtol=xtol)
            pairs.append((root, scipy_brentq(f, a, b, xtol=xtol)))
            return root

        monkeypatch.setattr(divergences, "brentq", both)
        for family in self.FAMILIES:
            for i in range(50):
                p, q = make_pair(7, i, family)
                divergences._sign_change_splits(p, q, _start_radius([p, q], default_tol(1)))
        assert len(pairs) >= 200
        assert all(root == expected for root, expected in pairs)

    @pytest.mark.parametrize("a, b", [(0.5, 2.0), (-1.0, 0.5)])
    def test_endpoint_root_returned(self, a, b):
        f = lambda x: x - 0.5
        assert divergences.brentq(f, a, b, xtol=1e-13) == 0.5 == scipy_brentq(f, a, b, xtol=1e-13)

    def test_same_sign_raises(self):
        with pytest.raises(QuadratureError, match="one sign"):
            divergences.brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-13)

    def test_nan_raises(self):
        f = lambda x: math.nan if 0.0 < x < 1.0 else x - 0.5
        with pytest.raises(QuadratureError, match="NaN"):
            divergences.brentq(f, 0.0, 1.0, xtol=1e-13)

    def test_no_convergence_raises(self):
        # a step function over [0, 1e300] needs about a thousand halvings
        f = lambda x: -1.0 if x < 0.3 else 1.0
        with pytest.raises(QuadratureError, match="100 iterations"):
            divergences.brentq(f, 0.0, 1e300, xtol=1e-13)
