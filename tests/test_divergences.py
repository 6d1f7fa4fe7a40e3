import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from gmdiv import (
    CapabilityError,
    Compact,
    DivergenceKind,
    GaussianMixture,
    HypothesisError,
    Subgaussian,
    Unconstrained,
    characteristic_function,
    divergence,
    plancherel_l2,
    renyi_integral,
    truncation_radius,
)
from gmdiv.divergences import _compute_divergences
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

    def test_ranges_and_ordering(self, rng):
        for _ in range(8):
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


class TestRenyiIntegral:
    def test_identity_is_one(self, rng):
        p = random_compact(rng, M=1.0, d=1)
        est = renyi_integral(p, p, 3.0)
        assert est.value == pytest.approx(1.0, rel=1e-8)

    @pytest.mark.parametrize("lam", [2.0, 3.0])
    def test_single_atom_closed_form(self, lam):
        p = single_gaussian(1.2, M=2.0)
        q = single_gaussian(-0.8, M=2.0)
        est = renyi_integral(p, q, lam)
        assert est.value == pytest.approx(math.exp(lam * (lam - 1.0) * 2.0**2 / 2.0), rel=1e-7)

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

    def test_requires_dimension_one(self):
        p = single_gaussian([0.0, 0.0])
        with pytest.raises(CapabilityError):
            plancherel_l2(p, p)
