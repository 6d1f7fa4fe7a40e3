import math
import tracemalloc

import mpmath
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
    gaussian_radial_tail,
    plancherel_l2,
    renyi_integral,
    truncation_radius,
)
from gmdiv import divergences
from gmdiv.bounds import BoundId, InstanceFamily, make_pair, verify_sweep
from gmdiv.divergences import (
    _Rule,
    _angular_rule,
    _compute_divergences,
    _integrands,
    _log_ratio_rounding,
    _mass_tail,
    _sign_change_splits,
    _start_radius,
    _tail_bounds,
)
from gmdiv.mixtures import LOG_2PI, _Batch, log_densities
from conftest import compute_pairs, random_compact, single_gaussian
from reference_splits import dense_splits

ALL_KINDS = list(DivergenceKind)
# the kinds integrated by quadrature, with tail certificates; L2^2 is a closed form
INTEGRATED_KINDS = [kind for kind in ALL_KINDS if kind is not DivergenceKind.L2Sq]


def closed_forms(delta):
    """Exact values for N(delta, 1) against N(0, 1) in one dimension."""
    return {
        DivergenceKind.KL: delta**2 / 2.0,
        DivergenceKind.HellingerSq: 2.0 - 2.0 * math.exp(-(delta**2) / 8.0),
        DivergenceKind.ChiSq: math.exp(delta**2) - 1.0,
        DivergenceKind.TV: 2.0 * norm.cdf(delta / 2.0) - 1.0,
        DivergenceKind.L2Sq: (1.0 - math.exp(-(delta**2) / 4.0)) / math.sqrt(math.pi),
    }


def on_rule(kinds, p, q, R, width, angular, lam=None):
    """Each kind integrated over the ball of radius R, a reference built apart from `_Rule`.

    The radius [0, R] is cut into equal panels at most `width` wide, 16
    Gauss-Legendre nodes each, so the reference does not move with the
    package's own panel layout; the angle is the package's d >= 2 angular
    rule at level `angular`.  The nodes are built and evaluated a block of
    radial nodes at a time, so a rule past `_MAX_POINTS` costs time but
    little memory.
    """
    d = p.dim
    edges = np.linspace(0.0, R, math.ceil(R / width) + 1)
    half = 0.5 * np.diff(edges)
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(16)
    r = ((edges[:-1] + half)[:, None] + half[:, None] * gl_nodes).ravel()
    wr = (half[:, None] * gl_weights).ravel()
    omegas, wa = _angular_rule(d, angular)
    step = max(1, (1 << 20) // omegas.shape[0])
    total = np.zeros(len(kinds))
    for lo in range(0, r.size, step):
        x = r[lo : lo + step]
        X = (x[:, None, None] * omegas).reshape(-1, d)
        w = ((wr[lo : lo + step] * x ** (d - 1))[:, None] * wa).ravel()
        logp, logq = p.log_density(X), q.log_density(X)
        total += [w @ _integrands([kind], logp, logq, lam)[0] for kind in kinds]
    return total


@pytest.fixture
def final_levels(monkeypatch):
    """Called after a `compute_pairs` run: the level pair each unit of its last rule stopped at.

    A unit is a member in d = 1 and one level-0 radial panel of a member in
    d >= 2, so there the list holds each panel's own angular level.
    """
    seen = []
    original = divergences._integrate

    def spy(measure, rule, levels, members, nest=False, part="gauss"):
        seen.append((rule, np.broadcast_to(levels, (members.size, 2)).tolist(), members.tolist()))
        return original(measure, rule, levels, members, nest, part)

    monkeypatch.setattr(divergences, "_integrate", spy)

    def final():
        rule, last = seen[-1][0], {}
        for r, levels, members in seen:
            if r is rule:
                last.update(zip(members, map(tuple, levels)))
        return [last[i] for i in range(rule.size)]

    return final


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

    @pytest.mark.parametrize("delta", [2.0, 4.0])
    def test_single_atom_d3_at_tol_1e_10(self, delta):
        # delta = 4 used to run out of levels while radius and angle doubled together
        p = single_gaussian([delta, 0.0, 0.0])
        q = single_gaussian([0.0, 0.0, 0.0])
        want = closed_forms(delta)
        kinds = [DivergenceKind.KL, DivergenceKind.HellingerSq]
        got = _compute_divergences(kinds, p, q, tol=1e-10)
        for kind in kinds:
            assert got[kind].value == pytest.approx(want[kind], rel=1e-10)

    def test_single_atom_d3_point_count(self):
        # the angle alone is refined: 243,712 points, where refining radius
        # and angle together spent 755,712
        p = single_gaussian([2.0, 0.0, 0.0])
        q = single_gaussian([0.0, 0.0, 0.0])
        est = divergence(DivergenceKind.KL, p, q, tol=1e-6)
        assert est.quadrature_points <= 250_000


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
        # must reuse it rather than evaluate those nodes again; in d >= 2
        # the search starts at the next multiple of the panel width (12 from
        # 8.39 in d = 2, from 9.00 in d = 3)
        p = single_gaussian([0.0] * d, M=3.0)
        q = single_gaussian([1.0] + [0.0] * (d - 1), M=3.0)
        calls = []
        original = divergences.log_densities

        def spy(batches, pts, counts=None):
            # p is the mixture with its one atom at the origin
            for batch in batches:
                calls.append((not batch.locations.any(), len(pts), pts.tobytes()))
            return original(batches, pts, counts)

        monkeypatch.setattr(divergences, "log_densities", spy)
        est = divergence(DivergenceKind.HellingerSq, p, q)
        assert est.domain_radius == (9.182851756998918, 12.0, 12.0)[d - 1]
        R = _start_radius([Compact(3.0)], [1.0], d, default_tol(d))[0]
        assert est.domain_radius == (R if d == 1 else 4.0 * math.ceil(R / 4.0))
        assert len(calls) == len(set(calls))
        assert est.quadrature_points == sum(n for of_p, n, _ in calls if of_p)

    @pytest.mark.parametrize("d, index, radius", [(2, 1, 16.0), (3, 2, 12.0)])
    def test_grown_radius_evaluates_no_start_pass_node_twice(self, monkeypatch, d, index, radius):
        # in d >= 2 the search grows the radius from 8 by whole level-0
        # panels, so the start pass's panels are the grown rule's inner
        # panels, bit for bit, and their rows are kept: across the whole
        # refinement every node of p is evaluated once
        p, q = make_pair(3, index, InstanceFamily(Compact(2.0), d))
        nodes = []
        original = divergences.log_densities

        def spy(batches, pts, counts=None):
            nodes.append(pts.copy())  # batches[0] is p's
            return original(batches, pts, counts)

        monkeypatch.setattr(divergences, "log_densities", spy)
        est = divergence(DivergenceKind.KL, p, q)
        assert 4.0 * math.ceil(_start_radius([Compact(2.0)], [1.0], d, default_tol(d))[0] / 4.0) == 8.0
        assert est.domain_radius == radius
        X = np.concatenate(nodes)
        assert est.quadrature_points == X.shape[0] == np.unique(X, axis=0).shape[0]
        # the start pass is the first call, on the ball of radius 8
        assert np.linalg.norm(nodes[0], axis=1).max() < 8.0

    @pytest.mark.parametrize("kind", [DivergenceKind.KL, DivergenceKind.TV])
    def test_d2_refinement_evaluates_no_node_twice(self, monkeypatch, final_levels, kind):
        # d = 2's trapezoid angles nest, so an angular step evaluates only the
        # angles the level below lacks; across KL's whole refinement every
        # node of p is evaluated once, and the value is still the full rule's
        # of each level-0 radial panel (a unit) at its final level pair,
        # summed.  TV keeps the radius off the panel grid and steps a
        # member's units together; it runs the two phases twice, on the path
        # (4, 0) -> (3, 0...3) -> (4, 3) -> (4, 4): the re-check's first
        # radial step evaluates level (4, 3) in full, so the level-(4, 0)
        # nodes of the first radial phase are evaluated a second time, and
        # no other node is
        p = single_gaussian([0.0, 0.0], M=3.0)
        q = GaussianMixture.from_atoms([[3.0, 0.0], [-0.5, 1.0]], [0.7, 0.3], tag=Compact(3.0))
        nodes = []
        original = divergences.log_densities

        def spy(batches, pts, counts=None):
            for batch in batches:
                if not batch.locations.any():  # p, its one atom at the origin
                    nodes.append(pts.copy())
            return original(batches, pts, counts)

        monkeypatch.setattr(divergences, "log_densities", spy)
        est = divergence(kind, p, q)
        X = np.concatenate(nodes)
        assert est.quadrature_points == X.shape[0]
        levels = final_levels()
        rule = _Rule(2, [est.domain_radius], divergences._radial_cuts(2, np.array([est.domain_radius])))
        assert rule.size == len(levels) == 3
        unique, seen = np.unique(X, axis=0, return_counts=True)
        if kind is DivergenceKind.KL:
            assert est.domain_radius == 12.0
            assert min(j for _, j in levels) >= 1 and seen.max() == 1
        else:
            assert est.domain_radius == _start_radius([Compact(3.0)], [3.0], 2, default_tol(2))[0]
            assert levels == [(4, 4)] * 3 and seen.max() == 2
            level = rule.nodes(np.array([[4, 0]] * 3), np.arange(3))[0]
            assert level.shape[0] == 24_576
            assert np.array_equal(unique[seen == 2], np.unique(level, axis=0))
        full = 0.0
        for unit, (i, j) in enumerate(levels):
            r, (wr,) = rule.radial(np.array([i]), np.array([unit]))
            omegas, wa = _angular_rule(2, j)
            X = (r[:, None, None] * omegas).reshape(-1, 2)
            full += ((wr * r)[:, None] * wa).ravel() @ _integrands([kind], p.log_density(X), q.log_density(X))[0]
        assert est.value == pytest.approx(full, rel=1e-13)

    # the raise is the one report: numpy's overflow warning is an error here
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "compute",
        [
            lambda p: divergence(DivergenceKind.ChiSq, p, single_gaussian(30.0, M=30.0)),
            lambda p: renyi_integral(p, single_gaussian(20.0, M=30.0), 3.0),
        ],
        ids=["chi2", "renyi"],
    )
    def test_non_finite_value_raises_at_once(self, compute):
        # chi^2 = e^900 - 1 and the lam = 3 power integral e^1200 overflow a
        # double; the driver stops at the first level whose value is not
        # finite, where it used to refine an infinite value to the level cap
        with pytest.raises(QuadratureError, match="^quadrature value is not finite at level 0$"):
            compute(single_gaussian(0.0, M=30.0))

    @pytest.mark.parametrize(
        "cap, value, kind, message",
        [
            (
                "_MAX_POINTS",
                20_000,
                DivergenceKind.KL,
                "angular level 2 at radial level 0 would exceed 20,000 nodes",
            ),
            (
                "_MAX_LEVELS",
                {1: (15, 1), 2: (8, 7), 3: (3, 2)},
                DivergenceKind.KL,
                "angular level 2 at radial level 0 is past the last angular level 1",
            ),
            (
                "_MAX_LEVELS",
                {1: (15, 1), 2: (8, 7), 3: (2, 1)},
                DivergenceKind.KL,
                "angular level 1 at radial level 0 is past the last angular level 0",
            ),
            (
                "_MAX_LEVELS",
                {1: (15, 1), 2: (8, 7), 3: (1, 13)},
                DivergenceKind.TV,
                "radial level 1 at angular level 0 is past the last radial level 0",
            ),
        ],
    )
    def test_cap_error_names_axis_and_level_pair(self, monkeypatch, cap, value, kind, message):
        # this pair needs angular level 2 at radial level 0, whose rule has
        # 48 radial nodes (3 panels of 16) on 512 directions, 24,576 nodes,
        # where no level before it has more than 13,824; radial caps 3 and 2
        # reach the finest panels that caps 2 and 1 did when a level-0 panel
        # was 2 wide.  KL's Kronrod nodes judge radial level 0 on their own,
        # but TV's radial phase steps to level 1 to judge level 0, and a
        # radial cap of 1 leaves it no level to step to
        monkeypatch.setattr(divergences, cap, value)
        p, q = single_gaussian([2.0, 0.0, 0.0]), single_gaussian([0.0, 0.0, 0.0])
        with pytest.raises(QuadratureError, match=f"^quadrature did not converge: {message}$"):
            divergence(kind, p, q)

    @pytest.mark.parametrize(
        "cap, value, message",
        [
            ("_MAX_LEVELS", {1: (1, 1), 2: (8, 7), 3: (8, 13)}, "level 1 is past the last level 0"),
            # its 33-node Gauss-Kronrod rule, 165 nodes on 5 panels, counts
            # against the cap, while the 80 Gauss nodes of level 0 fit
            ("_MAX_POINTS", 150, "level 0 would exceed 150 nodes"),
        ],
    )
    def test_kronrod_judgement_caps(self, monkeypatch, cap, value, message):
        # the Kronrod nodes of level 0 of this sweep pair move its KL by more
        # than tol, so it steps to level 1
        p, q = make_pair(1, 48, InstanceFamily(Compact(2.0), 1))
        assert divergence(DivergenceKind.KL, p, q).quadrature_points == 575
        monkeypatch.setattr(divergences, cap, value)
        with pytest.raises(QuadratureError, match=f"^quadrature did not converge: {message}$"):
            divergence(DivergenceKind.KL, p, q)

    def test_cut_panels_member_by_member(self):
        # members with 0, 0, 1, 0 and 3 roots: the left ends and the radii
        # share an insertion index where a member has no roots, and the last
        # member holds roots
        R = [5.0, 6.0, 7.0, 3.0, 10.0]
        roots = [[], [], [0.5], [], [-4.0, 1.0, 2.5]]
        rule = _Rule(1, R, (np.concatenate(roots), np.array([len(r) for r in roots])))
        lo = [x for r, c in zip(R, roots) for x in [-r, *c]]
        hi = [x for r, c in zip(R, roots) for x in [*c, r]]
        owner = [i for i, c in enumerate(roots) for _ in range(len(c) + 1)]
        base = [max(1, math.ceil((b - a) / 4.0)) for a, b in zip(lo, hi)]
        assert (rule.lo.tolist(), rule.hi.tolist()) == (lo, hi)
        assert (rule.owner.tolist(), rule.base.tolist()) == (owner, base)
        assert base == [3, 3, 2, 2, 2, 2, 2, 1, 2]
        members = np.arange(len(R))
        for level in (0, 2):
            panels = [sum(n for n, i in zip(base, owner) if i == m) << level for m in members]
            assert rule.counts(np.array([level, 0]), members).tolist() == [16 * n for n in panels]
            x, _ = rule.radial(np.full(len(R), level), members)
            assert x.size == 16 * sum(panels)

    @pytest.mark.parametrize("d, nest", [(2, False), (2, True), (3, False)], ids=["d2", "d2-nest", "d3"])
    def test_counts_are_the_rows_nodes_builds(self, monkeypatch, d, nest):
        # every angular level up to the cap, on a ball of one level-0 panel
        # and one of three at radial level 1 (16 and 96 radial nodes); the
        # node cap is lifted so that the finest d = 3 levels count too, and
        # a rule past 2^20 nodes is counted against its (uncached) angular
        # rule's rows rather than built
        monkeypatch.setattr(divergences, "_MAX_POINTS", 1 << 40)
        rule, members = _Rule(d, [3.0, 9.0]), np.arange(2)
        cap = divergences._MAX_LEVELS[d][1]
        for j in range(nest, cap):
            levels = np.array([[0, j], [1, j]])
            counts = rule.counts(levels, members, nest)
            directions = _angular_rule.__wrapped__(d, j, nest)[0].shape[0]
            assert counts.tolist() == [16 * directions, 96 * directions], j
            if counts.sum() <= 1 << 20:
                X, W = rule.nodes(levels, members, nest)
                assert X.shape == (counts.sum(), d) and W.shape == (1, counts.sum()), j
            # a level's Gauss-Kronrod rule adds 17 nodes a panel to its 16
            kronrod = rule.counts(levels, members, nest, "kronrod")
            assert kronrod.tolist() == [17 * directions, 102 * directions], j
        with pytest.raises(QuadratureError, match=f"past the last angular level {cap - 1}$"):
            rule.counts(np.array([[0, cap]]), members[:1], nest)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "p, q, kinds, domain_radius, where",
        [
            # Compact(1e6) tags start the radius search at 1e6 + 6.2, where
            # the start pass needs 8,000,000 nodes; d = 1 once skipped the
            # cap and spent 24,000,192 points (3.4 s) on this pair
            (single_gaussian(0.0, M=1e6), single_gaussian(1.0, M=1e6), [DivergenceKind.HellingerSq], None, "level 0"),
            (single_gaussian(0.0, M=1e9), single_gaussian(1.0, M=1e9), [DivergenceKind.HellingerSq], None, "level 0"),
            # once a MemoryError (3.64 TiB)
            (single_gaussian(0.0), single_gaussian(1.0), [DivergenceKind.KL], 1e12, "level 0"),
            # once an int64 overflow of the panel count, and numpy warnings
            (single_gaussian(0.0), single_gaussian(1.0), INTEGRATED_KINDS, 1e300, "level 0"),
            (
                single_gaussian([0.0, 0.0]),
                single_gaussian([1.0, 0.0]),
                INTEGRATED_KINDS,
                1e300,
                "radial level 0 at angular level 0",
            ),
        ],
        ids=["compact-1e6", "compact-1e9", "radius-1e12", "radius-1e300", "radius-1e300-d2"],
    )
    def test_node_cap_holds_in_every_d(self, p, q, kinds, domain_radius, where):
        for kind in kinds:
            with pytest.raises(
                QuadratureError, match=f"^quadrature did not converge: {where} would exceed 6,000,000 nodes$"
            ):
                divergence(kind, p, q, domain_radius=domain_radius)

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
        if d > 1:
            # a d >= 2 search tries the multiples of the level-0 panel width only
            R = 4.0 * math.ceil(R / 4.0)
        steps = 0
        while R < R_final:
            R += max(0.5, 0.04 * R) if d == 1 else 4.0
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
        # d = 2 pair 1 grows the radius by two steps, from 8 to 16
        p, q = make_pair(3, 1, InstanceFamily(Compact(2.0), 2))
        R_final = _compute_divergences(kinds, p, q)[DivergenceKind.KL].domain_radius
        assert self.replayed_steps(p, q, R_final) == 2

    def test_gives_up_after_400_unmet_radii(self):
        # every member of a batch gets 400 radii; one that meets none raises
        seen = []

        def never_second(R, members):
            seen.append(R[members == 1][0])
            return members == 0

        with pytest.raises(CapabilityError):
            divergences._search_radius([3.0, 3.0], never_second, False)
        assert len(seen) == 400
        met = divergences._search_radius([3.0, 3.0], lambda R, members: R >= np.array([3.0, seen[-1]])[members], False)
        assert met.tolist() == [3.0, seen[-1]]

    def test_only_growing_members_are_tested(self):
        # a member that met keeps its radius and is not asked again, and the
        # radii are those of a search that asks every member at every step
        target = np.array([3.0, 9.0, 40.0, 3.5, 120.0, 12.0])
        asked = []

        def met(R, members):
            asked.append(members)
            return R >= target[members]

        R = divergences._search_radius(np.full(6, 3.0), met, False)
        every, pending, tried = np.full(6, 3.0), np.ones(6, dtype=bool), np.zeros(6, dtype=int)
        while pending.any():
            tried += pending
            pending = every < target
            every[pending] += np.maximum(0.5, 0.04 * every[pending])
        assert R.tobytes() == every.tobytes()
        assert asked[0].tolist() == list(range(6))
        assert all(set(b) <= set(a) for a, b in zip(asked, asked[1:]))
        # each member is asked once per radius it tries
        assert np.bincount(np.concatenate(asked), minlength=6).tolist() == tried.tolist()


def _chi2_tail_written_out(p_env, q_env, R, d):
    """The chi^2 certificate as its own per-atom loop, for cross-checking.

    R is a 1-element array, so every step runs the same numpy ufuncs as the
    batched code (np.exp, and ** on arrays, where x**2 is x*x) and the two
    agree bit for bit.
    """
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
        total += w * np.exp(log_c) * moments
    norm = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[d] * math.exp(-0.5 * d * LOG_2PI)
    return float((norm * total + q_env.mass_tail(R, d))[0])


def _kind_values_one_by_one(kind, logp, logq, lam=None):
    """Each kind's integrand on its own, its two formulas on the nodes they own: the reference for `_integrands`."""
    lr = logp - logq
    if kind == DivergenceKind.KL:
        out = np.empty_like(lr)
        big = np.abs(lr) > 0.5
        out[big] = np.exp(logp[big]) * (lr[big] - 1.0) + np.exp(logq[big])
        s = np.expm1(lr[~big])
        out[~big] = np.exp(logq[~big]) * ((1.0 + s) * np.log1p(s) - s)
        return out
    if kind == DivergenceKind.HellingerSq:
        m = np.maximum(logp, logq)
        return np.exp(m) * np.expm1(-0.5 * np.abs(lr)) ** 2
    if kind == DivergenceKind.ChiSq:
        pos = lr > 0
        out = np.empty_like(lr)
        with np.errstate(over="ignore"):
            out[pos] = np.exp(2.0 * logp[pos] - logq[pos]) * np.expm1(-lr[pos]) ** 2
        out[~pos] = np.exp(logq[~pos]) * np.expm1(lr[~pos]) ** 2
        return out
    if kind == DivergenceKind.TV:
        m = np.maximum(logp, logq)
        return 0.5 * np.exp(m) * (-np.expm1(-np.abs(lr)))
    with np.errstate(over="ignore"):
        return np.exp(lam * logp - (lam - 1.0) * logq)


class TestIntegrands:
    """One pass forms every kind's integrand, each node the bits of that kind's own formulas."""

    KINDS = [*INTEGRATED_KINDS, "renyi"]

    @staticmethod
    def nodes():
        # |lr| at 0.5 and one ulp either side (every log-ratio below is
        # exact), lr = +-0, log p or log q or both below -745 (exp underflows
        # to 0), chi^2 past exp(709) (inf), NaN in log p, log q or both, and
        # the log-densities of a d = 2 pair on a grid
        half = [0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)]
        pairs = [(x, 0.0) for x in half] + [(-x, 0.0) for x in half]
        pairs += [(0.0, -x) for x in half] + [(-1.0, -1.0 + x) for x in half]
        pairs += [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-3.25, -3.25)]
        pairs += [(-800.0, -3.0), (-3.0, -800.0), (-800.0, -760.0), (-760.0, -800.0), (-1e4, -1e4)]
        pairs += [(-1.0, -720.0), (-0.5, -1e3)]
        pairs += [(math.nan, -1.0), (-1.0, math.nan), (math.nan, math.nan)]
        logp, logq = (np.array(v) for v in zip(*pairs))
        p = GaussianMixture.from_atoms([[0.0, 0.0], [1.5, -0.5]], [0.6, 0.4])
        q = GaussianMixture.from_atoms([[0.2, 0.1], [-1.0, 2.0], [0.0, -2.0]], [0.5, 0.3, 0.2])
        X = np.stack(np.meshgrid(np.linspace(-9, 9, 64), np.linspace(-9, 9, 64)), axis=-1).reshape(-1, 2)
        return np.concatenate([logp, p.log_density(X)]), np.concatenate([logq, q.log_density(X)])

    @staticmethod
    def assert_same_bits(got, want):
        nan = np.isnan(want)
        assert np.isnan(got[nan]).all()
        assert got[~nan].tobytes() == want[~nan].tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("order", [slice(None), slice(None, None, -1)])
    def test_every_kind_in_one_pass_is_its_own_formula(self, order):
        logp, logq = self.nodes()
        kinds = self.KINDS[order]
        got = _integrands(kinds, logp, logq, 1.7)
        assert got.shape == (len(kinds), logp.size)
        for kind, row in zip(kinds, got):
            self.assert_same_bits(row, _kind_values_one_by_one(kind, logp, logq, 1.7))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", KINDS)
    def test_one_kind_alone(self, kind):
        logp, logq = self.nodes()
        want = _kind_values_one_by_one(kind, logp, logq, 2.0)
        self.assert_same_bits(_integrands([kind], logp, logq, 2.0)[0], want)
        # every NaN in log p or log q comes out NaN, and chi^2 overflows to inf
        assert np.isnan(want[np.isnan(logp) | np.isnan(logq)]).all()
        if kind is DivergenceKind.ChiSq:
            assert np.isinf(want).sum() == 3  # at (-3, -800), (-1, -720) and (-0.5, -1e3)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown kind"):
            _integrands([DivergenceKind.KL, "js"], np.zeros(3), np.zeros(3))


class TestTailBounds:
    def test_radial_tail_scalar_contract_and_arrays(self):
        # t <= 0 is 1.0 in any d; t > 0 needs d in {1, 2, 3}; arrays go elementwise
        assert gaussian_radial_tail(0.0, 7) == 1.0 and gaussian_radial_tail(-2.0, 4) == 1.0
        with pytest.raises(CapabilityError):
            gaussian_radial_tail(0.5, 4)
        t = np.array([-1.0, 0.0, 0.3, 1.0, 2.5, 9.0])
        for d in (1, 2, 3):
            assert isinstance(gaussian_radial_tail(2.5, d), float)
            assert gaussian_radial_tail(t, d).tolist() == [gaussian_radial_tail(x, d) for x in t]
        assert gaussian_radial_tail(2.5, 1) == pytest.approx(math.exp(-0.5 * 2.5 * 2.5), rel=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([1, 2, 3]),
        M=st.sampled_from([0.5, 2.0, 4.0]),
        step=st.floats(0.0, 15.0),
    )
    def test_chi2_tail_is_renyi2_tail_plus_mass_tail(self, seed, d, M, step):
        rng = np.random.default_rng(seed)
        p, q = random_compact(rng, M=M, d=d), random_compact(rng, M=M, d=d)
        p_env, q_env = _Batch.of([p]), _Batch.of([q])
        R = np.array([max(p_env.s_max[0], q_env.s_max[0]) + step])
        chi2 = _tail_bounds([DivergenceKind.ChiSq], p_env, q_env, R, d)[:, 0]
        renyi2 = _tail_bounds(["renyi"], p_env, q_env, R, d, lam=2.0)[:, 0]
        assert chi2[0] == renyi2[0] + _mass_tail(q_env, R, d)[0]
        assert chi2[0] == _chi2_tail_written_out(_LoopEnvelope(p), _LoopEnvelope(q), R, d)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), step=st.floats(0.0, 15.0))
    def test_padded_rows_match_each_mixture_alone(self, seed, step):
        # padding a mixture with weight-0 atoms changes no bit of any tail,
        # and a kind's column of a several-kind table is its one-kind call
        rng = np.random.default_rng(seed)
        ps = [random_compact(rng, M=2.0, d=1) for _ in range(5)]
        qs = [random_compact(rng, M=2.0, d=1) for _ in range(5)]
        p_env, q_env = _Batch.of(ps), _Batch.of(qs)
        R = np.maximum(p_env.s_max, q_env.s_max) + step
        every = [*INTEGRATED_KINDS, "renyi"]
        for kinds in (*([kind] for kind in every), every, every[::-1]):
            batch = _tail_bounds(kinds, p_env, q_env, R, 1, lam=3.0)
            alone = [_tail_bounds(kinds, _Batch.of([p]), _Batch.of([q]), R[i : i + 1], 1, 3.0)[0].tolist()
                     for i, (p, q) in enumerate(zip(ps, qs))]
            assert batch.tolist() == alone
            for j, kind in enumerate(kinds):
                assert batch[:, j].tolist() == _tail_bounds([kind], p_env, q_env, R, 1, lam=3.0)[:, 0].tolist()


    @pytest.fixture
    def tail_events(self, monkeypatch):
        """The order of `_tail_bounds` calls, radius steps and `_refine` returns in a `_compute_pairs` run."""
        events = []
        tails, refine = divergences._tail_bounds, divergences._refine

        def spy_tails(*args, **kwargs):
            events.append("tails")
            return tails(*args, **kwargs)

        def spy_refine(measure, d, R, bound, met=None, tv=None):
            def step(*args):
                events.append("step")
                return met(*args)

            out = refine(measure, d, R, bound, None if met is None else step, tv)
            events.append("refined")
            return out

        monkeypatch.setattr(divergences, "_tail_bounds", spy_tails)
        monkeypatch.setattr(divergences, "_refine", spy_refine)
        return events

    def test_searched_radius_computes_one_table_a_step(self, tail_events):
        # the certificates are the rows of each pair's last step, not a pass after `_refine`
        pairs = [make_pair(3, i, InstanceFamily(Compact(2.0), 1)) for i in range(40)]
        compute_pairs(ALL_KINDS, pairs)
        steps = tail_events.count("step")
        assert steps > 1
        assert tail_events == ["step", "tails"] * steps + ["refined"]

    def test_fixed_radius_computes_one_table(self, tail_events):
        pairs = [make_pair(3, i, InstanceFamily(Compact(2.0), 1)) for i in range(40)]
        compute_pairs(ALL_KINDS, pairs, domain_radius=10.0)
        assert tail_events == ["refined", "tails"]

    @pytest.mark.parametrize("domain_radius", [None, 10.0])
    @pytest.mark.parametrize(
        "family, n, kinds, lam",
        [
            (InstanceFamily(Compact(2.0), 1), 40, INTEGRATED_KINDS, None),
            (InstanceFamily(Subgaussian(0.5), 1), 40, INTEGRATED_KINDS, None),
            (InstanceFamily(Compact(2.0), 1), 40, ["renyi"], 3.0),
            (InstanceFamily(Compact(2.0), 2), 6, [DivergenceKind.KL, DivergenceKind.HellingerSq], None),
        ],
        ids=["compact-d1", "subgaussian-d1", "renyi-d1", "compact-d2"],
    )
    def test_truncation_bounds_are_the_rows_at_the_final_radius(self, domain_radius, family, n, kinds, lam):
        pairs = [make_pair(5, i, family) for i in range(n)]
        got = compute_pairs(kinds, pairs, domain_radius=domain_radius, lam=lam)
        p_env, q_env = _Batch.of([p for p, _ in pairs]), _Batch.of([q for _, q in pairs])
        R = np.array([row[kinds[0]].domain_radius for row in got])
        want = _tail_bounds(kinds, p_env, q_env, R, family.d, lam)
        assert [[row[k].truncation_bound for k in kinds] for row in got] == want.tolist()


class _LoopEnvelope:
    """One mixture's atoms and per-atom tail helpers on a 1-element R, for the written-out check."""

    def __init__(self, gm):
        self.weights, self.radii = gm.mixing.weights, gm.mixing.radii
        self.logw = np.log(self.weights)
        self.s_max = self.radii.max(keepdims=True)

    def mass_tail(self, R, d):
        return sum(w * gaussian_radial_tail(R - s, d) for w, s in zip(self.weights, self.radii))

    def anchor(self, R):
        j = np.argmax(self.logw - 0.5 * (R + self.radii) ** 2, keepdims=True)
        return self.radii[j], self.logw[j]


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

    @pytest.mark.parametrize("index", [0, 2, 3, 4])
    def test_d3_pairs_converge(self, final_levels, index):
        # these pairs raised QuadratureError at the default tol while radius
        # and angle were refined together; the reference goes two angular
        # levels past the finest any of the pair's panels stopped at (4x the
        # directions), with radial panels at least four times finer
        p, q = make_pair(7, index, InstanceFamily(Compact(2.0), 3))
        est = renyi_integral(p, q, 3.0)
        i, j = np.max(final_levels(), axis=0)
        finer = on_rule(["renyi"], p, q, est.domain_radius, 0.5**i, j + 2, lam=3.0)[0]
        assert est.value == pytest.approx(finer, rel=default_tol(3))

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


def mp_l2(p, q):
    """||p - q||_2^2 from the stored atoms and weights, summed unmerged in 50-digit arithmetic."""
    with mpmath.workdps(50):
        atoms = [(x, mpmath.mpf(float(w))) for x, w in zip(p.mixing.locations, p.mixing.weights)]
        atoms += [(x, -mpmath.mpf(float(v))) for x, v in zip(q.mixing.locations, q.mixing.weights)]
        total = mpmath.mpf(0)
        for x, a in atoms:
            for y, b in atoms:
                dist2 = sum((mpmath.mpf(float(s)) - mpmath.mpf(float(t))) ** 2 for s, t in zip(x, y))
                total += a * b * mpmath.exp(-dist2 / 4)
        return total * (4 * mpmath.pi) ** (-mpmath.mpf(p.dim) / 2)


class TestClosedFormL2:
    """L2^2 is one closed-form sum in every d, checked against routes that do not share it."""

    @pytest.mark.parametrize("M", [1.0, 2.0])
    @pytest.mark.parametrize("eps", [1e-6, 1e-8, 1e-10, 1e-12, 1e-14])
    def test_near_identical_pairs_match_mpmath(self, M, eps):
        # the quadrature raised at eps <= 1e-12 and was 1.3e-7 off at 1e-10
        p = GaussianMixture.from_atoms([[0.0], [M]], [1.0 - eps, eps], tag=Compact(M))
        q = single_gaussian(0.0, M=M)
        est = divergence(DivergenceKind.L2Sq, p, q)
        want = mp_l2(p, q)
        assert abs(est.value - want) <= 1e-14 * want
        assert abs(est.value - want) <= est.truncation_bound

    @pytest.mark.parametrize("seed", range(20))
    def test_rounding_bound_covers_the_error(self, seed):
        rng = np.random.default_rng(seed)
        d = 1 + seed % 3
        p, q = random_compact(rng, M=2.0, d=d), random_compact(rng, M=2.0, d=d)
        est = divergence(DivergenceKind.L2Sq, p, q)
        # worst-case bound: here about 100 times the error, and still tiny
        assert abs(est.value - mp_l2(p, q)) <= est.truncation_bound <= 1e-14

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_a_tensor_trapezoid_rule(self, d):
        # the trapezoid rule converges geometrically on (p - q)^2; h = 0.5
        # on [-10, 10]^d is within 1e-15 relative on these pairs
        h = 0.5
        x = np.arange(-20, 21) * h
        grid = np.stack(np.meshgrid(*[x] * d, indexing="ij"), axis=-1).reshape(-1, d)
        for i in (0, 2, 3, 5):
            p, q = make_pair(9, i, InstanceFamily(Compact(2.0), d))
            diff = np.exp(p.log_density(grid)) - np.exp(q.log_density(grid))
            want = float(np.sum(diff * diff)) * h**d
            assert divergence(DivergenceKind.L2Sq, p, q).value == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("d", [4, 5, 8])
    def test_zero_padded_embedding(self, d):
        # a pair embedded in the first coordinate of R^d: the other d - 1
        # coordinates contribute int phi^2 = (4 pi)^(-1/2) each
        def embed(gm):
            locs = np.pad(gm.mixing.locations, ((0, 0), (0, d - 1)))
            return GaussianMixture.from_atoms(locs, gm.mixing.weights, tag=gm.mixing.tag)

        for i in range(6):
            p, q = make_pair(9, i, InstanceFamily(Compact(2.0), 1))
            one = divergence(DivergenceKind.L2Sq, p, q).value
            want = one * (4.0 * math.pi) ** (-0.5 * (d - 1))
            assert divergence(DivergenceKind.L2Sq, embed(p), embed(q)).value == pytest.approx(want, rel=1e-13)

    def test_identity_and_swap_in_a_batch(self):
        # q = p is exactly 0 (its atoms merge to coefficient 0), and a swap
        # negates every merged coefficient, so it changes no bit
        pairs = [make_pair(9, i, InstanceFamily(Compact(2.0), 1)) for i in range(60)]
        got = compute_pairs([DivergenceKind.L2Sq], pairs, None)
        swapped = compute_pairs([DivergenceKind.L2Sq], [(q, p) for p, q in pairs], None)
        assert got == swapped
        for i, est in enumerate(got):
            assert (est[DivergenceKind.L2Sq].value == 0.0) == (i % 50 == 1)
        zero = got[1][DivergenceKind.L2Sq]
        assert (zero.value, zero.truncation_bound, zero.domain_radius, zero.quadrature_points) == (0.0, 0.0, math.inf, 0)

    def test_duplicate_atoms_merge(self):
        # p's two atoms at one location are one atom of weight 0.5 + 0.25
        p = GaussianMixture.from_atoms([[0.0], [1.0], [0.0]], [0.5, 0.25, 0.25], tag=Compact(1.0))
        q = GaussianMixture.from_atoms([[1.0], [0.0]], [0.25, 0.75], tag=Compact(1.0))
        assert divergence(DivergenceKind.L2Sq, p, q).value == 0.0
        r = GaussianMixture.from_atoms([[1.0], [0.0]], [0.5, 0.5], tag=Compact(1.0))
        est = divergence(DivergenceKind.L2Sq, p, r)
        assert abs(est.value - mp_l2(p, r)) <= est.truncation_bound

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_l2_is_never_integrated(self, monkeypatch, d):
        def refuse(*args, **kwargs):
            raise AssertionError("L2 reached a quadrature or Monte Carlo path")

        for name in ("_refine", "_mc_divergence", "_integrands"):
            monkeypatch.setattr(divergences, name, refuse)
        u = np.zeros(d)
        u[0] = 1.0
        est = divergence(DivergenceKind.L2Sq, single_gaussian(u, M=2.0), single_gaussian(np.zeros(d), M=2.0))
        want = (1.0 - math.exp(-0.25)) / math.sqrt(math.pi) * (4.0 * math.pi) ** (-0.5 * (d - 1))
        assert est.value == pytest.approx(want, rel=1e-14)
        assert (est.domain_radius, est.quadrature_points) == (math.inf, 0)

    @pytest.mark.parametrize("bound", [BoundId.TVfromL2, BoundId.L2fromTV])
    def test_l2_sweeps_integrate_kl_h2_and_tv_only(self, monkeypatch, bound):
        seen = set()
        integrands, mc = divergences._integrands, divergences._mc_divergence

        def spy(kinds, *args, **kwargs):
            seen.update(kinds)
            assert DivergenceKind.L2Sq not in kinds
            return integrands(kinds, *args, **kwargs)

        def refuse_l2(kind, *args, **kwargs):
            assert DivergenceKind(kind) is not DivergenceKind.L2Sq
            return mc(kind, *args, **kwargs)

        monkeypatch.setattr(divergences, "_integrands", spy)
        monkeypatch.setattr(divergences, "_mc_divergence", refuse_l2)
        rep = verify_sweep(bound, InstanceFamily(Compact(2.0), 1), 20, seed=5)
        assert rep.failures == 0
        assert seen == {DivergenceKind.KL, DivergenceKind.HellingerSq, DivergenceKind.TV}

    @pytest.mark.parametrize(
        "p, q, kwargs, error",
        [
            (single_gaussian(0.0), single_gaussian([0.0, 0.0]), {}, ValueError),
            (single_gaussian(0.0), single_gaussian(1.0), {"tol": 1.0}, HypothesisError),
            (single_gaussian(0.0), single_gaussian(1.0), {"tol": 0.0}, HypothesisError),
            (single_gaussian(0.0), single_gaussian(1.0), {"domain_radius": 0.5}, HypothesisError),
            (single_gaussian(0.0), single_gaussian(1.0), {"domain_radius": math.inf}, HypothesisError),
            (single_gaussian(0.0), single_gaussian(1.0), {"domain_radius": math.nan}, HypothesisError),
            (single_gaussian([0.0, 0.0]), single_gaussian([1.0, 0.0]), {"domain_radius": math.inf}, HypothesisError),
            (single_gaussian([0.0, 0.0]), single_gaussian([1.0, 0.0]), {"domain_radius": math.nan}, HypothesisError),
            (single_gaussian(np.zeros(4)), single_gaussian(np.ones(4)), {"domain_radius": 9.0}, CapabilityError),
            (single_gaussian(np.zeros(4)), single_gaussian(np.ones(4)), {"tol": -1.0}, HypothesisError),
            (GaussianMixture.from_atoms([[0.0]]), single_gaussian(1.0), {}, CapabilityError),
        ],
        ids=[
            "dimension",
            "tol-1",
            "tol-0",
            "domain-radius",
            "radius-inf",
            "radius-nan",
            "radius-inf-d2",
            "radius-nan-d2",
            "radius-above-d3",
            "tol-above-d3",
            "unconstrained",
        ],
    )
    def test_arguments_checked_as_for_every_kind(self, p, q, kwargs, error):
        # a non-finite domain_radius once crashed in the rule for the
        # integrated kinds and returned a value for L2
        for kind in ALL_KINDS:
            with pytest.raises(error):
                divergence(kind, p, q, **kwargs)


class TestBrentq:
    FAMILIES = [
        InstanceFamily(Compact(1.0), 1),
        InstanceFamily(Compact(2.0), 1),
        InstanceFamily(Subgaussian(2.0), 1),
    ]

    def test_matches_scipy_on_sign_change_brackets(self, monkeypatch):
        # every bracket `_sign_change_splits` finds on its 2049-point grids,
        # with the f it passes, taken one bracket at a time by scipy: the
        # vectorized port's root is scipy's, bit for bit
        port, seen = divergences.brentq, []

        def both(f, a, b, xtol):
            roots = port(f, a, b, xtol=xtol)
            for i, root in enumerate(roots):
                one = lambda x, i=i: float(f(np.array([x]), np.array([i]))[0])
                seen.append((root, scipy_brentq(one, a[i], b[i], xtol=xtol)))
            return roots

        monkeypatch.setattr(divergences, "brentq", both)
        for family in self.FAMILIES:
            pairs = [make_pair(7, i, family) for i in range(50)]
            p_env, q_env = _Batch.of([p for p, _ in pairs]), _Batch.of([q for _, q in pairs])
            tags = {gm.mixing.tag for pair in pairs for gm in pair}
            R = _start_radius(tags, np.maximum(p_env.s_max, q_env.s_max), 1, default_tol(1))
            _sign_change_splits(p_env, q_env, R)
        assert len(seen) >= 200
        assert all(root == expected for root, expected in seen)

    @staticmethod
    def line(x, which):
        return x - 0.5

    @pytest.mark.parametrize("a, b", [(0.5, 2.0), (-1.0, 0.5)])
    def test_endpoint_root_returned(self, a, b):
        root = divergences.brentq(self.line, [a, 0.0], [b, 1.25], xtol=1e-13)
        assert root[0] == 0.5 == scipy_brentq(lambda x: x - 0.5, a, b, xtol=1e-13)
        assert root[1] == scipy_brentq(lambda x: x - 0.5, 0.0, 1.25, xtol=1e-13)

    def test_same_sign_raises(self):
        # one bracket without a sign change fails the call, whatever the others hold
        f = lambda x, which: np.where(which == 1, x * x + 1.0, x)
        with pytest.raises(QuadratureError, match="one sign"):
            divergences.brentq(f, [-1.0, -1.0], [1.0, 1.0], xtol=1e-13)

    def test_nan_raises(self):
        f = lambda x, which: np.where((0.0 < x) & (x < 1.0), math.nan, x - 0.5)
        with pytest.raises(QuadratureError, match="NaN"):
            divergences.brentq(f, [0.0], [1.0], xtol=1e-13)

    def test_no_convergence_raises(self):
        # a step function over [0, 1e300] needs about a thousand halvings
        f = lambda x, which: np.where(x < 0.3, -1.0, 1.0)
        with pytest.raises(QuadratureError, match="100 iterations"):
            divergences.brentq(f, [0.0, 0.0], [1e300, 1.0], xtol=1e-13)


class TestSignChangeSplits:
    @staticmethod
    def splits(p, q, R=8.0):
        roots, counts = _sign_change_splits(_Batch.of([p]), _Batch.of([q]), np.array([R]))
        assert counts.tolist() == [roots.size]
        return roots.tolist()

    @staticmethod
    def close_roots_pair():
        # log p - log q = 0 where e^-0.72 cosh(1.2 (x - 3)) = 1: two roots
        # 2.25 apart, inside one interval of linspace(-R, R, 2049) at R = 1e4
        p = GaussianMixture.from_atoms([[1.8], [4.2]], [0.5, 0.5], tag=Compact(4.2))
        return p, single_gaussian(3.0, M=4.2)

    @pytest.mark.parametrize("a", [1.0, 2.0])
    def test_root_on_a_grid_node(self, a):
        # a pair symmetric about 0 has its root on the middle node of
        # linspace(-R, R, 2049), where the log-ratio is exactly 0; the
        # search once missed it (the sign product there is 0, not < 0)
        p, q = single_gaussian(a, M=2.0), single_gaussian(-a, M=2.0)
        assert self.splits(p, q) == [0.0]
        # cut there, the kink no longer sits inside a panel: 80 points for
        # the start pass on [-R, R] (5 panels at most 4 wide), then 96 and
        # 102 for level 0 of the cut rule (3 panels a side) and its Kronrod
        # nodes
        assert divergence(DivergenceKind.TV, p, q).quadrature_points == 278

    def test_identical_pair_has_no_splits(self, rng):
        p = random_compact(rng, M=2.0, d=1)
        assert self.splits(p, p) == []
        # the sweep instances with q = p (index 1 mod 50) likewise
        p, q = make_pair(3, 51, InstanceFamily(Compact(2.0), 1))
        assert self.splits(p, q) == []

    def test_roots_ascend_within_each_pair(self):
        pairs = [make_pair(5, i, InstanceFamily(Compact(2.0), 1)) for i in range(30)]
        roots, counts = _sign_change_splits(
            _Batch.of([p for p, _ in pairs]), _Batch.of([q for _, q in pairs]), np.full(30, 9.0)
        )
        assert counts.sum() == roots.size and counts.max() >= 2
        for (p, q), own in zip(pairs, np.split(roots, np.cumsum(counts)[:-1])):
            assert own.tolist() == sorted(own.tolist()) == self.splits(p, q, 9.0)

    @staticmethod
    def dense(pairs, R=None):
        """Assert the roots and counts equal the full grid's bit for bit; return the counts."""
        p_env, q_env = _Batch.of([p for p, _ in pairs]), _Batch.of([q for _, q in pairs])
        if R is None:
            tags = {gm.mixing.tag for pair in pairs for gm in pair}
            R = _start_radius(tags, np.maximum(p_env.s_max, q_env.s_max), 1, default_tol(1))
        roots, counts = _sign_change_splits(p_env, q_env, R)
        want_roots, want_counts = dense_splits(p_env, q_env, R)
        assert counts.tolist() == want_counts.tolist()
        assert roots.tobytes() == want_roots.tobytes()
        return counts

    @pytest.mark.parametrize("max_atoms", [8, 20])
    @pytest.mark.parametrize("tag", [Compact(1.0), Compact(2.0), Subgaussian(0.5), Subgaussian(2.0)], ids=repr)
    def test_pruned_search_finds_the_full_grids_roots(self, tag, max_atoms):
        pairs = [make_pair(11, i, InstanceFamily(tag, 1, max_atoms)) for i in range(60)]
        assert self.dense(pairs).sum() >= 40

    def test_pruned_search_keeps_two_roots_in_one_coarse_interval(self):
        # roots at 1.18 and 1.56 inside the stride-128 interval [0, 2.33] at
        # R = 18.66, whose ends share a sign: a drop test with a tenth of
        # the slope bound loses both, the only pair of 40,000 sweep pairs
        # whose roots it changes
        pair = make_pair(1, 157, InstanceFamily(Subgaussian(2.0), 1, 8))
        assert self.dense([pair]).tolist() == [3]

    def test_pruned_search_keeps_roots_near_the_slope_bound(self):
        # both roots, 1.8768... and 4.1232..., lie inside the stride-128
        # interval [0, 8] at R = 64, whose ends share a sign with
        # |f_l| + |f_r| = 0.353 L 8 for the atom span L = 2.4: a drop test
        # with 0.35 L loses them
        assert self.dense([self.close_roots_pair()], np.array([64.0])).tolist() == [2]

    @pytest.mark.parametrize("R", [None, 8.0, 9.3])
    def test_pruned_search_keeps_roots_on_the_middle_node(self, R):
        two = GaussianMixture.from_atoms([[0.3], [-1.7]], [0.3, 0.7], tag=Compact(2.0))
        mirror = GaussianMixture.from_atoms([[-0.3], [1.7]], [0.3, 0.7], tag=Compact(2.0))
        pairs = [(single_gaussian(a, M=2.0), single_gaussian(-a, M=2.0)) for a in (0.5, 1.0, 2.0)]
        pairs.append((two, mirror))
        counts = self.dense(pairs, None if R is None else np.full(len(pairs), R))
        assert counts.min() >= 1
        assert all(0.0 in self.splits(p, q, 8.0) for p, q in pairs)

    def test_pruned_search_skips_identical_pairs(self, rng):
        p, small = random_compact(rng, M=2.0, d=1, max_atoms=20), single_gaussian(0.5, M=2.0)
        assert p.mixing.n_atoms > 1
        assert self.dense([(p, p), make_pair(3, 51, InstanceFamily(Compact(2.0), 1))]).tolist() == [0, 0]
        # (small, small) with its p side padded to more atoms than its q side, and to fewer
        assert self.dense([(small, small), (p, small)])[0] == 0
        assert self.dense([(small, p), (small, small)])[1] == 0

    def test_pruned_search_on_near_identical_pairs(self):
        # (1 - eps) N(0, 1) + eps N(M, 1) against N(0, 1): the log-ratio is
        # about eps (e^(M x - M^2 / 2) - 1), near rounding at eps = 1e-14 and
        # far below the slope bound over a grid step, so little is dropped
        pairs = [
            (GaussianMixture.from_atoms([[0.0], [M]], [1.0 - eps, eps], tag=Compact(M)), single_gaussian(0.0, M=M))
            for eps in (1e-6, 1e-10, 1e-14)
            for M in (1.0, 2.0)
        ]
        assert self.dense(pairs).min() >= 1

    def test_pruned_search_evaluates_few_grid_nodes(self, monkeypatch):
        evaluated, in_brentq = [0], [False]
        kernel, port = divergences.log_densities, divergences.brentq

        def counted(batches, pts, counts=None):
            if not in_brentq[0]:
                evaluated[0] += 2 * pts.shape[0]  # the nodes of p and of q
            return kernel(batches, pts, counts)

        def brentq(*args, **kwargs):
            in_brentq[0] = True
            return port(*args, **kwargs)

        monkeypatch.setattr(divergences, "log_densities", counted)
        monkeypatch.setattr(divergences, "brentq", brentq)
        pairs = [make_pair(1, i, InstanceFamily(Compact(2.0), 1)) for i in range(250)]
        p_env, q_env = _Batch.of([p for p, _ in pairs]), _Batch.of([q for _, q in pairs])
        _sign_change_splits(p_env, q_env, np.full(250, 8.0))
        # each node is evaluated once for p and once for q
        assert 0 < evaluated[0] // 2 <= 250 * 2049 // 8

    @pytest.mark.parametrize("R", [1e3, 1e4])
    def test_large_fixed_radius_keeps_the_grid_step(self, R):
        p, q = self.close_roots_pair()
        default = divergence(DivergenceKind.TV, p, q)
        assert divergence(DivergenceKind.TV, p, q, domain_radius=R).value == pytest.approx(
            default.value, rel=default_tol(1)
        )
        half_gap = math.acosh(math.exp(0.72)) / 1.2
        assert self.splits(p, q, R) == pytest.approx([3.0 - half_gap, 3.0 + half_gap], rel=0.0, abs=1e-12)

    def test_grid_sizes_mixed_in_one_batch(self):
        # R = 1e4, 8 and 300 give grids of 2048 * 2^s intervals for s = 8, 0
        # and 3; each pair's roots are its one-pair roots, in pair order
        p, q = self.close_roots_pair()
        R = np.array([1e4, 8.0, 300.0])
        roots, counts = _sign_change_splits(_Batch.of([p] * 3), _Batch.of([q] * 3), R)
        assert counts.tolist() == [2, 2, 2]
        assert roots.tolist() == [x for r in R for x in self.splits(p, q, r)]


class TestLogRatioBounds:
    """The two facts the pruned TV search rests on: the slope bound and rho."""

    @staticmethod
    def pair(seed):
        # atoms in [-2, 2] with most weights at the sampler's 1e-9 floor
        rng = np.random.default_rng(seed)

        def one():
            k = int(rng.integers(2, 21))
            w = np.maximum(rng.dirichlet(np.full(k, 0.05)), 1e-9)
            return GaussianMixture.from_atoms(rng.uniform(-2.0, 2.0, (k, 1)), w / w.sum(), tag=Compact(2.0))

        return one(), one()

    @pytest.mark.parametrize("seed", range(6))
    def test_score_difference_within_the_atom_span(self, seed):
        p, q = self.pair(seed)
        span = np.ptp(np.concatenate([p.mixing.locations, q.mixing.locations]))
        x = np.linspace(-30.0, 30.0, 20001)[:, None]
        gap = np.abs(p.score(x) - q.score(x))
        assert gap.max() <= span * (1.0 + 1e-12)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("R", [8.2, 30.0])
    def test_log_ratio_within_rho_of_mpmath(self, seed, R):
        p, q = self.pair(seed)
        p_env, q_env = _Batch.of([p]), _Batch.of([q])
        x = np.linspace(-R, R, 2049)[::32]
        logp, logq = log_densities([p_env, q_env], x[:, None], [x.size])
        got = logp - logq
        rho = _log_ratio_rounding(p_env, q_env, np.array([R]))[0]

        def log_mixture(gm, t):
            return mpmath.log(
                mpmath.fsum(
                    mpmath.mpf(float(w)) * mpmath.exp(-((t - mpmath.mpf(float(a[0]))) ** 2) / 2)
                    for a, w in zip(gm.mixing.locations, gm.mixing.weights)
                )
            )

        with mpmath.workdps(50):
            want = [log_mixture(p, mpmath.mpf(float(t))) - log_mixture(q, mpmath.mpf(float(t))) for t in x]
            err = max(abs(mpmath.mpf(float(g)) - w) for g, w in zip(got, want))
        # the pruning argument uses rho / 2
        assert err <= rho / 2


class TestBatchedDriver:
    """A pair's estimates are the same bits whatever batch it is computed in."""

    FAMILIES = [
        InstanceFamily(Compact(1.0), 1),
        InstanceFamily(Compact(2.0), 1),
        InstanceFamily(Subgaussian(0.5), 1),
        InstanceFamily(Subgaussian(2.0), 1),
    ]

    @staticmethod
    def check(kinds, pairs, **kwargs):
        batch = compute_pairs(kinds, pairs, **kwargs)
        assert len(batch) == len(pairs)
        for (p, q), got in zip(pairs, batch):
            assert got == compute_pairs(kinds, [(p, q)], **kwargs)[0]

    @pytest.mark.parametrize("family", FAMILIES, ids=repr)
    def test_d1_every_kind_bitwise(self, family):
        pairs = [make_pair(4, i, family) for i in range(40)]
        self.check(ALL_KINDS, pairs, tol=None)

    @pytest.mark.parametrize("family", FAMILIES[:2], ids=repr)
    def test_d1_renyi_bitwise(self, family):
        pairs = [make_pair(4, i, family) for i in range(40)]
        self.check(["renyi"], pairs, tol=None, lam=3.0)

    @pytest.mark.parametrize("family", FAMILIES, ids=repr)
    def test_d1_fixed_domain_radius_bitwise(self, family):
        pairs = [make_pair(4, i, family) for i in range(40)]
        self.check(ALL_KINDS, pairs, tol=None, domain_radius=10.0)

    def test_d2_pairs_within_rounding(self):
        pairs = [make_pair(4, i, InstanceFamily(Compact(2.0), 2)) for i in range(6)]
        kinds = [DivergenceKind.KL, DivergenceKind.HellingerSq, DivergenceKind.ChiSq, DivergenceKind.L2Sq]
        self.check(kinds, pairs, tol=None)

    def test_d3_pairs_within_rounding(self):
        pairs = [make_pair(4, i, InstanceFamily(Compact(2.0), 3)) for i in (2, 3)]
        self.check([DivergenceKind.KL, DivergenceKind.HellingerSq], pairs, tol=1e-4)

    def test_d3_members_at_different_level_pairs(self, final_levels):
        pairs = [make_pair(0, i, InstanceFamily(Compact(2.0), 3)) for i in (0, 1, 3)]
        kinds = [DivergenceKind.KL, DivergenceKind.HellingerSq]
        compute_pairs(kinds, pairs, None)
        assert len(set(final_levels())) > 1
        self.check(kinds, pairs, tol=None)

    def test_a_step_from_an_earlier_round_counts_whole(self):
        # one d = 2 member of two panels that step +1e-8 and -1e-8 against a
        # bound of 1.5e-8: in one round they are one rule's step and cancel,
        # but a panel's step from an earlier round is another rule's and
        # counts by its magnitude, and a member none of whose panels stepped
        # settled before
        rule = _Rule(2, [8.0], divergences._radial_cuts(2, np.array([8.0])))
        moved, values = np.array([[1e-8], [-1e-8]]), np.array([[0.5], [0.5]])
        bound = lambda value: 1.5e-8 * np.abs(value)  # noqa: E731
        assert divergences._unsettled(rule, moved, values, bound, np.arange(2)).size == 0
        assert divergences._unsettled(rule, moved, values, bound, np.array([0])).tolist() == [0, 1]
        assert divergences._unsettled(rule, moved, values, bound, np.array([], dtype=int)).size == 0
        # with `each`, only a panel over its equal share of the bound steps
        moved[1] = -6e-9
        assert divergences._unsettled(rule, moved, values, bound, np.array([0]), each=True).tolist() == [0]

    @pytest.mark.parametrize(
        "d, seed, indices, mixed",
        [(2, 7, range(24, 32), {28: [1, 2]}), (3, 0, range(4), {0: [2, 2, 1], 2: [2, 2, 1]})],
        ids=["d2", "d3"],
    )
    def test_panels_of_a_pair_at_different_angular_levels(self, final_levels, d, seed, indices, mixed):
        # each level-0 radial panel of a d >= 2 pair refines its angle on its
        # own, so the panels of a pair stop at different angular levels, and
        # each pair's estimates are still its own bits whatever its batch;
        # the rule holds the pairs in atom-count order, each pair's panels
        # in panel order
        pairs = [make_pair(seed, i, InstanceFamily(Compact(2.0), d)) for i in indices]
        kinds = [DivergenceKind.KL, DivergenceKind.HellingerSq]
        got = compute_pairs(kinds, pairs, None)
        order = np.lexsort(([q.mixing.n_atoms for _, q in pairs], [p.mixing.n_atoms for p, _ in pairs]))
        levels = iter(final_levels())
        angular = {}
        for i in order:
            panels = math.ceil(got[i][kinds[0]].domain_radius / 4.0)
            angular[indices[i]] = [next(levels)[1] for _ in range(panels)]
        assert next(levels, None) is None
        assert {i: a for i, a in angular.items() if len(set(a)) > 1} == mixed
        self.check(kinds, pairs, tol=None)
        # the panels of a mixed pair settled in different rounds, so their
        # last steps are of different rules; its value is still within tol/2
        # of a joint rule finer on both axes than any of its panels stopped at
        for i, index in enumerate(indices):
            if index in mixed:
                j = max(mixed[index])
                width, angular = (0.5**j, j + 1) if d == 2 else (0.5 ** ((j + 1) // 2), j + 2)
                joint = on_rule(kinds, *pairs[i], got[i][kinds[0]].domain_radius, width, angular)
                for kind, want in zip(kinds, joint):
                    assert got[i][kind].value == pytest.approx(want, rel=0.5 * default_tol(d)), (index, kind)

    def test_d2_sweep_pairs_bitwise(self):
        # a q = p pair (instance 51) reads rounding noise of about 1e-32 at
        # every level, so its stopping level follows its bits: when the
        # log-density kernel rounded a node by its block neighbours' atom
        # counts, it spent 30,208 points in this batch against 7,168 alone
        pairs = [make_pair(7, i, InstanceFamily(Compact(2.0), 2)) for i in range(100)]
        self.check([DivergenceKind.KL, DivergenceKind.HellingerSq], pairs, tol=None)

    def test_one_angular_rule_per_nodes_call(self, monkeypatch):
        # TV's re-check in d = 2 integrates members at several angular levels
        # in one `_integrate` call; its groups end where the angular level
        # changes, so every `_Rule.nodes` call sees one, and a pair's bits
        # are still its own
        pairs = [make_pair(4, i, InstanceFamily(Compact(1.0), 2)) for i in range(16)]
        mixed, seen = [], []
        integrate, nodes = divergences._integrate, _Rule.nodes

        def integrate_spy(measure, rule, levels, members, nest=False, part="gauss"):
            angular = np.broadcast_to(levels, (members.size, 2))[:, 1]
            mixed.append(len(set(angular.tolist())) > 1)
            return integrate(measure, rule, levels, members, nest, part)

        def nodes_spy(rule, levels, members, nest=False, span=None, part="gauss"):
            seen.append(len(set(levels[:, 1].tolist())))
            return nodes(rule, levels, members, nest, span, part)

        monkeypatch.setattr(divergences, "_integrate", integrate_spy)
        monkeypatch.setattr(_Rule, "nodes", nodes_spy)
        self.check([DivergenceKind.TV], pairs, tol=1e-4, domain_radius=4.0)
        assert any(mixed) and set(seen) == {1}

    def test_mixed_dimensions_rejected(self):
        p, q = single_gaussian(0.5), single_gaussian([0.0, 0.0])
        with pytest.raises(ValueError, match="dimension mismatch: p.dim=1, q.dim=2"):
            _compute_divergences(ALL_KINDS, p, q)

    def test_one_pair_is_compute_divergences(self, rng):
        p, q = random_compact(rng, M=2.0, d=1), random_compact(rng, M=2.0, d=1)
        assert compute_pairs(ALL_KINDS, [(p, q)], None)[0] == _compute_divergences(ALL_KINDS, p, q)

    @pytest.mark.parametrize(
        "family, kinds",
        [
            (InstanceFamily(Compact(2.0), 1), ALL_KINDS),
            (InstanceFamily(Subgaussian(2.0), 1), ALL_KINDS),
            (InstanceFamily(Compact(2.0), 2), [DivergenceKind.KL, DivergenceKind.HellingerSq]),
        ],
        ids=repr,
    )
    def test_a_shuffled_batch_gives_each_pair_its_bits(self, family, kinds):
        # the pairs are integrated in atom-count order and returned in the
        # caller's, so a shuffle of the batch shuffles the estimates alone
        pairs = [make_pair(6, i, family) for i in range(40 if family.d == 1 else 8)]
        got = compute_pairs(kinds, pairs)
        order = np.random.default_rng(family.d).permutation(len(pairs))
        assert compute_pairs(kinds, [pairs[i] for i in order]) == [got[i] for i in order]


class TestKronrodRule:
    """The 33-point Gauss-Kronrod extension of the 16-point Gauss-Legendre panel rule."""

    @staticmethod
    def reference(dps=50):
        """Its 17 added nodes and its 33 weights, from mpmath at `dps` digits.

        The added nodes are the roots of the Stieltjes polynomial E_17, the
        monic degree-17 polynomial with int P_16 E_17 x^k dx = 0 for k < 17
        on [-1, 1]; E_17 is odd, so E_17(x) = x F(x^2) with F of degree 8.
        The weights make the rule exact for x^k, k <= 32.
        """
        with mpmath.workdps(dps):
            legendre = [[mpmath.mpf(1)], [mpmath.mpf(0), mpmath.mpf(1)]]
            for k in range(1, 16):
                # (k + 1) P_{k+1} = (2k + 1) x P_k - k P_{k-1}
                up = [mpmath.mpf(0)] + legendre[k]
                down = legendre[k - 1] + [mpmath.mpf(0)] * 2
                legendre.append([((2 * k + 1) * a - k * b) / (k + 1) for a, b in zip(up, down)])
            p16 = legendre[16]

            def against_p16(power):
                # int P_16 x^power dx
                return mpmath.fsum(c * 2 / (i + power + 1) for i, c in enumerate(p16) if (i + power) % 2 == 0)

            odd = range(1, 17, 2)
            A = mpmath.matrix([[against_p16(j + k) for j in odd] for k in odd])
            b = mpmath.matrix([-against_p16(17 + k) for k in odd])
            coeffs = list(mpmath.lu_solve(A, b)) + [mpmath.mpf(1)]
            # F(y) = sum_i coeffs[i] y^i, highest degree first for polyroots
            ys = mpmath.polyroots(coeffs[::-1], maxsteps=200, extraprec=4 * dps)
            half = sorted(mpmath.sqrt(mpmath.re(y)) for y in ys)
            added = [-x for x in half[::-1]] + [mpmath.mpf(0)] + half
            gauss = [mpmath.findroot(lambda x: mpmath.legendre(16, x), mpmath.mpf(x)) for x in divergences._GL_NODES]
            nodes = gauss + added
            V = mpmath.matrix([[x**k for x in nodes] for k in range(33)])
            moments = mpmath.matrix([mpmath.mpf(2) / (k + 1) if k % 2 == 0 else 0 for k in range(33)])
            weights = list(mpmath.lu_solve(V, moments))
            return added, weights

    def test_table_is_mpmath_within_an_ulp(self):
        added, weights = self.reference()
        for table, exact in ((divergences._KRONROD_NODES, added), (divergences._KRONROD_WEIGHTS, weights)):
            assert len(table) == len(exact)
            for x, want in zip(table, exact):
                assert abs(mpmath.mpf(float(x)) - want) <= np.spacing(abs(x)), (x, want)

    def test_gauss_nodes_are_leggauss(self):
        nodes, weights = np.polynomial.legendre.leggauss(16)
        for part in ("gauss", "both"):
            t, rows = divergences._PANEL_RULES[part]
            assert t.tobytes() == nodes.tobytes() and rows[0].tobytes() == weights.tobytes()
        assert divergences._PANEL_RULES["both"][1][1].tobytes() == divergences._KRONROD_WEIGHTS[:16].tobytes()

    def test_integrates_polynomials_to_degree_49(self):
        x = np.concatenate([divergences._GL_NODES, divergences._KRONROD_NODES])
        for k in range(50):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(divergences._KRONROD_WEIGHTS @ x**k - exact) <= 1e-14, k


class TestKronrodJudgement:
    """Where the Kronrod check settles, the kept value is within tol of the Gauss rule one radial level finer.

    That finer level is what the doubling check evaluated to judge the
    same level, built here with `_integrate` on the rule and the measure of
    the pair's own run, each unit (a level-0 radial panel in d >= 2) at its
    final angular level, and summed over the units.
    """

    @pytest.fixture
    def check(self, monkeypatch, final_levels):
        calls, original = [], divergences._integrate

        def spy(measure, rule, levels, members, nest=False, part="gauss"):
            calls.append((measure, rule))
            return original(measure, rule, levels, members, nest, part)

        monkeypatch.setattr(divergences, "_integrate", spy)

        def check(kinds, p, q):
            got = compute_pairs(kinds, [(p, q)])[0]
            measure, rule = calls[-1]
            levels = np.array(final_levels()) + [1, 0]
            finer = original(measure, rule, levels, np.arange(rule.size))[0].sum(axis=0)
            kept = [got[kind].value for kind in kinds if kind is not DivergenceKind.L2Sq]
            assert len(kept) == finer.size
            for kind, value, want in zip(kinds, kept, finer):
                assert abs(value - want) <= default_tol(p.dim) * abs(want), (kind, value, want)

        return check

    @pytest.mark.parametrize("tag", [Compact(2.0), Subgaussian(2.0)], ids=repr)
    def test_d1_sweep_pairs(self, check, tag):
        for index in range(30):
            check(INTEGRATED_KINDS, *make_pair(2, index, InstanceFamily(tag, 1)))

    @pytest.mark.parametrize("width", [12.0, 24.0])
    def test_d1_pairs_on_wide_panels(self, monkeypatch, check, width):
        # level-0 panels this wide do not resolve a unit-width Gaussian, so
        # the check must step to finer levels before it settles
        monkeypatch.setattr(divergences, "_PANEL_WIDTH", width)
        for index in range(30):
            check(INTEGRATED_KINDS, *make_pair(2, index, InstanceFamily(Compact(2.0), 1)))

    @pytest.mark.parametrize(
        "tag, d, seed, count, kinds",
        [
            (Compact(2.0), 2, 1, 20, [DivergenceKind.KL, DivergenceKind.HellingerSq, DivergenceKind.ChiSq]),
            (Compact(2.0), 3, 0, 12, [DivergenceKind.KL, DivergenceKind.HellingerSq]),
            (Compact(2.0), 3, 5, 6, [DivergenceKind.KL, DivergenceKind.HellingerSq, DivergenceKind.ChiSq]),
            (Subgaussian(2.0), 3, 5, 6, [DivergenceKind.KL, DivergenceKind.HellingerSq]),
        ],
        ids=["d2", "d3", "d3-ChiSqThm", "d3-Thm5-K2"],
    )
    def test_separate_refinement_pairs(self, check, tag, d, seed, count, kinds):
        for index in range(count):
            check(kinds, *make_pair(seed, index, InstanceFamily(tag, d)))

    @staticmethod
    def eps_family_reference(kind, p):
        """TV or chi^2 of p = w0 N(0, 1) + w1 N(M, 1) against N(0, 1) in closed form, at 60 digits.

        Over the stored weights: p > q beyond x* = (log((1 - w0) / w1) + M^2 / 2) / M,
        so TV = int_{x*}^inf (p - q) - (w0 + w1 - 1) / 2, and
        chi^2 = (w0 + w1 - 1)^2 + w1^2 (e^{M^2} - 1).
        """
        with mpmath.workdps(60):
            (w0, w1), M = map(mpmath.mpf, p.mixing.weights), mpmath.mpf(p.mixing.locations[1, 0])
            if kind is DivergenceKind.ChiSq:
                return (w0 + w1 - 1) ** 2 + w1**2 * mpmath.expm1(M**2)
            tail = lambda t: mpmath.erfc(t / mpmath.sqrt(2)) / 2  # noqa: E731
            x = (mpmath.log((1 - w0) / w1) + M**2 / 2) / M
            return (w0 - 1) * tail(x) + w1 * tail(x - M) - (w0 + w1 - 1) / 2

    @pytest.mark.parametrize(
        "kind, eps, M",
        [(DivergenceKind.TV, eps, M) for eps in (1e-8, 1e-10, 1e-12) for M in (1.0, 2.0)]
        + [(DivergenceKind.ChiSq, eps, M) for eps in (1e-8, 1e-12) for M in (1.0, 2.0)],
    )
    def test_eps_family_within_tol_or_raises(self, kind, eps, M):
        # the ROADMAP Defects' near-identical pairs, whose integrands carry
        # rounding noise: the Kronrod difference reuses the Gauss nodes'
        # values, so their noise partly cancels in it, and past level 0 the
        # Kronrod value is also held to the level below's, on other nodes.
        # Without that, TV at eps = 1e-10, M = 1 settled 1.1e-8 off and
        # chi^2 at eps = 1e-12, M = 2 5.0e-7 off, where both levels' values
        # agree here or raise.  chi^2 at eps = 1e-10 misses by 1.4-1.5e-7
        # (M = 1) and 1.4-1.6e-8 (M = 2) with either check (item 10)
        p = GaussianMixture.from_atoms([[0.0], [M]], [1.0 - eps, eps], tag=Compact(M))
        q = GaussianMixture.from_atoms([[0.0]], tag=Compact(M))
        want = self.eps_family_reference(kind, p)
        try:
            got = divergence(kind, p, q).value
        except QuadratureError as exc:
            assert str(exc).startswith("quadrature did not converge: level 15 is past the last level 14")
            return
        assert abs(got - want) <= default_tol(1) * want


class TestLevelPaths:
    """Each `_refine` caller's radius and points in d = 1, pinned.

    Points pin which levels ran and which start-pass rows were kept as
    level 0, and they do not depend on the CPU or the BLAS build; values
    are pinned to 1e-14 relative.
    """

    # the radius grows past its start (8.18) for every kind, and stays for every kind
    PAIRS = {
        "grows": make_pair(3, 5, InstanceFamily(Compact(2.0), 1)),
        "stays": (single_gaussian(0.0, M=3.0), single_gaussian(1.5, M=3.0)),
    }

    @staticmethod
    def check(est, value, radius, points):
        assert (est.domain_radius, est.quadrature_points) == (radius, points)
        assert est.value == pytest.approx(value, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize(
        "pair, kind, value, radius, points",
        [
            # 80 points for the start pass, 80 for level 0 on the grown ball
            # and 85 for its Kronrod nodes (96 and 102 for chi^2's 6 panels)
            ("grows", DivergenceKind.KL, 0.16785733172867467, 8.682851756998918, 245),
            ("grows", DivergenceKind.HellingerSq, 0.09634166681064461, 8.682851756998918, 245),
            ("grows", DivergenceKind.ChiSq, 0.29172462242603503, 11.182851756998918, 278),
            ("grows", DivergenceKind.TV, 0.23847339648018306, 8.682851756998918, 245),
            # the start pass's 80 points are level 0: 80 + 85 for its Kronrod nodes
            ("stays", DivergenceKind.KL, 1.124999999999992, 9.182851756998918, 165),
            ("stays", DivergenceKind.HellingerSq, 0.4903207960219776, 9.182851756998918, 165),
            ("stays", DivergenceKind.ChiSq, 8.487735836358445, 9.182851756998918, 165),
            # TV's cut rule evaluates its own level 0: 80 + 96 + 102
            ("stays", DivergenceKind.TV, 0.5467452952462597, 9.182851756998918, 278),
        ],
    )
    def test_divergence(self, pair, kind, value, radius, points):
        self.check(divergence(kind, *self.PAIRS[pair]), value, radius, points)

    @pytest.mark.parametrize(
        "a, value, radius", [(1.0, 0.6826894921367446, 8.182851756998918), (2.0, 0.9544997360919246, 8.682851756998918)]
    )
    def test_tv_root_on_a_grid_node(self, a, value, radius):
        p, q = single_gaussian(a, M=2.0), single_gaussian(-a, M=2.0)
        self.check(divergence(DivergenceKind.TV, p, q), value, radius, 278)

    def test_fixed_domain_radius(self):
        got = _compute_divergences(INTEGRATED_KINDS, *self.PAIRS["grows"], domain_radius=10.0)
        values = [0.16785733172867498, 0.09634166681064477, 0.29172462242603503, 0.2384733964801996]
        for kind, value in zip(INTEGRATED_KINDS, values):
            self.check(got[kind], value, 10.0, 198)

    def test_renyi_integral(self):
        self.check(renyi_integral(*self.PAIRS["grows"], 3.0), 1.8562880136406776, 14.837142693136226, 344)

    def test_plancherel(self, monkeypatch):
        # 48 nodes at level 0 on [-6, 6], kept, and its 51 Kronrod nodes
        nodes, original = [0], divergences._integrate

        def spy(*args, **kwargs):
            rows, counts = original(*args, **kwargs)
            nodes[0] += int(counts.sum())
            return rows, counts

        monkeypatch.setattr(divergences, "_integrate", spy)
        value = plancherel_l2(*self.PAIRS["grows"])
        assert value == pytest.approx(0.04808910659450794, rel=1e-14, abs=0.0)
        assert nodes == [99]


class TestSeparateRefinement:
    """Radius, then angle, refined one at a time, against a reference finer on both axes.

    In d = 2 the reference takes the angular rule one level past the
    largest angular level j the pair's panels stopped at (2x its angles),
    and radial panels 2^-j wide.  In d = 3 it takes the angular rule two levels past (4x its
    directions) and radial panels 2^-ceil(j/2) wide, as two d = 3
    levels double nu once.  Both are finer than the radial level-0 panels
    the sweep pairs settle at.  The d = 3 pairs are those of the fixed
    d = 3 sweep, with its kinds, and the first pairs of the d = 3 ChiSqThm
    and Thm5 (K = 2) sweeps at seed 5, with theirs.
    """

    # the points each pair spends pin its level path: a driver change that
    # moves a level shows here even where the value stays within tol
    D2_POINTS = [4704, 6272, 6752, 4704, 4704, 6752, 6752, 4704, 6752, 4704]
    D2_POINTS += [4704, 6272, 6752, 4704, 8320, 6752, 5728, 4704, 4704, 6752]
    D3_POINTS = [42880, 26496, 42880, 34048, 79744, 34048, 79744, 42880, 61312, 42880, 79744, 34048]
    D3_CHISQ_POINTS = [42880, 35328, 87936, 145280, 287232, 79744]
    D3_THM5_POINTS = [60544, 44160, 97408, 97408, 60544, 97408]
    KL_H2 = [DivergenceKind.KL, DivergenceKind.HellingerSq]

    @pytest.mark.parametrize(
        "tag, d, seed, points, kinds",
        [
            (Compact(2.0), 2, 1, D2_POINTS, KL_H2 + [DivergenceKind.ChiSq]),
            (Compact(2.0), 3, 0, D3_POINTS, KL_H2),
            (Compact(2.0), 3, 5, D3_CHISQ_POINTS, KL_H2 + [DivergenceKind.ChiSq]),
            (Subgaussian(2.0), 3, 5, D3_THM5_POINTS, KL_H2),
        ],
        ids=["d2", "d3", "d3-ChiSqThm", "d3-Thm5-K2"],
    )
    def test_sweep_pairs_match_the_joint_rule(self, final_levels, tag, d, seed, points, kinds):
        tol = default_tol(d)
        for index, spent in enumerate(points):
            p, q = make_pair(seed, index, InstanceFamily(tag, d))
            got = compute_pairs(kinds, [(p, q)], None)[0]
            assert {got[kind].quadrature_points for kind in kinds} == {spent}, index
            # past the finest angular level any of the pair's panels stopped at
            j = max(j for _, j in final_levels())
            width, angular = (0.5**j, j + 1) if d == 2 else (0.5 ** ((j + 1) // 2), j + 2)
            joint = on_rule(kinds, p, q, got[kinds[0]].domain_radius, width, angular)
            for kind, want in zip(kinds, joint):
                assert got[kind].value == pytest.approx(want, rel=0.5 * tol), (index, kind)

    @pytest.mark.parametrize("seed", [5, 12, 27])
    def test_tv_kink_stays_within_tol(self, seed):
        # judged once per axis, radius on the 32 rays of the coarsest angular
        # rule, these TV pairs stopped 1.1-2.4e-6 relative from the integral;
        # the reference with radial panels 1/16 wide at angular level 5 is
        # within 1e-7 of one with panels 1/64 wide at angular level 7 here
        rng = np.random.default_rng(seed)
        p, q = random_compact(rng, M=2.0, d=2), random_compact(rng, M=2.0, d=2)
        est = divergence(DivergenceKind.TV, p, q)
        ref = on_rule([DivergenceKind.TV], p, q, est.domain_radius, 1 / 16, 5)[0]
        assert est.value == pytest.approx(ref, rel=default_tol(2))

    def test_tv_kink_raises_rather_than_stopping_early(self):
        # this pair stopped 1.7e-6 relative from the integral before the
        # angle was refined again at its final radial level, which takes
        # more angular levels than the rule has; radial level 4 has panels
        # of the same width (R/32) as radial level 3 had when a level-0
        # panel was 2 wide
        rng = np.random.default_rng(29)
        p, q = random_compact(rng, M=2.0, d=2), random_compact(rng, M=2.0, d=2)
        with pytest.raises(QuadratureError, match="angular level 7 at radial level 4"):
            divergence(DivergenceKind.TV, p, q)

    @pytest.mark.parametrize("index", [0, 4])
    def test_tv_kink_at_tight_tol(self, index):
        # at tol 1e-7 pairs 0 and 4 of this sweep converge and pairs 2, 3, 5,
        # 6 and 7 raise (pair 3 is the CLI's exit-4 case); the reference with
        # radial panels 1/32 wide at angular level 6 is within 1e-8 of one
        # with panels 1/64 wide at angular level 7 on both pairs
        p, q = make_pair(3, index, InstanceFamily(Compact(2.0), 2))
        est = divergence(DivergenceKind.TV, p, q, tol=1e-7)
        ref = on_rule([DivergenceKind.TV], p, q, est.domain_radius, 1 / 32, 6)[0]
        assert est.value == pytest.approx(ref, rel=1e-7)

    def test_d3_tv_pair_converges(self):
        # of the first 8 pairs of this d = 3 sweep, pair 1 (q = p) and pair 3
        # converge and the others raise at the node cap; the reference with
        # radial panels 1/4 wide on 8,192 directions (angular level 6) is
        # within 2e-7 of those with panels 1/8 wide or 32,768 directions
        p, q = make_pair(11, 3, InstanceFamily(Compact(2.0), 3))
        est = divergence(DivergenceKind.TV, p, q)
        ref = on_rule([DivergenceKind.TV], p, q, est.domain_radius, 1 / 4, 6)[0]
        assert est.value == pytest.approx(ref, rel=1e-7)


class TestStreamedLevels:
    """A member's level past _NODE_BUDGET nodes is read and evaluated a slice at a time."""

    @pytest.mark.parametrize(
        "d, R, level, nest",
        [
            (1, 300.0, (3, 0), False),
            (2, 9.0, (1, 3), False),
            (2, 9.0, (1, 3), True),
            (3, 9.0, (1, 0), False),
            (3, 9.0, (0, 3), False),
            (3, 3.0, (0, 7), False),
        ],
        ids=["d1-cut", "d2", "d2-nest", "d3-j0", "d3-j3", "d3-j7"],
    )
    def test_a_span_is_that_slice_of_the_whole_level(self, d, R, level, nest):
        # d = 1 cut at three TV splits; at d = 3 angular level 7 a radial
        # row holds 18,432 directions, more than one budget's slice; each
        # part of the radial panels, with its one or two weight rows
        splits = (np.array([-2.5, 0.3, 1.7]), np.array([3])) if d == 1 else None
        rule, levels, member = _Rule(d, [R], splits), np.array([level]), np.array([0])
        for part in ("gauss", "both", "kronrod"):
            X, W = rule.nodes(levels, member, nest, part=part)
            n, budget = X.shape[0], divergences._NODE_BUDGET
            assert n == rule.counts(levels, member, nest, part)[0] > budget
            assert W.shape == (1 + (part == "both"), n)
            nd = n // rule.radial(levels[:, 0], member, part=part)[0].size
            # the budget's slices, then spans that start and end inside a row
            spans = [(lo, min(n, lo + budget)) for lo in range(0, n, budget)]
            spans += [(0, n), (3, 5), (nd + 3, 3 * nd + 5), (n - nd - 7, n - 1)]
            rng = np.random.default_rng(d)
            for lo in rng.integers(0, n - 1, 8):
                spans.append((lo, min(n, lo + rng.integers(1, 3 * budget))))
            for lo, hi in spans:
                Xs, Ws = rule.nodes(levels, member, nest, span=(lo, hi), part=part)
                assert Xs.tobytes() == X[lo:hi].tobytes() and Ws.tobytes() == W[:, lo:hi].tobytes(), (part, lo, hi)

    @staticmethod
    def whole_levels(p, q, kinds, sizes):
        """The measure that evaluates each level in one piece: one kernel call and one np.add.reduceat."""
        p_env, q_env = _Batch.of([p]), _Batch.of([q])

        def measure(read, counts, members):
            sizes.append(int(counts.max()))
            X, W = read()
            (logp,) = log_densities([p_env[members]], X, counts)
            (logq,) = log_densities([q_env[members]], X, counts)
            vals = np.stack([_integrands([kind], logp, logq)[0] for kind in kinds])
            sums = np.add.reduceat(vals * W[:, None], np.cumsum(counts) - counts, axis=-1)
            return np.concatenate(sums, axis=0).T

        return measure

    @pytest.mark.parametrize(
        "pair, kinds, domain_radius",
        [
            # the eps-family pair of the ROADMAP Defects at eps = 1e-8, M = 1:
            # levels of 80,000 and 160,000 nodes
            (
                (GaussianMixture.from_atoms([[0.0], [1.0]], [1.0 - 1e-8, 1e-8], tag=Compact(1.0)), single_gaussian(0.0)),
                INTEGRATED_KINDS,
                1e4,
            ),
            # TV's two passes over each axis, nested angular steps included
            (make_pair(1, 0, InstanceFamily(Compact(2.0), 2)), INTEGRATED_KINDS, None),
            (
                make_pair(5, 3, InstanceFamily(Compact(2.0), 3)),
                [DivergenceKind.KL, DivergenceKind.HellingerSq, DivergenceKind.ChiSq],
                None,
            ),
        ],
        ids=["d1-defects", "d2", "d3"],
    )
    def test_streamed_rows_are_the_whole_levels(self, monkeypatch, pair, kinds, domain_radius):
        streamed = compute_pairs(kinds, [pair], None, domain_radius)[0]
        sizes, original = [], divergences._refine
        measure = self.whole_levels(*pair, kinds, sizes)
        monkeypatch.setattr(divergences, "_refine", lambda _, *args: original(measure, *args))
        assert compute_pairs(kinds, [pair], None, domain_radius)[0] == streamed
        assert max(sizes) > divergences._NODE_BUDGET

    def test_a_level_holds_one_float_per_node_per_kind(self):
        # KL on this pair evaluates levels of up to 55,296 nodes; evaluated
        # whole, that level held about ten floats a node (4.4 MiB traced);
        # streamed, it holds one (0.42 MiB) besides one slice's temporaries
        p, q = make_pair(5, 3, InstanceFamily(Compact(2.0), 3))
        divergence(DivergenceKind.KL, p, q)  # fills the angular rules' cache
        tracemalloc.start()
        try:
            divergence(DivergenceKind.KL, p, q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2**20
