import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmdiv import (
    CapabilityError,
    DivergenceKind,
    GaussianMixture,
    HellingerTable,
    HypothesisError,
    batch_net_mle,
    batch_risk_mc,
    default_tol,
    divergence,
    greedy_cover,
    hellinger,
    hellinger_project,
    local_cover,
    local_covering_number,
    pairwise_hellinger,
    rate_functional,
    sequential_forecaster,
)
from gmdiv import divergences, estimation
from gmdiv.estimation import Net
from gmdiv.mixtures import segment_log_density
from conftest import random_compact, single_gaussian


def theta_grid(start, stop, count, M=3.0):
    return [single_gaussian(t, M=M) for t in np.linspace(start, stop, count)]


def minimal_cover_size(dist, eps):
    """Exhaustive smallest candidate-centered eps-cover (n <= 12)."""
    n = dist.shape[0]
    for size in range(1, n + 1):
        for centers in itertools.combinations(range(n), size):
            if np.all(dist[list(centers)].min(axis=0) <= eps):
                return size
    return n


def h_closed(a, b):
    # Hellinger distance between N(a,1) and N(b,1)
    return math.sqrt(2.0 - 2.0 * math.exp(-((a - b) ** 2) / 8.0))


class TestGreedyCover:
    def test_single_candidate(self):
        net = greedy_cover(HellingerTable([single_gaussian(0.0)]), 0.3)
        assert len(net) == 1

    def test_two_close_candidates_one_center(self):
        # H(N(0,1), N(0.3,1)) ~ 0.15 < 0.5
        cands = [single_gaussian(0.0), single_gaussian(0.3)]
        assert len(greedy_cover(HellingerTable(cands), 0.5)) == 1

    def test_rejects_bad_radius(self):
        with pytest.raises(HypothesisError):
            greedy_cover(HellingerTable([single_gaussian(0.0)]), 0.0)

    @pytest.mark.parametrize(
        "cover",
        [
            lambda cands: greedy_cover(HellingerTable(cands), math.nan),
            lambda cands: local_cover(HellingerTable(cands), cands[0], math.nan),
            lambda cands: local_covering_number(HellingerTable(cands), math.nan, [0.3]),
            lambda cands: local_covering_number(HellingerTable(cands), 0.1, [math.nan]),
        ],
        ids=["greedy", "local", "local_number_eps", "local_number_eta"],
    )
    def test_nan_radius_rejected_before_any_distance(self, cover, hellinger_calls):
        # NaN passes an `eps <= 0` test, and then the farthest-point loop
        # never stops because `mindist <= nan` is never true
        cands = [single_gaussian(0.0), single_gaussian(0.5)]
        with pytest.raises(HypothesisError):
            cover(cands)
        assert not hellinger_calls

    def test_covers_and_packs(self):
        cands = theta_grid(-1.0, 1.0, 9)
        eps = 0.15
        net = greedy_cover(HellingerTable(cands), eps)
        # every candidate within eps of a center
        for c in cands:
            assert min(hellinger(c, e) for e in net.elements) <= eps + 1e-9
        # centers pairwise separated by more than eps
        m = len(net)
        for i in range(m):
            for j in range(i + 1, m):
                assert net.distance_cache[i, j] > eps

    def test_within_factor_two_of_exhaustive(self):
        cands = theta_grid(-1.0, 1.0, 11)
        thetas = np.linspace(-1.0, 1.0, 11)
        dist = np.array([[h_closed(a, b) for b in thetas] for a in thetas])
        for eps in (0.1, 0.2, 0.35):
            greedy_size = len(greedy_cover(HellingerTable(cands), eps))
            opt = minimal_cover_size(dist, eps)
            assert opt <= greedy_size <= 2 * opt

    def test_distance_cache_consistent(self):
        cands = theta_grid(-1.0, 1.0, 5)
        net = greedy_cover(HellingerTable(cands), 0.05)
        recomputed = pairwise_hellinger(net.elements)
        assert np.array_equal(net.distance_cache, recomputed)


class TestHellingerTable:
    def test_each_pair_once_and_bit_identical(self, hellinger_calls, gram_fills, rng):
        # one Gram pass fills every pair; no pair is integrated on its own,
        # and every read returns the same bits in both orientations
        cands = [random_compact(rng, M=2.0, d=1) for _ in range(6)]
        table = HellingerTable(cands)
        for eps in (0.05, 0.2, 0.5):
            greedy_cover(table, eps)
            local_covering_number(table, eps, [0.1, 0.3, 0.6])
        dist = np.sqrt(table.h2)
        assert not hellinger_calls
        assert len(gram_fills) == 1
        for i in range(6):
            assert dist[i, i] == 0.0
            for j in range(i + 1, 6):
                assert dist[i, j] == dist[j, i] == np.sqrt(table.h2[i, j])

    def test_shared_table_matches_per_call_covers(self, rng):
        cands = [random_compact(rng, M=2.0, d=1) for _ in range(7)]
        table = HellingerTable(cands)
        for eps in (0.1, 0.3):
            shared, alone = greedy_cover(table, eps), greedy_cover(HellingerTable(cands), eps)
            assert shared.elements == alone.elements
            assert np.array_equal(shared.distance_cache, alone.distance_cache)
        for eta in (0.2, 0.5):
            for c in cands:
                shared, alone = local_cover(table, c, eta), local_cover(HellingerTable(cands), c, eta)
                assert shared.elements == alone.elements
                assert np.array_equal(shared.distance_cache, alone.distance_cache)

    def test_net_reads_distances_only_when_asked(self, hellinger_calls):
        cands = theta_grid(-1.0, 1.0, 4)
        net = Net(HellingerTable(cands), np.arange(4), 0.0)
        assert net.elements == cands
        assert not hellinger_calls
        assert np.array_equal(net.distance_cache, pairwise_hellinger(cands))


    def test_nothing_computed_before_the_first_read(self, gram_fills, hellinger_calls):
        cands = theta_grid(-1.0, 1.0, 5)
        table = HellingerTable(cands)
        assert len(table) == 5
        assert not gram_fills
        table.h2
        table.h2
        assert len(gram_fills) == 1
        # a candidate (by identity) reads its row; any other density is integrated
        assert np.array_equal(table.h2_from(cands[3], np.arange(5)), table.h2[3])
        assert not hellinger_calls
        table.h2_from(single_gaussian(0.0), np.arange(1))
        assert len(hellinger_calls) == 1

    def test_theta_grid_matches_closed_form(self):
        thetas = np.linspace(-3.0, 3.0, 60)
        table = HellingerTable(theta_grid(-3.0, 3.0, 60))
        exact = 2.0 - 2.0 * np.exp(-((thetas[:, None] - thetas[None, :]) ** 2) / 8.0)
        assert np.max(np.abs(table.h2 - exact)) <= 1e-10

    def test_d2_ring_refines_past_level_zero(self):
        # atoms at radius 6 vary too fast in angle for level 0 of the polar
        # rule (its error is about 2e-5 there), so the pass must refine
        angles = 0.3 + np.linspace(0.0, 2.0 * math.pi, 9)[:-1]
        pts = 6.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        table = HellingerTable([single_gaussian(x, M=6.0) for x in pts])
        exact = 2.0 - 2.0 * np.exp(-np.sum((pts[:, None] - pts[None, :]) ** 2, axis=2) / 8.0)
        assert np.max(np.abs(table.h2 - exact)) <= default_tol(2)

    @pytest.mark.parametrize("d, count", [(1, 8), (2, 5)])
    def test_random_lists_within_tol_of_per_pair(self, rng, d, count):
        cands = [random_compact(rng, M=2.0, d=d) for _ in range(count)]
        table = HellingerTable(cands)
        tol = default_tol(d)
        for i, j in itertools.combinations(range(count), 2):
            per_pair = divergence(DivergenceKind.HellingerSq, cands[i], cands[j]).value
            assert abs(table.h2[i, j] - per_pair) <= tol

    @settings(max_examples=25, deadline=None)
    @given(perm=st.permutations(range(7)))
    def test_permutation_invariant_bitwise(self, perm):
        rng = np.random.default_rng(5)
        cands = [random_compact(rng, M=2.0, d=1) for _ in range(5)]
        # a second object with the same contents, and a one-atom candidate
        cands += [GaussianMixture(cands[2].mixing), single_gaussian(0.4, M=2.0)]
        base = pairwise_hellinger(cands)
        shuffled = pairwise_hellinger([cands[k] for k in perm])
        assert np.array_equal(shuffled, base[np.ix_(perm, perm)])

    @pytest.mark.parametrize(
        "cands, error",
        [
            ([single_gaussian([0.0] * 4), single_gaussian([1.0] * 4)], CapabilityError),
            ([single_gaussian(0.0), GaussianMixture.from_atoms([[1.0]])], CapabilityError),
            ([single_gaussian(0.0), single_gaussian([0.0, 1.0])], ValueError),
        ],
        ids=["d4", "unconstrained", "mixed_dim"],
    )
    def test_rejects_uncertifiable_lists(self, cands, error):
        with pytest.raises(error):
            HellingerTable(cands)

    def test_near_ties_resolve_to_the_first_index(self):
        # on an equally spaced grid many farthest-point distances are equal
        # up to rounding; a +-1e-12 change to every entry must not move a center
        cands = theta_grid(-3.0, 3.0, 60)
        table = HellingerTable(cands)
        eps_grid = (0.03, 0.05, 0.1, 0.2, 0.5)
        before = [greedy_cover(table, eps).index for eps in eps_grid]
        noise = 1e-12 * np.random.default_rng(3).choice([-1.0, 1.0], size=(60, 60))
        noise = np.triu(noise, 1)
        table.h2 = table.h2 + noise + noise.T
        for eps, index in zip(eps_grid, before):
            assert np.array_equal(greedy_cover(table, eps).index, index)


class TestLocalCover:
    def test_huge_ball_reduces_to_global(self):
        cands = theta_grid(-1.0, 1.0, 7)
        loc = local_cover(HellingerTable(cands), cands[3], 10.0)
        glob = greedy_cover(HellingerTable(cands), 5.0)
        assert len(loc) == len(glob)

    def test_tiny_ball_keeps_only_center(self):
        cands = theta_grid(-1.0, 1.0, 5)
        net = local_cover(HellingerTable(cands), cands[2], 1e-4)
        assert len(net) == 1

    def test_center_not_candidate_empty_ball(self):
        cands = theta_grid(1.0, 2.0, 3)
        net = local_cover(HellingerTable(cands), single_gaussian(-2.0), 0.05)
        assert len(net) == 0

    def test_against_exhaustive_oracle(self):
        thetas = np.linspace(-1.0, 1.0, 9)
        cands = theta_grid(-1.0, 1.0, 9)
        eta = 0.4
        center_idx = 4
        in_ball = [i for i in range(9) if h_closed(thetas[center_idx], thetas[i]) <= eta]
        dist = np.array([[h_closed(thetas[a], thetas[b]) for b in in_ball] for a in in_ball])
        opt = minimal_cover_size(dist, eta / 2.0)
        got = len(local_cover(HellingerTable(cands), cands[center_idx], eta))
        assert opt <= got <= 2 * opt

    def test_size_monotone_in_eta_below_diameter(self):
        cands = theta_grid(-1.0, 1.0, 9)
        sizes = [len(local_cover(HellingerTable(cands), cands[4], eta)) for eta in (0.5, 0.3, 0.15, 0.05)]
        assert all(b <= a for a, b in zip(sizes, sizes[1:]))

    def test_local_covering_number(self):
        cands = theta_grid(-1.0, 1.0, 7)
        n_loc = local_covering_number(HellingerTable(cands), 0.1, [0.1, 0.2, 0.4])
        assert n_loc >= 1


class TestProjection:
    def test_member_projects_to_itself(self):
        cands = theta_grid(-1.0, 1.0, 5)
        net = greedy_cover(HellingerTable(cands), 0.01)
        f = net.elements[2]
        assert hellinger_project(f, net) is f

    def test_two_element_example(self):
        net = greedy_cover(HellingerTable([single_gaussian(-1.0), single_gaussian(1.0)]), 0.01)
        proj = hellinger_project(single_gaussian(0.9), net)
        assert proj.mixing.locations[0, 0] == 1.0

    def test_factor_two_contract(self, rng):
        # H(project(f), g) <= 2 H(f, g) whenever the net reaches within H(f, g) of f
        net = greedy_cover(HellingerTable(theta_grid(-2.0, 2.0, 9)), 0.01)
        for _ in range(15):
            f = random_compact(rng, M=2.0, d=1)
            g = net.elements[int(rng.integers(len(net.elements)))]
            h_fg = hellinger(f, g)
            nearest = min(hellinger(f, e) for e in net.elements)
            if nearest <= h_fg:
                proj = hellinger_project(f, net)
                assert hellinger(proj, g) <= 2.0 * h_fg + 1e-9


    def test_members_read_the_table(self, rng, hellinger_calls):
        cands = [random_compact(rng, M=2.0, d=1) for _ in range(8)]
        net = greedy_cover(HellingerTable(cands), 0.2)
        projected = [hellinger_project(f, net) for f in cands]
        risk = batch_risk_mc(cands, net, n=20, trials=3, seed=1)
        assert not hellinger_calls
        # the same densities as other objects take the per-pair path
        copies = [GaussianMixture(f.mixing) for f in cands]
        assert [hellinger_project(f, net) for f in copies] == projected
        per_pair = batch_risk_mc(copies, net, n=20, trials=3, seed=1)
        assert len(hellinger_calls) == 2 * len(cands) * len(net)
        tol = default_tol(1)
        for a, b in zip(risk["per_candidate"], per_pair["per_candidate"]):
            assert abs(a["mean_h2"] - b["mean_h2"]) <= tol


class TestOutsideDensities:
    """A density that is not a table candidate is integrated per pair at the table's tol."""

    @pytest.fixture
    def tols(self, monkeypatch):
        seen = []
        original = estimation.divergence

        def spy(kind, p, q, **kwargs):
            seen.append((kind, kwargs.get("tol")))
            return original(kind, p, q, **kwargs)

        monkeypatch.setattr(estimation, "divergence", spy)
        return seen

    @pytest.fixture
    def net(self):
        return greedy_cover(HellingerTable(theta_grid(-1.0, 1.0, 6), tol=1e-4), 0.3)

    def test_local_cover(self, net, tols):
        local_cover(net.table, single_gaussian(0.05, M=3.0), 0.5)
        assert tols == [(DivergenceKind.HellingerSq, 1e-4)] * len(net.table)

    def test_hellinger_project(self, net, tols):
        f = single_gaussian(0.05, M=3.0)
        proj = hellinger_project(f, net)
        assert tols == [(DivergenceKind.HellingerSq, 1e-4)] * len(net)
        h2 = [divergence(DivergenceKind.HellingerSq, f, e, tol=1e-4).value for e in net.elements]
        assert proj is net.elements[int(np.argmin(h2))]

    def test_batch_risk_mc(self, net, tols):
        batch_risk_mc([single_gaussian(0.05, M=3.0)], net, n=10, trials=2, seed=0)
        assert tols == [(DivergenceKind.HellingerSq, 1e-4)] * len(net)


class TestBatchNetMle:
    def test_singleton_net(self):
        net = greedy_cover(HellingerTable([single_gaussian(0.7)]), 0.1)
        est = batch_net_mle(net, np.array([[-5.0], [5.0]]))
        assert est is net.elements[0]

    def test_majority_selection(self):
        net = greedy_cover(HellingerTable([single_gaussian(-1.0), single_gaussian(1.0)]), 0.01)
        truth = net.elements[1]
        hits = 0
        for seed in range(10):
            data = truth.sample(50, seed)
            if batch_net_mle(net, data) is truth:
                hits += 1
        assert hits >= 8

    def test_rejects_empty_data(self):
        net = greedy_cover(HellingerTable([single_gaussian(0.0)]), 0.1)
        with pytest.raises(ValueError):
            batch_net_mle(net, np.empty((0, 1)))


def recurrence_forecaster(net, stream):
    """The per-step Bayes update in long double: weights, step log loss, regret to the best, best index."""
    loglik = np.stack([e.log_density(stream) for e in net.elements], axis=1).astype(np.longdouble)
    n_steps, n_el = loglik.shape
    lw = np.full(n_el, -np.log(np.longdouble(n_el)))
    weights = np.empty((n_steps, n_el), dtype=np.longdouble)
    pred = np.empty(n_steps, dtype=np.longdouble)
    for t in range(n_steps):
        weights[t] = np.exp(lw)
        row = lw + loglik[t]
        m = row.max()
        pred[t] = m + np.log(np.sum(np.exp(row - m)))
        lw = row - pred[t]
    totals = loglik.sum(axis=0)
    best = int(np.argmax(totals))
    return weights, -pred, totals[best] - pred.sum(), best


class TestSequentialForecaster:
    def test_singleton_net_zero_regret(self):
        net = greedy_cover(HellingerTable([single_gaussian(0.5)]), 0.1)
        stream = net.elements[0].sample(30, seed=4)
        res = sequential_forecaster(net, stream, true_density=net.elements[0])
        assert np.all(res.cum_regret == 0.0)
        assert res.regret_vs_best == 0.0

    def test_pathwise_regret_at_most_log_net_size(self):
        net = greedy_cover(HellingerTable([single_gaussian(-1.0), single_gaussian(1.0)]), 0.01)
        truth = net.elements[1]
        for seed in range(5):
            stream = truth.sample(100, seed)
            res = sequential_forecaster(net, stream, true_density=truth)
            assert res.cum_regret.max() <= math.log(2.0) + 1e-9
            assert res.regret_vs_best <= math.log(2.0) + 1e-9

    def test_weights_stay_probability_vectors(self):
        net = greedy_cover(HellingerTable(theta_grid(-1.0, 1.0, 4)), 0.01)
        stream = net.elements[0].sample(25, seed=9)
        res = sequential_forecaster(net, stream)
        assert np.allclose(res.predictive_weights.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(res.predictive_weights >= 0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        start=st.floats(-3.0, 0.0),
        stop=st.floats(0.5, 3.0),
        n_el=st.integers(1, 60),
        n_steps=st.integers(1, 2000),
        mean=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_long_double_recurrence(self, start, stop, n_el, n_steps, mean, seed):
        net = Net(HellingerTable(theta_grid(start, stop, n_el)), np.arange(n_el), 0.0)
        stream = single_gaussian(mean).sample(n_steps, seed)
        res = sequential_forecaster(net, stream)
        weights, loss, regret, best = recurrence_forecaster(net, stream)
        assert np.all(np.abs(res.step_log_loss - loss) <= 1e-13 * np.abs(loss))
        assert np.max(np.abs(res.predictive_weights - weights)) <= 1e-12
        assert abs(res.regret_vs_best - regret) <= 1e-12
        assert res.regret_vs_best <= math.log(n_el)
        assert batch_net_mle(net, stream) is net.elements[best]

    def test_cum_regret_is_per_step_regret_against_the_truth(self):
        net = greedy_cover(HellingerTable(theta_grid(-1.0, 1.0, 4)), 0.01)
        truth = net.elements[2]
        stream = truth.sample(40, seed=5)
        res = sequential_forecaster(net, stream, true_density=truth)
        assert res.cum_regret.shape == (40,)
        np.testing.assert_array_equal(res.cum_regret, np.cumsum(truth.log_density(stream) + res.step_log_loss))
        assert sequential_forecaster(net, stream).cum_regret is None

    def test_mle_scores_equal_per_element_sums(self, rng):
        # the row sums of the shared matrix pick the same element as np.sum per element
        net = greedy_cover(HellingerTable(theta_grid(-2.0, 2.0, 9)), 0.01)
        for n in (1, 7, 200, 3001):
            pts = rng.normal(size=(n, 1))
            _, loglik = estimation._net_loglik(net, pts)
            per_element = [np.sum(e.log_density(pts)) for e in net.elements]
            np.testing.assert_array_equal(loglik.sum(axis=1), per_element)


    @pytest.mark.filterwarnings("error")
    def test_underflow_regime_matches_plain_exp(self):
        # the workload's shape: 60 candidates, 2,000 steps, where most
        # exponent arguments lie below -745.2 and exp gives +0.0; the
        # forecaster's formula with plain np.exp, bit for bit
        net = Net(HellingerTable(theta_grid(-3.0, 3.0, 60)), np.arange(60), 0.0)
        truth = net.elements[41]
        stream = truth.sample(2000, seed=12)
        res = sequential_forecaster(net, stream, true_density=truth)
        loglik = np.stack([e.log_density(stream) for e in net.elements])
        best = loglik[np.argmax(loglik.sum(axis=1))]
        post = np.pad(np.cumsum(loglik - best, axis=1), ((0, 0), (1, 0))) - math.log(60)
        top = post.max(axis=0)
        assert np.mean(post - top < -745.2) > 0.5
        marg = top + np.log(np.exp(post - top).sum(axis=0))
        pred = best + np.diff(marg)
        expected = {
            "predictive_weights": np.exp(post[:, :-1] - marg[:-1]).T,
            "step_log_loss": -pred,
            "cum_regret": np.cumsum(truth.log_density(stream) - pred),
            "regret_vs_best": np.float64(-marg[-1]),
        }
        for name, want in expected.items():
            got = np.asarray(getattr(res, name))
            # tobytes tells +0.0 from -0.0
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


def per_element_rows(locations, logw, pts):
    """`shared_log_density` as one one-mixture kernel call per row, as `GaussianMixture.log_density` makes."""
    return np.stack([segment_log_density(locations[i : i + 1], logw[i : i + 1], pts, [len(pts)]) for i in range(len(logw))])


def per_element_loglik(net, data):
    """`_net_loglik` as one `GaussianMixture.log_density` call per element."""
    pts = np.atleast_2d(np.asarray(data, dtype=float))
    return pts, np.stack([e.log_density(pts) for e in net.elements])


class TestSharedNodePass:
    """The Gram pass and the net log-likelihoods against one density call per element."""

    @pytest.mark.parametrize("d, count", [(1, 30), (2, 6), (3, 4)])
    def test_gram_tables_bitwise(self, d, count, rng, monkeypatch):
        cands = [random_compact(rng, M=1.0, d=d, max_atoms=4) for _ in range(count)]
        # the default chunking, then several node chunks per level with a partial last one
        for entries in (divergences._GRAM_ENTRIES, 97 * count):
            monkeypatch.setattr(divergences, "_GRAM_ENTRIES", entries)
            table = divergences._gram_h2(cands, None)
            with monkeypatch.context() as m:
                m.setattr(divergences, "shared_log_density", per_element_rows)
                assert table.tobytes() == divergences._gram_h2(cands, None).tobytes()

    @pytest.mark.parametrize("d", [1, 2])
    def test_net_mle_and_risk_bitwise(self, d, rng, monkeypatch):
        cands = [random_compact(rng, M=1.0, d=d, max_atoms=4) for _ in range(8)]
        table = HellingerTable(cands)
        net = Net(table, np.arange(len(cands)), 0.0)
        samples = [rng.normal(size=(n, d)) for n in (1, 2, 50, 3001)]
        fast = [batch_net_mle(net, x) for x in samples], batch_risk_mc(cands[:4], net, n=20, trials=3, seed=2)
        monkeypatch.setattr(estimation, "_net_loglik", per_element_loglik)
        slow = [batch_net_mle(net, x) for x in samples], batch_risk_mc(cands[:4], net, n=20, trials=3, seed=2)
        assert all(a is b for a, b in zip(fast[0], slow[0]))
        assert fast[1] == slow[1]

    def test_no_per_element_density_calls(self, monkeypatch):
        # the Gram pass and the net log-likelihoods are one kernel pass per
        # block, not one GaussianMixture.log_density call per element
        calls = []
        original = GaussianMixture.log_density

        def spy(self, x):
            calls.append(self)
            return original(self, x)

        monkeypatch.setattr(GaussianMixture, "log_density", spy)
        table = HellingerTable(theta_grid(-2.0, 2.0, 12))
        net = greedy_cover(table, 0.2)
        truth = net.elements[1]
        stream = truth.sample(300, seed=3)
        sequential_forecaster(net, stream, true_density=truth)
        batch_net_mle(net, stream)
        batch_risk_mc(table.elements[:3], net, n=10, trials=2, seed=1)
        assert calls == []


class TestRateFunctional:
    def test_trivial_cover(self):
        rf = rate_functional([0.3, 0.1, 0.2], [1, 1, 1], 50, local=True)
        assert rf.value == pytest.approx(0.1**2)
        assert rf.eps_star == 0.1

    def test_matches_grid_scan_oracle(self):
        eps = np.linspace(0.05, 1.0, 40)
        sizes = np.ceil(1.0 / eps)
        n = 100
        for local in (True, False):
            rf = rate_functional(eps, sizes, n, local=local)
            objective = eps**2 + np.log(sizes) / n if local else n * eps**2 + np.log(sizes)
            j = int(np.argmin(objective))
            assert rf.value == objective[j]
            assert rf.eps_star == eps[j]

    def test_validation(self):
        with pytest.raises(ValueError):
            rate_functional([], [], 10, local=True)
        with pytest.raises(ValueError):
            rate_functional([0.1], [0], 10, local=True)


class TestRiskAndSerialization:
    def test_batch_risk_smoke(self):
        cands = [single_gaussian(-1.0), single_gaussian(1.0)]
        net = greedy_cover(HellingerTable(cands), 0.01)
        out = batch_risk_mc(cands, net, n=40, trials=4, seed=0)
        assert out["risk"] >= 0.0
        assert out["half_width"] >= 0.0
        assert len(out["per_candidate"]) == 2

    def test_batch_risk_rejects_empty_candidates(self):
        net = greedy_cover(HellingerTable(theta_grid(-1.0, 1.0, 3)), 0.3)
        with pytest.raises(ValueError, match="candidate list must be non-empty"):
            batch_risk_mc([], net, n=5, trials=2, seed=0)
