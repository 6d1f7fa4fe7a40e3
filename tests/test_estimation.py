import itertools
import math

import numpy as np
import pytest

from gmdiv import (
    HellingerTable,
    HypothesisError,
    batch_net_mle,
    batch_risk_mc,
    greedy_cover,
    hellinger,
    hellinger_project,
    local_cover,
    local_covering_number,
    net_to_json,
    pairwise_hellinger,
    rate_functional,
    sequential_forecaster,
)
from gmdiv.estimation import Net
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
        net = greedy_cover([single_gaussian(0.0)], 0.3)
        assert len(net) == 1

    def test_two_close_candidates_one_center(self):
        # H(N(0,1), N(0.3,1)) ~ 0.15 < 0.5
        cands = [single_gaussian(0.0), single_gaussian(0.3)]
        assert len(greedy_cover(cands, 0.5)) == 1

    def test_rejects_bad_radius(self):
        with pytest.raises(HypothesisError):
            greedy_cover([single_gaussian(0.0)], 0.0)

    def test_covers_and_packs(self):
        cands = theta_grid(-1.0, 1.0, 9)
        eps = 0.15
        net = greedy_cover(cands, eps)
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
            greedy_size = len(greedy_cover(cands, eps))
            opt = minimal_cover_size(dist, eps)
            assert opt <= greedy_size <= 2 * opt

    def test_distance_cache_consistent(self):
        cands = theta_grid(-1.0, 1.0, 5)
        net = greedy_cover(cands, 0.05)
        recomputed = pairwise_hellinger(net.elements)
        assert np.array_equal(net.distance_cache, recomputed)


class TestHellingerTable:
    def test_each_pair_once_and_bit_identical(self, hellinger_calls, rng):
        cands = [random_compact(rng, M=2.0, d=1) for _ in range(6)]
        table = HellingerTable(cands)
        for eps in (0.05, 0.2, 0.5):
            greedy_cover(table, eps)
            local_covering_number(table, eps, [0.1, 0.3, 0.6])
        dist = pairwise_hellinger(table)
        assert len(hellinger_calls) == len({frozenset(map(id, c)) for c in hellinger_calls}) == 15
        for i in range(6):
            assert dist[i, i] == 0.0
            for j in range(i + 1, 6):
                assert dist[i, j] == dist[j, i] == hellinger(cands[i], cands[j])

    def test_shared_table_matches_per_call_covers(self, rng):
        cands = [random_compact(rng, M=2.0, d=1) for _ in range(7)]
        table = HellingerTable(cands)
        for eps in (0.1, 0.3):
            shared, alone = greedy_cover(table, eps), greedy_cover(cands, eps)
            assert shared.elements == alone.elements
            assert np.array_equal(shared.distance_cache, alone.distance_cache)
        for eta in (0.2, 0.5):
            for c in cands:
                shared, alone = local_cover(table, c, eta), local_cover(cands, c, eta)
                assert shared.elements == alone.elements
                assert np.array_equal(shared.distance_cache, alone.distance_cache)

    def test_net_reads_distances_only_when_asked(self, hellinger_calls):
        cands = theta_grid(-1.0, 1.0, 4)
        net = Net(HellingerTable(cands), np.arange(4), 0.0)
        assert net.elements == cands
        assert not hellinger_calls
        assert np.array_equal(net.distance_cache, pairwise_hellinger(cands))


class TestLocalCover:
    def test_huge_ball_reduces_to_global(self):
        cands = theta_grid(-1.0, 1.0, 7)
        loc = local_cover(cands, cands[3], 10.0)
        glob = greedy_cover(cands, 5.0)
        assert len(loc) == len(glob)

    def test_tiny_ball_keeps_only_center(self):
        cands = theta_grid(-1.0, 1.0, 5)
        net = local_cover(cands, cands[2], 1e-4)
        assert len(net) == 1

    def test_center_not_candidate_empty_ball(self):
        cands = theta_grid(1.0, 2.0, 3)
        net = local_cover(cands, single_gaussian(-2.0), 0.05)
        assert len(net) == 0

    def test_against_exhaustive_oracle(self):
        thetas = np.linspace(-1.0, 1.0, 9)
        cands = theta_grid(-1.0, 1.0, 9)
        eta = 0.4
        center_idx = 4
        in_ball = [i for i in range(9) if h_closed(thetas[center_idx], thetas[i]) <= eta]
        dist = np.array([[h_closed(thetas[a], thetas[b]) for b in in_ball] for a in in_ball])
        opt = minimal_cover_size(dist, eta / 2.0)
        got = len(local_cover(cands, cands[center_idx], eta))
        assert opt <= got <= 2 * opt

    def test_size_monotone_in_eta_below_diameter(self):
        cands = theta_grid(-1.0, 1.0, 9)
        sizes = [len(local_cover(cands, cands[4], eta)) for eta in (0.5, 0.3, 0.15, 0.05)]
        assert all(b <= a for a, b in zip(sizes, sizes[1:]))

    def test_local_covering_number(self):
        cands = theta_grid(-1.0, 1.0, 7)
        n_loc = local_covering_number(cands, 0.1, [0.1, 0.2, 0.4])
        assert n_loc >= 1


class TestProjection:
    def test_member_projects_to_itself(self):
        cands = theta_grid(-1.0, 1.0, 5)
        net = greedy_cover(cands, 0.01)
        f = net.elements[2]
        assert hellinger_project(f, net) is f

    def test_two_element_example(self):
        net = greedy_cover([single_gaussian(-1.0), single_gaussian(1.0)], 0.01)
        proj = hellinger_project(single_gaussian(0.9), net)
        assert proj.mixing.locations[0, 0] == 1.0

    def test_factor_two_contract(self, rng):
        # H(project(f), g) <= 2 H(f, g) whenever the net reaches within H(f, g) of f
        net = greedy_cover(theta_grid(-2.0, 2.0, 9), 0.01)
        for _ in range(15):
            f = random_compact(rng, M=2.0, d=1)
            g = net.elements[int(rng.integers(len(net.elements)))]
            h_fg = hellinger(f, g)
            nearest = min(hellinger(f, e) for e in net.elements)
            if nearest <= h_fg:
                proj = hellinger_project(f, net)
                assert hellinger(proj, g) <= 2.0 * h_fg + 1e-9


class TestBatchNetMle:
    def test_singleton_net(self):
        net = greedy_cover([single_gaussian(0.7)], 0.1)
        est = batch_net_mle(net, np.array([[-5.0], [5.0]]))
        assert est is net.elements[0]

    def test_majority_selection(self):
        net = greedy_cover([single_gaussian(-1.0), single_gaussian(1.0)], 0.01)
        truth = net.elements[1]
        hits = 0
        for seed in range(10):
            data = truth.sample(50, seed)
            if batch_net_mle(net, data) is truth:
                hits += 1
        assert hits >= 8

    def test_rejects_empty_data(self):
        net = greedy_cover([single_gaussian(0.0)], 0.1)
        with pytest.raises(ValueError):
            batch_net_mle(net, np.empty((0, 1)))


class TestSequentialForecaster:
    def test_singleton_net_zero_regret(self):
        net = greedy_cover([single_gaussian(0.5)], 0.1)
        stream = net.elements[0].sample(30, seed=4)
        res = sequential_forecaster(net, stream, true_density=net.elements[0])
        assert res.cum_regret == 0.0
        assert res.regret_vs_best == 0.0

    def test_pathwise_regret_at_most_log_net_size(self):
        net = greedy_cover([single_gaussian(-1.0), single_gaussian(1.0)], 0.01)
        truth = net.elements[1]
        for seed in range(5):
            stream = truth.sample(100, seed)
            res = sequential_forecaster(net, stream, true_density=truth)
            assert res.cum_regret <= math.log(2.0) + 1e-9
            assert res.regret_vs_best <= math.log(2.0) + 1e-9

    def test_weights_stay_probability_vectors(self):
        net = greedy_cover(theta_grid(-1.0, 1.0, 4), 0.01)
        stream = net.elements[0].sample(25, seed=9)
        res = sequential_forecaster(net, stream)
        assert np.allclose(res.predictive_weights.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(res.predictive_weights >= 0.0)


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
        net = greedy_cover(cands, 0.01)
        out = batch_risk_mc(cands, net, n=40, trials=4, seed=0)
        assert out["risk"] >= 0.0
        assert out["half_width"] >= 0.0
        assert len(out["per_candidate"]) == 2

    def test_net_to_json(self):
        net = greedy_cover(theta_grid(-1.0, 1.0, 3), 0.05)
        blob = net_to_json(net)
        assert blob["radius"] == 0.05
        assert len(blob["elements"]) == len(net)
        assert len(blob["distance_cache"]) == len(net)
