import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp, softmax

from gmdiv import (
    Compact,
    GaussianMixture,
    HypothesisError,
    MixingDistribution,
    Subgaussian,
    Unconstrained,
    dichotomy_family,
    mixture_from_record,
    mixture_to_record,
    subgaussian_check,
)
from gmdiv.bounds import InstanceFamily, _draw_pairs
from gmdiv.mixtures import (
    _BLOCK,
    DichotomyParams,
    _block_logits,
    _step_tails_hold,
    pair_log_density,
    row_sums,
    segment_log_density,
    shared_log_density,
    validate_atoms,
)
from conftest import random_compact, single_gaussian

LOG_INV_SQRT_2PI = -0.5 * math.log(2 * math.pi)


def _clip_norms(v, radius):
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    return v * np.minimum(1.0, radius / np.maximum(norms, 1e-300))


@st.composite
def mixture_and_points(draw):
    """Mixture with k <= 64 atoms of norm <= 4 and up to 16 points of norm <= 60."""
    d = draw(st.integers(1, 3))
    k = draw(st.integers(1, 64))
    n = draw(st.integers(1, 16))
    seed = draw(st.integers(0, 2**32 - 1))
    atom_scale = draw(st.sampled_from([4.0, 1e-3, 0.0]))
    point_scale = draw(st.sampled_from([60.0, 6.0, 0.6]))
    rng = np.random.default_rng(seed)
    locs = _clip_norms(rng.uniform(-atom_scale, atom_scale, (k, d)), 4.0)
    w = rng.uniform(0.01, 1.0, k)
    pts = _clip_norms(rng.uniform(-point_scale, point_scale, (n, d)), 60.0)
    return GaussianMixture.from_atoms(locs, w / w.sum()), pts


def explicit_logits(gm, pts):
    # (n, k) array of log w_j - ||x - a_j||^2 / 2, one atom at a time
    diff = pts[:, None, :] - gm.mixing.locations[None, :, :]
    return np.log(gm.mixing.weights)[None, :] - 0.5 * np.sum(diff * diff, axis=-1)


class TestKernelCrossCheck:
    """The matrix-product kernel against the explicit per-atom formula."""

    @settings(max_examples=200, deadline=None)
    @given(case=mixture_and_points())
    def test_log_density_matches_explicit_formula(self, case):
        gm, pts = case
        ref = logsumexp(explicit_logits(gm, pts), axis=1) + gm.dim * LOG_INV_SQRT_2PI
        np.testing.assert_allclose(gm.log_density(pts), ref, rtol=1e-12, atol=0.0)

    @settings(max_examples=200, deadline=None)
    @given(case=mixture_and_points())
    def test_score_matches_explicit_formula(self, case):
        gm, pts = case
        u = softmax(explicit_logits(gm, pts), axis=1)
        locs = gm.mixing.locations
        ref = np.einsum("nk,nkd->nd", u, locs[None, :, :] - pts[:, None, :])
        # components of sum_j u_j (a_j - x) can cancel to 0; relative error
        # is then measured against the size of the cancelled terms
        scale = np.linalg.norm(pts, axis=1) + np.max(np.linalg.norm(locs, axis=1))
        err = np.abs(gm.score(pts) - ref)
        assert np.all(err <= 1e-12 * np.maximum(np.abs(ref), scale[:, None]))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_blocks_are_independent(self, d, rng):
        gm = GaussianMixture.from_atoms(rng.uniform(-2.0, 2.0, (11, d)), rng.dirichlet(np.ones(11)))
        n = 3 * _BLOCK + 17
        pts = rng.uniform(-8.0, 8.0, (n, d))
        batch = gm.log_density(pts)
        scores = gm.score(pts)
        parts = [pts[s : s + _BLOCK] for s in range(0, n, _BLOCK)]
        assert np.array_equal(batch, np.concatenate([gm.log_density(b) for b in parts]))
        assert np.array_equal(scores, np.concatenate([gm.score(b) for b in parts]))
        # a single row goes through a matrix-vector product, which may round
        # differently from the matrix-matrix one in d >= 2
        rows = np.array([gm.log_density(x) for x in pts])
        np.testing.assert_allclose(rows, batch, rtol=1e-14, atol=0.0)
        row_scores = np.array([gm.score(x) for x in pts[::97]])
        np.testing.assert_allclose(row_scores, scores[::97], rtol=1e-14, atol=1e-13)

    @pytest.mark.parametrize("d", [2, 3])
    def test_segments_match_each_mixture_alone(self, d, rng):
        # each mixture's part of a block is one GEMM over its own real atoms,
        # so its segment of a padded many-mixture call is its own
        # log_density bit for bit, whatever atom counts its block neighbours
        # have; counts are multiples of 16 nodes, as the quadrature's are, so
        # no part is a lone node (that goes through a matrix-vector product,
        # which may round differently, as in test_blocks_are_independent)
        sizes = rng.integers(1, 9, 60)
        mixtures = [
            GaussianMixture.from_atoms(rng.uniform(-2.0, 2.0, (k, d)), rng.dirichlet(np.ones(k))) for k in sizes
        ]
        locations, logw = np.zeros((sizes.size, 8, d)), np.full((sizes.size, 8), -np.inf)
        for i, gm in enumerate(mixtures):
            locations[i, : sizes[i]], logw[i, : sizes[i]] = gm.mixing.locations, np.log(gm.mixing.weights)
        # a fifth of the segments are long enough to straddle blocks
        long = rng.random(sizes.size) < 0.2
        counts = 16 * np.where(long, rng.integers(256, 1100, sizes.size), rng.integers(1, 120, sizes.size))
        pts = rng.uniform(-8.0, 8.0, (counts.sum(), d))
        batch = segment_log_density(locations, logw, pts, counts)
        ends = np.cumsum(counts)
        straddle = (ends - counts) // _BLOCK != (ends - 1) // _BLOCK
        assert straddle.sum() >= 10 and (~straddle).sum() >= 30
        for gm, hi, n in zip(mixtures, ends, counts):
            assert np.array_equal(batch[hi - n : hi], gm.log_density(pts[hi - n : hi]))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_pair_pass_matches_each_mixture_alone(self, d, rng):
        # one walk over the blocks gives log p and log q, each segment its
        # own mixture's log_density bit for bit, with atom counts 1 to 8
        # mixed in one call and segments of multiples of 16 nodes, as in
        # test_segments_match_each_mixture_alone
        m = 60

        def draw():
            sizes = rng.integers(1, 9, m)
            mixtures = [
                GaussianMixture.from_atoms(rng.uniform(-2.0, 2.0, (k, d)), rng.dirichlet(np.ones(k))) for k in sizes
            ]
            locations, logw = np.zeros((m, 8, d)), np.full((m, 8), -np.inf)
            for i, gm in enumerate(mixtures):
                locations[i, : sizes[i]], logw[i, : sizes[i]] = gm.mixing.locations, np.log(gm.mixing.weights)
            return mixtures, (locations, logw)

        (ps, p), (qs, q) = draw(), draw()
        long = rng.random(m) < 0.2
        counts = 16 * np.where(long, rng.integers(256, 1100, m), rng.integers(1, 120, m))
        pts = rng.uniform(-8.0, 8.0, (counts.sum(), d))
        logp, logq = pair_log_density(p, q, pts, counts)
        ends = np.cumsum(counts)
        straddle = (ends - counts) // _BLOCK != (ends - 1) // _BLOCK
        assert straddle.sum() >= 5 and (~straddle).sum() >= 30
        for a, b, hi, n in zip(ps, qs, ends, counts):
            assert np.array_equal(logp[hi - n : hi], a.log_density(pts[hi - n : hi]))
            assert np.array_equal(logq[hi - n : hi], b.log_density(pts[hi - n : hi]))
        if d == 1:
            return
        # in d >= 2 a part is one mixture's nodes in a block, and its logits
        # have one row per real atom of that mixture: no pad rows
        parts = 0
        for at, blk, logits in _block_logits([p, q], pts, counts):
            owner = np.searchsorted(ends, at.start, side="right")
            assert at.stop <= ends[owner] and blk.shape[0] == at.stop - at.start
            for gm, (u, top) in zip((ps[owner], qs[owner]), logits):
                assert u.shape == (gm.mixing.n_atoms, blk.shape[0]) and top.shape == (blk.shape[0],)
            parts += 1
        # one part for each block a segment touches
        assert parts == np.sum((ends - 1) // _BLOCK - (ends - counts) // _BLOCK + 1)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_shared_layout_matches_each_mixture_alone(self, d, rng):
        # every row of the shared-node pass is that mixture's own log_density
        # bit for bit, whatever the atom counts of the other mixtures (1 to
        # 64, padded to 70); the node counts give groups of several
        # mixtures, one mixture per group, and the lone-node last block that
        # a one-mixture call also has at _BLOCK + 1 (in d >= 2 it goes
        # through a matrix-vector product, as test_blocks_are_independent says)
        sizes = [1, 64, 5, 1, 17, 2, 33]
        mixtures = [
            GaussianMixture.from_atoms(rng.uniform(-2.0, 2.0, (k, d)), rng.dirichlet(np.ones(k))) for k in sizes
        ]
        locations, logw = np.zeros((len(sizes), 70, d)), np.full((len(sizes), 70), -np.inf)
        for i, gm in enumerate(mixtures):
            locations[i, : sizes[i]], logw[i, : sizes[i]] = gm.mixing.locations, np.log(gm.mixing.weights)
        for n in (1, 2, 3000, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3):
            pts = rng.uniform(-8.0, 8.0, (n, d))
            batch = shared_log_density(locations, logw, pts)
            assert batch.shape == (len(sizes), n)
            for gm, row in zip(mixtures, batch):
                assert np.array_equal(row, gm.log_density(pts))

    def test_shared_layout_memory_bounded_by_one_block(self):
        # 40 mixtures of 64 atoms at every node at once would need a 168 MB
        # logits array per block; groups of at most _BLOCK (mixture, node)
        # pairs keep it at 4 MB
        rng = np.random.default_rng(4)
        locations, logw = rng.uniform(-2.0, 2.0, (40, 64, 1)), np.log(rng.dirichlet(np.ones(64), 40))
        pts = rng.uniform(-5.0, 5.0, (10_000, 1))
        tracemalloc.start()
        try:
            shared_log_density(locations, logw, pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_memory_bounded_by_one_block(self):
        # the (n, k, d) broadcast needs two ~150 MB arrays here
        rng = np.random.default_rng(3)
        gm = GaussianMixture.from_atoms(rng.uniform(-2.0, 2.0, (64, 3)))
        pts = rng.uniform(-5.0, 5.0, (100_000, 3))
        tracemalloc.start()
        try:
            gm.log_density(pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestLogDensity:
    def test_standard_normal_at_mode(self):
        gm = single_gaussian(0.0)
        assert gm.log_density(np.array([0.0])) == pytest.approx(-0.9189385332046727, abs=1e-12)

    def test_point_mass_shifts_the_gaussian(self, rng):
        u = np.array([2.0, 0.0, 0.0])
        gm = single_gaussian(u)
        for _ in range(10):
            x = rng.standard_normal(3) * 3
            expected = -0.5 * np.sum((x - u) ** 2) + 3 * LOG_INV_SQRT_2PI
            assert gm.log_density(x) == pytest.approx(expected, rel=1e-12)

    def test_two_symmetric_atoms_at_center(self):
        # both kernels contribute phi(1), so the mixture density is phi(1)
        gm = GaussianMixture.from_atoms([[-1.0], [1.0]], [0.5, 0.5])
        expected = -0.5 + LOG_INV_SQRT_2PI
        assert gm.log_density(np.array([0.0])) == pytest.approx(expected, rel=1e-14)

    def test_finite_far_from_all_atoms(self):
        gm = GaussianMixture.from_atoms([[-1.0], [1.0]], [0.5, 0.5])
        val = gm.log_density(np.array([400.0]))
        assert math.isfinite(val)
        batch = gm.log_density(np.array([[-300.0], [0.0], [500.0]]))
        assert batch.shape == (3,)
        assert np.all(np.isfinite(batch))

    def test_dimension_mismatch_rejected(self):
        gm = single_gaussian([0.0, 0.0])
        with pytest.raises(ValueError):
            gm.log_density(np.array([1.0, 2.0, 3.0]))


class TestScore:
    def test_single_atom_at_origin(self):
        gm = single_gaussian(0.0)
        assert gm.score(np.array([2.0]))[0] == pytest.approx(-2.0, abs=1e-14)

    def test_single_atom_shift(self, rng):
        u = np.array([1.0, -2.0])
        gm = single_gaussian(u)
        x = rng.standard_normal(2)
        assert np.allclose(gm.score(x), u - x, atol=1e-12)

    def test_symmetric_pair_zero_at_center(self):
        gm = GaussianMixture.from_atoms([[-1.0], [1.0]], [0.5, 0.5])
        assert gm.score(np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_central_differences(self, d, rng):
        h = 1e-4
        for _ in range(20):
            gm = random_compact(rng, M=2.0, d=d)
            x = rng.standard_normal(d) * 3
            grad = gm.score(x)
            fd = np.empty(d)
            for i in range(d):
                e = np.zeros(d)
                e[i] = h
                fd[i] = (gm.log_density(x + e) - gm.log_density(x - e)) / (2 * h)
            err = np.linalg.norm(fd - grad) / max(np.linalg.norm(grad), 1.0)
            assert err <= 1e-5

    @pytest.mark.parametrize("d", [1, 2])
    def test_compact_score_bound(self, d, rng):
        # |grad log p| <= 3 ||x|| + 4 M for Compact(M)
        M = 2.0
        for _ in range(10):
            gm = random_compact(rng, M=M, d=d)
            for r in np.linspace(0.0, M + 10.0, 40):
                omega = rng.standard_normal(d)
                omega /= np.linalg.norm(omega)
                x = r * omega
                assert np.linalg.norm(gm.score(x)) <= 3 * r + 4 * M + 1e-9


class TestRadialEnvelope:
    def test_monotone_and_tail_envelope(self, rng):
        # beyond the support radius the density decreases along every ray and
        # obeys p(r') <= p(r) exp(-((r'-M)^2 - (r-M)^2)/2)
        M = 2.0
        for d in (1, 2):
            for _ in range(5):
                gm = random_compact(rng, M=M, d=d)
                omega = rng.standard_normal(d)
                omega /= np.linalg.norm(omega)
                rs = np.linspace(M, M + 8.0, 60)
                logs = gm.log_density(rs[:, None] * omega[None, :])
                assert np.all(np.diff(logs) <= 1e-12)
                for i in range(len(rs) - 1):
                    for j in range(i + 1, len(rs), 7):
                        decay = -0.5 * ((rs[j] - M) ** 2 - (rs[i] - M) ** 2)
                        assert logs[j] <= logs[i] + decay + 1e-9


class TestSample:
    def test_rejects_nonpositive_n(self):
        gm = single_gaussian(0.0)
        with pytest.raises(ValueError):
            gm.sample(0, seed=1)

    def test_deterministic_given_seed(self):
        gm = GaussianMixture.from_atoms([[-1.0], [1.0]], [0.3, 0.7])
        a = gm.sample(1000, seed=42)
        b = gm.sample(1000, seed=42)
        assert np.array_equal(a, b)
        c = gm.sample(1000, seed=43)
        assert not np.array_equal(a, c)

    def test_single_atom_mean_within_clt_band(self):
        gm = single_gaussian(0.0)
        xs = gm.sample(10**6, seed=7)
        assert abs(float(xs.mean())) <= 5.0 / math.sqrt(10**6)


class TestMixingDistributionValidation:
    def test_renormalizes_within_tolerance(self):
        w = np.array([0.5, 0.5 + 5e-13])
        m = MixingDistribution(np.array([[0.0], [1.0]]), w)
        assert m.weights.sum() == pytest.approx(1.0, abs=1e-16)

    def test_rejects_bad_weight_sum(self):
        with pytest.raises(ValueError, match="tolerance"):
            MixingDistribution(np.array([[0.0], [1.0]]), np.array([0.6, 0.5]))

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            MixingDistribution(np.array([[0.0], [1.0]]), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_locations(self, bad):
        with pytest.raises(ValueError, match="finite"):
            MixingDistribution(np.array([[0.0], [bad]]), np.array([0.5, 0.5]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(ValueError, match="finite"):
            MixingDistribution(np.array([[0.0], [1.0]]), np.array([bad, 0.5]))

    def test_rejects_weights_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            MixingDistribution(np.array([[0.0], [1.0]]), np.array([0.2, 0.3, 0.5]))

    def test_compact_atom_outside_ball_rejected(self):
        with pytest.raises(ValueError, match="Compact"):
            MixingDistribution(np.array([[3.0]]), np.array([1.0]), Compact(2.0))

    def test_subgaussian_tag_enforced(self):
        with pytest.raises(ValueError, match="subgaussian"):
            MixingDistribution(
                np.array([[0.0], [10.0]]), np.array([0.5, 0.5]), Subgaussian(1.0)
            )

    def test_nonpositive_tag_parameters_rejected(self):
        with pytest.raises(HypothesisError):
            Compact(0.0)
        with pytest.raises(HypothesisError):
            Subgaussian(-1.0)


def _padded(rows):
    """(locations, weights) of each row, padded to one count with zeros, and the counts."""
    counts = np.array([len(w) for _, w in rows])
    k, d = counts.max(), rows[0][0].shape[1]
    locations, weights = np.zeros((len(rows), k, d)), np.zeros((len(rows), k))
    for i, (locs, w) in enumerate(rows):
        locations[i, : len(w)], weights[i, : len(w)] = locs, w
    return locations, weights, counts


class TestValidateAtoms:
    BAD = {
        "nan location": (Compact(2.0), [[0.0, 0.0], [math.nan, 0.0]], [0.5, 0.5]),
        "zero weight": (Compact(2.0), [[0.0, 0.0], [1.0, 0.0]], [1.0, 0.0]),
        "weight sum": (Compact(2.0), [[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5 + 1e-11]),
        "outside the ball": (Compact(2.0), [[0.0, 2.0 * (1.0 + 1e-8)]], [1.0]),
        "step tail": (Subgaussian(1.0), [[0.0, 0.0], [0.0, 3.0], [10.0, 0.0]], [0.4, 0.3, 0.3]),
    }

    @staticmethod
    def good_rows(tag, n):
        atoms = _draw_pairs(5, range(n), InstanceFamily(tag, 2))
        return [(locs[:k], w[:k]) for locs, w, k in zip(*atoms)][:n]

    @pytest.mark.parametrize("case", list(BAD))
    def test_one_bad_row_raises_its_own_message(self, case):
        tag, locs, w = self.BAD[case]
        bad = np.array(locs), np.array(w)
        with pytest.raises(ValueError) as alone:
            MixingDistribution(*bad, tag)
        rows = self.good_rows(tag, 6)
        validate_atoms(*_padded(rows), tag)
        rows.insert(3, bad)
        with pytest.raises(ValueError) as batch:
            validate_atoms(*_padded(rows), tag)
        assert str(batch.value) == str(alone.value)

    @pytest.mark.parametrize("tag", [Compact(2.0), Subgaussian(0.5)], ids=repr)
    def test_weights_are_each_mixtures_own(self, tag):
        rows = self.good_rows(tag, 40)
        weights = validate_atoms(*_padded(rows), tag)
        for (locs, w), got in zip(rows, weights):
            m = MixingDistribution(locs, w, tag)
            assert got[: len(w)].tobytes() == m.weights.tobytes()
            assert not got[len(w) :].any()

    def test_row_sums_are_one_dimensional_sums(self, rng):
        counts = rng.integers(1, 65, size=500)
        values = rng.random((500, 64)) ** 3 * (np.arange(64) < counts[:, None])
        assert row_sums(values, counts).tolist() == [v[:k].sum() for v, k in zip(values, counts)]

    @pytest.mark.parametrize("d", [1, 2])
    def test_step_tails_agree_with_subgaussian_check(self, d, rng):
        held = []
        for K in (0.5, 1.0, 2.0):
            rows = []
            for _ in range(60):
                k = int(rng.integers(1, 9))
                locs = rng.standard_normal((k, d)) * rng.choice([0.2, 1.0, 3.0])
                locs[rng.random(k) < 0.3] = 0.0
                if k > 2:
                    locs[1] = -locs[2]  # atoms sharing a radius
                rows.append((locs, rng.dirichlet(np.ones(k))))
            locations, weights, counts = _padded(rows)
            real = np.arange(weights.shape[1]) < counts[:, None]
            radii = np.sqrt(np.sum(locations**2, axis=2))
            batch = _step_tails_hold(radii, weights, real, K).tolist()
            assert batch == [subgaussian_check(MixingDistribution(locs, w), K) for locs, w in rows]
            held += batch
        assert any(held) and not all(held)


class TestSubgaussianCheck:
    def test_origin_atom_passes_any_level(self):
        m = MixingDistribution(np.array([[0.0]]), np.array([1.0]))
        assert subgaussian_check(m, 0.01)

    def test_heavy_far_atom_fails(self):
        m = MixingDistribution(np.array([[0.0], [10.0]]), np.array([0.5, 0.5]))
        assert not subgaussian_check(m, 1.0)

    def test_dichotomy_passes_at_its_own_level(self):
        assert subgaussian_check(dichotomy_family(2.0, 5.0), 2.0)


class TestDichotomyFamily:
    def test_tail_weight_values(self):
        m = dichotomy_family(math.sqrt(2.0), 2.0)
        assert m.weights[1] == pytest.approx(math.exp(-1.0), rel=1e-15)
        m = dichotomy_family(2.0, 2.0)
        assert m.weights[1] == pytest.approx(math.exp(-0.5), rel=1e-15)
        assert np.allclose(m.locations.ravel(), [0.0, 2.0])

    def test_parameter_range(self):
        with pytest.raises(HypothesisError):
            dichotomy_family(1.0, 5.0)
        with pytest.raises(HypothesisError):
            dichotomy_family(2.0, 1.0)

    @settings(max_examples=30, deadline=None)
    @given(
        K=st.floats(min_value=1.01, max_value=50.0),
        r=st.floats(min_value=1.01, max_value=50.0),
    )
    def test_always_subgaussian_at_level_k(self, K, r):
        assume(r * r / (2.0 * K * K) < 700.0)  # keep h_r representable
        assert subgaussian_check(dichotomy_family(K, r), K)

    @settings(max_examples=30, deadline=None)
    @given(
        K=st.floats(min_value=1.01, max_value=50.0),
        r=st.floats(min_value=1.01, max_value=50.0),
    )
    # exp(-r**2 / (2 K**2)) and exp(-r*r / (2 K*K)) differ in the last bit here
    @example(K=8.480922043414207, r=38.13502395024327)
    def test_tail_weight_is_the_params_h_r(self, K, r):
        # the family and its one-sided envelopes (dichotomy_bounds) share h_r
        assume(r * r / (2.0 * K * K) < 700.0)
        assert dichotomy_family(K, r).weights[1] == DichotomyParams(K, r).h_r

    def test_underflowing_tail_weight_rejected(self):
        with pytest.raises(HypothesisError, match="underflows"):
            dichotomy_family(1.01, 39.0)


class TestSerialization:
    @pytest.mark.parametrize(
        "tag", [Compact(2.0), Subgaussian(1.5), Unconstrained()]
    )
    def test_roundtrip(self, tag):
        locs = np.array([[0.0, 0.0], [0.3, -0.4], [1.0, 0.5]])
        w = np.array([0.6, 0.3, 0.1])
        m = MixingDistribution(locs, w, tag)
        rec = mixture_to_record(m)
        assert list(rec) == ["dim", "atoms", "class_tag", "params"]
        back = mixture_from_record(rec)
        assert np.array_equal(back.locations, m.locations)
        # weights may be renormalized a second time; exact to one ulp
        assert np.allclose(back.weights, m.weights, rtol=5e-16, atol=0.0)
        assert back.tag == m.tag

    def test_unknown_field_rejected(self):
        rec = mixture_to_record(MixingDistribution(np.array([[0.0]]), np.array([1.0])))
        rec["extra"] = 1
        with pytest.raises(ValueError, match="unknown"):
            mixture_from_record(rec)
