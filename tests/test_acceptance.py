"""Acceptance suite: every gate the package must clear, one line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest
from scipy.stats import norm

from gmdiv import (
    BoundId,
    Compact,
    DivergenceKind,
    GaussianMixture,
    HellingerTable,
    InstanceFamily,
    Subgaussian,
    batch_net_mle,
    characteristic_function,
    dichotomy_bounds,
    dichotomy_family,
    divergence,
    greedy_cover,
    hellinger,
    ho_bound,
    lem_formula_gap,
    plancherel_l2,
    rate_functional,
    renyi_integral,
    sequential_forecaster,
    verify_sweep,
)
from gmdiv.bounds import make_pair
from gmdiv.cli import main as cli_main
from gmdiv.divergences import _compute_divergences
from gmdiv.mixtures import DichotomyParams
from conftest import random_compact, single_gaussian


def report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_closed_form_gaussian_agreement():
    worst_rel, worst_time = 0.0, 0.0
    for delta in (0.5, 1.0, 2.0, 4.0):
        M = max(delta, 1.0)
        p = single_gaussian(delta, M=M)
        q = single_gaussian(0.0, M=M)
        exact = {
            DivergenceKind.KL: delta**2 / 2.0,
            DivergenceKind.HellingerSq: 2.0 - 2.0 * math.exp(-(delta**2) / 8.0),
            DivergenceKind.ChiSq: math.exp(delta**2) - 1.0,
            DivergenceKind.TV: 2.0 * norm.cdf(delta / 2.0) - 1.0,
            DivergenceKind.L2Sq: plancherel_l2(p, q),
        }
        for kind in DivergenceKind:
            t0 = time.perf_counter()
            est = divergence(kind, p, q)
            dt = time.perf_counter() - t0
            rel = abs(est.value - exact[kind]) / exact[kind]
            worst_rel = max(worst_rel, rel)
            worst_time = max(worst_time, dt)
    report(
        "criterion 1 (closed forms, d=1)",
        worst_rel <= 1e-6 and worst_time < 1.0,
        f"worst rel err {worst_rel:.2e}, slowest computation {worst_time * 1e3:.0f} ms",
    )


def test_criterion_2_tightness_remark():
    M = 2.0
    worst = 0.0
    for d in (1, 2):
        u = np.zeros(d)
        u[0] = M
        p = single_gaussian(u, M=M)
        q = single_gaussian(-u, M=M)
        kl = divergence(DivergenceKind.KL, p, q, tol=1e-8).value
        h2 = divergence(DivergenceKind.HellingerSq, p, q, tol=1e-8).value
        worst = max(
            worst,
            abs(kl - 2.0 * M * M) / (2.0 * M * M),
            abs(h2 - (2.0 - 2.0 * math.exp(-M * M / 2.0))) / (2.0 - 2.0 * math.exp(-2.0)),
        )
    report(
        "criterion 2 (tightness pair, d in {1,2})",
        worst <= 1e-6,
        f"worst rel err {worst:.2e}",
    )


SWEEP_CONFIGS = [
    (BoundId.Thm1, InstanceFamily(Compact(2.0), d=1)),
    (BoundId.Thm1, InstanceFamily(Compact(2.0), d=2)),
    (BoundId.Thm2, InstanceFamily(Compact(1.0), d=1)),
    (BoundId.Thm2, InstanceFamily(Compact(2.0), d=1)),
    (BoundId.Thm3, InstanceFamily(Subgaussian(0.5), d=1)),
    (BoundId.Thm5, InstanceFamily(Subgaussian(0.5), d=1)),
    (BoundId.Thm5, InstanceFamily(Subgaussian(2.0), d=1)),
    (BoundId.ChiSqThm, InstanceFamily(Compact(2.0), d=1)),
    (BoundId.TVfromL2, InstanceFamily(Compact(2.0), d=1)),
    (BoundId.L2fromTV, InstanceFamily(Compact(2.0), d=1)),
]


def test_criterion_3_theorem_sweeps():
    t0 = time.perf_counter()
    failures = ordering = 0
    details = []
    for i, (bound, family) in enumerate(SWEEP_CONFIGS):
        rep = verify_sweep(bound, family, n=500, seed=1000 + i, threads=4)
        failures += rep.failures
        ordering += rep.ordering_failures
        details.append(f"{bound.value}/d{family.d}:{rep.failures}")
    elapsed = time.perf_counter() - t0
    report(
        "criterion 3 (10 x 500 theorem sweeps)",
        failures == 0 and ordering == 0 and elapsed < 180.0,
        f"failures {failures}, ordering failures {ordering}, {elapsed:.0f} s",
    )


def test_criterion_4_renyi_machinery():
    rng = np.random.default_rng(41)
    worst_rel = 0.0
    for _ in range(20):
        u, v = rng.uniform(-2.0, 2.0, size=2)
        p = single_gaussian(u, M=2.0)
        q = single_gaussian(v, M=2.0)
        val = renyi_integral(p, q, 3.0).value
        exact = math.exp(3.0 * (u - v) ** 2)
        worst_rel = max(worst_rel, abs(val - exact) / exact)
    sup_ok = True
    for _ in range(200):
        p = random_compact(rng, M=2.0, d=1)
        q = random_compact(rng, M=2.0, d=1)
        if renyi_integral(p, q, 3.0).value > math.exp(48.0) * (1.0 + 1e-6):
            sup_ok = False
            break
    ho_ok = True
    M = 1.0
    for _ in range(100):
        p = random_compact(rng, M=M, d=1)
        q = random_compact(rng, M=M, d=1)
        est = _compute_divergences([DivergenceKind.KL, DivergenceKind.HellingerSq], p, q)
        h2 = est[DivergenceKind.HellingerSq].value
        if h2 <= 0:
            continue
        ren = renyi_integral(p, q, 3.0).value
        delta = math.exp(-12.0 * M * M) * h2
        if est[DivergenceKind.KL].value > ho_bound(delta, 3.0, h2, ren) + 1e-9:
            ho_ok = False
            break
    report(
        "criterion 4 (renyi integral + HO assembly)",
        worst_rel <= 1e-6 and sup_ok and ho_ok,
        f"single-atom rel err {worst_rel:.2e}, sup<=e^48 {sup_ok}, HO holds {ho_ok}",
    )


def test_criterion_5_dichotomy():
    t0 = time.perf_counter()
    K = 2.0
    reference = single_gaussian(0.0, M=None)
    reference = GaussianMixture.from_atoms([[0.0]], tag=Subgaussian(K))
    ratios = []
    one_sided_ok = True
    for r in (5.0, 10.0, 15.0):
        gm = GaussianMixture(dichotomy_family(K, r))
        kl = divergence(DivergenceKind.KL, gm, reference).value
        h2 = divergence(DivergenceKind.HellingerSq, gm, reference).value
        env = dichotomy_bounds(DichotomyParams(K, r))
        one_sided_ok &= kl >= env.kl_lb and h2 <= env.h2_ub
        ratios.append(kl / h2)
    elapsed = time.perf_counter() - t0
    increasing = ratios[0] < ratios[1] < ratios[2]
    growth = ratios[2] / ratios[0]
    report(
        "criterion 5 (dichotomy blow-up)",
        one_sided_ok and increasing and growth >= 3.0 and elapsed < 30.0,
        f"ratios {[f'{x:.2f}' for x in ratios]}, growth {growth:.2f}, {elapsed:.1f} s",
    )


def test_criterion_6_lemma_suite():
    # t log t - t + 1 <= 9 M^2 (sqrt t - 1)^2 on a 1e4-point log grid, and
    # the normalized gap g is non-decreasing
    formula_ok = True
    for M in (1.0, 2.0):
        logs = np.linspace(-23.0, 8.0 * M * M, 10**4)
        gs = []
        for lt in logs:
            gap = lem_formula_gap(log_t=float(lt), M=M)
            if gap.lhs > gap.rhs * (1.0 + 1e-12) + 1e-300:
                formula_ok = False
            gs.append(gap.g)
        gs = np.array(gs)
        if not np.all(np.diff(gs) >= -1e-9 * np.maximum(1.0, gs[:-1])):
            formula_ok = False

    rng = np.random.default_rng(6)
    score_ok = True
    M = 2.0
    for d in (1, 2):
        for _ in range(25):
            gm = random_compact(rng, M=M, d=d)
            omega = rng.standard_normal(d)
            omega /= np.linalg.norm(omega)
            rs = np.linspace(0.0, M + 10.0, 60)
            pts = rs[:, None] * omega[None, :]
            norms = np.sqrt(np.sum(gm.score(pts) ** 2, axis=1))
            if not np.all(norms <= 3.0 * rs + 4.0 * M + 1e-9):
                score_ok = False

    envelope_ok = True
    for d in (1, 2):
        for _ in range(25):
            gm = random_compact(rng, M=M, d=d)
            omega = rng.standard_normal(d)
            omega /= np.linalg.norm(omega)
            rs = np.linspace(M, M + 8.0, 50)
            logs = gm.log_density(rs[:, None] * omega[None, :])
            if not np.all(np.diff(logs) <= 1e-12):
                envelope_ok = False
            for i in range(0, len(rs) - 1, 5):
                for j in range(i + 1, len(rs), 9):
                    decay = -0.5 * ((rs[j] - M) ** 2 - (rs[i] - M) ** 2)
                    if logs[j] > logs[i] + decay + 1e-9:
                        envelope_ok = False
    report(
        "criterion 6 (lemma suite)",
        formula_ok and score_ok and envelope_ok,
        f"t-log-t {formula_ok}, score bound {score_ok}, radial envelope {envelope_ok}",
    )


def test_criterion_7_gradient_check():
    rng = np.random.default_rng(7)
    h = 1e-4
    worst = 0.0
    for d in (1, 2, 3):
        for _ in range(100):
            gm = random_compact(rng, M=2.0, d=d)
            x = rng.standard_normal(d) * 3.0
            grad = gm.score(x)
            fd = np.empty(d)
            for i in range(d):
                e = np.zeros(d)
                e[i] = h
                fd[i] = (gm.log_density(x + e) - gm.log_density(x - e)) / (2.0 * h)
            worst = max(worst, float(np.linalg.norm(fd - grad) / max(np.linalg.norm(grad), 1.0)))
    report("criterion 7 (score vs finite differences)", worst <= 1e-5, f"worst rel err {worst:.2e}")


def test_criterion_8_plancherel_consistency():
    rng = np.random.default_rng(8)
    worst = 0.0
    envelope_ok = True
    ts = np.linspace(-8.0, 8.0, 501)
    for _ in range(100):
        p = random_compact(rng, M=2.0, d=1)
        q = random_compact(rng, M=2.0, d=1)
        via_cf = plancherel_l2(p, q)
        direct = divergence(DivergenceKind.L2Sq, p, q).value
        worst = max(worst, abs(via_cf - direct))
        diff = np.abs(characteristic_function(p, ts) - characteristic_function(q, ts))
        if not np.all(diff <= 2.0 * np.exp(-0.5 * ts**2) + 1e-15):
            envelope_ok = False
    report(
        "criterion 8 (plancherel two-route consistency)",
        worst <= 1e-6 and envelope_ok,
        f"worst |cf - direct| {worst:.2e}, envelope {envelope_ok}",
    )


def _exhaustive_cover_size(dist, eps):
    n = dist.shape[0]
    for size in range(1, n + 1):
        for centers in itertools.combinations(range(n), size):
            if np.all(dist[list(centers)].min(axis=0) <= eps):
                return size
    return n


def test_criterion_9_estimation_lab():
    rng = np.random.default_rng(9)
    factor_ok = True
    for _ in range(10):
        count = int(rng.integers(4, 13))
        lo = float(rng.uniform(-2.0, 0.0))
        hi = float(rng.uniform(0.5, 2.0))
        eps = float(rng.uniform(0.08, 0.45))
        thetas = np.linspace(lo, hi, count)
        cands = [single_gaussian(t, M=3.0) for t in thetas]
        dist = np.sqrt(
            2.0 - 2.0 * np.exp(-((thetas[:, None] - thetas[None, :]) ** 2) / 8.0)
        )
        opt = _exhaustive_cover_size(dist, eps)
        got = len(greedy_cover(HellingerTable(cands), eps))
        if not (opt <= got <= 2 * opt):
            factor_ok = False

    net = greedy_cover(HellingerTable([single_gaussian(-1.0), single_gaussian(1.0)]), 0.01)
    sep = net.distance_cache[0, 1]
    truth = net.elements[1]
    regret_ok = True
    for seed in range(20):
        stream = truth.sample(100, seed)
        res = sequential_forecaster(net, stream, true_density=truth)
        if res.cum_regret.max() > math.log(2.0) + 1e-9:
            regret_ok = False

    hits = 0
    for seed in range(20):
        data = truth.sample(200, 500 + seed)
        if batch_net_mle(net, data) is truth:
            hits += 1

    eps_grid = np.linspace(0.05, 1.0, 30)
    sizes = np.ceil(1.0 / eps_grid)
    scan_ok = True
    for local in (True, False):
        rf = rate_functional(eps_grid, sizes, 100, local=local)
        obj = eps_grid**2 + np.log(sizes) / 100 if local else 100 * eps_grid**2 + np.log(sizes)
        j = int(np.argmin(obj))
        if rf.value != obj[j] or rf.eps_star != eps_grid[j]:
            scan_ok = False

    report(
        "criterion 9 (estimation lab)",
        factor_ok and regret_ok and hits >= 18 and scan_ok and sep >= 0.5,
        f"greedy factor-2 {factor_ok}, regret<=log2 {regret_ok}, "
        f"mle hits {hits}/20 (separation {sep:.2f}), rate-scan exact {scan_ok}",
    )


def _cli_bytes(tmp_path, tag, command, cfg, threads):
    cfg_path = tmp_path / f"{tag}.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / f"{tag}_out"
    rc = cli_main(
        [command, "--config", str(cfg_path), "--out", str(out), "--threads", str(threads)]
    )
    assert rc == 0
    blobs = {}
    for f in sorted(out.iterdir()):
        if f.suffix in (".csv", ".json"):
            blobs[f.name] = f.read_bytes()
    return blobs


def test_criterion_10_cli_reproducibility(tmp_path, capsys):
    gauss = lambda m: {
        "dim": 1,
        "atoms": [[[m], 1.0]],
        "class_tag": "compact",
        "params": {"M": 2.0},
    }
    commands = {
        "div": {"command": "div", "kind": "kl", "p": gauss(1.0), "q": gauss(-1.0)},
        "sweep": {"command": "sweep", "bound": "Thm1", "M": 2.0, "d": 1, "n": 15, "seed": 5},
        "dichotomy": {"command": "dichotomy", "K": 2.0, "r_grid": [5, 10]},
        "entropy": {
            "command": "entropy",
            "family": {"type": "theta-grid", "start": -1.0, "stop": 1.0, "count": 5},
            "epsilons": [0.1, 0.3],
            "n": 50,
        },
        "seq": {
            "command": "seq",
            "family": {"type": "theta-grid", "start": -1.0, "stop": 1.0, "count": 2},
            "true_index": 0,
            "length": 20,
            "n_streams": 2,
            "seed": 3,
        },
    }
    all_ok = True
    for command, cfg in commands.items():
        runs = [
            _cli_bytes(tmp_path, f"{command}_{i}", command, cfg, threads)
            for i, threads in enumerate((1, 4, 1, 4))
        ]
        capsys.readouterr()
        if not all(r == runs[0] for r in runs[1:]):
            all_ok = False
    # report command over a fixed artifact set
    rep_runs = []
    for i in range(2):
        out = tmp_path / f"rep{i}"
        out.mkdir()
        (out / "x.csv").write_text("a,b\n1,2\n")
        cfg_path = tmp_path / f"rep{i}.json"
        cfg_path.write_text("{}")
        rc = cli_main(["report", "--config", str(cfg_path), "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        rep_runs.append((out / "report.json").read_bytes())
    if rep_runs[0] != rep_runs[1]:
        all_ok = False
    report("criterion 10 (CLI byte-level reproducibility)", all_ok, "2 runs x threads {1,4}")
