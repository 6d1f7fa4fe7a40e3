"""Workload definitions: seeded `gmdiv` CLI configs and their output checks.

Each workload is a list of `Job`s run in order through `gmdiv.cli.main`.
Inputs derive from the benchmark seed only; `gmdiv` receives nothing but
the generated JSON configs.  Checks rest on theory (sweep failure counts,
closed-form Hellinger covers, the Bayes-mixture regret bound), not on
output bytes.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class Job:
    command: str
    config: dict
    threads: int
    check: Callable[[str], list[str]]  # output dir -> error messages

    @property
    def label(self) -> str:
        c = self.config
        if self.command == "sweep":
            tag = f"M={c['M']}" if "M" in c else f"K={c['K']}"
            return f"sweep {c['bound']} {tag} d={c['d']} n={c['n']}"
        return f"{self.command} {c['family']['type']}"


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# -- sweeps -----------------------------------------------------------------------


def _check_sweep(bound: str):
    def check(out_dir):
        s = _read_json(os.path.join(out_dir, f"sweep_{bound}_summary.json"))
        errors = []
        if s["failures"] != 0:
            errors.append(f"{bound}: failures={s['failures']}")
        if s["ordering_failures"] != 0:
            errors.append(f"{bound}: ordering_failures={s['ordering_failures']}")
        rows = _read_csv(os.path.join(out_dir, f"sweep_{bound}.csv"))
        if len(rows) != s["n"]:
            errors.append(f"{bound}: {len(rows)} csv rows for n={s['n']}")
        return errors

    return check


def _sweep(bound: str, tag: dict, d: int, n: int, seed: int, threads: int) -> Job:
    cfg = {"command": "sweep", "bound": bound, **tag, "d": d, "n": n, "seed": seed, "threads": threads}
    return Job("sweep", cfg, threads, _check_sweep(bound))


# The nine d=1 sweep configurations of the acceptance suite (criterion 3).
_D1_SWEEPS = [
    ("Thm1", {"M": 2.0}),
    ("Thm2", {"M": 1.0}),
    ("Thm2", {"M": 2.0}),
    ("Thm3", {"K": 0.5}),
    ("Thm5", {"K": 0.5}),
    ("Thm5", {"K": 2.0}),
    ("ChiSqThm", {"M": 2.0}),
    ("TVfromL2", {"M": 2.0}),
    ("L2fromTV", {"M": 2.0}),
]

D1_N = 250
D23_THREADS = 2
# The d=3 sweep runs a fixed instance set.  A d=3 pair costs 0.03 s to 8 s
# depending on the quadrature level it converges at (each level is ~8x the
# last), so a dozen seed-drawn pairs would make wall time and peak memory
# depend on the seed far more than any bound allows.
D3_SWEEP_SEED = 0


def sweep_d1(seed: int) -> list[Job]:
    """The nine d=1 sweeps on one thread; sweep job i uses seed + i."""
    return [
        _sweep(bound, tag, 1, D1_N, seed + i, 1) for i, (bound, tag) in enumerate(_D1_SWEEPS)
    ]


def sweep_d23(seed: int) -> list[Job]:
    """Two seeded d=2 sweeps and the fixed d=3 sweep, all on two threads."""
    t = D23_THREADS
    return [
        _sweep("Thm1", {"M": 2.0}, 2, 100, seed, t),
        _sweep("ChiSqThm", {"M": 2.0}, 2, 60, seed + 1, t),
        _sweep("Thm1", {"M": 2.0}, 3, 12, D3_SWEEP_SEED, t),
    ]


# -- entropy lab --------------------------------------------------------------------


def closed_form_greedy_sizes(thetas, eps_list) -> list[int]:
    """Farthest-point greedy cover sizes of N(theta, 1) candidates.

    Uses H(a, b) = sqrt(2 - 2 exp(-(a - b)^2 / 8)) and the same rule as
    `gmdiv.estimation.greedy_cover`: start at index 0, promote the first
    farthest candidate until every candidate is within eps.
    """
    t = np.asarray(thetas, dtype=float)
    H = np.sqrt(np.maximum(2.0 - 2.0 * np.exp(-((t[:, None] - t[None, :]) ** 2) / 8.0), 0.0))
    sizes = []
    for eps in eps_list:
        mindist = H[0].copy()
        count = 1
        while True:
            far = int(np.argmax(mindist))
            if mindist[far] <= eps:
                break
            count += 1
            mindist = np.minimum(mindist, H[far])
        sizes.append(count)
    return sizes


def _check_theta_entropy(thetas, eps_list):
    def check(out_dir):
        rows = _read_csv(os.path.join(out_dir, "entropy.csv"))
        got = [int(r["N"]) for r in rows]
        want = closed_form_greedy_sizes(thetas, eps_list)
        return [] if got == want else [f"theta-grid cover sizes {got} != closed form {want}"]

    return check


def _check_atom_entropy(eps_list, n):
    # farthest-point order does not depend on eps, so N is non-increasing in
    # eps; the rate columns follow from N, N_loc and n
    def check(out_dir):
        rows = _read_csv(os.path.join(out_dir, "entropy.csv"))
        errors = []
        if [float(r["epsilon"]) for r in rows] != eps_list:
            errors.append("atom-grid epsilon column differs from the config")
        sizes = [int(r["N"]) for r in rows]
        if any(a < b for a, b in zip(sizes, sizes[1:])) or min(sizes) < 1:
            errors.append(f"atom-grid cover sizes {sizes} not non-increasing and >= 1")
        for r in rows:
            e, N, N_loc = float(r["epsilon"]), int(r["N"]), int(r["N_loc"])
            if not math.isclose(float(r["batch_rate"]), e * e + math.log(N_loc) / n, rel_tol=1e-12):
                errors.append(f"atom-grid batch_rate wrong at eps={e}")
            if not math.isclose(float(r["seq_rate"]), n * e * e + math.log(N), rel_tol=1e-12):
                errors.append(f"atom-grid seq_rate wrong at eps={e}")
        return errors

    return check


def _check_seq(thetas, eps, n_streams, length):
    def check(out_dir):
        s = _read_json(os.path.join(out_dir, "seq_summary.json"))
        errors = []
        net_size = s["net_size"]
        (want,) = closed_form_greedy_sizes(thetas, [eps])
        if net_size != want:
            errors.append(f"seq net size {net_size} != closed form {want}")
        if len(s["streams"]) != n_streams:
            errors.append(f"seq reported {len(s['streams'])} streams, expected {n_streams}")
        # Bayes mixture with a uniform prior: regret against the best
        # element is at most log N (slack for float summation over steps)
        bad = [st["stream"] for st in s["streams"] if not st["regret_vs_best"] <= math.log(net_size) + 1e-9]
        if bad:
            errors.append(f"seq streams {bad} exceed regret log(net_size)")
        with open(os.path.join(out_dir, "seq.csv")) as fh:
            n_rows = sum(1 for _ in fh) - 1
        if n_rows != n_streams * length:
            errors.append(f"seq.csv has {n_rows} rows, expected {n_streams * length}")
        return errors

    return check


THETA_COUNT = 32
THETA_EPS = [0.1, 0.2, 0.3, 0.5]
THETA_N = 200
ATOM_LOCS, ATOM_WEIGHTS = 5, 4
ATOM_EPS = [0.05, 0.1, 0.2, 0.3]
SEQ_COUNT, SEQ_EPS, SEQ_STREAMS, SEQ_LENGTH = 60, 0.05, 10, 2000


def entropy_lab(seed: int) -> list[Job]:
    """Two `entropy` jobs and one `seq` job on grids jittered from the seed.

    Grid endpoints move by up to 0.2 (0.1 for atom locations), which keeps
    the work per seed within about 1% while changing the covers; the `seq`
    streams and its true index also derive from the seed.
    """
    rng = np.random.default_rng([seed, 7])
    lo, hi = -2.0 - 0.2 * rng.random(), 2.0 + 0.2 * rng.random()
    theta_family = {"type": "theta-grid", "start": lo, "stop": hi, "count": THETA_COUNT}
    thetas = np.linspace(lo, hi, THETA_COUNT)

    atom_family = {
        "type": "atom-grid",
        "loc_start": 0.5 + 0.1 * rng.random(),
        "loc_stop": 2.5 + 0.1 * rng.random(),
        "loc_count": ATOM_LOCS,
        "weight_start": 0.1,
        "weight_stop": 0.9,
        "weight_count": ATOM_WEIGHTS,
    }

    slo, shi = -3.0 - 0.2 * rng.random(), 3.0 + 0.2 * rng.random()
    seq_family = {"type": "theta-grid", "start": slo, "stop": shi, "count": SEQ_COUNT}
    seq_thetas = np.linspace(slo, shi, SEQ_COUNT)
    (net_size,) = closed_form_greedy_sizes(seq_thetas, [SEQ_EPS])

    return [
        Job(
            "entropy",
            {"command": "entropy", "family": theta_family, "epsilons": THETA_EPS, "n": THETA_N},
            1,
            _check_theta_entropy(thetas, THETA_EPS),
        ),
        Job(
            "entropy",
            {"command": "entropy", "family": atom_family, "epsilons": ATOM_EPS, "n": THETA_N},
            1,
            _check_atom_entropy(ATOM_EPS, THETA_N),
        ),
        Job(
            "seq",
            {
                "command": "seq",
                "family": seq_family,
                "true_index": int(rng.integers(net_size)),
                "length": SEQ_LENGTH,
                "n_streams": SEQ_STREAMS,
                "epsilon": SEQ_EPS,
                "seed": seed,
            },
            1,
            _check_seq(seq_thetas, SEQ_EPS, SEQ_STREAMS, SEQ_LENGTH),
        ),
    ]


WORKLOADS = {"sweep-d1": sweep_d1, "sweep-d23": sweep_d23, "entropy-lab": entropy_lab}
