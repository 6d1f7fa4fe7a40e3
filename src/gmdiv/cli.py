"""Command-line front end: divergences, sweeps, dichotomy, entropy, forecasting.

Usage:
    gmdiv div|sweep|dichotomy|entropy|seq|report --config <path>
          [--seed N] [--out <dir>]

Configuration is a JSON file per command (flags win over config fields);
unknown keys are rejected.  Every run is reproducible from (config, seed):
CSV output is byte-identical across reruns, with all floats at 17
significant digits.  A sweep runs on the calling thread; its config still
accepts a positive integer `threads` field, which changes nothing.

Exit codes: 0 success, 2 config error, 3 hypothesis violation,
4 numerical-capability or quadrature error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .bounds import BoundId, InstanceFamily, dichotomy_bounds, verify_sweep
from .divergences import DivergenceKind, divergence
from .errors import CapabilityError, HypothesisError, QuadratureError
# greedy_cover and local_cover stay importable from this module: the
# perfbench tracer (perfbench/spans.py) wraps them here by name
from .estimation import (
    HellingerTable,
    Net,
    greedy_cover,
    local_cover,
    local_covering_number,
    rate_functional,
    sequential_forecaster,
)
from .mixtures import (
    Compact,
    DichotomyParams,
    GaussianMixture,
    Subgaussian,
    dichotomy_family,
    mixture_from_record,
)
from .textio import dump_json, format_float, write_csv


def _check_keys(cfg: dict, command: str, required: set, optional: set):
    keys = set(cfg) - {"command"}
    unknown = keys - required - optional
    if unknown:
        raise ValueError(f"unknown config field(s) for {command}: {sorted(unknown)}")
    missing = required - keys
    if missing:
        raise ValueError(f"missing config field(s) for {command}: {sorted(missing)}")


def _positive_int(cfg, name, default=None):
    if name not in cfg:
        return default
    v = cfg[name]
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        raise ValueError(f"config field {name!r} must be a positive integer, got {v!r}")
    return v


def _number(cfg, name, default=None):
    if name not in cfg:
        return default
    v = cfg[name]
    if not _is_number(v):
        raise ValueError(f"config field {name!r} must be a number, got {v!r}")
    return float(v)


def _positive_number(cfg, name):
    v = _number(cfg, name)
    if v is not None and not (v > 0):
        raise ValueError(f"config field {name!r} must be a positive number, got {v!r}")
    return v


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _numbers(cfg, name) -> list[float]:
    v = cfg[name]
    if not isinstance(v, list) or not all(_is_number(e) for e in v):
        raise ValueError(f"config field {name!r} must be a list of numbers, got {v!r}")
    return [float(e) for e in v]


def _positive_numbers(cfg, name, default=None) -> list[float]:
    if name not in cfg:
        return default
    grid = _numbers(cfg, name)
    if not grid or not all(e > 0 for e in grid):
        raise ValueError(f"config field {name!r} must be a non-empty list of positive numbers")
    return grid


def _mixture(cfg, name) -> GaussianMixture:
    if name not in cfg or not isinstance(cfg[name], dict):
        raise ValueError(f"config field {name!r} must be a mixture record")
    return GaussianMixture(mixture_from_record(cfg[name]))


def _family_candidates(spec) -> list[GaussianMixture]:
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError("family spec must be an object with a 'type' field")
    kind = spec["type"]
    if kind == "theta-grid":
        _check_keys(spec, "theta-grid family", {"type", "start", "stop", "count"}, {"M"})
        start, stop = _number(spec, "start"), _number(spec, "stop")
        count = _positive_int(spec, "count")
        M = _number(spec, "M", max(abs(start), abs(stop), 1.0))
        thetas = np.linspace(start, stop, count)
        return [GaussianMixture.from_atoms([[t]], tag=Compact(M)) for t in thetas]
    if kind == "atom-grid":
        _check_keys(
            spec,
            "atom-grid family",
            {"type", "loc_start", "loc_stop", "loc_count", "weight_start", "weight_stop", "weight_count"},
            {"M"},
        )
        locs = np.linspace(_number(spec, "loc_start"), _number(spec, "loc_stop"), _positive_int(spec, "loc_count"))
        ws = np.linspace(_number(spec, "weight_start"), _number(spec, "weight_stop"), _positive_int(spec, "weight_count"))
        if np.any(ws <= 0) or np.any(ws >= 1):
            raise ValueError("atom-grid weights must lie strictly inside (0, 1)")
        M = _number(spec, "M", max(float(np.max(np.abs(locs))), 1.0))
        out = []
        for a in locs:
            for w in ws:
                out.append(
                    GaussianMixture.from_atoms([[0.0], [a]], [1.0 - w, w], tag=Compact(M))
                )
        return out
    if kind == "dichotomy":
        _check_keys(spec, "dichotomy family", {"type", "K", "r_grid"}, set())
        K = _number(spec, "K")
        return [GaussianMixture(dichotomy_family(K, r)) for r in _numbers(spec, "r_grid")]
    raise ValueError(f"unknown family type {kind!r}")


def _stream_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


# -- commands -------------------------------------------------------------------


def _run_div(cfg, out_dir, seed):
    _check_keys(cfg, "div", {"kind", "p", "q"}, {"tol", "domain_radius", "out"})
    try:
        kind = DivergenceKind(cfg["kind"])
    except ValueError:
        raise ValueError(f"config field 'kind' must be one of {sorted(k.value for k in DivergenceKind)}")
    p = _mixture(cfg, "p")
    q = _mixture(cfg, "q")
    est = divergence(kind, p, q, tol=_number(cfg, "tol"), domain_radius=_number(cfg, "domain_radius"))
    path = os.path.join(out_dir, "div.csv")
    write_csv(
        path,
        ("kind", "value", "truncation_bound", "domain_radius", "quadrature_points"),
        [[kind.value], [est.value], [est.truncation_bound], [est.domain_radius], [est.quadrature_points]],
    )
    with open(path) as fh:
        sys.stdout.write(fh.read())
    return 0


def _sweep_family(cfg) -> InstanceFamily:
    d = _positive_int(cfg, "d", 1)
    max_atoms = _positive_int(cfg, "max_atoms", 8)
    m = _number(cfg, "M")
    k = _number(cfg, "K")
    if (m is None) == (k is None):
        raise ValueError("sweep config must set exactly one of 'M' (compact) or 'K' (subgaussian)")
    tag = Compact(m) if m is not None else Subgaussian(k)
    return InstanceFamily(tag=tag, d=d, max_atoms=max_atoms)


def _run_sweep(cfg, out_dir, seed):
    _check_keys(cfg, "sweep", {"bound", "n"}, {"M", "K", "d", "seed", "tol", "max_atoms", "threads", "out"})
    try:
        bound = BoundId(cfg["bound"])
    except ValueError:
        raise ValueError(f"config field 'bound' must be one of {[b.value for b in BoundId]}")
    family = _sweep_family(cfg)
    n = _positive_int(cfg, "n")
    # validated and ignored: existing configs, perfbench's included, still set it
    _positive_int(cfg, "threads")
    report = verify_sweep(bound, family, n, seed, tol=_number(cfg, "tol"))
    report.write_csv(os.path.join(out_dir, f"sweep_{bound.value}.csv"))
    dump_json(report.summary(), os.path.join(out_dir, f"sweep_{bound.value}_summary.json"))
    print(
        f"sweep {bound.value}: n={n} failures={report.failures} "
        f"ordering_failures={report.ordering_failures} max_ratio={format_float(report.max_ratio)}"
    )
    return 0


def _run_dichotomy(cfg, out_dir, seed):
    _check_keys(cfg, "dichotomy", {"K", "r_grid"}, {"tol", "seed", "out"})
    K = _number(cfg, "K")
    if not (K > 1):
        raise HypothesisError(f"the dichotomy regime needs K > 1, got K={K}")
    tol = _number(cfg, "tol")
    rows = []
    reference = GaussianMixture.from_atoms([[0.0]], tag=Subgaussian(K))
    for r in _numbers(cfg, "r_grid"):
        params = DichotomyParams(K, r)
        gm = GaussianMixture(dichotomy_family(K, r))
        kl = divergence(DivergenceKind.KL, gm, reference, tol=tol)
        h2 = divergence(DivergenceKind.HellingerSq, gm, reference, tol=tol)
        env = dichotomy_bounds(params)
        ratio = kl.value / h2.value if h2.value > 0 else math.nan
        rows.append((K, r, kl.value, h2.value, env.kl_lb, env.h2_ub, ratio))
    write_csv(
        os.path.join(out_dir, "dichotomy.csv"),
        ("K", "r", "KL", "H2", "kl_lb", "h2_ub", "ratio"),
        list(zip(*rows)),
    )
    print(f"dichotomy: K={format_float(K)} rows={len(rows)}")
    return 0


def _run_entropy(cfg, out_dir, seed):
    _check_keys(cfg, "entropy", {"family", "epsilons", "n"}, {"eta_grid", "tol", "seed", "out"})
    candidates = _family_candidates(cfg["family"])
    eps_grid = _positive_numbers(cfg, "epsilons")
    eta_grid = _positive_numbers(cfg, "eta_grid", eps_grid)
    n = _positive_int(cfg, "n")
    # one table per job: every global and local cover reads the same pairs
    table = HellingerTable(candidates, _number(cfg, "tol"))

    cover_sizes = [len(greedy_cover(table, eps)) for eps in eps_grid]
    local_counts = [max(local_covering_number(table, eps, eta_grid), 1) for eps in eps_grid]
    batch = rate_functional(eps_grid, local_counts, n, local=True)
    seq = rate_functional(eps_grid, cover_sizes, n, local=False)
    write_csv(
        os.path.join(out_dir, "entropy.csv"),
        ("epsilon", "N", "N_loc", "batch_rate", "seq_rate"),
        (eps_grid, cover_sizes, local_counts, batch.objective, seq.objective),
    )
    dump_json(
        {
            "n": n,
            "candidates": len(candidates),
            "eta_grid_only": True,
            "batch": {"eps_star": batch.eps_star, "value": batch.value},
            "sequential": {"eps_star": seq.eps_star, "value": seq.value},
        },
        os.path.join(out_dir, "entropy_summary.json"),
    )
    print(f"entropy: candidates={len(candidates)} batch={format_float(batch.value)} seq={format_float(seq.value)}")
    return 0


def _run_seq(cfg, out_dir, seed):
    _check_keys(
        cfg, "seq", {"family", "true_index", "length"}, {"epsilon", "n_streams", "tol", "seed", "out"}
    )
    candidates = _family_candidates(cfg["family"])
    eps = _positive_number(cfg, "epsilon")
    table = HellingerTable(candidates, _number(cfg, "tol"))
    if eps is not None:
        net = greedy_cover(table, eps)
    else:
        # every candidate is an element; the forecaster reads no distances
        net = Net(table, np.arange(len(table)), 0.0)
    true_index = cfg["true_index"]
    if not isinstance(true_index, int) or isinstance(true_index, bool) or not (0 <= true_index < len(net.elements)):
        raise ValueError(
            f"config field 'true_index' must index the net (size {len(net.elements)}), got {true_index!r}"
        )
    length = _positive_int(cfg, "length")
    n_streams = _positive_int(cfg, "n_streams", 1)
    truth = net.elements[true_index]
    curves, finals = [], []
    for s in range(n_streams):
        res = sequential_forecaster(net, truth.sample(length, _stream_seed(seed, s)), true_density=truth)
        curves.append((res.step_log_loss, res.cum_regret))
        # regret is the cumulative regret against the truth; the summary reports its last row
        finals.append({"stream": s, "cum_regret": res.cum_regret[-1], "regret_vs_best": res.regret_vs_best})
    losses, regrets = (np.concatenate(c) for c in zip(*curves))
    streams = [s for s in range(n_streams) for _ in range(length)]
    columns = (streams, list(range(length)) * n_streams, losses, regrets)
    write_csv(os.path.join(out_dir, "seq.csv"), ("stream", "step", "log_loss", "regret"), columns)
    dump_json(
        {
            "net_size": len(net.elements),
            "log_net_size": math.log(len(net.elements)),
            "true_index": true_index,
            "streams": finals,
        },
        os.path.join(out_dir, "seq_summary.json"),
    )
    print(f"seq: net={len(net.elements)} streams={n_streams} length={length}")
    return 0


def _run_report(cfg, out_dir, seed):
    _check_keys(cfg, "report", set(), {"out", "seed"})
    artifacts = {}
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path) or name == "report.json":
            continue
        if name.endswith(".json"):
            with open(path) as fh:
                artifacts[name] = json.load(fh)
        elif name.endswith(".csv"):
            with open(path) as fh:
                lines = fh.read().splitlines()
            artifacts[name] = {"header": lines[0] if lines else "", "rows": max(len(lines) - 1, 0)}
    dump_json({"artifacts": artifacts}, os.path.join(out_dir, "report.json"))
    print(f"report: merged {len(artifacts)} artifact(s)")
    return 0


_COMMANDS = {
    "div": _run_div,
    "sweep": _run_sweep,
    "dichotomy": _run_dichotomy,
    "entropy": _run_entropy,
    "seq": _run_seq,
    "report": _run_report,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gmdiv", description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="output directory (default: config 'out' or '.')")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("config must be a JSON object")
        if "command" in cfg and cfg["command"] != args.command:
            raise ValueError(
                f"config field 'command'={cfg['command']!r} does not match {args.command!r}"
            )
        seed = args.seed if args.seed is not None else cfg.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ValueError(f"config field 'seed' must be a nonnegative integer, got {seed!r}")
        out_dir = args.out if args.out is not None else cfg.get("out", ".")
        os.makedirs(out_dir, exist_ok=True)
        return _COMMANDS[args.command](cfg, out_dir, seed)
    except HypothesisError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 3
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return 4
    except QuadratureError as exc:
        print(f"quadrature error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
