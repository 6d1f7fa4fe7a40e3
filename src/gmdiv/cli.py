"""Command-line front end: divergences, sweeps, dichotomy, entropy, forecasting.

Usage:
    gmdiv div|sweep|dichotomy|entropy|seq|report --config <path>
          [--seed N] [--out <dir>]

Configuration is a JSON file per command.  `_COMMANDS` is the one
statement of each command's config: its runner, its required fields and
its optional fields, each field with its parser; `seed` and `out` are
common to every command, and `_FAMILIES` states the fields of the
candidate-family types of `entropy` and `seq` the same way.  `main` parses
a config once through that table, before any work, and hands the runner a
dict of the parsed fields; an unknown, missing or mistyped field is a
config error.  Flags win over config fields.  Every run is reproducible
from (config, seed): CSV output is byte-identical across reruns, with all
floats at 17 significant digits.  A sweep runs on the calling thread; its
config still accepts a positive integer `threads` field, which changes
nothing.

Exit codes: 0 success, 2 config error (an integer too large for an array
size included), 3 hypothesis violation, 4 numerical-capability or
quadrature error.
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
    _is_real,
    dichotomy_family,
    mixture_from_record,
)
from .textio import dump_json, format_float, write_csv


def _field(ok, what, cast=float):
    """A field parser: `cast(v)` where `ok(v)`, else a config error saying the field must be `what`."""

    def parse(name, v):
        if not ok(v):
            raise ValueError(f"config field {name!r} must be {what}, got {v!r}")
        return cast(v)

    return parse


def _integer(low, what):
    return _field(lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= low, what, int)


def _choice(enum):
    values = [e.value for e in enum]
    return _field(lambda v: v in values, f"one of {values}", enum)


_NUMBER = _field(_is_real, "a number")
_POSITIVE = _field(lambda v: _is_real(v) and v > 0, "a positive number")
_COUNT, _INDEX = _integer(1, "a positive integer"), _integer(0, "a nonnegative integer")
_NUMBERS = _field(lambda v: isinstance(v, list) and all(map(_is_real, v)), "a list of numbers", lambda v: list(map(float, v)))
_GRID = _field(
    lambda v: isinstance(v, list) and v != [] and all(_is_real(e) and e > 0 for e in v),
    "a non-empty list of positive numbers",
    lambda v: list(map(float, v)),
)
_MIXTURE = _field(lambda v: isinstance(v, dict), "a mixture record", lambda v: GaussianMixture(mixture_from_record(v)))
_PATH = _field(lambda v: isinstance(v, str), "a path", str)


def _parse(what: str, cfg: dict, required: dict, optional: dict) -> dict:
    """Each field of `cfg` through its parser in `required` or `optional`; every required field present."""
    parsers = {**required, **optional}
    unknown = set(cfg) - set(parsers)
    if unknown:
        raise ValueError(f"unknown config field(s) for {what}: {sorted(unknown)}")
    missing = set(required) - set(cfg)
    if missing:
        raise ValueError(f"missing config field(s) for {what}: {sorted(missing)}")
    return {name: parsers[name](name, v) for name, v in cfg.items()}


# -- candidate families -----------------------------------------------------------


def _theta_grid(start, stop, count, M=None):
    M = max(abs(start), abs(stop), 1.0) if M is None else M
    return [GaussianMixture.from_atoms([[t]], tag=Compact(M)) for t in np.linspace(start, stop, count)]


def _atom_grid(loc_start, loc_stop, loc_count, weight_start, weight_stop, weight_count, M=None):
    locs = np.linspace(loc_start, loc_stop, loc_count)
    ws = np.linspace(weight_start, weight_stop, weight_count)
    if np.any(ws <= 0) or np.any(ws >= 1):
        raise ValueError("atom-grid weights must lie strictly inside (0, 1)")
    M = max(float(np.max(np.abs(locs))), 1.0) if M is None else M
    return [GaussianMixture.from_atoms([[0.0], [a]], [1.0 - w, w], tag=Compact(M)) for a in locs for w in ws]


def _dichotomy_grid(K, r_grid):
    return [GaussianMixture(dichotomy_family(K, r)) for r in r_grid]


# type -> (builder, required fields, optional fields); the builder takes the parsed fields by name
_FAMILIES = {
    "theta-grid": (_theta_grid, {"start": _NUMBER, "stop": _NUMBER, "count": _COUNT}, {"M": _NUMBER}),
    "atom-grid": (
        _atom_grid,
        {
            "loc_start": _NUMBER,
            "loc_stop": _NUMBER,
            "loc_count": _COUNT,
            "weight_start": _NUMBER,
            "weight_stop": _NUMBER,
            "weight_count": _COUNT,
        },
        {"M": _NUMBER},
    ),
    "dichotomy": (_dichotomy_grid, {"K": _NUMBER, "r_grid": _NUMBERS}, {}),
}


def _family_candidates(spec) -> list[GaussianMixture]:
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError("family spec must be an object with a 'type' field")
    kind = spec["type"]
    if not isinstance(kind, str) or kind not in _FAMILIES:
        raise ValueError(f"unknown family type {kind!r}")
    build, required, optional = _FAMILIES[kind]
    fields = {name: v for name, v in spec.items() if name != "type"}
    return build(**_parse(f"{kind} family", fields, required, optional))


_FAMILY = _field(lambda v: True, "a family spec", _family_candidates)


def _stream_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


# -- commands: each runner takes the parsed fields, `seed` and `out` always set ---


def _run_div(fields):
    kind = fields["kind"]
    est = divergence(kind, fields["p"], fields["q"], tol=fields.get("tol"), domain_radius=fields.get("domain_radius"))
    path = os.path.join(fields["out"], "div.csv")
    write_csv(
        path,
        ("kind", "value", "truncation_bound", "domain_radius", "quadrature_points"),
        [[kind.value], [est.value], [est.truncation_bound], [est.domain_radius], [est.quadrature_points]],
    )
    with open(path) as fh:
        sys.stdout.write(fh.read())
    return 0


def _run_sweep(fields):
    bound, n = fields["bound"], fields["n"]
    if ("M" in fields) == ("K" in fields):
        raise ValueError("sweep config must set exactly one of 'M' (compact) or 'K' (subgaussian)")
    tag = Compact(fields["M"]) if "M" in fields else Subgaussian(fields["K"])
    family = InstanceFamily(tag=tag, d=fields.get("d", 1), max_atoms=fields.get("max_atoms", 8))
    report = verify_sweep(bound, family, n, fields["seed"], tol=fields.get("tol"))
    report.write_csv(os.path.join(fields["out"], f"sweep_{bound.value}.csv"))
    dump_json(report.summary(), os.path.join(fields["out"], f"sweep_{bound.value}_summary.json"))
    print(
        f"sweep {bound.value}: n={n} failures={report.failures} "
        f"ordering_failures={report.ordering_failures} max_ratio={format_float(report.max_ratio)}"
    )
    return 0


def _run_dichotomy(fields):
    K, tol = fields["K"], fields.get("tol")
    if not (K > 1):
        raise HypothesisError(f"the dichotomy regime needs K > 1, got K={K}")
    rows = []
    reference = GaussianMixture.from_atoms([[0.0]], tag=Subgaussian(K))
    for r in fields["r_grid"]:
        params = DichotomyParams(K, r)
        gm = GaussianMixture(dichotomy_family(K, r))
        kl = divergence(DivergenceKind.KL, gm, reference, tol=tol)
        h2 = divergence(DivergenceKind.HellingerSq, gm, reference, tol=tol)
        env = dichotomy_bounds(params)
        ratio = kl.value / h2.value if h2.value > 0 else math.nan
        rows.append((K, r, kl.value, h2.value, env.kl_lb, env.h2_ub, ratio))
    write_csv(
        os.path.join(fields["out"], "dichotomy.csv"),
        ("K", "r", "KL", "H2", "kl_lb", "h2_ub", "ratio"),
        list(zip(*rows)),
    )
    print(f"dichotomy: K={format_float(K)} rows={len(rows)}")
    return 0


def _run_entropy(fields):
    candidates, eps_grid, n = fields["family"], fields["epsilons"], fields["n"]
    eta_grid = fields.get("eta_grid", eps_grid)
    # one table per job: every global and local cover reads the same pairs
    table = HellingerTable(candidates, fields.get("tol"))

    cover_sizes = [len(greedy_cover(table, eps)) for eps in eps_grid]
    local_counts = [max(local_covering_number(table, eps, eta_grid), 1) for eps in eps_grid]
    batch = rate_functional(eps_grid, local_counts, n, local=True)
    seq = rate_functional(eps_grid, cover_sizes, n, local=False)
    write_csv(
        os.path.join(fields["out"], "entropy.csv"),
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
        os.path.join(fields["out"], "entropy_summary.json"),
    )
    print(f"entropy: candidates={len(candidates)} batch={format_float(batch.value)} seq={format_float(seq.value)}")
    return 0


def _run_seq(fields):
    true_index, length, n_streams = fields["true_index"], fields["length"], fields.get("n_streams", 1)
    # every stream's log-loss and regret rows, before any distance is computed
    try:
        curves = np.empty((2, n_streams * length))
    except (ValueError, OverflowError, MemoryError):
        raise ValueError(f"config fields 'n_streams'={n_streams} and 'length'={length} give too many rows") from None
    table = HellingerTable(fields["family"], fields.get("tol"))
    if "epsilon" in fields:
        net = greedy_cover(table, fields["epsilon"])
    else:
        # every candidate is an element; the forecaster reads no distances
        net = Net(table, np.arange(len(table)), 0.0)
    # the fields were parsed before the cover filled the table; true_index's
    # upper end, the net's size, is checked after it
    if true_index >= len(net.elements):
        raise ValueError(f"config field 'true_index' must index the net (size {len(net.elements)}), got {true_index}")
    truth = net.elements[true_index]
    finals = []
    for s in range(n_streams):
        res = sequential_forecaster(net, truth.sample(length, _stream_seed(fields["seed"], s)), true_density=truth)
        curves[:, s * length : (s + 1) * length] = res.step_log_loss, res.cum_regret
        # regret is the cumulative regret against the truth; the summary reports its last row
        finals.append({"stream": s, "cum_regret": res.cum_regret[-1], "regret_vs_best": res.regret_vs_best})
    streams = [s for s in range(n_streams) for _ in range(length)]
    columns = (streams, list(range(length)) * n_streams, *curves)
    write_csv(os.path.join(fields["out"], "seq.csv"), ("stream", "step", "log_loss", "regret"), columns)
    dump_json(
        {
            "net_size": len(net.elements),
            "log_net_size": math.log(len(net.elements)),
            "true_index": true_index,
            "streams": finals,
        },
        os.path.join(fields["out"], "seq_summary.json"),
    )
    print(f"seq: net={len(net.elements)} streams={n_streams} length={length}")
    return 0


def _run_report(fields):
    artifacts = {}
    for name in sorted(os.listdir(fields["out"])):
        path = os.path.join(fields["out"], name)
        if not os.path.isfile(path) or name == "report.json":
            continue
        if name.endswith(".json"):
            with open(path) as fh:
                artifacts[name] = json.load(fh)
        elif name.endswith(".csv"):
            with open(path) as fh:
                lines = fh.read().splitlines()
            artifacts[name] = {"header": lines[0] if lines else "", "rows": max(len(lines) - 1, 0)}
    dump_json({"artifacts": artifacts}, os.path.join(fields["out"], "report.json"))
    print(f"report: merged {len(artifacts)} artifact(s)")
    return 0


# the fields every command accepts: the flags --seed and --out win over them
_COMMON = {"seed": _INDEX, "out": _PATH}

# command -> (runner, required fields, optional fields besides _COMMON)
_COMMANDS = {
    "div": (
        _run_div,
        {"kind": _choice(DivergenceKind), "p": _MIXTURE, "q": _MIXTURE},
        {"tol": _NUMBER, "domain_radius": _NUMBER},
    ),
    "sweep": (
        _run_sweep,
        {"bound": _choice(BoundId), "n": _COUNT},
        # threads is validated and ignored: existing configs, perfbench's included, still set it
        {"M": _NUMBER, "K": _NUMBER, "d": _COUNT, "tol": _NUMBER, "max_atoms": _COUNT, "threads": _COUNT},
    ),
    "dichotomy": (_run_dichotomy, {"K": _NUMBER, "r_grid": _NUMBERS}, {"tol": _NUMBER}),
    "entropy": (
        _run_entropy,
        {"family": _FAMILY, "epsilons": _GRID, "n": _COUNT},
        {"eta_grid": _GRID, "tol": _NUMBER},
    ),
    "seq": (
        _run_seq,
        {"family": _FAMILY, "true_index": _INDEX, "length": _COUNT},
        {"epsilon": _POSITIVE, "n_streams": _COUNT, "tol": _NUMBER},
    ),
    "report": (_run_report, {}, {}),
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
        command = cfg.pop("command", args.command)
        if command != args.command:
            raise ValueError(f"config field 'command'={command!r} does not match {args.command!r}")
        run, required, optional = _COMMANDS[args.command]
        fields = _parse(args.command, cfg, required, {**optional, **_COMMON})
        fields["seed"] = _INDEX("seed", args.seed) if args.seed is not None else fields.get("seed", 0)
        fields["out"] = args.out if args.out is not None else fields.get("out", ".")
        os.makedirs(fields["out"], exist_ok=True)
        return run(fields)
    except HypothesisError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 3
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return 4
    except QuadratureError as exc:
        print(f"quadrature error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, KeyError, TypeError, OverflowError, OSError, json.JSONDecodeError) as exc:
        # OverflowError: an integer field too large for an array size (a sweep's n)
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
