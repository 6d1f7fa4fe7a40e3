import itertools
import json
import math
import pathlib
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from gmdiv import Compact, DivergenceKind, HellingerTable, bounds, cli, estimation, greedy_cover, local_cover
from gmdiv.bounds import InstanceFamily, make_pair
from gmdiv.cli import _family_candidates, main
from gmdiv.textio import _ROWS, format_float, write_csv
from gmdiv.mixtures import mixture_to_record
from conftest import compute_pairs


THETA_FAMILY = {"type": "theta-grid", "start": -1.0, "stop": 1.0, "count": 3}


def write_config(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


def gaussian_record(mean, M=2.0):
    return {
        "dim": 1,
        "atoms": [[[float(mean)], 1.0]],
        "class_tag": "compact",
        "params": {"M": M},
    }


@pytest.fixture
def run(tmp_path, capsys):
    def _run(command, cfg, expect=0, **flags):
        cfg_path = write_config(tmp_path / f"{command}_{len(list(tmp_path.iterdir()))}.json", cfg)
        argv = [command, "--config", cfg_path, "--out", str(tmp_path / "out")]
        for k, v in flags.items():
            argv += [f"--{k}", str(v)]
        rc = main(argv)
        out = capsys.readouterr()
        assert rc == expect, (rc, out.err)
        return tmp_path / "out", out

    return _run


class TestDivCommand:
    def test_identity_prints_zero_row(self, run):
        cfg = {"command": "div", "kind": "kl", "p": gaussian_record(0.0), "q": gaussian_record(0.0)}
        out_dir, out = run("div", cfg)
        lines = out.out.strip().splitlines()
        assert lines[0].startswith("kind,value")
        assert lines[1].split(",")[1] == "0"
        assert (out_dir / "div.csv").exists()

    def test_known_value(self, run):
        cfg = {"command": "div", "kind": "kl", "p": gaussian_record(2.0), "q": gaussian_record(-2.0)}
        _, out = run("div", cfg)
        value = float(out.out.strip().splitlines()[1].split(",")[1])
        assert value == pytest.approx(8.0, rel=1e-6)

    def test_stdout_echoes_csv(self, run):
        cfg = {"command": "div", "kind": "h2", "p": gaussian_record(0.5), "q": gaussian_record(-0.25)}
        out_dir, out = run("div", cfg)
        assert out.out == (out_dir / "div.csv").read_text()


class TestSweepCommand:
    def test_writes_csv_and_summary(self, run):
        cfg = {"command": "sweep", "bound": "Thm1", "M": 2.0, "d": 1, "n": 12, "seed": 5}
        out_dir, _ = run("sweep", cfg)
        csv = (out_dir / "sweep_Thm1.csv").read_text().splitlines()
        assert csv[0] == "seed,index,M,K,d,natoms_p,natoms_q,lhs,rhs,ratio,pass"
        assert len(csv) == 13
        summary = json.loads((out_dir / "sweep_Thm1_summary.json").read_text())
        assert summary["failures"] == 0

    def test_no_finite_ratio_has_no_argmax_params(self, run):
        # one atom each at K = 0.5: every lhs and rhs is 0 and every ratio NaN,
        # so there is no argmax and no params to report
        cfg = {"command": "sweep", "bound": "Thm5", "K": 0.5, "max_atoms": 1, "n": 3}
        out_dir, _ = run("sweep", cfg)
        summary = json.loads((out_dir / "sweep_Thm5_summary.json").read_text())
        assert summary["max_ratio"] == "nan"
        assert summary["argmax_index"] == -1
        assert summary["argmax_params"] is None

    def test_summary_reports_quadrature_cost(self, run):
        cfg = {"command": "sweep", "bound": "Thm1", "M": 2.0, "d": 1, "n": 12, "seed": 5}
        out_dir, _ = run("sweep", cfg)
        summary = json.loads((out_dir / "sweep_Thm1_summary.json").read_text())
        fam = InstanceFamily(Compact(2.0), 1)
        pairs = [make_pair(5, i, fam) for i in range(12)]
        points = sorted(
            row[DivergenceKind.KL].quadrature_points
            for row in compute_pairs([DivergenceKind.KL, DivergenceKind.HellingerSq], pairs)
        )
        assert summary["quadrature_points"] == sum(points)
        # nearest rank: the 6th and the 12th of 12
        assert summary["quadrature_points_p50"] == points[5]
        assert summary["quadrature_points_p99"] == points[11]

    def test_byte_identical_across_runs_and_threads(self, tmp_path, capsys):
        cfg = {"command": "sweep", "bound": "Thm1", "M": 2.0, "d": 1, "n": 10, "seed": 7}
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        outputs = []
        for i in range(3):
            out = tmp_path / f"o{i}"
            rc = main(["sweep", "--config", cfg_path, "--out", str(out)])
            capsys.readouterr()
            assert rc == 0
            outputs.append((out / "sweep_Thm1.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_threads_field_accepted_and_ignored(self, run):
        cfg = {"command": "sweep", "bound": "Thm1", "M": 2.0, "d": 1, "n": 6, "seed": 5}
        out_dir, _ = run("sweep", cfg)
        plain = (out_dir / "sweep_Thm1.csv").read_bytes()
        out_dir, _ = run("sweep", {**cfg, "threads": 2})
        assert (out_dir / "sweep_Thm1.csv").read_bytes() == plain

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        cfg = {"command": "sweep", "bound": "Thm1", "M": 2.0, "d": 1, "n": 6, "seed": 5}
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", cfg_path, "--out", str(a)]) == 0
        assert main(["sweep", "--config", cfg_path, "--out", str(b), "--seed", "6"]) == 0
        capsys.readouterr()
        assert (a / "sweep_Thm1.csv").read_bytes() != (b / "sweep_Thm1.csv").read_bytes()


class TestDichotomyCommand:
    def test_ratio_column_increases(self, run):
        cfg = {"command": "dichotomy", "K": 2.0, "r_grid": [5, 10, 15]}
        out_dir, _ = run("dichotomy", cfg)
        rows = (out_dir / "dichotomy.csv").read_text().splitlines()[1:]
        ratios = [float(r.split(",")[-1]) for r in rows]
        assert ratios[0] < ratios[1] < ratios[2]


class TestEntropySeqReport:
    def test_entropy_rows_and_summary(self, run):
        cfg = {
            "command": "entropy",
            "family": {"type": "theta-grid", "start": -1.0, "stop": 1.0, "count": 5},
            "epsilons": [0.1, 0.3],
            "n": 50,
        }
        out_dir, _ = run("entropy", cfg)
        rows = (out_dir / "entropy.csv").read_text().splitlines()
        assert rows[0] == "epsilon,N,N_loc,batch_rate,seq_rate"
        assert len(rows) == 3
        summary = json.loads((out_dir / "entropy_summary.json").read_text())
        assert summary["eta_grid_only"] is True

    def test_seq_regret_rows(self, run):
        cfg = {
            "command": "seq",
            "family": {"type": "theta-grid", "start": -1.0, "stop": 1.0, "count": 2},
            "true_index": 0,
            "length": 20,
            "n_streams": 2,
            "seed": 3,
        }
        out_dir, _ = run("seq", cfg)
        rows = (out_dir / "seq.csv").read_text().splitlines()
        assert rows[0] == "stream,step,log_loss,regret"
        assert len(rows) == 1 + 2 * 20
        summary = json.loads((out_dir / "seq_summary.json").read_text())
        for s in summary["streams"]:
            assert s["cum_regret"] <= math.log(2.0) + 1e-9
            # the summary's cum_regret is the stream's last regret row, not a second sum
            last = [r for r in rows[1:] if r.startswith(f"{s['stream']},")][-1]
            assert s["cum_regret"] == float(last.split(",")[3])
            assert s["regret_vs_best"] <= math.log(summary["net_size"])

    def test_atom_grid_and_dichotomy_families(self, run):
        cfg = {
            "command": "entropy",
            "family": {
                "type": "atom-grid",
                "loc_start": 0.5,
                "loc_stop": 1.5,
                "loc_count": 2,
                "weight_start": 0.2,
                "weight_stop": 0.8,
                "weight_count": 2,
            },
            "epsilons": [0.2],
            "n": 10,
        }
        run("entropy", cfg)
        cfg2 = {
            "command": "seq",
            "family": {"type": "dichotomy", "K": 2.0, "r_grid": [2.0, 3.0]},
            "true_index": 0,
            "length": 5,
        }
        run("seq", cfg2)

    @pytest.mark.parametrize(
        "family",
        [
            {"type": "theta-grid", "start": -1.0, "stop": 1.2, "count": 8},
            {
                "type": "atom-grid",
                "loc_start": 0.5,
                "loc_stop": 1.5,
                "loc_count": 3,
                "weight_start": 0.2,
                "weight_stop": 0.8,
                "weight_count": 2,
            },
        ],
    )
    def test_entropy_shares_one_table(self, run, hellinger_calls, gram_fills, family):
        # one entropy job fills one table in one Gram pass and integrates no
        # pair on its own, and its cover sizes equal those of standalone
        # covers with their own tables
        eps_grid, eta_grid = [0.05, 0.1, 0.2, 0.4], [0.08, 0.15, 0.3, 0.6]
        cfg = {"command": "entropy", "family": family, "epsilons": eps_grid, "eta_grid": eta_grid, "n": 50}
        out_dir, _ = run("entropy", cfg)
        cands = _family_candidates(family)
        assert not hellinger_calls
        assert len(gram_fills) == 1 and len(gram_fills[0]) == len(cands)
        rows = [r.split(",") for r in (out_dir / "entropy.csv").read_text().splitlines()[1:]]
        for eps, row in zip(eps_grid, rows):
            n_loc = max(
                (len(local_cover(HellingerTable(cands), c, eta)) for eta in eta_grid if eta >= eps for c in cands),
                default=1,
            )
            assert int(row[1]) == len(greedy_cover(HellingerTable(cands), eps))
            assert int(row[2]) == max(n_loc, 1)

    def test_seq_without_epsilon_integrates_nothing(self, run, hellinger_calls):
        cfg = {
            "command": "seq",
            "family": {"type": "theta-grid", "start": -1.0, "stop": 1.0, "count": 6},
            "true_index": 2,
            "length": 5,
        }
        out_dir, _ = run("seq", cfg)
        assert json.loads((out_dir / "seq_summary.json").read_text())["net_size"] == 6
        assert not hellinger_calls

    def test_seq_with_epsilon_forecasts_over_the_cover(self, run):
        family = {"type": "theta-grid", "start": -1.0, "stop": 1.0, "count": 6}
        cfg = {"command": "seq", "family": family, "true_index": 1, "length": 15, "n_streams": 3, "epsilon": 0.3}
        out_dir, _ = run("seq", cfg)
        first = [(out_dir / name).read_bytes() for name in ("seq.csv", "seq_summary.json")]
        summary = json.loads(first[1])
        net_size = len(greedy_cover(HellingerTable(_family_candidates(family)), 0.3))
        assert summary["net_size"] == net_size < 6
        assert summary["log_net_size"] == math.log(net_size)
        assert all(s["regret_vs_best"] <= summary["log_net_size"] for s in summary["streams"])
        assert len((out_dir / "seq.csv").read_text().splitlines()) == 1 + 3 * 15
        run("seq", cfg)
        assert [(out_dir / name).read_bytes() for name in ("seq.csv", "seq_summary.json")] == first

    def test_report_merges_artifacts(self, run, tmp_path):
        cfg = {"command": "dichotomy", "K": 2.0, "r_grid": [5]}
        out_dir, _ = run("dichotomy", cfg)
        seq = {"command": "seq", "family": THETA_FAMILY, "true_index": 0, "length": 4}
        run("seq", seq)
        out_dir, _ = run("report", {"command": "report"})
        report = json.loads((out_dir / "report.json").read_text())
        assert "dichotomy.csv" in report["artifacts"]
        assert report["artifacts"]["dichotomy.csv"]["rows"] == 1
        # a .json artifact is merged whole
        assert report["artifacts"]["seq_summary.json"] == json.loads((out_dir / "seq_summary.json").read_text())


class TestErrorPaths:
    def test_unknown_field_exit_2(self, run):
        cfg = {"command": "sweep", "bound": "Thm1", "M": 2.0, "d": 1, "n": 3, "zzz": 1}
        run("sweep", cfg, expect=2)

    def test_missing_field_exit_2(self, run):
        run("sweep", {"command": "sweep", "bound": "Thm1"}, expect=2)

    def test_command_mismatch_exit_2(self, run):
        run("sweep", {"command": "div", "bound": "Thm1", "n": 3, "M": 2.0}, expect=2)

    def test_hypothesis_violation_exit_3(self, run):
        cfg = {"command": "sweep", "bound": "Thm1", "M": 1.0, "d": 1, "n": 3}
        run("sweep", cfg, expect=3)

    @pytest.mark.parametrize("grid", [[0.0, 0.3], [-0.1], [], ["x"]])
    def test_bad_eta_grid_exit_2(self, run, grid):
        cfg = {
            "command": "entropy",
            "family": {"type": "theta-grid", "start": -1.0, "stop": 1.0, "count": 3},
            "epsilons": [0.3],
            "eta_grid": grid,
            "n": 10,
        }
        run("entropy", cfg, expect=2)

    @pytest.mark.parametrize("eps", [math.nan, 0.0, -0.1, "x"])
    def test_bad_seq_epsilon_exit_2(self, run, eps):
        cfg = {
            "command": "seq",
            "family": {"type": "theta-grid", "start": -1.0, "stop": 1.0, "count": 3},
            "true_index": 0,
            "length": 5,
            "epsilon": eps,
        }
        run("seq", cfg, expect=2)

    @pytest.mark.parametrize(
        "command, cfg",
        [
            ("sweep", {"bound": "Thm1", "M": 2.0, "n": 2, "threads": True}),
            ("dichotomy", {"K": 2.0, "r_grid": "23"}),
            ("dichotomy", {"K": 2.0, "r_grid": [True, 3.0]}),
            ("seq", {"family": {"type": "dichotomy", "K": 2.0, "r_grid": "23"}, "true_index": 0, "length": 5}),
            ("entropy", {"family": THETA_FAMILY, "epsilons": "5", "n": 10}),
            ("entropy", {"family": THETA_FAMILY, "epsilons": [True, "0.5"], "n": 10}),
            ("entropy", {"family": THETA_FAMILY, "epsilons": [0.3], "eta_grid": [0.3, False], "n": 10}),
            ("div", {"kind": "kl", "p": {**gaussian_record(0.0), "dim": True}, "q": gaussian_record(0.0)}),
            ("div", {"kind": "kl", "p": gaussian_record(0.0, M="2"), "q": gaussian_record(0.0)}),
        ],
    )
    def test_strings_and_bools_are_not_numbers_exit_2(self, run, command, cfg):
        run(command, {"command": command, **cfg}, expect=2)

    def test_nan_dichotomy_level_exit_3(self, run):
        cfg = {"command": "dichotomy", "K": math.nan, "r_grid": [2.0, 3.0]}
        _, out = run("dichotomy", cfg, expect=3)
        assert "the dichotomy regime needs K > 1" in out.err

    def test_sweep_above_three_dimensions_exit_4(self, run):
        cfg = {"command": "sweep", "bound": "Thm1", "M": 2.0, "d": 4, "n": 3}
        run("sweep", cfg, expect=4)

    def test_capability_error_exit_4(self, run):
        rec = {"dim": 1, "atoms": [[[0.0], 1.0]], "class_tag": "unconstrained", "params": {}}
        cfg = {"command": "div", "kind": "kl", "p": rec, "q": rec}
        run("div", cfg, expect=4)

    def test_quadrature_error_exit_4(self, run):
        # a d=2 TV pair whose refinement runs out of levels at tol 1e-7
        p, q = make_pair(3, 3, InstanceFamily(Compact(2.0), 2))
        cfg = {
            "command": "div",
            "kind": "tv",
            "tol": 1e-7,
            "p": mixture_to_record(p.mixing),
            "q": mixture_to_record(q.mixing),
        }
        _, out = run("div", cfg, expect=4)
        assert out.err.startswith("quadrature error: ")
        assert out.err.count("\n") == 1

    def test_bool_true_index_exit_2(self, run):
        # True is an int in Python; it ran as index 1 and was written back as `true`
        cfg = {"command": "seq", "family": THETA_FAMILY, "true_index": True, "length": 5}
        run("seq", cfg, expect=2)

    @pytest.mark.parametrize("true_index", [-1, 0.5, "0"])
    def test_bad_true_index_exit_2_before_the_cover(self, run, gram_fills, true_index):
        cfg = {"command": "seq", "family": THETA_FAMILY, "true_index": true_index, "length": 5, "epsilon": 0.5}
        run("seq", cfg, expect=2)
        assert gram_fills == []

    def test_true_index_past_the_net_exit_2(self, run, gram_fills):
        # its range is checked against the net, once the cover has read the table
        cfg = {"command": "seq", "family": THETA_FAMILY, "true_index": 3, "length": 5, "epsilon": 0.5}
        _, out = run("seq", cfg, expect=2)
        assert "must index the net" in out.err and len(gram_fills) == 1

    def test_bad_kind_exit_2(self, run):
        cfg = {"command": "div", "kind": "w2", "p": gaussian_record(0.0), "q": gaussian_record(0.0)}
        run("div", cfg, expect=2)

    def test_bad_config_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["div", "--config", str(bad)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "command, cfg",
        [
            ("sweep", {"bound": "Thm1", "M": 2.0, "n": 10**30}),
            ("seq", {"family": THETA_FAMILY, "true_index": 0, "length": 10**30}),
        ],
    )
    def test_integer_too_large_for_an_array_exit_2(self, run, command, cfg):
        # n and length are array sizes: past the C ssize_t range numpy raises OverflowError
        _, out = run(command, {"command": command, **cfg}, expect=2)
        assert out.err.startswith("config error: ") and out.err.count("\n") == 1


    def test_too_many_seq_rows_exit_2_before_any_distance(self, run, monkeypatch):
        # n_streams * length rows are allocated before the cover fills the Gram table
        filled = []
        monkeypatch.setattr(estimation, "_gram_h2", lambda *args: filled.append(args))
        cfg = {"command": "seq", "family": THETA_FAMILY, "true_index": 0, "length": 3, "epsilon": 0.3}
        start = time.perf_counter()
        _, out = run("seq", {**cfg, "n_streams": 10**31}, expect=2)
        assert time.perf_counter() - start < 1.0 and filled == []
        assert out.err.startswith("config error: ") and "'n_streams'" in out.err and "'length'" in out.err

# a valid config of every command and of every family type, the base of the table-driven cases
VALID = {
    "div": {"kind": "kl", "p": gaussian_record(0.0), "q": gaussian_record(0.5)},
    "sweep": {"bound": "Thm1", "M": 2.0, "n": 2},
    "dichotomy": {"K": 2.0, "r_grid": [5]},
    "entropy": {"family": THETA_FAMILY, "epsilons": [0.3], "n": 10},
    "seq": {"family": THETA_FAMILY, "true_index": 0, "length": 4},
    "report": {},
}
VALID_FAMILIES = {
    "theta-grid": THETA_FAMILY,
    "atom-grid": {
        "type": "atom-grid",
        "loc_start": 0.5,
        "loc_stop": 1.5,
        "loc_count": 2,
        "weight_start": 0.2,
        "weight_stop": 0.8,
        "weight_count": 2,
    },
    "dichotomy": {"type": "dichotomy", "K": 2.0, "r_grid": [2.0, 3.0]},
}
COMMAND_FIELDS = [
    (command, name, name in required)
    for command, (_, required, optional) in cli._COMMANDS.items()
    for name in {**required, **optional, **cli._COMMON}
]
FAMILY_FIELDS = [
    (kind, name, name in required) for kind, (_, required, optional) in cli._FAMILIES.items() for name in {**required, **optional}
]


def with_family(spec):
    return "entropy", {**VALID["entropy"], "family": spec}


@pytest.fixture
def runners(monkeypatch):
    """Every command's runner replaced by one that records the fields it is handed and returns 0."""
    calls = []
    for command, (_, required, optional) in list(cli._COMMANDS.items()):
        monkeypatch.setitem(cli._COMMANDS, command, (lambda fields: calls.append(fields) or 0, required, optional))
    return calls


class TestConfigTable:
    """Cases generated from `_COMMANDS` and `_FAMILIES`: each config error is found before any runner."""

    def test_every_command_and_family_type_has_a_valid_config(self, run, runners):
        assert set(VALID) == set(cli._COMMANDS) and set(VALID_FAMILIES) == set(cli._FAMILIES)
        for command, cfg in [*VALID.items(), *map(with_family, VALID_FAMILIES.values())]:
            run(command, {"command": command, **cfg})
            assert set(runners.pop()) == set(cfg) | {"seed", "out"}

    # out is a path, the one field a string suits
    @pytest.mark.parametrize(
        "command, name, value",
        [(c, name, v) for c, name, _ in COMMAND_FIELDS for v in (True, "x") if (name, v) != ("out", "x")],
    )
    def test_bool_or_string_field_exit_2(self, run, runners, command, name, value):
        run(command, {"command": command, **VALID[command], name: value}, expect=2)
        assert runners == []

    @pytest.mark.parametrize("value", [True, "x"])
    @pytest.mark.parametrize("kind, name, required", FAMILY_FIELDS)
    def test_bool_or_string_family_field_exit_2(self, run, runners, kind, name, required, value):
        run(*with_family({**VALID_FAMILIES[kind], name: value}), expect=2)
        assert runners == []

    @pytest.mark.parametrize("command, name, required", [f for f in COMMAND_FIELDS if f[2]])
    def test_missing_required_field_exit_2(self, run, runners, command, name, required):
        cfg = {k: v for k, v in VALID[command].items() if k != name}
        _, out = run(command, {"command": command, **cfg}, expect=2)
        assert "missing config field" in out.err and runners == []

    @pytest.mark.parametrize("kind, name, required", [f for f in FAMILY_FIELDS if f[2]])
    def test_missing_required_family_field_exit_2(self, run, runners, kind, name, required):
        spec = {k: v for k, v in VALID_FAMILIES[kind].items() if k != name}
        _, out = run(*with_family(spec), expect=2)
        assert "missing config field" in out.err and runners == []

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_unknown_field_exit_2(self, run, runners, command):
        _, out = run(command, {"command": command, **VALID[command], "zzz": 1}, expect=2)
        assert "unknown config field" in out.err and runners == []

    @pytest.mark.parametrize("kind", sorted(cli._FAMILIES))
    def test_unknown_family_field_exit_2(self, run, runners, kind):
        _, out = run(*with_family({**VALID_FAMILIES[kind], "zzz": 1}), expect=2)
        assert "unknown config field" in out.err and runners == []

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_every_command_takes_seed_and_out(self, tmp_path, capsys, command):
        out = tmp_path / "from_config"
        path = write_config(tmp_path / "cfg.json", {"command": command, **VALID[command], "seed": 3, "out": str(out)})
        assert main([command, "--config", path]) == 0, capsys.readouterr().err
        assert out.is_dir() and (command == "report" or any(out.iterdir()))

    def test_readme_table_lists_every_field(self):
        lines = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
        start = lines.index("| command | field | type | default |") + 2
        listed = set()
        for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start:]):
            owner, names, _, default = (cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1])
            listed |= {(owner, name, default == "required") for name in re.findall(r"`(\w+)`", names)}
        want = {("every command", name, False) for name in cli._COMMON}
        want |= {(f"`{c}`", name, req) for c, name, req in COMMAND_FIELDS if name not in cli._COMMON}
        want |= {(f"family `{k}`", name, req) for k, name, req in FAMILY_FIELDS}
        assert listed == want


def reference_write_csv(path, header, rows):
    """The per-cell CSV writer that the columnar `write_csv` replaced: the byte reference."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = []
            for cell in row:
                if isinstance(cell, bool):
                    cells.append("true" if cell else "false")
                elif isinstance(cell, float):
                    cells.append(format_float(cell))
                else:
                    cells.append(str(cell))
            fh.write(",".join(cells) + "\n")


class TestCsvWriter:
    def test_cells_match_the_per_cell_writer(self, tmp_path):
        floats = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 0.1]
        rows = [
            (
                x,
                np.float64(x),
                i % 2 == 0,
                i,
                np.int64(-i),
                ["", "a", "b c"][i % 3],
                [x, i, "s", True, np.float64(x), np.bool_(i % 2), np.float32(x)][i],
            )
            for i, x in enumerate(floats)
        ]
        header = ("float", "np_float", "bool", "int", "np_int", "str", "mixed")
        reference_write_csv(tmp_path / "ref.csv", header, rows)
        want = (tmp_path / "ref.csv").read_bytes()
        assert want.splitlines()[1] == b"0,0,true,0,0,,0"
        columns = list(zip(*rows))
        write_csv(tmp_path / "rows.csv", header, columns)
        assert (tmp_path / "rows.csv").read_bytes() == want
        # float columns as arrays, as the seq command hands them over
        columns[0], columns[1] = np.array(floats), np.array(floats)
        write_csv(tmp_path / "arrays.csv", header, columns)
        assert (tmp_path / "arrays.csv").read_bytes() == want

    def test_long_and_empty_tables(self, tmp_path, rng):
        n = 2 * _ROWS + 5
        columns = (list(range(n)), rng.normal(size=n) * 1e3, [bool(b) for b in rng.integers(0, 2, n)])
        reference_write_csv(tmp_path / "ref.csv", "abc", zip(*columns))
        write_csv(tmp_path / "new.csv", "abc", columns)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        write_csv(tmp_path / "empty.csv", "abc", ([], [], []))
        assert (tmp_path / "empty.csv").read_text() == "a,b,c\n"

    def test_command_csvs_match_the_per_cell_writer(self, run, monkeypatch):
        # every CSV the commands write, written again cell by cell from the same columns
        written = []

        def both(path, header, columns):
            write_csv(path, header, columns)
            reference_write_csv(f"{path}.ref", header, zip(*columns))
            written.append(pathlib.Path(path))

        for module in (cli, bounds):
            monkeypatch.setattr(module, "write_csv", both)
        run("div", {"command": "div", "kind": "tv", "p": gaussian_record(0.5), "q": gaussian_record(-0.25)})
        # a Subgaussian sweep leaves the M column empty, a Compact one the K column
        run("sweep", {"command": "sweep", "bound": "Thm5", "K": 0.5, "d": 1, "n": 6, "seed": 2})
        run("sweep", {"command": "sweep", "bound": "Thm1", "M": 2.0, "d": 1, "n": 6, "seed": 2})
        run("entropy", {"command": "entropy", "family": THETA_FAMILY, "epsilons": [0.1, 0.5], "n": 20})
        run("dichotomy", {"command": "dichotomy", "K": 2.0, "r_grid": [5, 10]})
        seq = {"command": "seq", "family": THETA_FAMILY, "true_index": 1, "length": 30, "n_streams": 3, "seed": 4}
        run("seq", seq)
        names = ["div.csv", "sweep_Thm5.csv", "sweep_Thm1.csv", "entropy.csv", "dichotomy.csv", "seq.csv"]
        assert [p.name for p in written] == names
        for path in written:
            assert path.read_bytes() == pathlib.Path(f"{path}.ref").read_bytes(), path.name
        # the M and K columns: the family's parameter, and "" for the one it lacks
        for path, cells in zip(written[1:3], [("", "0.5"), ("2", "")]):
            assert {tuple(line.split(",")[2:4]) for line in path.read_text().splitlines()[1:]} == {cells}


def test_import_loads_no_scipy():
    # scipy is a test dependency only; a fresh interpreter shows what importing gmdiv costs
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import gmdiv, gmdiv.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "[]"


def test_every_command_runs_on_numpy_and_the_standard_library(tmp_path):
    # the test dependencies are blocked in a fresh interpreter (an import of
    # them raises ImportError), and every command runs once: TV in d = 1
    # searches its sign changes with the package's own brentq
    configs = [
        ("div", {"kind": "tv", "p": gaussian_record(0.5), "q": gaussian_record(-0.25)}),
        ("sweep", {"bound": "Thm1", "M": 2.0, "n": 2}),
        ("sweep", {"bound": "Thm1", "M": 2.0, "n": 2, "d": 2}),
        ("entropy", VALID["entropy"]),
        ("seq", VALID["seq"]),
        ("dichotomy", VALID["dichotomy"]),
        ("report", VALID["report"]),
    ]
    argvs = [
        [command, "--config", write_config(tmp_path / f"{i}.json", cfg), "--out", str(tmp_path / "out")]
        for i, (command, cfg) in enumerate(configs)
    ]
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    code = (
        "import json, sys\n"
        "blocked = ('scipy', 'mpmath', 'hypothesis')\n"
        "sys.modules.update(dict.fromkeys(blocked))\n"
        f"sys.path.insert(0, {src!r})\n"
        "from gmdiv.cli import main\n"
        f"codes = [main(argv) for argv in {argvs!r}]\n"
        "loaded = sorted(m for m, module in sys.modules.items() if m.split('.')[0] in blocked and module)\n"
        "print(json.dumps([codes, loaded]))\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=300)
    codes, loaded = json.loads(res.stdout.strip().splitlines()[-1])
    assert codes == [0] * len(configs) and loaded == [], res.stderr
