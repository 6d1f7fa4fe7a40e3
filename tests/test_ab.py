"""The A/B timing tool `tools/ab.py`, run on this checkout against itself."""

import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def ab(monkeypatch):
    """tools/ab.py as a module; the thread settings it makes at import are undone."""
    monkeypatch.syspath_prepend(str(_ROOT / "tools"))
    monkeypatch.delitem(sys.modules, "ab", raising=False)
    with mock.patch.dict(os.environ):
        import ab
    return ab


def test_a_checkout_against_itself_has_equal_digests():
    workloads = ["entropy-lab", "sweep-d23"]
    cmd = [sys.executable, str(_ROOT / "tools" / "ab.py"), str(_ROOT), str(_ROOT)]
    for workload in workloads:
        cmd += ["--workload", workload]
    run = subprocess.run(cmd + ["--pairs", "1"], capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    lines = run.stdout.splitlines()
    # one code-line line a run, before the blocks: parent -> change, and the difference
    counts = [line.split() for line in lines if line.startswith("src/gmdiv code lines ")]
    assert len(counts) == 1 and counts[0][4] == counts[0][7] and counts[0][8] == "(+0)"
    # one block a workload, in the order given
    starts = [i for i, line in enumerate(lines) if line.startswith("workload ")]
    assert [lines[i].split()[1] for i in starts] == workloads
    blocks = [lines[i:j] for i, j in zip(starts, starts[1:] + [len(lines)])]
    digests, sums = [], []
    for block in blocks:
        pair = [line.split()[3] for line in block if " artifacts sha256 " in line]
        assert len(pair) == 2 and pair[0] == pair[1] and len(pair[0]) == 64
        assert [line.split()[0] for line in block if "change lower in" in line] == ["cpu_s", "wall_s"]
        # one pair of a checkout against itself shows no gain
        verdicts = [line.split(":")[0] for line in block if " claim " in line]
        assert verdicts == ["cpu_s claim not met", "wall_s claim not met"]
        assert block[-1] == "digests equal"
        digests.append(pair[0])
        # each side's summed sweep points, equal on a checkout against itself
        (points,) = [line.split() for line in block if line.startswith("quadrature_points ")]
        assert points[2] == points[5] and points[1:5:3] == ["parent", "change"]
        sums.append(int(points[2]))
    assert digests[0] != digests[1]
    # the entropy lab runs no sweep; the d >= 2 sweeps spend points
    assert sums[0] == 0 < sums[1]


def test_differing_artifacts_are_listed_file_by_file(tmp_path):
    # a copy whose level-0 radial panels are 3 wide, not 4, spends other
    # point counts, which every sweep's summary reports
    change = tmp_path / "change"
    for part in ("src", "perfbench"):
        shutil.copytree(_ROOT / part, change / part, ignore=shutil.ignore_patterns("__pycache__"))
    source = change / "src" / "gmdiv" / "divergences.py"
    text = source.read_text()
    assert "\n_PANEL_WIDTH = 4.0\n" in text
    source.write_text(text.replace("\n_PANEL_WIDTH = 4.0\n", "\n_PANEL_WIDTH = 3.0\n"))
    cmd = [sys.executable, str(_ROOT / "tools" / "ab.py"), str(_ROOT), str(change), "--workload", "sweep-d23"]
    run = subprocess.run(cmd + ["--pairs", "1"], capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    lines = run.stdout.splitlines()
    assert lines[-1] == "digests DIFFER"
    differs = {}
    for line in lines:
        if line.startswith("differs "):
            name, count = line[len("differs ") :].rsplit(": ", 1)
            differs[name] = int(count.removesuffix(" lines"))
    summaries = ["job0/out/sweep_Thm1_summary.json", "job1/out/sweep_ChiSqThm_summary.json"]
    summaries.append("job2/out/sweep_Thm1_summary.json")
    assert set(summaries) <= set(differs) and min(differs.values()) > 0
    # each differing CSV is followed by its cell line
    csvs = [name for name in differs if name.endswith(".csv")]
    assert csvs and all(
        lines[lines.index(f"differs {name}: {differs[name]} lines") + 1].startswith(f"  cells of {name}: ")
        for name in csvs
    )
    # and their summed points differ
    (points,) = [line.split() for line in lines if line.startswith("quadrature_points ")]
    assert points[2] != points[5]


def test_csv_change_by_rounding_alone(ab, tmp_path):
    parent, change = tmp_path / "parent.csv", tmp_path / "change.csv"
    parent.write_text("seed,K,lhs,ratio,pass\n8,,0.5,nan,true\n9,,2,0.25,false\n")
    change.write_text("seed,K,lhs,ratio,pass\n8,,0.50000000000000011,nan,true\n9,,2,0.25,false\n")
    # one numeric cell moved by an ulp; the empty, nan and pass cells are equal
    assert ab._csv_change(parent, change) == ((0.50000000000000011 - 0.5) / 0.50000000000000011, 0)


def test_csv_change_counts_verdicts_and_rows(ab, tmp_path):
    parent, change = tmp_path / "parent.csv", tmp_path / "change.csv"
    parent.write_text("lhs,ratio,pass\n1.5,0.5,true\n")
    change.write_text("lhs,ratio,pass\n1.0,nan,false\n2,0.25,true\n")
    # lhs moved by a third; ratio became nan and pass flipped; the new row's three cells
    assert ab._csv_change(parent, change) == (0.5 / 1.5, 5)
    assert ab._csv_change(parent, tmp_path / "missing.csv") == (0.0, 6)
