"""The A/B timing tool `tools/ab.py`, run on this checkout against itself."""

import shutil
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]


def test_a_checkout_against_itself_has_equal_digests():
    workloads = ["entropy-lab", "sweep-d23"]
    cmd = [sys.executable, str(_ROOT / "tools" / "ab.py"), str(_ROOT), str(_ROOT)]
    for workload in workloads:
        cmd += ["--workload", workload]
    run = subprocess.run(cmd + ["--pairs", "1"], capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    lines = run.stdout.splitlines()
    # one block a workload, in the order given
    starts = [i for i, line in enumerate(lines) if line.startswith("workload ")]
    assert [lines[i].split()[1] for i in starts] == workloads
    blocks = [lines[i:j] for i, j in zip(starts, starts[1:] + [len(lines)])]
    digests = []
    for block in blocks:
        pair = [line.split()[3] for line in block if " artifacts sha256 " in line]
        assert len(pair) == 2 and pair[0] == pair[1] and len(pair[0]) == 64
        assert [line.split()[0] for line in block if "change lower in" in line] == ["cpu_s", "wall_s"]
        # one pair of a checkout against itself shows no gain
        verdicts = [line.split(":")[0] for line in block if " claim " in line]
        assert verdicts == ["cpu_s claim not met", "wall_s claim not met"]
        assert block[-1] == "digests equal"
        digests.append(pair[0])
    assert digests[0] != digests[1]


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
