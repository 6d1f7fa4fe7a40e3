"""The A/B timing tool `tools/ab.py`, run on this checkout against itself."""

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
        assert block[-1] == "digests equal"
        digests.append(pair[0])
    assert digests[0] != digests[1]
