"""The A/B timing tool `tools/ab.py`, run on this checkout against itself."""

import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]


def test_a_checkout_against_itself_has_equal_digests():
    cmd = [sys.executable, str(_ROOT / "tools" / "ab.py"), str(_ROOT), str(_ROOT), "--workload", "entropy-lab"]
    run = subprocess.run(cmd + ["--pairs", "1"], capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    lines = run.stdout.splitlines()
    digests = [line.split()[3] for line in lines if " artifacts sha256 " in line]
    assert len(digests) == 2 and digests[0] == digests[1] and len(digests[0]) == 64
    assert [line.split()[0] for line in lines if "change lower in" in line] == ["cpu_s", "wall_s"]
    assert lines[-1] == "digests equal"
