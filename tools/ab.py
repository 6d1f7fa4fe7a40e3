"""A/B timing of two checkouts on perfbench workloads, in alternating pairs.

    python tools/ab.py PARENT CHANGE --workload sweep-d1 [--workload sweep-d23 ...] [--seed 1] [--pairs 10]

PARENT and CHANGE are the roots of two checkouts.  Each side runs in one
persistent worker process that imports gmdiv from its own checkout's
`src/` and the jobs from its own `perfbench/workloads.py`, with one
BLAS/OpenMP thread.  Each worker runs the workload's jobs once to warm up,
then once per pair; the two sides take turns at going first.  A
repetition records the worker's CPU time (`getrusage`) and its wall time
over the jobs; `perfbench/run.py`'s `Checker` checks each job's outputs
and forms the sha256 digest of the artifacts, and counts a repetition
whose artifacts differ from the side's first as a failed op.

Each workload, in the order given, gets its own two workers, warm-up and
pairs, and prints one block: for `cpu_s` and `wall_s`, each side's
median, the parent's quartiles and the number of pairs in which the
change ran lower, and a line saying whether a gain may be claimed on
that metric: at least 10 pairs, the change lower in at least 9/10 of
them, and its median below the parent's by more than the parent's
interquartile range; then each side's summed `quadrature_points` over
the sweep summaries (`sweep_*_summary.json`) of its kept warm-up
artifacts, parent -> change, so a change in points reads from here (0 on
a workload with no sweep); then both sides' digests and failed ops.  When the
digests differ, each worker has kept a copy of its warm-up artifacts, and
the block lists every artifact file whose bytes differ, with its count of
differing lines, so a behaviour change is reported file by file.  Exits 0
when every workload's digests are equal and no op failed; 1 otherwise.
`perfbench/` is only read.

Before the first block it prints one line with each checkout's
`src/gmdiv` code-line total (`tools/code_lines.py`), parent -> change,
and their difference.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads; the workers inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from code_lines import code_lines  # noqa: E402


def serve(checkout: str, workload: str, seed: int, keep: str) -> int:
    """Run repetitions of one workload for stdin: a line in, one JSON line out, until EOF.

    The artifacts of the first repetition are copied to `keep`, job by job.
    """
    src = os.path.join(checkout, "src")
    sys.path[:0] = [src, os.path.join(checkout, "perfbench")]
    import gmdiv.cli

    # the benchmark's own job inputs, checks, artifact digest and CPU clock
    import run
    import workloads
    from worker import _cpu_s

    if os.path.dirname(os.path.dirname(os.path.abspath(gmdiv.__file__))) != src:
        raise RuntimeError(f"gmdiv imported from {gmdiv.__file__}, not {src}")
    jobs = workloads.WORKLOADS[workload](seed)
    work = tempfile.mkdtemp(prefix="ab-")
    try:
        jobs_dir = os.path.join(work, "jobs")
        manifest, outs = run.write_inputs(jobs, jobs_dir)
        with open(manifest) as fh:
            entries = json.load(fh)
        # a repetition whose artifacts differ from the first one's is a failed op
        checker = run.Checker(jobs, outs)
        for _ in sys.stdin:
            for out in outs:
                shutil.rmtree(out, ignore_errors=True)
            sink, codes, failed = io.StringIO(), [], checker.failed
            t0, c0 = time.perf_counter(), _cpu_s()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                for command, config, out in entries:
                    try:
                        codes.append(gmdiv.cli.main([command, "--config", config, "--out", out]))
                    except Exception as exc:  # a crashed job is a failed op, as in perfbench
                        codes.append(f"{type(exc).__name__}: {exc}")
            wall, cpu = time.perf_counter() - t0, _cpu_s() - c0
            checker.check(codes)
            if not os.path.exists(keep):
                for out in outs:
                    if os.path.isdir(out):
                        shutil.copytree(out, os.path.join(keep, os.path.relpath(out, jobs_dir)))
            reply = {"cpu_s": cpu, "wall_s": wall, "digest": checker.digest, "failed": checker.failed - failed}
            print(json.dumps(reply), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


class _Side:
    """One checkout's persistent worker."""

    def __init__(self, checkout: str, workload: str, seed: int, keep: str):
        cmd = [sys.executable, os.path.abspath(__file__), "--worker", checkout]
        cmd += ["--workload", workload, "--seed", str(seed), "--keep", keep]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.reps = []

    def run(self) -> dict:
        self.proc.stdin.write("run\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        self.reps.append(json.loads(line))
        return self.reps[-1]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _quartiles(values) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _differing_files(parent: str, change: str) -> list[tuple[str, int]]:
    """Each artifact file whose bytes differ between two kept trees, with its count of differing lines.

    A file on one side only counts all its lines.
    """

    def files(root):
        return {os.path.relpath(os.path.join(d, f), root) for d, _, names in os.walk(root) for f in names}

    out = []
    for name in sorted(files(parent) | files(change)):
        a, b = (Path(root, name).read_bytes() if Path(root, name).exists() else b"" for root in (parent, change))
        if a != b:
            out.append((name, sum(x != y for x, y in itertools.zip_longest(a.splitlines(), b.splitlines()))))
    return out


def _points(kept: str) -> int:
    """The summed `quadrature_points` of the sweep summaries in a kept artifact tree."""
    return sum(json.loads(path.read_text())["quadrature_points"] for path in Path(kept).rglob("sweep_*_summary.json"))


def _code_lines(checkout: str) -> int:
    """The code lines of a checkout's `src/gmdiv`, as `tools/code_lines.py src/gmdiv` totals them."""
    return sum(code_lines(path.read_text(encoding="utf-8")) for path in Path(checkout, "src", "gmdiv").glob("*.py"))


def compare(checkouts, workload: str, seed: int, pairs: int, kept: str) -> bool:
    """Time one workload on both checkouts and print its block; True when digests agree and no op failed.

    Each side's warm-up artifacts are kept under `kept`.
    """
    keeps = [os.path.join(kept, label) for label in ("parent", "change")]
    sides = [_Side(os.path.abspath(c), workload, seed, keep) for c, keep in zip(checkouts, keeps)]
    try:
        warm = [side.run() for side in sides]
        for side in sides:
            side.reps.clear()
        for i in range(pairs):
            for side in sides if i % 2 == 0 else sides[::-1]:
                side.run()
    finally:
        for side in sides:
            side.close()

    parent, change = (side.reps for side in sides)
    print(f"workload {workload} seed {seed} pairs {pairs}, alternating, parent first in pair 1")
    for name in ("cpu_s", "wall_s"):
        a, b = [r[name] for r in parent], [r[name] for r in change]
        lower = sum(y < x for x, y in zip(a, b))
        (q1, q3), ma, mb = _quartiles(a), statistics.median(a), statistics.median(b)
        print(
            f"{name} parent {ma:.4f} [{q1:.4f}, {q3:.4f}] -> change {mb:.4f} s "
            f"({100.0 * (mb / ma - 1.0):+.1f}%), change lower in {lower}/{pairs}"
        )
        met = pairs >= 10 and 10 * lower >= 9 * pairs and ma - mb > q3 - q1
        print(
            f"{name} claim {'met' if met else 'not met'}: lower in {lower}/{pairs} pairs "
            f"(needs 9/10 of at least 10), median gap {ma - mb:.4f} s vs parent IQR {q3 - q1:.4f} s"
        )
    a, b = map(_points, keeps)
    change = f" ({100.0 * (b / a - 1.0):+.1f}%)" if a else ""
    print(f"quadrature_points parent {a} -> change {b}{change}")
    failed = [first["failed"] + sum(r["failed"] for r in side.reps) for first, side in zip(warm, sides)]
    for label, first, n in zip(("parent", "change"), warm, failed):
        print(f"{label} artifacts sha256 {first['digest']} ops_failed {n}", flush=True)
    same = warm[0]["digest"] == warm[1]["digest"]
    if not same:
        for name, lines in _differing_files(*keeps):
            print(f"differs {name}: {lines} lines")
    print("digests equal" if same else "digests DIFFER", flush=True)
    return same and not any(failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="*", metavar="PARENT CHANGE")
    parser.add_argument("--workload", action="append", required=True, help="repeat for more workloads")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--worker", metavar="CHECKOUT", help=argparse.SUPPRESS)
    parser.add_argument("--keep", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return serve(os.path.abspath(args.worker), args.workload[0], args.seed, args.keep)
    if len(args.checkouts) != 2 or args.pairs < 1:
        parser.error("give two checkouts, PARENT and CHANGE, and --pairs of at least 1")
    a, b = map(_code_lines, args.checkouts)
    print(f"src/gmdiv code lines parent {a} -> change {b} ({b - a:+d})", flush=True)
    # every workload runs, whatever an earlier one found
    with tempfile.TemporaryDirectory(prefix="ab-kept-") as kept:
        ok = [
            compare(args.checkouts, workload, args.seed, args.pairs, os.path.join(kept, workload))
            for workload in args.workload
        ]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
