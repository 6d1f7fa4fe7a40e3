"""gmdiv benchmark: run one workload, end to end or traced.

    python3 perfbench/run.py --workload sweep-d1 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; `gmdiv` is imported from its `src/`.
`workloads.py` turns the seed into JSON configs for `gmdiv` CLI jobs.
Each repetition runs all of a workload's jobs, in order, in a fresh
`worker.py` process, so set-up time and peak memory belong to it alone.

--trace 0 repeats while another repetition fits in `--seconds` (at least
once) and reports the medians
over repetitions of `wall_s`, `cpu_s`, `setup_s` (worker spawn until
gmdiv is imported and a warm-up divergence has returned) and
`peak_rss_mb` (the worker's ru_maxrss).
--trace 1 runs one untraced and one traced repetition and reports the
per-layer metrics of the traced one and the tracing overhead (traced
minus untraced `wall_s`).

Outputs are checked after every repetition; one op is one job plus its
checks.  The last stdout line is the JSON result; the lines before it give
the environment, an artifact digest and every metric with its unit.
Design notes and the layer-to-metric map are in perfbench/README.md.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads (here and, inherited, in
# the workers), so the only parallelism is each job's sweep thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER_TIMEOUT_S = 170


def run_worker(manifest: str, traced: bool) -> dict:
    """One repetition in a fresh process: its report plus its set-up time."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), manifest] + (["--trace"] if traced else [])
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except BaseException as exc:  # timeout, or SIGTERM raised as SystemExit: stop the worker
            proc.kill()
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise RuntimeError(f"worker did not finish within {WORKER_TIMEOUT_S} s") from exc
            raise
    lines = out.splitlines()
    if proc.returncode != 0 or ready.strip() != "ready" or not lines:
        raise RuntimeError(f"worker failed (exit {proc.returncode}, first line {ready.strip()!r})")
    return {**json.loads(lines[-1]), "setup_s": setup_s}


class Checker:
    """Checks each repetition's outputs and counts ops and failed ops."""

    def __init__(self, jobs, outs):
        self.jobs, self.outs = jobs, outs
        self.first_digests = None
        self.attempted = self.failed = 0
        self.errors = []

    def check(self, codes) -> None:
        digests = [_digest(out) for out in self.outs]
        for i, (job, code, out) in enumerate(zip(self.jobs, codes, self.outs)):
            errors = [f"exit {code}"] if code != 0 else []
            if not errors:
                try:
                    errors = job.check(out)
                except (OSError, KeyError, ValueError) as exc:
                    errors = [f"unreadable output: {exc!r}"]
            # the CLI promises byte-identical reruns
            if self.first_digests is not None and digests[i] != self.first_digests[i]:
                errors.append("artifacts differ from the first repetition")
            self.attempted += 1
            if errors:
                self.failed += 1
                self.errors.extend(f"{job.label}: {e}" for e in errors)
        if self.first_digests is None:
            self.first_digests = digests

    @property
    def digest(self) -> str:
        return hashlib.sha256("".join(self.first_digests or []).encode()).hexdigest()


def _digest(out_dir) -> str:
    h = hashlib.sha256()
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            h.update(name.encode() + b"\0")
            with open(os.path.join(out_dir, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(name, jobs) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        git_sha = "unknown"
    import numpy
    import scipy

    return {
        "git_sha": git_sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": name,
        "threads": max(job.threads for job in jobs),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def write_inputs(jobs, work_dir) -> tuple[str, list[str]]:
    """Write each job's config and the worker manifest; return it and the output dirs."""
    manifest, outs = [], []
    for i, job in enumerate(jobs):
        job_dir = os.path.join(work_dir, f"job{i}")
        os.makedirs(job_dir)
        config = os.path.join(job_dir, "config.json")
        with open(config, "w") as fh:
            json.dump(job.config, fh)
        outs.append(os.path.join(job_dir, "out"))
        manifest.append([job.command, config, outs[-1]])
    path = os.path.join(work_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    return path, outs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so the worker is stopped and the work dir removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    jobs = workloads.WORKLOADS[args.workload](args.seed)
    work_dir = os.path.join(HERE, f".work-{os.getpid()}")
    try:
        manifest, outs = write_inputs(jobs, work_dir)
        checker = Checker(jobs, outs)
        reps = []
        if args.trace:
            for traced in (False, True):
                reps.append(run_worker(manifest, traced))
                checker.check(reps[-1]["codes"])
        else:
            start = time.perf_counter()
            while True:
                rep_start = time.perf_counter()
                reps.append(run_worker(manifest, False))
                checker.check(reps[-1]["codes"])
                # stop when one more repetition as long as the last would overrun
                now = time.perf_counter()
                if now - start + (now - rep_start) > args.seconds:
                    break
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.trace:
        untraced, traced_rep = reps
        metrics = dict(traced_rep["layers"])
        metrics["trace.wall_s"] = traced_rep["wall_s"]
        metrics["trace.untraced_wall_s"] = untraced["wall_s"]
        metrics["trace.overhead_s"] = traced_rep["wall_s"] - untraced["wall_s"]
    else:
        names = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")
        metrics = {name: statistics.median(r[name] for r in reps) for name in names}
        print(f"samples: each metric is a median over n={len(reps)} repetitions")
        for name in names:
            print(f"  {name} per repetition: " + " ".join(f"{r[name]:.4g}" for r in reps))

    print(json.dumps({"env": environment(args.workload, jobs)}, sort_keys=True))
    print(f"artifacts sha256 {checker.digest}")
    for err in checker.errors:
        print(f"FAILED {err}")
    print(f"ops {checker.attempted} ops_failed {checker.failed}")
    for name in sorted(metrics):
        print(f"{name} {metrics[name]:.6g} {spans.unit_of(name)} {spans.annotation(name, metrics)}".rstrip())
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
