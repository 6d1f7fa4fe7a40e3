"""One repetition of a workload, in a fresh process.

    python3 perfbench/worker.py MANIFEST [--trace]

MANIFEST is a JSON list of [command, config path, output dir].  The worker
imports gmdiv from the checkout's src/, runs one tiny warm-up divergence
and prints `ready`, so the parent can time set-up as every `gmdiv` CLI run
pays it.  It then runs the jobs in order through `gmdiv.cli.main` and
prints one JSON line: wall and CPU seconds of the jobs, their exit codes,
its peak RSS, and with --trace the per-layer metrics of
`spans.layer_metrics`.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads, so the only parallelism
# is the sweep thread count each job asks for.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def import_gmdiv():
    """Import gmdiv from the checkout's src/, never from site-packages."""
    if not os.path.isfile(os.path.join(SRC, "gmdiv", "__init__.py")):
        raise RuntimeError(f"no gmdiv package under {SRC}")
    sys.path.insert(0, SRC)
    import gmdiv
    import gmdiv.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(gmdiv.__file__))) != SRC:
        raise RuntimeError(f"gmdiv imported from {gmdiv.__file__}, not {SRC}")
    p = gmdiv.GaussianMixture.from_atoms([[0.0]], tag=gmdiv.Compact(1.0))
    q = gmdiv.GaussianMixture.from_atoms([[0.5]], tag=gmdiv.Compact(1.0))
    gmdiv.divergence("h2", p, q)
    return gmdiv


def main(argv) -> int:
    manifest, traced = argv[0], "--trace" in argv[1:]
    gmdiv = import_gmdiv()
    print("ready", flush=True)
    with open(manifest) as fh:
        jobs = json.load(fh)

    if traced:
        import spans

        recorder = spans.SpanRecorder()
        tracer = spans.Tracer(recorder)
        tracer.install()
    codes = []
    sink = io.StringIO()
    t0, c0 = time.perf_counter(), _cpu_s()
    for command, config, out in jobs:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                # looked up per call so that a traced run goes through the wrapper
                codes.append(gmdiv.cli.main([command, "--config", config, "--out", out]))
            except Exception as exc:  # a crashed job is a failed op, not a crashed benchmark
                codes.append(f"{type(exc).__name__}: {exc}")
    result = {"wall_s": time.perf_counter() - t0, "cpu_s": _cpu_s() - c0, "codes": codes}
    # ru_maxrss is in KiB on Linux; nothing after the jobs raises the peak
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if traced:
        tracer.uninstall()
        result["layers"] = spans.layer_metrics(recorder.spans)
        result["layers"]["trace.spans"] = len(recorder.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
