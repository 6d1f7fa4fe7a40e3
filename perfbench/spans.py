"""Outside-in tracing of gmdiv: spans recorded around calls into each module.

The program is not modified.  `Tracer.install` replaces module-level names
(and `GaussianMixture.log_density`) with wrappers that record a span per
call, and `Tracer.uninstall` puts the originals back.  A name is wrapped
in the namespace of the module that calls it, because `bounds` imports
`_compute_divergences` by name and `cli` / `estimation` import their
callees by name, so patching only the defining module would miss them.

Spans live in memory until the run ends.  Each span has a name (its layer
is the part before the first dot), start and end on the `perf_counter`
clock, a parent, and a few counts.  Stacks are kept per thread; a span
opened on a thread with an empty stack (a `verify_sweep` pool worker)
takes the innermost open span of the recording thread as its parent.
"""

from __future__ import annotations

import inspect
import math
import os
import statistics
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = math.nan
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span store with per-thread stacks."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[Span]] = {}
        self._home = threading.get_ident()

    def open(self, name: str) -> Span:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1].id
            else:
                home = self._stacks.get(self._home)
                parent = home[-1].id if tid != self._home and home else None
            # a span's id is its index in `spans`
            span = Span(len(self.spans), name, parent, time.perf_counter())
            self.spans.append(span)
            stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        with self._lock:
            self._stacks[threading.get_ident()].pop()


def _mixture_key(gm) -> tuple:
    return gm.mixing.locations.tobytes(), gm.mixing.weights.tobytes()


def _radius_steps(divergences, p, q, tol, domain_radius, R_final) -> int:
    """Growth steps `_compute_divergences` took from its start radius.

    Replays the start radius (public `truncation_radius`) and the
    `R += max(0.5, 0.04 R)` rule until the returned `domain_radius`.
    """
    if domain_radius is not None or not math.isfinite(R_final):
        return 0
    d = p.dim
    if tol is None:
        tol = divergences.default_tol(d)
    s_max = max(float(p.mixing.radii.max()), float(q.mixing.radii.max()))
    R = max(
        divergences.truncation_radius(p.mixing.tag, d, tol),
        divergences.truncation_radius(q.mixing.tag, d, tol),
        s_max + 1.0,
    )
    steps = 0
    while R < R_final and steps < 400:
        R += max(0.5, 0.04 * R)
        steps += 1
    return steps


class Tracer:
    """Installs span-recording wrappers into the gmdiv modules."""

    def __init__(self, recorder: SpanRecorder):
        self.rec = recorder
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, owner, attr: str, name: str, observe=None) -> None:
        original = getattr(owner, attr)
        rec = self.rec

        def wrapper(*args, **kwargs):
            span = rec.open(name)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                rec.close(span)
            if observe is not None:
                span.attrs.update(observe(args, kwargs, result))
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        from gmdiv import bounds, cli, divergences, estimation, mixtures

        def log_density(args, kwargs, result):
            gm, x = args[0], args[1] if len(args) > 1 else kwargs["x"]
            shape = getattr(x, "shape", None)
            n = 1 if shape is None or len(shape) < 2 else shape[0]
            return {"n": n, "k": gm.mixing.n_atoms, "d": gm.dim}

        pair_sig = inspect.signature(divergences._compute_divergences)

        def pair(args, kwargs, result):
            a = pair_sig.bind(*args, **kwargs).arguments
            est = next(iter(result.values()))
            steps = _radius_steps(
                divergences, a["p"], a["q"], a.get("tol"), a.get("domain_radius"), est.domain_radius
            )
            return {"points": est.quadrature_points, "radius_steps": steps}

        def hellinger_eval(args, kwargs, result):
            p, q = args[1], args[2]
            return {"key": frozenset((_mixture_key(p), _mixture_key(q)))}

        sweep_sig = inspect.signature(bounds.verify_sweep)

        def sweep(args, kwargs, result):
            return {"threads": sweep_sig.bind(*args, **kwargs).arguments.get("threads", 1)}

        def forecaster(args, kwargs, result):
            return {"steps": len(result.step_log_loss)}

        def csv_written(args, kwargs, result):
            return {"bytes": os.path.getsize(args[0])}

        def json_written(args, kwargs, result):
            return {"bytes": os.path.getsize(args[1])}

        self._wrap(mixtures.GaussianMixture, "log_density", "mixtures.log_density", log_density)
        for mod in (divergences, bounds):
            self._wrap(mod, "_compute_divergences", "divergences.pair", pair)
        self._wrap(divergences, "brentq", "divergences.tv_split")
        self._wrap(estimation, "divergence", "estimation.hellinger_eval", hellinger_eval)
        for mod in (cli, estimation):
            self._wrap(mod, "greedy_cover", "estimation.greedy_cover")
        self._wrap(cli, "local_cover", "estimation.local_cover")
        self._wrap(cli, "sequential_forecaster", "estimation.forecaster", forecaster)
        self._wrap(cli, "verify_sweep", "bounds.verify_sweep", sweep)
        self._wrap(bounds, "_one_instance", "bounds.instance")
        for mod in (cli, bounds):
            self._wrap(mod, "write_csv", "textio.write", csv_written)
        self._wrap(cli, "dump_json", "textio.write", json_written)
        self._wrap(cli, "main", "cli.job")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# -- per-layer metrics ------------------------------------------------------------


def _covered(span: Span, children: list[Span]) -> float:
    """Length of the part of `span` covered by the union of child intervals."""
    ivs = sorted((max(c.start, span.start), min(c.end, span.end)) for c in children)
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in ivs:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _quantile(values, q: float) -> float:
    """Linear-interpolation quantile; 0 for an empty sample."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1])


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics from a finished span list (see perfbench/README.md)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def named(name):
        return [s for s in spans if s.name == name]

    def busy(layer):
        # outermost spans of the layer; summed over threads
        return sum(
            s.duration
            for s in spans
            if s.layer == layer and (s.parent is None or spans[s.parent].layer != layer)
        )

    def self_time(layer):
        return sum(s.duration - _covered(s, children.get(s.id, [])) for s in spans if s.layer == layer)

    ld = named("mixtures.log_density")
    ld_points = sum(s.attrs["n"] for s in ld)
    ld_busy = busy("mixtures")

    pairs = named("divergences.pair")
    done = [s for s in pairs if "error" not in s.attrs]
    pair_points = [s.attrs["points"] for s in done]
    splits = named("divergences.tv_split")

    sweeps = named("bounds.verify_sweep")
    instance_ids = {s.id for s in named("bounds.instance")}
    swept_pair_s = sum(s.duration for s in pairs if s.parent in instance_ids)
    sweep_capacity = sum(s.duration * s.attrs.get("threads", 1) for s in sweeps)

    evals = named("estimation.hellinger_eval")
    distinct = len({s.attrs["key"] for s in evals if "key" in s.attrs})
    covers = [s for s in spans if s.name in ("estimation.greedy_cover", "estimation.local_cover")]
    cover_ids = {s.id for s in covers}
    forecasts = named("estimation.forecaster")
    steps = sum(s.attrs.get("steps", 0) for s in forecasts)

    jobs = named("cli.job")
    writes = named("textio.write")

    return {
        "mixtures.log_density.calls": len(ld),
        "mixtures.log_density.points": ld_points,
        "mixtures.log_density.kernel_ops": sum(s.attrs["n"] * s.attrs["k"] * s.attrs["d"] for s in ld),
        "mixtures.log_density.busy_s": ld_busy,
        "mixtures.log_density.points_per_s": _ratio(ld_points, ld_busy),
        "divergences.pairs": len(pairs),
        "divergences.busy_s": busy("divergences"),
        "divergences.self_s": self_time("divergences"),
        "divergences.points": sum(pair_points),
        "divergences.points_per_pair.p50": _quantile(pair_points, 0.5),
        "divergences.points_per_pair.p90": _quantile(pair_points, 0.9),
        "divergences.pair_s.p50": _quantile([s.duration for s in done], 0.5),
        "divergences.pair_s.p90": _quantile([s.duration for s in done], 0.9),
        "divergences.radius_steps": sum(s.attrs["radius_steps"] for s in done),
        "divergences.tv_split.calls": len(splits),
        "divergences.tv_split_s": sum(s.duration for s in splits),
        "divergences.errors": len(pairs) - len(done),
        "bounds.instances": len(instance_ids),
        "bounds.busy_s": busy("bounds"),
        "bounds.self_s": self_time("bounds"),
        "bounds.parallel_efficiency": _ratio(swept_pair_s, sweep_capacity),
        "bounds.swept_pair_s": swept_pair_s,
        "bounds.sweep_capacity_s": sweep_capacity,
        "estimation.hellinger_evals": len(evals),
        "estimation.distinct_pairs": distinct,
        "estimation.useful_ratio": _ratio(distinct, len(evals)),
        "estimation.cover_s": sum(s.duration for s in covers if s.parent not in cover_ids),
        "estimation.local_cover.calls": len(named("estimation.local_cover")),
        "estimation.forecaster.steps": steps,
        "estimation.forecaster.steps_per_s": _ratio(steps, sum(s.duration for s in forecasts)),
        "cli.jobs": len(jobs),
        "cli.job_s": sum(s.duration for s in jobs),
        "cli.self_s": self_time("cli"),
        "cli.textio.bytes": sum(s.attrs.get("bytes", 0) for s in writes),
        "cli.textio.write_s": sum(s.duration for s in writes),
    }


def unit_of(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s") or name.startswith("divergences.pair_s."):
        return "s"
    if name.endswith(("ratio", "efficiency")):
        return "ratio"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def annotation(name: str, metrics: dict) -> str:
    """Sample count of a percentile, or base of a ratio, for the printed report."""
    if name.startswith(("divergences.pair_s.", "divergences.points_per_pair.")):
        return f"(n={metrics['divergences.pairs'] - metrics['divergences.errors']} pairs without error)"
    if name == "estimation.useful_ratio":
        return f"(= {metrics['estimation.distinct_pairs']} distinct / {metrics['estimation.hellinger_evals']} evals)"
    if name == "bounds.parallel_efficiency":
        return (
            f"(= {metrics['bounds.swept_pair_s']:.4g} s pair busy / "
            f"{metrics['bounds.sweep_capacity_s']:.4g} s sweep wall x threads)"
        )
    if name == "mixtures.log_density.points_per_s":
        return f"(= points / {metrics['mixtures.log_density.busy_s']:.4g} s busy)"
    if name == "estimation.forecaster.steps_per_s":
        return f"(= {metrics['estimation.forecaster.steps']} steps / forecaster busy)"
    return ""
