"""The benchmark's tracer (perfbench/spans.py) against the names it wraps.

`spans.Tracer` replaces gmdiv functions by name and reads their signatures,
so renaming a traced function or one of its arguments fails here.
"""

import json
import pathlib
import sys

import pytest

from gmdiv import DivergenceKind, bounds, cli, divergences, estimation, mixtures
from gmdiv.mixtures import GaussianMixture, mixture_to_record

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    import spans

    return spans


def test_tracer_records_div_and_sweep_runs(spans, tmp_path):
    traced = [
        (mixtures.GaussianMixture, "log_density"),
        (divergences, "_compute_divergences"),
        (bounds, "_compute_divergences"),
        (divergences, "brentq"),
        (estimation, "divergence"),
        (cli, "verify_sweep"),
        (bounds, "_one_instance"),
        (cli, "main"),
    ]
    before = [getattr(owner, name) for owner, name in traced]
    p = mixture_to_record(GaussianMixture.from_atoms([[0.0], [1.0]], [0.7, 0.3], tag=mixtures.Compact(1.0)).mixing)
    q = mixture_to_record(GaussianMixture.from_atoms([[0.5]], tag=mixtures.Compact(1.0)).mixing)
    configs = [("div", {"kind": kind.value, "p": p, "q": q}) for kind in DivergenceKind]
    configs.append(("sweep", {"bound": "L2fromTV", "M": 2.0, "d": 1, "n": 5, "seed": 1}))

    recorder = spans.SpanRecorder()
    tracer = spans.Tracer(recorder)
    tracer.install()
    try:
        for i, (command, cfg) in enumerate(configs):
            path = tmp_path / f"{i}.json"
            path.write_text(json.dumps(cfg))
            assert cli.main([command, "--config", str(path), "--out", str(tmp_path / str(i))]) == 0
    finally:
        tracer.uninstall()
    assert [getattr(owner, name) for owner, name in traced] == before

    metrics = spans.layer_metrics(recorder.spans)
    assert metrics["cli.jobs"] == len(configs)
    assert metrics["divergences.pairs"] == len(DivergenceKind)
    assert metrics["divergences.errors"] == 0
    assert metrics["divergences.tv_split.calls"] == 2
    assert metrics["bounds.instances"] == 5
    assert metrics["cli.textio.bytes"] > 0
    # the L2 pair is a closed form: no points and no radius steps
    l2 = [s for s in recorder.spans if s.name == "divergences.pair"][list(DivergenceKind).index(DivergenceKind.L2Sq)]
    assert l2.attrs == {"points": 0, "radius_steps": 0}
