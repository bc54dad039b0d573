"""Tests of the benchmark itself: tiny runs of every workload, the percentile
helper, the determinism check and the tracer's patching.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
REPO = BENCH_DIR.parent
sys.path[:0] = [str(REPO / "src"), str(BENCH_DIR)]

import bench  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def tiny(name: str) -> bench.Workload:
    """The workload's shape on the tiny network, with just enough frames and
    samples per pass (at least 110) for a p90 with ten items beyond it."""
    w = bench.WORKLOADS[name]
    return dataclasses.replace(
        w, profile="tiny", overrides=(), tracklets=2, frames=60, object_points=60,
        clutter=4 * 300 if name == "track-dense" else 300, epochs=min(w.epochs, 1),
        held_out=min(w.held_out, 1))


@pytest.fixture(autouse=True)
def spans_to_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_tiny_untraced_run_reports_every_end_to_end_metric(name):
    res = bench.run(tiny(name), seed=3, seconds=0, trace=False)
    assert res["correct"], res["record"]["problems"]
    assert res["failed"] == 0 and res["attempted"] > 0
    assert res["record"]["passes"] >= bench.MIN_PASSES
    for m in SPEC["end_to_end"]:
        assert res["metrics"][m["name"]] > 0, m["name"]


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_tiny_traced_run_covers_every_layer(name):
    res = bench.run(tiny(name), seed=4, seconds=0, trace=True)
    assert res["correct"], res["record"]["problems"]
    assert res["record"]["trace"]["sum_ok"]
    assert {m["name"] for m in SPEC["per_layer"]} <= set(res["metrics"])
    backward = res["metrics"]["backbone.SetAbstraction.backward.ms"]
    assert (backward > 0) == (name == "train")


def test_differing_passes_fail_the_determinism_check():
    w = tiny("track")
    passes = [bench.run_pass(w, seed=5), bench.run_pass(w, seed=6)]
    res = bench._results(w, 5, passes, None)
    assert not res["correct"]
    assert any("differs from pass 0" in p for p in res["record"]["problems"])


def test_recorder_counts_bad_outputs_and_frame_gaps():
    def output(n_seeds, logit=0.0):
        pred = SimpleNamespace(cls_logits=np.full((n_seeds, 1), logit), reg=np.zeros((n_seeds, 4)))
        return SimpleNamespace(seeds=np.zeros((n_seeds, 3)), coarse=pred, refined=pred)

    rec = bench.Recorder(expected_seeds=4)
    rec.on_forward(1.0, output(4))
    rec.on_forward(1.5, output(4, logit=np.nan))
    rec.new_segment()
    rec.on_forward(3.0, output(3))
    assert rec.bad_outputs == 2
    assert rec.forwards == 3 and rec.gaps_ms == [500.0]


def test_percentile_needs_ten_samples_beyond():
    values = [float(v) for v in range(100, 0, -1)]
    assert bench.percentile(values, 0.9) == 90.0
    assert bench.percentile(values, 0.5) == 50.0
    assert bench.samples_beyond(100, 0.9) == 10 and bench.samples_beyond(99, 0.9) == 9
    with pytest.raises(ValueError, match="9 beyond"):
        bench.percentile(values[:99], 0.9)


def test_fastest_takes_each_items_best_repeat():
    assert bench.fastest([[3.0, 1.0, 5.0], [2.0, 4.0, 5.0]]) == [2.0, 1.0, 5.0]
    with pytest.raises(ValueError, match="different item counts"):
        bench.fastest([[1.0, 2.0], [1.0]])


def test_wrapped_names_are_the_ones_the_product_calls():
    import pctrack.backbone
    import pctrack.heads
    import pctrack.model

    modules = [m for n, m in sys.modules.items() if n.startswith("pctrack")]
    originals = {}
    for _, modname, attr in tracing.TARGETS:
        owner = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            fn = getattr(owner, cls_name).__dict__[meth]
        else:
            fn = getattr(owner, attr)
        assert fn.__module__ == modname and fn.__qualname__ == attr
        originals[attr] = fn

    def bindings():
        return {(mod.__name__, k): v for mod in modules for k, v in vars(mod).items()
                if any(v is fn for fn in originals.values())}

    before = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        stale = bindings()
        assert not stale, f"still bound unwrapped: {sorted(stale)}"
        # names copied by ``from .x import y`` are wrapped where they are called
        assert hasattr(pctrack.backbone.ball_query_padded, "__wrapped__")
        assert hasattr(pctrack.heads.ball_query_padded, "__wrapped__")
        assert hasattr(pctrack.backbone.sample_dfps, "__wrapped__")
        assert hasattr(pctrack.model.local_pool_forward, "__wrapped__")
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert pctrack.model.TrackerModel.__dict__["forward"] is originals["TrackerModel.forward"]


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "track", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
