"""Acceptance gates for the whole build.

One test per shipping criterion, ordered; each pins its own tolerance and
measures (never assumes) margins. These are intentionally heavier than the
unit suites — the learning-sanity test trains a real model end to end.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    foreground_fixture,
    greedy_fps_oracle,
    mc_box_iou,
    random_box,
    ras_sort_oracle,
)
from pctrack import (
    ABLATIONS,
    SynthSpec,
    apply_ablation,
    apply_overrides,
    build_model,
    config_for_profile,
    evaluate,
    synth_tracklet,
)
from pctrack.checks import gradient_suite
from pctrack.evaldata import PointCloud, build_tracklets, precision_metric, success_metric
from pctrack.geometry import Box3D, box_iou_3d
from pctrack.pipeline import train
from pctrack.sampling import sample_dfps, sample_ffps, sample_hybrid, sample_random, sample_ras

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run_cli(args, cwd=None):
    env = os.environ.copy()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "pctrack.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=env)


# -- 1: every differentiable block and the composed model pass FD checks ----

def test_gradient_suite_is_fully_green_within_two_minutes():
    t0 = time.monotonic()
    results = gradient_suite()
    elapsed = time.monotonic() - t0
    names = [r.name for r in results]
    assert "full-model" in names and "set-abstraction" in names
    failed = [(r.name, r.detail) for r in results if not r.ok]
    assert not failed, f"gradient checks failed: {failed}"
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"


# -- 2: samplers bitwise-match brute-force oracles --------------------------

def test_fps_and_ras_match_bruteforce_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(4, 65))
        k = int(rng.integers(1, n + 1))
        start = int(rng.integers(0, n))
        pts = rng.uniform(-5.0, 5.0, size=(n, 3))
        feats = rng.normal(size=(n, int(rng.integers(2, 9))))
        assert sample_dfps(pts, k, start_index=start).indices.tolist() == \
            greedy_fps_oracle(pts, k, start)
        assert sample_ffps(feats, k, start_index=start).indices.tolist() == \
            greedy_fps_oracle(feats, k, start)
    for _ in range(100):
        n_s = int(rng.integers(4, 65))
        n_t = int(rng.integers(1, 33))
        d = int(rng.integers(2, 9))
        k = int(rng.integers(1, n_s + 1))
        search = rng.normal(size=(n_s, d))
        template = rng.normal(size=(n_t, d))
        assert sample_ras(search, template, k).indices.tolist() == \
            ras_sort_oracle(search, template, k)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"sampling oracles took {elapsed:.1f}s"


# -- 3: relation-aware sampling keeps more of the object --------------------

def test_ras_preserves_more_foreground_than_baselines():
    k = 32
    fracs = {"ras": [], "ffps": [], "random": [], "hybrid": []}
    for seed in range(100):
        rng = np.random.default_rng(seed)
        search, template, fg_mask = foreground_fixture(rng)
        n = len(search)
        fracs["ras"].append(fg_mask[sample_ras(search, template, k).indices].mean())
        fracs["ffps"].append(fg_mask[sample_ffps(search, k).indices].mean())
        fracs["random"].append(fg_mask[sample_random(n, k, rng).indices].mean())
        fracs["hybrid"].append(fg_mask[sample_hybrid(search, template, k, rng).indices].mean())
    mean = {name: float(np.mean(v)) for name, v in fracs.items()}
    margin_ffps = mean["ras"] - mean["ffps"]
    margin_random = mean["ras"] - mean["random"]
    margin_hybrid = mean["hybrid"] - mean["random"]
    assert margin_ffps > 0.0, f"RAS {mean['ras']:.3f} vs F-FPS {mean['ffps']:.3f}"
    assert margin_random > 0.0, f"RAS {mean['ras']:.3f} vs random {mean['random']:.3f}"
    assert margin_hybrid >= 0.0, f"hybrid {mean['hybrid']:.3f} vs random {mean['random']:.3f}"
    print(f"foreground fractions: {mean}; margins: RAS-FFPS {margin_ffps:.3f}, "
          f"RAS-random {margin_random:.3f}, hybrid-random {margin_hybrid:.3f}")


# -- 4: exact IoU agrees with Monte-Carlo and the closed form ---------------

def test_iou_against_monte_carlo_and_closed_form():
    rng = np.random.default_rng(2024)
    for i in range(50):
        a = random_box(rng)
        if i % 2 == 0:
            b = random_box(rng)
        else:
            b = Box3D(a.center + rng.uniform(-0.5, 0.5, size=3),
                      a.size * rng.uniform(0.7, 1.3, size=3),
                      a.yaw + rng.uniform(-0.5, 0.5))
        est = mc_box_iou(a, b, 1_000_000, rng)
        exact = box_iou_3d(a, b)
        assert abs(exact - est) < 0.01, f"pair {i}: exact {exact}, MC {est}"
    a = Box3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 0.0)
    b = Box3D((0.5, 0.0, 0.0), (1.0, 1.0, 1.0), 0.0)
    assert abs(box_iou_3d(a, b) - 1.0 / 3.0) < 1e-9


# -- 5: metric identities ---------------------------------------------------

def test_success_and_precision_identities():
    rng = np.random.default_rng(5)
    ious = rng.uniform(0.0, 1.0, size=500)
    s = success_metric(ious)
    # The other form in circulation: area under the overlap-threshold curve.
    thresholds = np.linspace(0.0, 1.0, 1001)
    curve = (ious[None, :] >= thresholds[:, None]).mean(axis=1)
    auc = float(np.trapezoid(curve, thresholds)) * 100.0
    assert abs(s - auc) < 0.1
    assert s == 100.0 * float(ious.mean())
    p = precision_metric(np.ones(300))
    assert abs(p - 50.0) < 0.5


# -- 6: dataset construction rules on the boundary fixture ------------------

def test_tracklet_builder_applies_strict_less_rules_exactly():
    def blob(center, n):
        # n points strictly inside a unit-ish box at `center`
        offs = np.linspace(-0.3, 0.3, n)
        pts = np.zeros((n, 3))
        pts[:, 0] = center[0] + offs
        pts[:, 1] = center[1]
        pts[:, 2] = center[2]
        return pts

    box_a = [0.0, 0.0, 0.0, 2.0, 2.0, 2.0, 0.0]
    box_b = [20.0, 0.0, 0.0, 2.0, 2.0, 2.0, 0.0]
    box_c = [40.0, 0.0, 0.0, 2.0, 2.0, 2.0, 0.0]
    scenes = []
    for frame in range(7):
        clouds = []
        annotations = []
        if frame <= 2:  # obj-a: 10 points, 3-frame run -> kept
            clouds.append(blob((0.0, 0.0, 0.0), 10))
            annotations.append({"object_id": "a", "label": "car", "box": box_a})
        # obj-b: annotated everywhere, but frame 3 has only 9 points in-box
        clouds.append(blob((20.0, 0.0, 0.0), 9 if frame == 3 else 10))
        annotations.append({"object_id": "b", "label": "car", "box": box_b})
        if frame <= 1:  # obj-c: 10 points but only a 2-frame run -> dropped
            clouds.append(blob((40.0, 0.0, 0.0), 10))
            annotations.append({"object_id": "c", "label": "van", "box": box_c})
        scenes.append((PointCloud(np.vstack(clouds)), annotations))

    tracklets = build_tracklets(scenes, min_points=10, min_len=3)

    assert [t.object_id for t in tracklets] == ["a", "b", "b"]
    assert [t.n_frames for t in tracklets] == [3, 3, 3]
    # obj-b's sparse frame 3 splits its run into 0-2 and 4-6; the 9-point
    # frame itself lands in neither half
    from pctrack.geometry import points_in_box
    for t in tracklets:
        for cloud, box in t.frames:
            assert int(points_in_box(cloud, box).sum()) == 10
    assert all(t.label == "car" for t in tracklets)


# -- 7: learning sanity -----------------------------------------------------

def _sanity_tracklets(seeds, speed=0.35):
    out = []
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        heading = rng.uniform(-np.pi, np.pi)
        spec = SynthSpec(
            n_frames=8,
            size=(3.6 + 0.2 * (i % 3), 1.8, 1.5),
            points_on_object=100,
            start_center=(rng.uniform(-1, 1), rng.uniform(-1, 1), 0.8),
            start_yaw=heading,
            velocity=(speed * np.cos(heading), speed * np.sin(heading), 0.0),
            yaw_rate=0.0,
            noise_sigma=0.01,
            n_clutter=60,
            object_id=f"obj-{i:03d}",
        )
        out.append(synth_tracklet(spec, seed))
    return out


@pytest.mark.slow
def test_overfit_and_generalize_beyond_random_init():
    train_set = _sanity_tracklets(range(8))
    holdout = _sanity_tracklets(range(100, 104))

    cfg = config_for_profile("desk-small")
    cfg = apply_overrides(cfg, ["epochs=500", "lr_step_epochs=180",
                                "refine_hidden=128,128,96,96"])
    model = build_model(cfg)

    t0 = time.monotonic()
    history = train(train_set, model, cfg)
    elapsed = time.monotonic() - t0
    assert len(history) == cfg.epochs <= 500
    assert elapsed < 1800.0, f"training took {elapsed:.0f}s"

    train_success = evaluate(train_set, model, seed=0).average["success"]
    assert train_success > 90.0, f"training-set success {train_success:.1f}"

    trained_iou = evaluate(holdout, model, seed=0).average["success"] / 100.0
    fresh_iou = evaluate(holdout, build_model(cfg), seed=0).average["success"] / 100.0
    margin = trained_iou - fresh_iou
    assert margin > 0.2, (
        f"trained {trained_iou:.3f} vs random-init {fresh_iou:.3f} mean IoU")
    print(f"learning sanity: train success {train_success:.1f}, "
          f"holdout IoU trained {trained_iou:.3f} vs fresh {fresh_iou:.3f} "
          f"(margin {margin:.3f}), {elapsed:.0f}s")


# -- 8: every ablation runs end to end and lands elsewhere ------------------

def test_all_ablations_run_and_differ():
    tracklets = _sanity_tracklets(range(2))
    base = apply_overrides(config_for_profile("tiny"), ["epochs=2"])
    results = {}
    for name in ("base", *sorted(ABLATIONS)):
        cfg = base if name == "base" else apply_ablation(base, name)
        model = build_model(cfg)
        train(tracklets, model, cfg)
        rep = evaluate(tracklets, model, seed=3)
        results[name] = (round(rep.average["success"], 9),
                         round(rep.average["precision"], 9))
    assert len(set(results.values())) == len(results), (
        f"ablation outputs collide: {results}")


# -- 9: bytewise determinism across independent processes -------------------

def test_identical_seeds_give_identical_artifacts(tmp_path):
    data = tmp_path / "data"
    r = _run_cli(["synth", "--out", str(data), "--tracklets", "2", "--frames", "5",
                  "--seed", "4"])
    assert r.returncode == 0, r.stderr

    artifacts = {}
    for run in ("one", "two"):
        out = tmp_path / run
        r = _run_cli(["train", "--data", str(data), "--out", str(out),
                      "--profile", "tiny", "--epochs", "2", "--seed", "9"])
        assert r.returncode == 0, r.stderr
        r = _run_cli(["eval", "--data", str(data), "--ckpt", str(out / "model.ckpt"),
                      "--out", str(out / "eval"), "--seed", "9"])
        assert r.returncode == 0, r.stderr
        artifacts[run] = (
            (out / "model.ckpt").read_bytes(),
            (out / "eval" / "eval.csv").read_bytes(),
        )
    assert artifacts["one"][0] == artifacts["two"][0], "checkpoints differ"
    assert artifacts["one"][1] == artifacts["two"][1], "eval CSVs differ"


# -- 10: forward-pass latency budget at desk scale --------------------------

def test_forward_pass_meets_latency_budget():
    r = _run_cli(["bench", "--template", "512", "--search", "1024",
                  "--repeats", "5", "--json"])
    assert r.returncode == 0, r.stderr
    stats = json.loads(r.stdout)
    assert stats["template"] == 512 and stats["search"] == 1024
    assert stats["total_ms_min"] < 100.0, f"forward took {stats['total_ms_min']:.1f} ms"
    print(f"bench: {stats['total_ms_min']:.1f} ms min, "
          f"{stats['total_ms_mean']:.1f} ms mean")
