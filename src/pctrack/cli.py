"""Command-line front end: dataset generation, training, tracking, evaluation.

Exit codes: 0 success, 1 validation error (bad arguments, bad config,
missing files, failed self-checks), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .attention import PointRelationTransformer, RelationAttention
from .backbone import BackboneSpec, SALevelSpec, SetAbstraction
from .config import (
    ABLATIONS,
    PROFILES,
    RunConfig,
    apply_ablation,
    apply_overrides,
    build_model,
    build_model_spec,
    config_for_profile,
    read_overrides,
    save_config,
)
from .evaldata import (
    SynthSpec,
    build_tracklets,
    evaluate,
    load_annotated_scenes,
    load_dataset,
    save_dataset,
    synth_tracklet,
)
from .geometry import Box3D, box_iou_3d, points_in_box
from .heads import HeadSpec
from .model import ModelSpec, TrackerModel
from .numeric import MLP, grad_check
from .pipeline import (
    OracleModel,
    make_targets,
    total_loss_backward,
    total_loss_forward,
    track_sequence,
    train,
)
from .sampling import SampleSelection, ras_scores, sample_dfps, sample_ffps, sample_ras

# ---------------------------------------------------------------------------
# Config resolution shared by train/track/eval/bench
# ---------------------------------------------------------------------------


def _resolve_config(args, default_profile: str = "desk") -> RunConfig:
    profile = getattr(args, "profile", None) or default_profile
    cfg = config_for_profile(profile)
    config_path = getattr(args, "config", None)
    if config_path is None:
        ckpt = getattr(args, "ckpt", None)
        if ckpt is not None:
            sibling = Path(ckpt).parent / "config.cfg"
            if sibling.exists():
                config_path = sibling
                print(f"using config {sibling}")
    if config_path is not None:
        cfg = apply_overrides(cfg, read_overrides(config_path))
    if getattr(args, "ablation", None):
        cfg = apply_ablation(cfg, args.ablation)
    cfg = apply_overrides(cfg, getattr(args, "set", None) or [])
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if getattr(args, "epochs", None) is not None:
        cfg = dataclasses.replace(cfg, epochs=args.epochs)
    return cfg.validate()


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# synth / build-dataset
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    out = _out_dir(args)
    tracklets = []
    for i in range(args.tracklets):
        rng = np.random.default_rng(np.random.SeedSequence(args.seed, spawn_key=(i,)))
        if args.static:
            velocity = (0.0, 0.0, 0.0)
            yaw_rate = 0.0
            heading = rng.uniform(-np.pi, np.pi)
        else:
            heading = rng.uniform(-np.pi, np.pi)
            speed = args.speed * rng.uniform(0.5, 1.0)
            velocity = (speed * np.cos(heading), speed * np.sin(heading), 0.0)
            yaw_rate = args.yaw_rate * rng.uniform(-1.0, 1.0)
        spec = SynthSpec(
            n_frames=args.frames,
            points_on_object=args.points,
            start_center=(rng.uniform(-3, 3), rng.uniform(-3, 3), 0.8),
            start_yaw=heading,
            velocity=velocity,
            yaw_rate=yaw_rate,
            noise_sigma=args.noise,
            n_clutter=args.clutter,
            n_distractors=args.distractors,
            label=args.label,
            object_id=f"obj-{i:03d}",
        )
        tracklets.append(synth_tracklet(spec, seed=int(rng.integers(2**31))))
    save_dataset(out, tracklets)
    print(f"wrote {len(tracklets)} tracklets ({args.frames} frames each) to {out}")
    return 0


def cmd_build_dataset(args) -> int:
    scenes = load_annotated_scenes(args.scenes)
    tracklets = build_tracklets(scenes, min_points=args.min_points,
                                min_len=args.min_len)
    if not tracklets:
        raise ValueError("no tracklet survived the filtering rules")
    out = _out_dir(args)
    save_dataset(out, tracklets)
    print(f"built {len(tracklets)} tracklets from {len(scenes)} scenes -> {out}")
    return 0


# ---------------------------------------------------------------------------
# train / track / eval
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    tracklets = load_dataset(args.data)
    model = build_model(cfg)
    out = _out_dir(args)
    every = max(1, cfg.epochs // 20)

    def progress(row):
        if row["epoch"] % every == 0 or row["epoch"] == cfg.epochs - 1:
            print(f"epoch {row['epoch']:4d}  lr {row['lr']:.6f}  "
                  f"total {row['total']:.4f}  "
                  f"coarse {row['cls_coarse']:.4f}/{row['reg_coarse']:.4f}  "
                  f"refine {row['cls_refine']:.4f}/{row['reg_refine']:.4f}")

    if cfg.epochs > 0:
        history = train(tracklets, model, cfg, progress=progress)
    else:
        history = []
        print("0 epochs requested; writing the initialization checkpoint")
    model.save(out / "model.ckpt")
    save_config(cfg, out / "config.cfg")
    with open(out / "train_log.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["epoch", "total", "cls_coarse", "reg_coarse",
                    "cls_refine", "reg_refine", "lr"])
        for row in history:
            w.writerow([row["epoch"], row["total"], row["cls_coarse"],
                        row["reg_coarse"], row["cls_refine"],
                        row["reg_refine"], row["lr"]])
    print(f"wrote {out / 'model.ckpt'}")
    return 0


def _load_model(cfg: RunConfig, ckpt) -> TrackerModel:
    model = build_model(cfg)
    model.load(ckpt)
    return model


def cmd_track(args) -> int:
    cfg = _resolve_config(args)
    tracklets = load_dataset(args.data)
    if not 0 <= args.index < len(tracklets):
        raise ValueError(f"tracklet index {args.index} out of range "
                         f"(dataset has {len(tracklets)})")
    tracklet = tracklets[args.index]
    model = _load_model(cfg, args.ckpt)
    rng = np.random.default_rng(cfg.seed)
    frames = [cloud for cloud, _ in tracklet.frames]
    gt = [box for _, box in tracklet.frames]
    boxes, reasons = track_sequence(frames, gt[0], model, rng,
                                    extend_ratio=cfg.template_extend_ratio,
                                    margin_m=cfg.search_margin_m)
    out = _out_dir(args)
    path = out / "boxes.csv"
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["frame", "x", "y", "z", "length", "width", "height",
                    "yaw", "held_reason"])
        for i, (b, reason) in enumerate(zip(boxes, reasons)):
            w.writerow([i, *b.as_array7().tolist(), reason or ""])
    ious = [box_iou_3d(p, g) for p, g in zip(boxes[1:], gt[1:])]
    if ious:
        print(f"tracked {tracklet.object_id}: mean IoU {float(np.mean(ious)):.3f} "
              f"over {len(ious)} predicted frames")
    print(f"wrote {path}")
    return 0


def cmd_eval(args) -> int:
    if (args.ckpt is None) == (not args.oracle):
        raise ValueError("eval needs exactly one of --ckpt or --oracle")
    cfg = _resolve_config(args)
    tracklets = load_dataset(args.data)
    model = builder = None
    if args.oracle:
        def builder(i, tr):
            return OracleModel([box for _, box in tr.frames])
    else:
        model = _load_model(cfg, args.ckpt)
    report = evaluate(tracklets, model, seed=cfg.seed, threads=args.threads,
                      model_builder=builder, extend_ratio=cfg.template_extend_ratio,
                      margin_m=cfg.search_margin_m)

    rows = [*sorted(report.per_class), "average"]
    print(f"{'class':<12} {'success':>8} {'precision':>10} {'frames':>7}")
    for name in rows:
        entry = report.average if name == "average" else report.per_class[name]
        print(f"{name:<12} {entry['success']:>8.1f} {entry['precision']:>10.1f} "
              f"{entry['frames']:>7d}")
    for failure in report.failures:
        print(f"failed tracklet {failure['tracklet']}: {failure['error']}",
              file=sys.stderr)
    avg = report.average
    print(f"average: Success {avg['success']:.1f} / Precision {avg['precision']:.1f}")
    if args.out:
        out = _out_dir(args)
        (out / "eval.json").write_text(json.dumps(report.to_dict(), indent=1,
                                                  sort_keys=True))
        with open(out / "eval.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["class", "success", "precision", "frames"])
            for name in rows:
                entry = report.average if name == "average" else report.per_class[name]
                w.writerow([name, entry["success"], entry["precision"],
                            entry["frames"]])
        print(f"wrote {out / 'eval.json'} and {out / 'eval.csv'}")
    return 0


# ---------------------------------------------------------------------------
# check: gradient suite + oracle suite
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    detail: str
    ok: bool


def _tiny_check_spec(**kw) -> ModelSpec:
    backbone = BackboneSpec(
        embed_dim=4,
        levels=(
            SALevelSpec(radius=0.8, out_template=6, out_search=8, channels=6,
                        max_neighbors=4),
            SALevelSpec(radius=1.2, out_template=4, out_search=6, channels=8,
                        max_neighbors=4),
        ),
    )
    heads = HeadSpec(channels=8, coarse_hidden=(6, 6), refine_hidden=(8, 6, 6, 6))
    return ModelSpec(backbone=backbone, heads=heads, **kw)


def full_model_gradient_error(**spec_kw) -> float:
    """Finite-difference error of the composed network through the loss."""
    model = TrackerModel(_tiny_check_spec(**spec_kw), init_seed=8, dtype=np.float64)
    rng = np.random.default_rng(9)
    coords_t = rng.uniform(-1.0, 1.0, size=(8, 3))
    coords_s = rng.uniform(-2.0, 2.0, size=(10, 3))
    gt = Box3D((0.0, 0.0, 0.0), (2.5, 2.0, 2.0), 0.2)
    holder = {}

    def fn():
        model.zero_grad()
        out, cache = model.forward(coords_t, coords_s, np.random.default_rng(11),
                                   plan=holder.get("plan"))
        holder["plan"] = out.plan
        targets = make_targets(out.seeds, gt)
        loss, _, l_cache = total_loss_forward(out.coarse, out.refined, targets, 1.0)
        model.backward(*total_loss_backward(l_cache), cache)
        return loss

    # Finer step than the default: the row normalizations give the composed
    # loss enough curvature that h=1e-5 leaves visible truncation error.
    return grad_check(fn, model.params(), h=1e-6)


def gradient_suite() -> list[CheckResult]:
    tol = 1e-4
    results = []

    def add(name, err):
        results.append(CheckResult(name, f"max rel err {err:.2e}", err < tol))

    rng = np.random.default_rng(0)
    mlp = MLP([5, 7, 3], rng, name="mlp", dtype=np.float64, bn=[True, False])
    x = rng.normal(size=(6, 5))
    w = rng.normal(size=(6, 3))

    def mlp_fn():
        for p in mlp.params():
            p.zero_grad()
        y, cache = mlp.forward(x, training=True)
        mlp.backward(w, cache)
        return float((w * y).sum())

    add("mlp+batchnorm", grad_check(mlp_fn, mlp.params()))

    ram = RelationAttention(6, np.random.default_rng(1), name="ram",
                            dtype=np.float64, use_l2_norm=True, use_offset=True)
    q = rng.normal(size=(5, 6))
    k = rng.normal(size=(4, 6))
    wr = rng.normal(size=(5, 6))

    def ram_fn():
        for p in ram.params():
            p.zero_grad()
        (y, _), cache = ram.forward(q, k, k)
        ram.backward(wr, cache)
        return float((wr * y).sum())

    add("relation-attention", grad_check(ram_fn, ram.params()))

    prt = PointRelationTransformer(6, np.random.default_rng(2), name="prt",
                                   dtype=np.float64, use_l2_norm=True,
                                   use_offset=True)
    xt = rng.normal(size=(4, 6))
    xs = rng.normal(size=(5, 6))
    wp = rng.normal(size=(5, 6))

    def prt_fn():
        for p in prt.params():
            p.zero_grad()
        (y, _, _, _), cache = prt.forward(xs, xt)
        prt.backward(wp, cache)
        return float((wp * y).sum())

    add("point-relation-transformer", grad_check(prt_fn, prt.params()))

    coords = rng.uniform(-1, 1, size=(7, 3))
    feats = rng.normal(size=(7, 4))
    sel = SampleSelection(indices=np.arange(4), method="dfps")
    ws = rng.normal(size=(4, 5))
    for use_bn in (False, True):
        level = SetAbstraction(4, SALevelSpec(radius=1.0, out_template=4, out_search=4,
                                              channels=5, max_neighbors=3),
                               np.random.default_rng(3), name="sa", dtype=np.float64,
                               use_bn=use_bn)

        def sa_fn():
            for p in level.params():
                p.zero_grad()
            (_, y), cache = level.forward(coords, feats, sel, training=use_bn)
            level.backward(ws, cache)
            return float((ws * y).sum())

        add("set-abstraction" + ("+batchnorm" if use_bn else ""),
            grad_check(sa_fn, level.params()))

    add("full-model", full_model_gradient_error())
    add("full-model-cosine", full_model_gradient_error(use_prt=False))
    add("full-model-coarse-only", full_model_gradient_error(use_prm=False))
    return results


def _fps_reference(pts: np.ndarray, k: int) -> list[int]:
    """Greedy farthest-point walk, written as plain scalar loops."""
    n = pts.shape[0]
    chosen = [0]
    dist = [float(((pts[i] - pts[0]) ** 2).sum()) for i in range(n)]
    dist[0] = -1.0
    while len(chosen) < min(k, n):
        best_i, best_d = -1, -1.0
        for i in range(n):
            if dist[i] > best_d:
                best_i, best_d = i, dist[i]
        chosen.append(best_i)
        dist[best_i] = -1.0
        for i in range(n):
            if dist[i] >= 0.0:
                d = float(((pts[i] - pts[best_i]) ** 2).sum())
                if d < dist[i]:
                    dist[i] = d
        if len(chosen) == n:
            break
    return chosen


def oracle_suite() -> list[CheckResult]:
    results = []
    rng = np.random.default_rng(42)

    fps_ok = True
    for trial in range(20):
        n = int(rng.integers(5, 48))
        k = int(rng.integers(2, n + 1))
        pts = rng.normal(size=(n, 3))
        if sample_dfps(pts, k).indices.tolist() != _fps_reference(pts, k)[:k]:
            fps_ok = False
        feats = rng.normal(size=(n, 6))
        if sample_ffps(feats, k).indices.tolist() != _fps_reference(feats, k)[:k]:
            fps_ok = False
    results.append(CheckResult("farthest-point-sampling",
                               "20 random fixtures vs scalar-loop walk", fps_ok))

    ras_ok = True
    for trial in range(20):
        n_s, n_t = int(rng.integers(6, 40)), int(rng.integers(3, 20))
        k = int(rng.integers(1, n_s + 1))
        fs = rng.normal(size=(n_s, 5))
        ft = rng.normal(size=(n_t, 5))
        v = ras_scores(fs, ft)
        expect = sorted(range(n_s), key=lambda i: (v[i], i))[:k]
        if sample_ras(fs, ft, k).indices.tolist() != expect:
            ras_ok = False
    results.append(CheckResult("relation-aware-sampling",
                               "20 random fixtures vs sort of min-distances", ras_ok))

    # Two unit cubes offset by half an edge along one axis: IoU exactly 1/3.
    a = Box3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 0.0)
    b = Box3D((0.5, 0.0, 0.0), (1.0, 1.0, 1.0), 0.0)
    iou = box_iou_3d(a, b)
    results.append(CheckResult("iou-closed-form", f"unit cube offset -> {iou:.12f}",
                               abs(iou - 1.0 / 3.0) < 1e-9))

    mc_ok = True
    worst = 0.0
    for trial in range(5):
        boxes = []
        for _ in range(2):
            boxes.append(Box3D(rng.uniform(-1, 1, size=3),
                               rng.uniform(0.5, 2.5, size=3),
                               rng.uniform(-np.pi, np.pi)))
        lo, hi = _joint_bounds(boxes[0], boxes[1])
        samples = rng.uniform(lo, hi, size=(200_000, 3))
        in_a = points_in_box(samples, boxes[0])
        in_b = points_in_box(samples, boxes[1])
        union = (in_a | in_b).sum()
        mc = float((in_a & in_b).sum() / union) if union else 0.0
        err = abs(box_iou_3d(boxes[0], boxes[1]) - mc)
        worst = max(worst, err)
        if err > 0.02:
            mc_ok = False
    results.append(CheckResult("iou-monte-carlo",
                               f"5 random pairs, worst gap {worst:.4f}", mc_ok))

    ious = rng.uniform(0, 1, size=100)
    from .evaldata import precision_metric, success_metric
    s = success_metric(ious)
    thresholds = np.linspace(0.0, 1.0, 1001)
    curve = (ious[None, :] >= thresholds[:, None]).mean(axis=1)
    auc = float(np.trapezoid(curve, thresholds)) * 100.0
    results.append(CheckResult("success-metric-identity",
                               f"mean {s:.3f} vs AUC {auc:.3f}", abs(s - auc) < 0.1))
    p = precision_metric(np.ones(10))
    results.append(CheckResult("precision-metric-step",
                               f"all-1m errors -> {p:.3f}", abs(p - 50.0) < 0.5))
    return results


def _joint_bounds(a: Box3D, b: Box3D):
    corners = []
    for box in (a, b):
        half = box.size / 2.0
        signs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1)
                          for sz in (-1, 1)])
        local = signs * half
        c, s = np.cos(box.yaw), np.sin(box.yaw)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        corners.append(local @ rot.T + box.center)
    all_corners = np.vstack(corners)
    return all_corners.min(axis=0), all_corners.max(axis=0)


def cmd_check(args) -> int:
    t0 = time.perf_counter()
    grad = gradient_suite()
    oracle = oracle_suite()
    width = max(len(r.name) for r in grad + oracle)
    for title, block in (("gradient suite", grad), ("oracle suite", oracle)):
        print(f"-- {title}")
        for r in block:
            print(f"  {'PASS' if r.ok else 'FAIL'}  {r.name:<{width}}  {r.detail}")
    n_bad = sum(not r.ok for r in grad + oracle)
    if all(r.ok for r in grad):
        print("all gradient checks < 1e-4")
    print(f"{len(grad) + len(oracle) - n_bad}/{len(grad) + len(oracle)} checks passed "
          f"in {time.perf_counter() - t0:.1f}s")
    return 0 if n_bad == 0 else 1


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def cmd_bench(args) -> int:
    cfg = _resolve_config(args)
    model = build_model(cfg)
    rng = np.random.default_rng(cfg.seed)
    coords_t = rng.uniform(-2.0, 2.0, size=(args.template, 3))
    coords_s = rng.uniform(-3.0, 3.0, size=(args.search, 3))

    for _ in range(args.warmup):
        model.forward(coords_t, coords_s, np.random.default_rng(0))

    total_ms = []
    for _ in range(args.repeats):
        t0 = time.perf_counter()
        model.forward(coords_t, coords_s, np.random.default_rng(0))
        total_ms.append((time.perf_counter() - t0) * 1e3)

    stats = {
        "template": args.template,
        "search": args.search,
        "repeats": args.repeats,
        "total_ms_min": float(np.min(total_ms)),
        "total_ms_mean": float(np.mean(total_ms)),
    }
    if args.json:
        print(json.dumps(stats, indent=1, sort_keys=True))
    else:
        print(f"forward pass at template {args.template} / search {args.search} "
              f"({args.repeats} repeats)")
        print(f"  total           min {stats['total_ms_min']:8.2f} ms   "
              f"mean {stats['total_ms_mean']:8.2f} ms")
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def _add_config_flags(p, with_epochs=False):
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--profile", choices=sorted(PROFILES),
                   help="named base configuration (default: desk)")
    p.add_argument("--ablation", choices=sorted(ABLATIONS),
                   help="apply one standard ablation delta")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override one config entry (repeatable)")
    p.add_argument("--seed", type=int, help="override the config seed")
    if with_epochs:
        p.add_argument("--epochs", type=int, help="override the epoch count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pctrack",
        description="Point-cloud single-object tracking toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("synth", help="generate a synthetic tracklet dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tracklets", type=int, default=8)
    p.add_argument("--frames", type=int, default=12)
    p.add_argument("--points", type=int, default=60)
    p.add_argument("--clutter", type=int, default=100)
    p.add_argument("--distractors", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.02)
    p.add_argument("--speed", type=float, default=0.5,
                   help="max per-frame speed in metres")
    p.add_argument("--yaw-rate", type=float, default=0.05,
                   help="max per-frame yaw change in radians")
    p.add_argument("--static", action="store_true", help="zero motion")
    p.add_argument("--label", default="car")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("build-dataset",
                       help="apply the tracklet filtering rules to annotated scenes")
    p.add_argument("--scenes", required=True, help="JSON-lines scene index")
    p.add_argument("--out", required=True)
    p.add_argument("--min-points", type=int, default=10)
    p.add_argument("--min-len", type=int, default=3)
    p.set_defaults(func=cmd_build_dataset)

    p = sub.add_parser("train", help="train a tracker on a tracklet dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p, with_epochs=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("track", help="run one tracklet, write per-frame boxes")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--index", type=int, default=0)
    _add_config_flags(p)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("eval", help="evaluate a checkpoint (or the oracle) on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt")
    p.add_argument("--oracle", action="store_true",
                   help="closed-loop sanity: feed ground truth back as predictions")
    p.add_argument("--out", help="write eval.json and eval.csv here")
    p.add_argument("--threads", type=int, default=1)
    _add_config_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("check", help="run gradient and oracle self-checks")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("bench", help="time the forward pass")
    p.add_argument("--template", type=int, default=512)
    p.add_argument("--search", type=int, default=1024)
    p.add_argument("--repeats", type=int, default=20)
    p.add_argument("--warmup", type=int, default=3)
    p.add_argument("--json", action="store_true")
    _add_config_flags(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, NotADirectoryError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - boundary of the executable
        print(f"runtime failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
