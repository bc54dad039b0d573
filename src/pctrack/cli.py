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
from pathlib import Path

import numpy as np

from .checks import gradient_suite, oracle_suite
from .config import (
    ABLATIONS,
    PROFILES,
    RunConfig,
    apply_ablation,
    apply_overrides,
    build_model,
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
    track_tracklet,
)
from .model import TrackerModel
from .pipeline import LOSS_KEYS, OracleModel, train

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
    columns = ["epoch", *LOSS_KEYS, "lr"]
    with open(out / "train_log.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(columns)
        w.writerows([row[k] for k in columns] for row in history)
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
    boxes, reasons, ious, _ = track_tracklet(
        tracklet, model, np.random.default_rng(cfg.seed),
        cfg.template_extend_ratio, cfg.search_margin_m)
    out = _out_dir(args)
    path = out / "boxes.csv"
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["frame", "x", "y", "z", "length", "width", "height",
                    "yaw", "held_reason"])
        for i, (b, reason) in enumerate(zip(boxes, reasons)):
            w.writerow([i, *b.as_array7().tolist(), reason or ""])
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

    rows = [[name, e["success"], e["precision"], e["frames"]] for name, e in
            [*sorted(report.per_class.items()), ("average", report.average)]]
    print(f"{'class':<12} {'success':>8} {'precision':>10} {'frames':>7}")
    for name, success, precision, frames in rows:
        print(f"{name:<12} {success:>8.1f} {precision:>10.1f} {frames:>7d}")
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
            w.writerows(rows)
        print(f"wrote {out / 'eval.json'} and {out / 'eval.csv'}")
    return 0


# ---------------------------------------------------------------------------
# check: gradient suite + oracle suite (defined in checks.py)
# ---------------------------------------------------------------------------


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
