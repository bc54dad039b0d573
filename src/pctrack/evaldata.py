"""Metrics, tracklet datasets and synthetic scenes.

A tracklet is one object's ordered (scene cloud, ground-truth box) frames.
Datasets come from annotated scene sequences filtered by the standard
protocol rules (too-sparse frames removed, too-short runs dropped) or from
the synthetic generator, which builds rigid box-surface objects moving
through static clutter with exact ground truth.
"""

from __future__ import annotations

import json
import math
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import RunConfig
from .geometry import Box3D, PointCloud, box_iou_3d, from_box_frame, points_in_box
from .pipeline import track_sequence


@dataclass
class Tracklet:
    object_id: str
    label: str
    frames: list  # of (PointCloud, Box3D)

    def __post_init__(self):
        if not self.frames:
            raise ValueError(f"tracklet {self.object_id}: needs at least one frame")
        if self.label == "average":  # the name of the evaluation's average row
            raise ValueError(f"tracklet {self.object_id}: the label 'average' is reserved")

    @property
    def n_frames(self) -> int:
        return len(self.frames)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def success_metric(ious) -> float:
    """Mean overlap on a 0-100 scale.

    This equals the area under the overlap-threshold curve, the other form
    in circulation, up to the curve's discretisation.
    """
    ious = np.asarray(ious, dtype=np.float64)
    if ious.size == 0:
        raise ValueError("success_metric needs at least one value")
    return float(ious.mean()) * 100.0


def precision_metric(dists_m) -> float:
    """AUC of P(center distance <= tau) for tau in [0, 2] m, normalized to 0-100."""
    d = np.asarray(dists_m, dtype=np.float64)
    if d.size == 0:
        raise ValueError("precision_metric needs at least one value")
    if (d < 0).any():
        raise ValueError("distances must be non-negative")
    thresholds = np.linspace(0.0, 2.0, 201)
    curve = (d[None, :] <= thresholds[:, None]).mean(axis=1)
    return float(np.trapezoid(curve, thresholds)) / 2.0 * 100.0


# ---------------------------------------------------------------------------
# Dataset construction from annotated scenes
# ---------------------------------------------------------------------------


def build_tracklets(scenes, min_points: int = 10, min_len: int = 3) -> list[Tracklet]:
    """Group per-frame annotations into tracklets under the protocol rules.

    ``scenes`` is an ordered list of (PointCloud, annotations) where each
    annotation is a dict with object_id, label and box. Frames whose box
    holds fewer than ``min_points`` points are removed (splitting the run);
    runs shorter than ``min_len`` frames are dropped entirely. ``min_len``
    must be at least 1 and ``min_points`` at least 0.
    """
    if not min_len >= 1:
        raise ValueError(f"min_len must be an integer >= 1, got {min_len}")
    if not min_points >= 0:
        raise ValueError(f"min_points must be an integer >= 0, got {min_points}")
    per_object: dict[str, dict[int, tuple[Box3D, str]]] = {}
    labels: dict[str, str] = {}
    for frame_idx, (cloud, annotations) in enumerate(scenes):
        for ann in annotations:
            try:
                obj = ann["object_id"]
                label = ann["label"]
                box = Box3D.from_array7(ann["box"])
            except (KeyError, TypeError, ValueError, IndexError) as e:
                raise ValueError(
                    f"frame {frame_idx}: malformed annotation "
                    f"{ann.get('object_id', '<no id>') if isinstance(ann, dict) else ann!r}: {e}"
                ) from e
            if obj in labels and labels[obj] != label:
                raise ValueError(
                    f"frame {frame_idx}: object {obj} changes label "
                    f"{labels[obj]!r} -> {label!r}")
            labels[obj] = label
            if frame_idx in per_object.setdefault(obj, {}):
                raise ValueError(f"frame {frame_idx}: object {obj} annotated twice")
            per_object[obj][frame_idx] = (box, label)

    tracklets = []
    for obj in sorted(per_object):
        entries = per_object[obj]
        run: list = []

        def flush(run):
            if len(run) >= min_len:
                tracklets.append(Tracklet(object_id=obj, label=labels[obj], frames=run))

        prev_idx = None
        for frame_idx in sorted(entries):
            box, _ = entries[frame_idx]
            cloud = scenes[frame_idx][0]
            dense = int(points_in_box(cloud, box).sum()) >= min_points
            contiguous = prev_idx is not None and frame_idx == prev_idx + 1
            if not (dense and (contiguous or not run)):
                flush(run)
                run = []
            if dense:
                run.append((cloud, box))
                prev_idx = frame_idx
            else:
                prev_idx = None
        flush(run)
    return tracklets


# ---------------------------------------------------------------------------
# Synthetic scenes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of one generated tracklet."""

    n_frames: int = 12
    size: tuple[float, float, float] = (4.0, 2.0, 1.6)
    points_on_object: int = 60
    start_center: tuple[float, float, float] = (0.0, 0.0, 0.8)
    start_yaw: float = 0.0
    velocity: tuple[float, float, float] = (0.5, 0.0, 0.0)   # per frame
    yaw_rate: float = 0.0                                     # per frame
    noise_sigma: float = 0.02
    n_clutter: int = 100
    clutter_span: float = 12.0
    n_distractors: int = 0
    label: str = "car"
    object_id: str = "obj-0"

    def __post_init__(self):
        if self.n_frames < 1 or self.points_on_object < 1:
            raise ValueError("need at least one frame and one object point")
        for name in ("size", "start_center", "velocity"):
            value = getattr(self, name)
            if len(value) != 3 or not all(map(math.isfinite, value)):
                raise ValueError(f"{name} must be three finite values, got {value!r}")
        for name in ("start_yaw", "yaw_rate", "noise_sigma", "clutter_span"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        for name, ok, what in (("n_clutter", self.n_clutter >= 0, ">= 0"),
                               ("n_distractors", self.n_distractors >= 0, ">= 0"),
                               ("noise_sigma", self.noise_sigma >= 0, ">= 0"),
                               ("clutter_span", self.clutter_span > 0, "> 0"),
                               ("size", min(self.size) > 0, "> 0 on every axis")):
            if not ok:
                raise ValueError(f"{name} must be {what}, got {getattr(self, name)!r}")


def _surface_pattern(rng: np.random.Generator, size, n: int) -> np.ndarray:
    """n points on the surface of an origin-centered box, in the box frame."""
    l, w, h = size
    areas = np.array([w * h, w * h, l * h, l * h, l * w, l * w])
    faces = rng.choice(6, size=n, p=areas / areas.sum())
    a, b = rng.uniform(-0.5, 0.5, size=(n, 2)).T
    axis = faces // 2                          # 0: +-x, 1: +-y, 2: +-z faces
    side = np.where(faces % 2 == 0, 0.5, -0.5)
    return np.column_stack([
        np.where(axis == 0, side * l, a * l),
        np.select([axis == 0, axis == 1], [a * w, side * w], b * w),
        np.where(axis == 2, side * h, b * h),
    ])


def synth_tracklet(spec: SynthSpec, seed: int) -> Tracklet:
    """Deterministic moving object with exact boxes amid static clutter."""
    rng = np.random.default_rng(seed)
    size = np.asarray(spec.size, dtype=np.float64)
    half = size / 2.0
    pattern = _surface_pattern(rng, size, spec.points_on_object)

    centers = [np.asarray(spec.start_center) + np.asarray(spec.velocity) * i
               for i in range(spec.n_frames)]
    yaws = [spec.start_yaw + spec.yaw_rate * i for i in range(spec.n_frames)]
    gt_boxes = [Box3D(c, size, y) for c, y in zip(centers, yaws)]

    # Static clutter, kept clear of every frame's ground-truth box.
    clutter = np.zeros((0, 3))
    while clutter.shape[0] < spec.n_clutter:
        cand = np.column_stack([
            rng.uniform(-spec.clutter_span, spec.clutter_span, size=4 * spec.n_clutter),
            rng.uniform(-spec.clutter_span, spec.clutter_span, size=4 * spec.n_clutter),
            rng.uniform(0.0, 2.0, size=4 * spec.n_clutter),
        ])
        keep = np.ones(len(cand), dtype=bool)
        for box in gt_boxes:
            keep &= ~points_in_box(cand, box)
        clutter = np.vstack([clutter, cand[keep]])
    clutter = clutter[: spec.n_clutter]

    distractors = np.zeros((0, 3))
    for d in range(spec.n_distractors):
        d_pat = _surface_pattern(rng, size, spec.points_on_object)
        angle = 2.0 * np.pi * d / max(spec.n_distractors, 1)
        offset = np.array([np.cos(angle), np.sin(angle), 0.0]) * (spec.clutter_span * 0.6)
        offset[2] = spec.start_center[2]
        d_box = Box3D(offset, size, rng.uniform(-np.pi, np.pi))
        distractors = np.vstack([distractors, from_box_frame(d_pat, d_box)])

    # Clip strictly inside the box: surface points sitting exactly on a face
    # could land epsilon-outside after the frame round trip.
    inner = half * (1.0 - 1e-6)
    frames = []
    for box in gt_boxes:
        noisy = pattern
        if spec.noise_sigma > 0:
            noisy = noisy + rng.normal(scale=spec.noise_sigma, size=pattern.shape)
        noisy = np.clip(noisy, -inner, inner)
        obj_world = from_box_frame(noisy, box)
        cloud = PointCloud(np.vstack([obj_world, clutter, distractors]))
        frames.append((cloud, box))
    return Tracklet(object_id=spec.object_id, label=spec.label, frames=frames)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


@dataclass
class EvalReport:
    per_class: dict[str, dict]           # label -> {success, precision, frames}
    average: dict                         # {success, precision, frames}
    failures: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"per_class": self.per_class, "average": self.average,
                "failures": self.failures}


def tracklet_rng(seed: int, i: int) -> np.random.Generator:
    """Tracklet i's RNG stream, spawned from ``seed``, for ``evaluate`` and ``track``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))


def track_tracklet(tracklet: Tracklet, model, rng: np.random.Generator,
                   extend_ratio: float = RunConfig.template_extend_ratio,
                   margin_m: float = RunConfig.search_margin_m):
    """Track a tracklet from its first ground-truth box.

    Returns ``(boxes, reasons, ious, dists)``: ``track_sequence``'s boxes and
    held reasons, then the IoU and centre distance (m) of every predicted
    box against ground truth. The first frame is initialization, not a
    prediction, so it has no IoU or distance.
    """
    gt = [box for _, box in tracklet.frames]
    boxes, reasons = track_sequence([cloud for cloud, _ in tracklet.frames], gt[0],
                                    model, rng, extend_ratio=extend_ratio,
                                    margin_m=margin_m)
    ious = [box_iou_3d(p, g) for p, g in zip(boxes[1:], gt[1:])]
    dists = [float(np.linalg.norm(p.center - g.center))
             for p, g in zip(boxes[1:], gt[1:])]
    return boxes, reasons, ious, dists


def _summary(runs) -> dict:
    """Success, Precision and frame count over the predicted frames of
    ``track_tracklet`` results."""
    ious = [v for run in runs for v in run[2]]
    dists = [d for run in runs for d in run[3]]
    return {"success": success_metric(ious), "precision": precision_metric(dists),
            "frames": len(ious)}


def evaluate(tracklets, model, seed: int = 0, threads: int = 1,
             model_builder=None,
             extend_ratio: float = RunConfig.template_extend_ratio,
             margin_m: float = RunConfig.search_margin_m) -> EvalReport:
    """Run the tracker over every tracklet and aggregate Success/Precision.

    Tracklet ``i`` draws from its own RNG stream, ``tracklet_rng(seed, i)``.
    Tracklets that raise are reported as failures, in tracklet order, and
    the rest still count. ``model_builder(i, tracklet)``, when given,
    supplies a per-tracklet model instead of the shared one.
    ``extend_ratio`` and ``margin_m`` set the template and search crops as
    in ``track_sequence``.
    """
    if not tracklets:
        raise ValueError("evaluate needs at least one tracklet")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")

    def run(i):
        try:
            m = model if model_builder is None else model_builder(i, tracklets[i])
            rng = tracklet_rng(seed, i)
            return track_tracklet(tracklets[i], m, rng, extend_ratio, margin_m)
        except Exception as e:  # noqa: BLE001 - per-tracklet isolation
            return {"tracklet": i, "error": str(e)}

    # One thread runs inline, on the caller's stack: perfbench's tracer keeps
    # a single span stack.
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, range(len(tracklets))))
    else:
        results = [run(i) for i in range(len(tracklets))]
    failures = [r for r in results if isinstance(r, dict)]

    by_class: dict[str, list] = {}
    for tracklet, res in zip(tracklets, results):
        if not isinstance(res, dict):
            by_class.setdefault(tracklet.label, []).append(res)
    labels = [label for label in sorted(by_class)
              if any(res[2] for res in by_class[label])]
    if not labels:
        reasons = ("; ".join(f["error"] for f in failures) if failures
                   else "no tracklet has a frame after its first")
        raise ValueError(f"no tracklet evaluated successfully: {reasons}")
    return EvalReport(
        per_class={label: _summary(by_class[label]) for label in labels},
        average=_summary([res for label in labels for res in by_class[label]]),
        failures=failures)


# ---------------------------------------------------------------------------
# On-disk formats
# ---------------------------------------------------------------------------


def _write_cloud_bin(path: Path, coords: np.ndarray):
    coords = np.ascontiguousarray(coords, dtype="<f4")
    with open(path, "wb") as f:
        f.write(struct.pack("<I", coords.shape[0]))
        f.write(coords.tobytes())


def _read_cloud_bin(path: Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < 4:
        raise ValueError(f"{path}: {len(raw)} bytes, shorter than the 4-byte header")
    (n,) = struct.unpack_from("<I", raw, 0)
    expected = 4 + 12 * n
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} bytes for {n} points, "
                         f"got {len(raw)}")
    coords = np.frombuffer(raw, dtype="<f4", count=3 * n, offset=4).reshape(n, 3)
    if not np.isfinite(coords).all():
        raise ValueError(f"{path}: point coordinates must be finite")
    return coords.astype(np.float64)


def save_tracklet(directory, tracklet: Tracklet):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = {
        "object_id": tracklet.object_id,
        "label": tracklet.label,
        "n_frames": tracklet.n_frames,
        "boxes": [[*map(float, box.as_array7())] for _, box in tracklet.frames],
    }
    (directory / "meta.json").write_text(json.dumps(meta, indent=1, sort_keys=True))
    for i, (cloud, _) in enumerate(tracklet.frames):
        _write_cloud_bin(directory / f"frame_{i:04d}.bin", cloud.coords)


def _is_box7(box) -> bool:
    """A JSON box: a list of 7 finite numbers whose three sizes are positive."""
    return (isinstance(box, list) and len(box) == 7
            and all(type(x) in (int, float) and math.isfinite(x) for x in box)
            and min(box[3:6]) > 0)


def _tracklet_meta(path: Path) -> dict:
    """A tracklet's ``meta.json``: an object whose ``boxes`` is a list of
    boxes of 7 finite numbers with positive sizes, ``n_frames`` their
    count, and ``label`` and ``object_id`` strings."""
    try:
        meta = json.loads(path.read_text())
    except ValueError:
        raise ValueError(f"{path}: not JSON") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: not a JSON object")
    boxes = meta.get("boxes")
    if not isinstance(boxes, list):
        raise ValueError(f"{path}: 'boxes' is not a list")
    for i, box in enumerate(boxes):
        if not _is_box7(box):
            raise ValueError(
                f"{path}: 'boxes[{i}]' is not 7 finite numbers with positive sizes")
    if type(meta.get("n_frames")) is not int:
        raise ValueError(f"{path}: 'n_frames' is not an integer")
    if meta["n_frames"] != len(boxes):
        raise ValueError(f"{path}: frame count mismatch: 'n_frames' is {meta['n_frames']}, "
                         f"'boxes' holds {len(boxes)}")
    for key in ("label", "object_id"):
        if not isinstance(meta.get(key), str):
            raise ValueError(f"{path}: '{key}' is not a string")
    return meta


def load_tracklet(directory) -> Tracklet:
    directory = Path(directory)
    meta = _tracklet_meta(directory / "meta.json")
    frames = []
    for i, box7 in enumerate(meta["boxes"]):
        coords = _read_cloud_bin(directory / f"frame_{i:04d}.bin")
        frames.append((PointCloud(coords), Box3D.from_array7(box7)))
    return Tracklet(object_id=meta["object_id"], label=meta["label"], frames=frames)


def save_dataset(directory, tracklets):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i, tr in enumerate(tracklets):
        save_tracklet(directory / f"tracklet_{i:03d}", tr)


def load_dataset(directory) -> list[Tracklet]:
    directory = Path(directory)
    subdirs = sorted(d for d in directory.iterdir()
                     if d.is_dir() and (d / "meta.json").exists())
    if not subdirs:
        raise ValueError(f"{directory}: no tracklet directories found")
    return [load_tracklet(d) for d in subdirs]


def _check_annotation(ann, index: int):
    """A scene annotation: an object with string ``object_id`` and ``label``
    and a ``box`` of 7 finite numbers with positive sizes."""
    if not isinstance(ann, dict):
        raise ValueError(f"annotation {index} is not a JSON object")
    for key in ("object_id", "label"):
        if not isinstance(ann.get(key), str):
            raise ValueError(f"annotation {index}: '{key}' is not a string")
    if not _is_box7(ann.get("box")):
        raise ValueError(
            f"annotation {index}: 'box' is not 7 finite numbers with positive sizes")


def load_annotated_scenes(jsonl_path):
    """JSON-lines scene reader: each line is an object whose string ``cloud``
    names a cloud file and whose ``annotations`` is a list of annotation
    objects (``_check_annotation``)."""
    jsonl_path = Path(jsonl_path)
    base = jsonl_path.parent
    scenes = []
    with open(jsonl_path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("not a JSON object")
                if not isinstance(record.get("cloud"), str):
                    raise ValueError("'cloud' is not a string")
                annotations = record.get("annotations")
                if not isinstance(annotations, list):
                    raise ValueError("'annotations' is not a list")
                for index, ann in enumerate(annotations):
                    _check_annotation(ann, index)
                coords = _read_cloud_bin(base / record["cloud"])
            except (OSError, ValueError) as e:
                raise ValueError(f"{jsonl_path}:{lineno}: bad scene record: {e}") from e
            scenes.append((PointCloud(coords), annotations))
    return scenes
