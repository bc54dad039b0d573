"""Training and tracking loops with their target construction and loss.

Everything operates in a canonical working frame: the reference box (the
previous prediction at test time, a jittered ground-truth box at training
time) is moved to the origin with yaw zero, so the template always sits at
a zero pose and the network predicts offsets relative to that frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .geometry import (
    Box3D,
    PointCloud,
    box_from_frame,
    box_to_frame,
    crop_template,
    distort_box,
    enlarge_box,
    points_in_box,
    to_box_frame,
    wrap_angle,
)
from .heads import Prediction, decode_box
from .numeric import (
    Adam,
    bce_loss_backward,
    bce_loss_forward,
    lr_at_epoch,
    mse_loss_masked_backward,
    mse_loss_masked_forward,
)


@dataclass(frozen=True)
class Targets:
    """Per-seed supervision: membership labels and box offsets."""

    cls: np.ndarray        # (N, 1) in {0, 1}
    reg: np.ndarray        # (N, 4)
    pos_mask: np.ndarray   # (N,) boolean, true exactly where cls == 1


def make_targets(seed_coords: np.ndarray, gt_box: Box3D,
                 template_yaw: float = 0.0) -> Targets:
    """Label seeds by box membership; offsets point every seed at the box."""
    inside = points_in_box(seed_coords, gt_box)
    cls = inside.astype(np.float64).reshape(-1, 1)
    dtheta = wrap_angle(gt_box.yaw - template_yaw)
    reg = np.concatenate(
        [gt_box.center[None, :] - seed_coords,
         np.full((seed_coords.shape[0], 1), dtheta)], axis=1)
    return Targets(cls=cls, reg=reg, pos_mask=inside)


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

# Loss components, in the order of the training log's columns.
LOSS_KEYS = ("total", "cls_coarse", "reg_coarse", "cls_refine", "reg_refine")


def total_loss_forward(coarse: Prediction, refined: Prediction | None,
                       targets: Targets, lam: float):
    """L = BCE_c + MSE_c^pos + lam * (BCE_f + MSE_f^pos); returns components."""
    cls_tgt = targets.cls.astype(coarse.cls_logits.dtype)
    reg_tgt = targets.reg.astype(coarse.reg.dtype)
    bce_c, c_bce_c = bce_loss_forward(coarse.cls_logits, cls_tgt)
    mse_c, c_mse_c = mse_loss_masked_forward(coarse.reg, reg_tgt, targets.pos_mask)
    if refined is not None:
        bce_f, c_bce_f = bce_loss_forward(refined.cls_logits, cls_tgt)
        mse_f, c_mse_f = mse_loss_masked_forward(refined.reg, reg_tgt, targets.pos_mask)
    else:
        bce_f = mse_f = 0.0
        c_bce_f = c_mse_f = None
    total = bce_c + mse_c + lam * (bce_f + mse_f)
    components = dict(zip(LOSS_KEYS, (total, bce_c, mse_c, bce_f, mse_f)))
    cache = (c_bce_c, c_mse_c, c_bce_f, c_mse_f, lam)
    return total, components, cache


def total_loss_backward(cache):
    """Returns (d_cls_c, d_reg_c, d_cls_f, d_reg_f); refine grads None if absent."""
    c_bce_c, c_mse_c, c_bce_f, c_mse_f, lam = cache
    d_cls_c = bce_loss_backward(c_bce_c)
    d_reg_c = mse_loss_masked_backward(c_mse_c)
    if c_bce_f is None:
        return d_cls_c, d_reg_c, None, None
    return (d_cls_c, d_reg_c,
            bce_loss_backward(c_bce_f, scale=lam),
            mse_loss_masked_backward(c_mse_f, scale=lam))


# ---------------------------------------------------------------------------
# Training sample construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainingSample:
    """One canonical-frame (template, search, ground truth) triple."""

    template_xyz: np.ndarray
    search_xyz: np.ndarray
    gt_canonical: Box3D


def _search_crop(cloud: PointCloud, box: Box3D, margin_m: float,
                 frame: Box3D) -> np.ndarray | None:
    """Points inside ``box`` grown by ``margin_m``, in ``frame``'s coordinates;
    None when there are none."""
    # points_in_box is called here, not through crop_template: perfbench's
    # tracer starts a tracking step at each points_in_box call whose nearest
    # traced caller is track_sequence.
    mask = points_in_box(cloud, enlarge_box(box, margin_m))
    if not mask.any():
        return None
    return to_box_frame(cloud.coords[mask], frame)


def build_training_sample(prev_cloud: PointCloud, prev_box: Box3D,
                          cur_cloud: PointCloud, cur_box: Box3D,
                          rng: np.random.Generator,
                          extend_ratio: float = RunConfig.template_extend_ratio,
                          distort_range_m: float = RunConfig.distort_range_m,
                          search_margin_m: float = RunConfig.search_margin_m,
                          ) -> TrainingSample | None:
    """Crop one training pair; None when a crop comes up empty.

    The template box is jittered to imitate imperfect previous predictions;
    the jittered box also defines the canonical frame.
    """
    ref = distort_box(prev_box, distort_range_m, rng)
    template = crop_template(prev_cloud, ref, extend_ratio)
    if template.n == 0:
        ref = prev_box
        template = crop_template(prev_cloud, ref, extend_ratio)
        if template.n == 0:
            return None
    search_xyz = _search_crop(cur_cloud, prev_box, search_margin_m, ref)
    if search_xyz is None:
        return None
    return TrainingSample(
        template_xyz=to_box_frame(template.coords, ref),
        search_xyz=search_xyz,
        gt_canonical=box_to_frame(cur_box, ref),
    )


def training_pairs(tracklets):
    """All consecutive-frame pairs from every tracklet, in order."""
    pairs = []
    for tr in tracklets:
        frames = tr.frames
        for i in range(1, len(frames)):
            pairs.append((frames[i - 1], frames[i]))
    return pairs


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def train(tracklets, model, cfg, progress=None):
    """Optimize the model on all consecutive pairs; returns per-epoch rows.

    Deterministic under cfg.seed: one RNG stream drives augmentation and
    sampler draws in a fixed order, and batches are accumulated
    sequentially.
    """
    cfg.validate()
    pairs = training_pairs(tracklets)
    if not pairs:
        raise ValueError("no trainable frame pairs in the dataset")
    rng = np.random.default_rng(cfg.seed)
    opt = Adam(model.params(), lr=cfg.lr)
    history = []
    for epoch in range(cfg.epochs):
        lr = lr_at_epoch(cfg.lr, cfg.lr_divisor, cfg.lr_step_epochs, epoch)
        sums = dict.fromkeys(LOSS_KEYS, 0.0)
        n_samples = 0
        for start in range(0, len(pairs), cfg.batch_size):
            batch = pairs[start:start + cfg.batch_size]
            opt.zero_grad()
            used = 0
            for (prev_cloud, prev_box), (cur_cloud, cur_box) in batch:
                sample = build_training_sample(
                    prev_cloud, prev_box, cur_cloud, cur_box, rng,
                    extend_ratio=cfg.template_extend_ratio,
                    distort_range_m=cfg.distort_range_m,
                    search_margin_m=cfg.search_margin_m)
                if sample is None:
                    continue
                out, cache = model.forward(sample.template_xyz, sample.search_xyz,
                                           rng, training=True)
                targets = make_targets(out.seeds, sample.gt_canonical)
                loss, comps, l_cache = total_loss_forward(
                    out.coarse, out.refined, targets, cfg.lam)
                if not np.isfinite(loss):
                    raise FloatingPointError(
                        f"non-finite loss {loss} at epoch {epoch}, "
                        f"pair index {start + used}: {comps}")
                model.backward(*total_loss_backward(l_cache), cache)
                for k in sums:
                    sums[k] += comps[k]
                used += 1
            if used == 0:
                continue
            for p in model.params():
                p.grad /= used
            opt.step(lr=lr)
            n_samples += used
        row = {"epoch": epoch, "lr": lr}
        for k in sums:
            row[k] = sums[k] / max(n_samples, 1)
        history.append(row)
        if progress is not None:
            progress(row)
    return history


# ---------------------------------------------------------------------------
# Tracking loop
# ---------------------------------------------------------------------------


class OracleModel:
    """Protocol stub that decodes to the exact ground-truth pose.

    Used to close the tracking loop in tests and sanity runs: with it, the
    only error left is the loop's own bookkeeping.
    """

    def __init__(self, gt_boxes):
        self.gt_boxes = list(gt_boxes)

    def predict_canonical(self, template_xyz, search_xyz, ref_box, frame_index, rng):
        gt = box_to_frame(self.gt_boxes[frame_index], ref_box)
        seeds = np.zeros((1, 3))
        pred = Prediction(
            cls_logits=np.array([[1.0]]),
            reg=np.array([[gt.center[0], gt.center[1], gt.center[2], gt.yaw]]))
        return pred, seeds


def track_sequence(frames, init_box: Box3D, model, rng: np.random.Generator,
                   extend_ratio: float = RunConfig.template_extend_ratio,
                   margin_m: float = RunConfig.search_margin_m):
    """Frame-by-frame tracking; returns (boxes, reasons).

    reasons[i] is None for a tracked frame. Where the previous box is
    re-emitted it names why: ``"empty_search"`` when the search crop was
    empty, ``"non_finite"`` when the model's best prediction was not
    finite. Every returned box carries the initial box's size.
    """
    if not frames:
        raise ValueError("track_sequence needs at least one frame")
    boxes = [init_box]
    reasons = [None]
    template_cloud = crop_template(frames[0], init_box, extend_ratio)
    if template_cloud.n == 0:
        raise ValueError("initial template crop is empty")
    template_xyz = to_box_frame(template_cloud.coords, init_box)
    ref = init_box
    for i in range(1, len(frames)):
        search_xyz = _search_crop(frames[i], ref, margin_m, ref)
        if search_xyz is None:
            boxes.append(ref)
            reasons.append("empty_search")
            continue
        pred, seeds = model.predict_canonical(template_xyz, search_xyz, ref, i, rng)
        if not np.isfinite(pred.reg[pred.best_index()]).all():
            boxes.append(ref)
            reasons.append("non_finite")
            continue
        canon_ref = Box3D(center=np.zeros(3), size=ref.size, yaw=0.0)
        box_world = box_from_frame(decode_box(pred, seeds, canon_ref), ref)
        boxes.append(box_world)
        reasons.append(None)
        new_template = crop_template(frames[i], box_world, extend_ratio)
        if new_template.n > 0:
            template_xyz = to_box_frame(new_template.coords, box_world)
        ref = box_world
    return boxes, reasons
