import numpy as np
import pytest

from pctrack.config import config_for_profile
from pctrack.evaldata import SynthSpec, evaluate, synth_tracklet
from pctrack.geometry import (
    Box3D,
    PointCloud,
    box_iou_3d,
    box_to_frame,
    crop_template,
    distort_box,
    points_in_box,
    to_box_frame,
)
from pctrack.heads import Prediction
from pctrack.model import TrackerModel
from pctrack.pipeline import (
    OracleModel,
    Targets,
    build_training_sample,
    make_targets,
    total_loss_backward,
    total_loss_forward,
    track_sequence,
    train,
    training_pairs,
)



# ---------------------------------------------------------------------------
# Targets
# ---------------------------------------------------------------------------


def test_seed_at_center_aligned_yaw():
    box = Box3D((1.0, -2.0, 0.5), (4.0, 2.0, 1.5), 0.7)
    t = make_targets(np.array([[1.0, -2.0, 0.5]]), box, template_yaw=0.7)
    assert t.cls.tolist() == [[1.0]]
    np.testing.assert_allclose(t.reg, [[0.0, 0.0, 0.0, 0.0]], atol=1e-15)
    assert t.pos_mask.tolist() == [True]


def test_far_seed_is_negative_but_still_aimed():
    box = Box3D((0.0, 0.0, 0.0), (4.0, 2.0, 1.5), 0.0)
    t = make_targets(np.array([[100.0, 0.0, 0.0]]), box)
    assert t.cls.tolist() == [[0.0]]
    np.testing.assert_allclose(t.reg[0, :3], [-100.0, 0.0, 0.0])


def test_yaw_offset_wraps():
    box = Box3D((0.0, 0.0, 0.0), (2.0, 2.0, 2.0), 3.0)
    t = make_targets(np.zeros((1, 3)), box, template_yaw=-3.0)
    np.testing.assert_allclose(t.reg[0, 3], 6.0 - 2.0 * np.pi, atol=1e-12)


def test_labels_match_membership_on_rotated_box():
    box = Box3D((2.0, -1.0, 0.3), (3.0, 1.4, 1.2), 2.2)
    rng = np.random.default_rng(11)
    seeds = box.center + rng.uniform(-2.2, 2.2, size=(8, 3))
    t = make_targets(seeds, box)
    np.testing.assert_array_equal(t.cls[:, 0], points_in_box(seeds, box).astype(float))
    np.testing.assert_allclose(t.reg[:, :3], box.center - seeds)
    assert t.cls[:, 0].sum() > 0 and t.cls[:, 0].sum() < 8  # fixture straddles


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------


def _manual_fixture():
    box = Box3D((0.0, 0.0, 0.0), (2.0, 2.0, 2.0), 0.3)
    seeds = np.array([[0.5, 0.0, 0.0], [-0.6, 0.2, 0.0],
                      [3.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
    targets = make_targets(seeds, box)
    coarse = Prediction(
        cls_logits=np.array([[0.8], [-0.4], [-1.2], [2.0]]),
        reg=np.array([[0.1, -0.2, 0.0, 0.25], [0.4, 0.1, -0.3, 0.35],
                      [-2.5, 0.3, 0.2, 0.0], [0.2, -3.9, 0.1, 0.3]]))
    refined = Prediction(
        cls_logits=np.array([[1.5], [0.3], [-2.0], [-0.7]]),
        reg=np.array([[-0.45, 0.05, 0.02, 0.31], [0.55, -0.25, 0.1, 0.28],
                      [-3.1, 0.0, 0.0, 0.1], [-0.2, -4.1, 0.0, 0.33]]))
    return coarse, refined, targets


def test_loss_matches_longhand_arithmetic():
    coarse, refined, targets = _manual_fixture()
    total, comps, _ = total_loss_forward(coarse, refined, targets, lam=0.7)
    # Worked out by scalar arithmetic over the 4 seeds (2 positive):
    assert comps["cls_coarse"] == pytest.approx(0.9185815991821835, abs=1e-9)
    assert comps["reg_coarse"] == pytest.approx(0.078125, abs=1e-9)
    assert comps["cls_refine"] == pytest.approx(0.3214706455949275, abs=1e-9)
    assert comps["reg_refine"] == pytest.approx(0.0026124999999999997, abs=1e-9)
    assert total == pytest.approx(1.2235648010986329, abs=1e-9)
    assert comps["total"] == total


def test_lambda_zero_reduces_to_coarse_terms():
    coarse, refined, targets = _manual_fixture()
    total0, comps0, _ = total_loss_forward(coarse, refined, targets, lam=0.0)
    assert total0 == pytest.approx(comps0["cls_coarse"] + comps0["reg_coarse"], abs=1e-15)
    total_n, comps_n, _ = total_loss_forward(coarse, None, targets, lam=0.7)
    assert total_n == pytest.approx(total0, abs=1e-15)
    assert comps_n["cls_refine"] == 0.0 and comps_n["reg_refine"] == 0.0


def test_perfect_saturated_predictions_near_zero_loss():
    box = Box3D((0.0, 0.0, 0.0), (2.0, 2.0, 2.0), 0.0)
    seeds = np.array([[0.1, 0.0, 0.0], [5.0, 0.0, 0.0]])
    targets = make_targets(seeds, box)
    logits = np.where(targets.cls > 0.5, 40.0, -40.0)
    perfect = Prediction(cls_logits=logits, reg=targets.reg.copy())
    total, _, _ = total_loss_forward(perfect, perfect, targets, lam=1.0)
    assert total < 1e-6


def test_loss_backward_scales_refine_by_lambda():
    coarse, refined, targets = _manual_fixture()
    _, _, cache1 = total_loss_forward(coarse, refined, targets, lam=1.0)
    _, _, cache3 = total_loss_forward(coarse, refined, targets, lam=3.0)
    g1 = total_loss_backward(cache1)
    g3 = total_loss_backward(cache3)
    np.testing.assert_allclose(g3[0], g1[0])           # coarse cls unaffected
    np.testing.assert_allclose(g3[2], 3.0 * g1[2])     # refine cls scales
    np.testing.assert_allclose(g3[3], 3.0 * g1[3])
    assert g1[1].shape == (4, 4) and g1[1][2].tolist() == [0.0] * 4  # negatives silent


def test_loss_backward_none_for_missing_refinement():
    coarse, _, targets = _manual_fixture()
    _, _, cache = total_loss_forward(coarse, None, targets, lam=1.0)
    _, _, d_cls_f, d_reg_f = total_loss_backward(cache)
    assert d_cls_f is None and d_reg_f is None


def test_loss_gradient_by_finite_difference():
    coarse, refined, targets = _manual_fixture()
    _, _, cache = total_loss_forward(coarse, refined, targets, lam=0.7)
    d_cls_c, d_reg_c, d_cls_f, d_reg_f = total_loss_backward(cache)
    h = 1e-6
    for arr, grad, rebuild in [
        (coarse.cls_logits, d_cls_c,
         lambda a: total_loss_forward(Prediction(a, coarse.reg), refined, targets, 0.7)[0]),
        (refined.reg, d_reg_f,
         lambda a: total_loss_forward(coarse, Prediction(refined.cls_logits, a), targets, 0.7)[0]),
    ]:
        for idx in np.ndindex(arr.shape):
            bumped = arr.copy()
            bumped[idx] += h
            up = rebuild(bumped)
            bumped[idx] -= 2 * h
            down = rebuild(bumped)
            assert (up - down) / (2 * h) == pytest.approx(grad[idx], abs=1e-6)


# ---------------------------------------------------------------------------
# Training sample construction
# ---------------------------------------------------------------------------


def _two_frame_fixture():
    tr = synth_tracklet(SynthSpec(n_frames=2, points_on_object=50, n_clutter=60,
                                  velocity=(0.6, 0.2, 0.0), yaw_rate=0.05), seed=5)
    (prev_cloud, prev_box), (cur_cloud, cur_box) = tr.frames
    return prev_cloud, prev_box, cur_cloud, cur_box


def test_training_sample_is_canonical_and_deterministic():
    prev_cloud, prev_box, cur_cloud, cur_box = _two_frame_fixture()
    ref = distort_box(prev_box, 0.3, np.random.default_rng(7))
    sample = build_training_sample(prev_cloud, prev_box, cur_cloud, cur_box,
                                   np.random.default_rng(7))
    expect_t = to_box_frame(crop_template(prev_cloud, ref, 0.1).coords, ref)
    np.testing.assert_array_equal(sample.template_xyz, expect_t)
    np.testing.assert_allclose(sample.gt_canonical.as_array7(),
                               box_to_frame(cur_box, ref).as_array7())
    again = build_training_sample(prev_cloud, prev_box, cur_cloud, cur_box,
                                  np.random.default_rng(7))
    np.testing.assert_array_equal(sample.search_xyz, again.search_xyz)


def test_training_sample_search_is_cropped_region():
    prev_cloud, prev_box, cur_cloud, cur_box = _two_frame_fixture()
    sample = build_training_sample(prev_cloud, prev_box, cur_cloud, cur_box,
                                   np.random.default_rng(7), search_margin_m=2.0)
    assert 0 < sample.search_xyz.shape[0] < cur_cloud.n
    assert points_in_box(sample.search_xyz,
                         Box3D((0, 0, 0), np.asarray(prev_box.size) + 4.5, 0.0)).all()


def test_training_sample_none_when_object_leaves_region():
    prev_cloud, prev_box, _, cur_box = _two_frame_fixture()
    far_cloud = PointCloud(prev_cloud.coords + 500.0)
    assert build_training_sample(prev_cloud, prev_box, far_cloud, cur_box,
                                 np.random.default_rng(0)) is None


def test_training_sample_falls_back_to_undistorted_box():
    prev_box = Box3D((0.0, 0.0, 0.0), (0.2, 0.2, 0.2), 0.0)
    cur_box = Box3D((0.1, 0.0, 0.0), (0.2, 0.2, 0.2), 0.0)
    cloud = PointCloud(np.zeros((5, 3)))
    seed = next(s for s in range(100)
                if crop_template(cloud, distort_box(prev_box, 5.0,
                                                    np.random.default_rng(s)), 0.1).n == 0)
    sample = build_training_sample(cloud, prev_box, cloud, cur_box,
                                   np.random.default_rng(seed), distort_range_m=5.0)
    np.testing.assert_allclose(sample.gt_canonical.as_array7(),
                               box_to_frame(cur_box, prev_box).as_array7())
    assert sample.template_xyz.shape == (5, 3)


def test_training_pairs_order_and_count():
    tr3 = synth_tracklet(SynthSpec(n_frames=3, points_on_object=10, n_clutter=0), seed=1)
    tr2 = synth_tracklet(SynthSpec(n_frames=2, points_on_object=10, n_clutter=0), seed=2)
    pairs = training_pairs([tr3, tr2])
    assert len(pairs) == 3
    assert pairs[0][1] is tr3.frames[1]
    assert pairs[2][0] is tr2.frames[0]


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def test_one_tracklet_loss_decreases():
    cfg = config_for_profile("tiny")
    cfg.epochs = 3
    cfg.seed = 4
    tr = synth_tracklet(SynthSpec(n_frames=3, points_on_object=40, n_clutter=30,
                                  velocity=(0.3, 0.0, 0.0)), seed=9)
    model = TrackerModel(cfg)
    history = train([tr], model, cfg)
    assert len(history) == 3
    assert set(history[0]) == {"epoch", "lr", "total", "cls_coarse", "reg_coarse",
                               "cls_refine", "reg_refine"}
    assert history[-1]["total"] < history[0]["total"]


def test_training_is_reproducible():
    cfg = config_for_profile("tiny")
    cfg.epochs = 2
    tr = synth_tracklet(SynthSpec(n_frames=3, points_on_object=30, n_clutter=20), seed=3)
    runs = []
    for _ in range(2):
        model = TrackerModel(cfg)
        runs.append(train([tr], model, cfg))
    assert runs[0] == runs[1]


def test_train_requires_pairs():
    cfg = config_for_profile("tiny")
    tr = synth_tracklet(SynthSpec(n_frames=1, points_on_object=10, n_clutter=0), seed=0)
    model = TrackerModel(cfg)
    with pytest.raises(ValueError, match="pairs"):
        train([tr], model, cfg)


# ---------------------------------------------------------------------------
# Tracking loop
# ---------------------------------------------------------------------------


def test_oracle_tracking_is_exact_on_static_object():
    tr = synth_tracklet(SynthSpec(n_frames=6, points_on_object=40, n_clutter=50,
                                  velocity=(0.0, 0.0, 0.0)), seed=21)
    frames = [c for c, _ in tr.frames]
    gt = [b for _, b in tr.frames]
    boxes, reasons = track_sequence(frames, gt[0], OracleModel(gt),
                                    np.random.default_rng(0))
    assert reasons == [None] * 6
    for pred, truth in zip(boxes, gt):
        assert box_iou_3d(pred, truth) > 1.0 - 1e-9


def test_oracle_tracking_follows_moving_object():
    tr = synth_tracklet(SynthSpec(n_frames=8, points_on_object=40, n_clutter=50,
                                  velocity=(0.5, -0.2, 0.0), yaw_rate=0.1), seed=22)
    frames = [c for c, _ in tr.frames]
    gt = [b for _, b in tr.frames]
    boxes, _ = track_sequence(frames, gt[0], OracleModel(gt), np.random.default_rng(0))
    for pred, truth in zip(boxes[1:], gt[1:]):
        assert box_iou_3d(pred, truth) > 1.0 - 1e-9


def test_single_frame_returns_initial_box():
    tr = synth_tracklet(SynthSpec(n_frames=1, points_on_object=20, n_clutter=10), seed=2)
    frames = [tr.frames[0][0]]
    init = tr.frames[0][1]
    boxes, reasons = track_sequence(frames, init, OracleModel([init]),
                                    np.random.default_rng(0))
    assert boxes == [init] and reasons == [None]


def test_empty_search_crop_is_flagged():
    init = Box3D((0.0, 0.0, 0.0), (2.0, 2.0, 2.0), 0.0)
    near = PointCloud(np.random.default_rng(0).uniform(-1, 1, size=(30, 3)))
    far = PointCloud(near.coords + 300.0)
    boxes, reasons = track_sequence([near, far, near], init,
                                    OracleModel([init, init, init]),
                                    np.random.default_rng(0))
    assert reasons == [None, "empty_search", None]
    np.testing.assert_array_equal(boxes[1].as_array7(), init.as_array7())


class _NonFiniteOnFrame(OracleModel):
    """The oracle, except that one frame's prediction has a NaN in one column."""

    def __init__(self, gt_boxes, frame, column):
        super().__init__(gt_boxes)
        self.frame, self.column = frame, column

    def predict_canonical(self, template_xyz, search_xyz, ref_box, frame_index, rng):
        pred, seeds = super().predict_canonical(template_xyz, search_xyz, ref_box,
                                                frame_index, rng)
        if frame_index == self.frame:
            pred.reg[0, self.column] = np.nan
        return pred, seeds


@pytest.mark.parametrize("column", [0, 3], ids=["center", "yaw"])
def test_non_finite_prediction_holds_previous_box(column):
    """A NaN prediction re-emits the previous box and says why; the
    tracklet goes on and the frames after it are tracked again."""
    tr = synth_tracklet(SynthSpec(n_frames=5, points_on_object=40, n_clutter=50,
                                  velocity=(0.1, 0.0, 0.0), yaw_rate=0.05), seed=23)
    frames = [c for c, _ in tr.frames]
    gt = [b for _, b in tr.frames]
    boxes, reasons = track_sequence(frames, gt[0], _NonFiniteOnFrame(gt, 2, column),
                                    np.random.default_rng(0))
    assert reasons == [None, None, "non_finite", None, None]
    np.testing.assert_array_equal(boxes[2].as_array7(), boxes[1].as_array7())
    for i in (1, 3, 4):
        assert box_iou_3d(boxes[i], gt[i]) > 1.0 - 1e-9
    report = evaluate([tr], _NonFiniteOnFrame(gt, 2, column))
    assert not report.failures
    assert report.average["success"] > 90.0


def test_tracked_boxes_keep_initial_size():
    tr = synth_tracklet(SynthSpec(n_frames=5, points_on_object=30, n_clutter=20,
                                  velocity=(0.4, 0.1, 0.0)), seed=13)
    frames = [c for c, _ in tr.frames]
    gt = [b for _, b in tr.frames]
    boxes, _ = track_sequence(frames, gt[0], OracleModel(gt), np.random.default_rng(1))
    for b in boxes:
        np.testing.assert_array_equal(b.size, gt[0].size)


def test_empty_initial_template_rejected():
    init = Box3D((50.0, 50.0, 50.0), (2.0, 2.0, 2.0), 0.0)
    cloud = PointCloud(np.zeros((4, 3)))
    with pytest.raises(ValueError, match="template"):
        track_sequence([cloud, cloud], init, OracleModel([init, init]),
                       np.random.default_rng(0))


def test_real_model_runs_through_loop():
    cfg = config_for_profile("tiny")
    tr = synth_tracklet(SynthSpec(n_frames=3, points_on_object=40, n_clutter=30),
                        seed=17)
    frames = [c for c, _ in tr.frames]
    init = tr.frames[0][1]
    model = TrackerModel(cfg)
    boxes, reasons = track_sequence(frames, init, model, np.random.default_rng(5))
    assert len(boxes) == 3 and reasons == [None] * 3
    for b in boxes:
        np.testing.assert_array_equal(b.size, init.size)
