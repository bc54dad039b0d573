import dataclasses
import inspect
import json

import numpy as np
import pytest

from pctrack.config import RunConfig
from pctrack.evaldata import (
    EvalReport,
    SynthSpec,
    Tracklet,
    build_tracklets,
    evaluate,
    load_annotated_scenes,
    load_dataset,
    load_tracklet,
    precision_metric,
    save_dataset,
    save_tracklet,
    success_metric,
    synth_tracklet,
    track_tracklet,
    _write_cloud_bin,
)
from pctrack.geometry import Box3D, PointCloud, points_in_box
from pctrack.heads import Prediction
from pctrack.pipeline import OracleModel, build_training_sample, track_sequence


class StayPutModel:
    """Emits the reference pose unchanged; exact for static objects."""

    def predict_canonical(self, template_xyz, search_xyz, ref_box, frame_index, rng):
        return (Prediction(cls_logits=np.array([[1.0]]),
                           reg=np.zeros((1, 4))),
                np.zeros((1, 3)))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def test_success_is_mean_overlap_times_100():
    assert success_metric([0.2, 0.5, 0.9]) == pytest.approx(160.0 / 3.0, abs=1e-9)
    assert success_metric([1.0, 1.0]) == pytest.approx(100.0, abs=1e-9)
    assert success_metric([0.0]) == pytest.approx(0.0, abs=1e-9)


def test_success_two_forms_agree_on_random_overlaps():
    ious = np.random.default_rng(0).uniform(0.0, 1.0, size=200)
    thresholds = np.linspace(0.0, 1.0, 1001)
    auc = np.trapezoid((ious[None, :] >= thresholds[:, None]).mean(axis=1), thresholds)
    assert success_metric(ious) == pytest.approx(float(auc) * 100.0, abs=0.1)


def test_precision_exact_one_meter_errors():
    # Step curve jumps at tau = 1.0; trapezoidal area is 1.005, scale 50.25.
    assert precision_metric([1.0] * 7) == pytest.approx(50.25, abs=1e-9)
    assert abs(precision_metric([1.0] * 7) - 50.0) < 0.5


def test_precision_extremes():
    assert precision_metric([0.0, 0.0]) == pytest.approx(100.0, abs=1e-9)
    assert precision_metric([5.0]) == pytest.approx(0.0, abs=1e-9)


def test_metrics_reject_empty_and_bad_inputs():
    with pytest.raises(ValueError):
        success_metric([])
    with pytest.raises(ValueError):
        precision_metric([])
    with pytest.raises(ValueError):
        precision_metric([-0.1])


# ---------------------------------------------------------------------------
# Tracklet construction rules
# ---------------------------------------------------------------------------


def _dense_cloud_at(center, n=30, seed=0):
    rng = np.random.default_rng(seed)
    return np.asarray(center) + rng.uniform(-0.4, 0.4, size=(n, 3))


def _scene(frame_idx, objects):
    """objects: list of (object_id, label, center, dense?)"""
    chunks = [np.array([[90.0, 90.0, 0.0]])]  # background so clouds are never empty
    annotations = []
    for obj, label, center, dense in objects:
        if dense:
            chunks.append(_dense_cloud_at(center, n=30, seed=frame_idx))
        else:
            chunks.append(_dense_cloud_at(center, n=4, seed=frame_idx))
        annotations.append({"object_id": obj, "label": label,
                            "box": [*center, 1.0, 1.0, 1.0, 0.0]})
    return PointCloud(np.vstack(chunks)), annotations


def test_sparse_frame_splits_and_short_runs_drop():
    # Object a: dense on frames 0-2 and 4-5, sparse on 3 -> one kept run of 3.
    scenes = []
    for i in range(6):
        scenes.append(_scene(i, [("a", "car", (float(i), 0.0, 0.0), i != 3)]))
    tracklets = build_tracklets(scenes, min_points=10, min_len=3)
    assert len(tracklets) == 1
    assert tracklets[0].object_id == "a"
    assert tracklets[0].n_frames == 3
    np.testing.assert_allclose(tracklets[0].frames[0][1].center, [0.0, 0.0, 0.0])
    np.testing.assert_allclose(tracklets[0].frames[2][1].center, [2.0, 0.0, 0.0])


def test_annotation_gap_splits_runs():
    scenes = []
    for i in range(7):
        objs = [] if i == 3 else [("a", "car", (float(i), 0.0, 0.0), True)]
        scenes.append(_scene(i, objs))
    tracklets = build_tracklets(scenes)
    assert [t.n_frames for t in tracklets] == [3, 3]


def test_boundary_lengths_are_strict():
    # Exactly min_len frames survive; min_points points count as dense.
    scenes = [_scene(i, [("a", "car", (0.0, 0.0, 0.0), True)]) for i in range(3)]
    assert len(build_tracklets(scenes, min_len=3)) == 1
    assert len(build_tracklets(scenes, min_len=4)) == 0
    box = Box3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 0.0)
    n_inside = int(points_in_box(scenes[0][0], box).sum())
    assert len(build_tracklets(scenes, min_points=n_inside)) == 1
    assert len(build_tracklets(scenes, min_points=n_inside + 1)) == 0


def test_objects_are_separated_and_sorted():
    scenes = [_scene(i, [("b", "truck", (5.0, 5.0, 0.0), True),
                         ("a", "car", (0.0, 0.0, 0.0), True)]) for i in range(3)]
    tracklets = build_tracklets(scenes)
    assert [t.object_id for t in tracklets] == ["a", "b"]
    assert [t.label for t in tracklets] == ["car", "truck"]


def test_malformed_annotation_names_frame_and_object():
    scenes = [_scene(0, [("a", "car", (0.0, 0.0, 0.0), True)])]
    scenes[0][1].append({"object_id": "bad", "label": "car", "box": [1.0, 2.0]})
    with pytest.raises(ValueError, match="frame 0.*bad"):
        build_tracklets(scenes)


def test_label_flip_and_duplicate_rejected():
    s0 = _scene(0, [("a", "car", (0.0, 0.0, 0.0), True)])
    s1 = _scene(1, [("a", "truck", (0.0, 0.0, 0.0), True)])
    with pytest.raises(ValueError, match="changes label"):
        build_tracklets([s0, s1])
    dup = _scene(0, [("a", "car", (0.0, 0.0, 0.0), True),
                     ("a", "car", (0.1, 0.0, 0.0), True)])
    with pytest.raises(ValueError, match="twice"):
        build_tracklets([dup])


def test_tracklet_needs_frames():
    with pytest.raises(ValueError):
        Tracklet(object_id="x", label="car", frames=[])


# ---------------------------------------------------------------------------
# Synthetic generator
# ---------------------------------------------------------------------------


def test_synth_is_deterministic():
    a = synth_tracklet(SynthSpec(n_frames=4), seed=7)
    b = synth_tracklet(SynthSpec(n_frames=4), seed=7)
    for (ca, ba), (cb, bb) in zip(a.frames, b.frames):
        np.testing.assert_array_equal(ca.coords, cb.coords)
        np.testing.assert_array_equal(ba.as_array7(), bb.as_array7())
    c = synth_tracklet(SynthSpec(n_frames=4), seed=8)
    assert not np.array_equal(a.frames[0][0].coords, c.frames[0][0].coords)


def test_synth_box_always_contains_object_points():
    spec = SynthSpec(n_frames=5, points_on_object=60, noise_sigma=0.05,
                     velocity=(0.7, 0.3, 0.0), yaw_rate=0.2, n_clutter=80)
    tr = synth_tracklet(spec, seed=3)
    for cloud, box in tr.frames:
        assert int(points_in_box(cloud, box).sum()) >= spec.points_on_object


def test_synth_clutter_stays_outside_every_box():
    spec = SynthSpec(n_frames=5, points_on_object=20, n_clutter=150,
                     clutter_span=6.0, velocity=(0.5, 0.0, 0.0))
    tr = synth_tracklet(spec, seed=11)
    for cloud, _ in tr.frames:
        for _, box in tr.frames:
            # only the object's own points may be inside any frame's box
            assert int(points_in_box(cloud, box).sum()) <= spec.points_on_object


def test_synth_static_noiseless_frames_identical():
    spec = SynthSpec(n_frames=3, velocity=(0.0, 0.0, 0.0), yaw_rate=0.0,
                     noise_sigma=0.0)
    tr = synth_tracklet(spec, seed=5)
    base = tr.frames[0][0].coords
    for cloud, box in tr.frames[1:]:
        np.testing.assert_array_equal(cloud.coords, base)
        np.testing.assert_array_equal(box.as_array7(), tr.frames[0][1].as_array7())


def test_synth_motion_advances_boxes():
    spec = SynthSpec(n_frames=4, velocity=(0.5, -0.25, 0.0), yaw_rate=0.1)
    tr = synth_tracklet(spec, seed=1)
    for i, (_, box) in enumerate(tr.frames):
        np.testing.assert_allclose(
            box.center, np.asarray(spec.start_center) + np.asarray(spec.velocity) * i)
        assert box.yaw == pytest.approx(spec.start_yaw + spec.yaw_rate * i)


def test_synth_distractors_add_points():
    plain = synth_tracklet(SynthSpec(n_frames=2, n_distractors=0), seed=4)
    crowded = synth_tracklet(SynthSpec(n_frames=2, n_distractors=3), seed=4)
    extra = crowded.frames[0][0].n - plain.frames[0][0].n
    assert extra == 3 * SynthSpec().points_on_object


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _static_tracklet(label, seed, object_id):
    return synth_tracklet(
        SynthSpec(n_frames=4, points_on_object=30, n_clutter=20,
                  velocity=(0.0, 0.0, 0.0), label=label, object_id=object_id),
        seed=seed)


def test_oracle_evaluation_scores_perfectly():
    tr = synth_tracklet(SynthSpec(n_frames=5, velocity=(0.4, 0.1, 0.0),
                                  yaw_rate=0.05), seed=6)
    model = OracleModel([b for _, b in tr.frames])
    report = evaluate([tr], model, seed=0)
    assert report.average["success"] == pytest.approx(100.0, abs=1e-6)
    assert report.average["precision"] == pytest.approx(100.0, abs=1e-6)
    assert report.average["frames"] == 4
    assert report.failures == []


def test_per_class_split_and_weighted_average():
    tracklets = [_static_tracklet("car", 1, "c0"),
                 _static_tracklet("car", 2, "c1"),
                 _static_tracklet("cyclist", 3, "y0")]
    report = evaluate(tracklets, StayPutModel(), seed=0)
    assert set(report.per_class) == {"car", "cyclist"}
    assert report.per_class["car"]["frames"] == 6
    assert report.per_class["cyclist"]["frames"] == 3
    assert report.average["frames"] == 9
    total = sum(report.per_class[k]["success"] * report.per_class[k]["frames"]
                for k in report.per_class)
    assert report.average["success"] == pytest.approx(total / 9.0, abs=1e-9)


def _broken_tracklet():
    """Its initial template crop is empty, so tracking it raises."""
    box = Box3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 0.0)
    far = PointCloud(np.full((5, 3), 60.0))
    return Tracklet(object_id="bad", label="car",
                    frames=[(far, box), (far, box), (far, box)])


def test_failed_tracklet_is_isolated():
    good = _static_tracklet("car", 1, "ok")
    report = evaluate([_broken_tracklet(), good], StayPutModel(), seed=0)
    assert len(report.failures) == 1
    assert report.failures[0]["tracklet"] == 0
    assert "template" in report.failures[0]["error"]
    assert report.average["frames"] == 3


def test_all_failures_raise():
    with pytest.raises(ValueError, match="no tracklet"):
        evaluate([_broken_tracklet()], StayPutModel(), seed=0)
    with pytest.raises(ValueError, match="at least one"):
        evaluate([], StayPutModel(), seed=0)


def test_threaded_evaluation_matches_serial():
    tracklets = [_static_tracklet("car", s, f"c{s}") for s in range(4)]
    tracklets[1:1] = [_broken_tracklet()]
    tracklets[4:4] = [_broken_tracklet()]
    serial = evaluate(tracklets, StayPutModel(), seed=3, threads=1)
    threaded = evaluate(tracklets, StayPutModel(), seed=3, threads=3)
    assert serial.to_dict() == threaded.to_dict()
    assert [f["tracklet"] for f in serial.failures] == [1, 4]


def test_protocol_defaults_come_from_run_config():
    field_of = {"extend_ratio": "template_extend_ratio",
                "margin_m": "search_margin_m",
                "search_margin_m": "search_margin_m",
                "distort_range_m": "distort_range_m"}
    expected = {
        build_training_sample: {"extend_ratio", "distort_range_m", "search_margin_m"},
        track_sequence: {"extend_ratio", "margin_m"},
        track_tracklet: {"extend_ratio", "margin_m"},
        evaluate: {"extend_ratio", "margin_m"},
    }
    defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    for fn, names in expected.items():
        params = inspect.signature(fn).parameters
        assert set(params) & set(field_of) == names, fn.__name__
        for name in names:
            assert params[name].default == defaults[field_of[name]], (fn.__name__, name)


class CropRecorder(OracleModel):
    """Oracle that records the size of every search crop it is handed."""

    def __init__(self, gt_boxes):
        super().__init__(gt_boxes)
        self.search_sizes = []

    def predict_canonical(self, template_xyz, search_xyz, ref_box, frame_index, rng):
        self.search_sizes.append(search_xyz.shape[0])
        return super().predict_canonical(template_xyz, search_xyz, ref_box,
                                         frame_index, rng)


def test_evaluate_honours_search_margin():
    tr = synth_tracklet(SynthSpec(n_frames=5, velocity=(0.4, 0.1, 0.0)), seed=6)
    gt = [b for _, b in tr.frames]
    sizes = {}
    for margin in (2.0, 0.3):
        model = CropRecorder(gt)
        evaluate([tr], model, seed=0, margin_m=margin)
        sizes[margin] = model.search_sizes
    default = CropRecorder(gt)
    evaluate([tr], default, seed=0)
    assert default.search_sizes == sizes[2.0]
    assert len(sizes[0.3]) == len(sizes[2.0]) == 4
    assert all(a < b for a, b in zip(sizes[0.3], sizes[2.0]))


def test_report_serializes():
    tr = _static_tracklet("car", 1, "c0")
    report = evaluate([tr], StayPutModel(), seed=0)
    round_tripped = json.loads(json.dumps(report.to_dict()))
    assert round_tripped["average"]["success"] == report.average["success"]
    assert isinstance(report, EvalReport)


# ---------------------------------------------------------------------------
# Disk formats
# ---------------------------------------------------------------------------


def test_tracklet_roundtrip(tmp_path):
    tr = synth_tracklet(SynthSpec(n_frames=3, points_on_object=25, n_clutter=15),
                        seed=9)
    save_tracklet(tmp_path / "t0", tr)
    loaded = load_tracklet(tmp_path / "t0")
    assert loaded.object_id == tr.object_id and loaded.label == tr.label
    for (lc, lb), (oc, ob) in zip(loaded.frames, tr.frames):
        np.testing.assert_array_equal(lc.coords, oc.coords.astype("<f4").astype(float))
        np.testing.assert_array_equal(lb.as_array7(), ob.as_array7())


def test_dataset_roundtrip_preserves_order(tmp_path):
    tracklets = [_static_tracklet("car", s, f"c{s}") for s in range(3)]
    save_dataset(tmp_path / "ds", tracklets)
    loaded = load_dataset(tmp_path / "ds")
    assert [t.object_id for t in loaded] == ["c0", "c1", "c2"]


def test_empty_dataset_dir_rejected(tmp_path):
    (tmp_path / "ds").mkdir()
    with pytest.raises(ValueError, match="no tracklet"):
        load_dataset(tmp_path / "ds")


def test_truncated_frame_file_rejected(tmp_path):
    tr = _static_tracklet("car", 1, "c0")
    save_tracklet(tmp_path / "t0", tr)
    victim = tmp_path / "t0" / "frame_0001.bin"
    victim.write_bytes(victim.read_bytes()[:-5])
    with pytest.raises(ValueError, match="bytes"):
        load_tracklet(tmp_path / "t0")


def test_frame_count_mismatch_rejected(tmp_path):
    tr = _static_tracklet("car", 1, "c0")
    save_tracklet(tmp_path / "t0", tr)
    meta_path = tmp_path / "t0" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["n_frames"] = 7
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="mismatch"):
        load_tracklet(tmp_path / "t0")


def test_annotated_scene_loader(tmp_path):
    coords = np.array([[0.0, 0.0, 0.0], [0.25, -0.5, 1.0]])
    _write_cloud_bin(tmp_path / "scan0.bin", coords)
    record = {"cloud": "scan0.bin",
              "annotations": [{"object_id": "a", "label": "car",
                               "box": [0, 0, 0, 1, 1, 1, 0]}]}
    (tmp_path / "scenes.jsonl").write_text(json.dumps(record) + "\n\n")
    scenes = load_annotated_scenes(tmp_path / "scenes.jsonl")
    assert len(scenes) == 1
    np.testing.assert_array_equal(scenes[0][0].coords, coords)
    assert scenes[0][1][0]["object_id"] == "a"


def test_annotated_scene_loader_reports_bad_lines(tmp_path):
    (tmp_path / "scenes.jsonl").write_text('{"cloud": "missing.bin", "annotations": []}\n')
    with pytest.raises(ValueError, match="scenes.jsonl:1"):
        load_annotated_scenes(tmp_path / "scenes.jsonl")
    (tmp_path / "bad.jsonl").write_text("not json\n")
    with pytest.raises(ValueError, match="bad.jsonl:1"):
        load_annotated_scenes(tmp_path / "bad.jsonl")


def test_every_truncated_cloud_bin_is_a_value_error(tmp_path):
    """Fuzz: each proper prefix of a cloud file, in both readers."""
    full = tmp_path / "scan0.bin"
    _write_cloud_bin(full, np.arange(9.0).reshape(3, 3))
    raw = full.read_bytes()
    record = json.dumps({"cloud": "cut.bin", "annotations": []}) + "\n"
    (tmp_path / "scenes.jsonl").write_text(record)
    tr = _static_tracklet("car", 1, "c0")
    save_tracklet(tmp_path / "t0", tr)
    frame = tmp_path / "t0" / "frame_0000.bin"
    frame_raw = frame.read_bytes()
    for cut in range(len(raw)):
        (tmp_path / "cut.bin").write_bytes(raw[:cut])
        with pytest.raises(ValueError, match="scenes.jsonl:1"):
            load_annotated_scenes(tmp_path / "scenes.jsonl")
    for cut in range(len(frame_raw)):
        frame.write_bytes(frame_raw[:cut])
        with pytest.raises(ValueError, match="frame_0000.bin"):
            load_tracklet(tmp_path / "t0")


def test_scenes_to_dataset_end_to_end(tmp_path):
    scenes = [_scene_for_e2e(i) for i in range(4)]
    tracklets = build_tracklets(scenes)
    assert len(tracklets) == 1
    save_dataset(tmp_path / "ds", tracklets)
    loaded = load_dataset(tmp_path / "ds")
    assert loaded[0].n_frames == tracklets[0].n_frames
    for (lc, lb), (oc, ob) in zip(loaded[0].frames, tracklets[0].frames):
        np.testing.assert_array_equal(lb.as_array7(), ob.as_array7())
        assert lc.n == oc.n


def _scene_for_e2e(i):
    rng = np.random.default_rng(100 + i)
    center = np.array([0.2 * i, 0.0, 0.0])
    obj = center + rng.uniform(-0.4, 0.4, size=(20, 3))
    bg = rng.uniform(-8, 8, size=(40, 3))
    ann = [{"object_id": "a", "label": "car",
            "box": [*center, 1.0, 1.0, 1.0, 0.0]}]
    return PointCloud(np.vstack([obj, bg])), ann
