"""Desk-scale single-object tracking in LiDAR-style point clouds.

Pure-NumPy implementation of a template/search tracker: relation-aware
point sampling, a set-abstraction backbone, relation attention for
template-search matching, coarse and refined box prediction heads, and the
training and evaluation loops around them — with hand-written gradients
throughout.
"""

from .config import (
    ABLATIONS,
    PROFILES,
    RunConfig,
    apply_ablation,
    apply_overrides,
    build_model,
    config_for_profile,
    load_config,
    save_config,
)
from .evaldata import (
    EvalReport,
    SynthSpec,
    Tracklet,
    build_tracklets,
    evaluate,
    load_dataset,
    load_tracklet,
    precision_metric,
    save_dataset,
    save_tracklet,
    success_metric,
    synth_tracklet,
)
from .geometry import Box3D, PointCloud, box_iou_3d, points_in_box, wrap_angle
from .model import TrackerModel
from .pipeline import OracleModel, track_sequence, train

__version__ = "0.1.0"

__all__ = [
    "ABLATIONS",
    "Box3D",
    "EvalReport",
    "OracleModel",
    "PROFILES",
    "PointCloud",
    "RunConfig",
    "SynthSpec",
    "Tracklet",
    "TrackerModel",
    "apply_ablation",
    "apply_overrides",
    "box_iou_3d",
    "build_model",
    "build_tracklets",
    "config_for_profile",
    "evaluate",
    "load_config",
    "load_dataset",
    "load_tracklet",
    "points_in_box",
    "precision_metric",
    "save_config",
    "save_dataset",
    "save_tracklet",
    "success_metric",
    "synth_tracklet",
    "track_sequence",
    "train",
    "wrap_angle",
]
