"""Span tracing of pctrack's layers, installed from outside the package.

Every target below is replaced by a wrapper that records one span per call:
name, start, end, parent span and the step (frame or training sample) it
belongs to. Spans stay in memory until the run ends. ``from .x import y``
copies a function into the importing module, so a module-level function is
re-bound in every pctrack module that holds it; methods are patched once on
their class. ``uninstall`` puts every original back.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (span name, defining module, attribute). Several attributes may share one
# span name: the three loss-side helpers are booked together as the loss.
TARGETS = (
    ("evaldata.evaluate", "pctrack.evaldata", "evaluate"),
    ("pipeline.track_sequence", "pctrack.pipeline", "track_sequence"),
    ("pipeline.build_training_sample", "pctrack.pipeline", "build_training_sample"),
    ("pipeline.loss", "pctrack.pipeline", "make_targets"),
    ("pipeline.loss", "pctrack.pipeline", "total_loss_forward"),
    ("pipeline.loss", "pctrack.pipeline", "total_loss_backward"),
    ("numeric.Adam.step", "pctrack.numeric", "Adam.step"),
    ("model.TrackerModel.forward", "pctrack.model", "TrackerModel.forward"),
    ("model.TrackerModel.backward", "pctrack.model", "TrackerModel.backward"),
    ("backbone.Backbone.forward", "pctrack.backbone", "Backbone.forward"),
    ("backbone.Backbone.backward", "pctrack.backbone", "Backbone.backward"),
    ("backbone.SetAbstraction.forward", "pctrack.backbone", "SetAbstraction.forward"),
    ("backbone.SetAbstraction.backward", "pctrack.backbone", "SetAbstraction.backward"),
    ("sampling.sample_dfps", "pctrack.sampling", "sample_dfps"),
    ("sampling.sample_hybrid", "pctrack.sampling", "sample_hybrid"),
    ("sampling.sample_ras", "pctrack.sampling", "sample_ras"),
    ("sampling.ras_scores", "pctrack.sampling", "ras_scores"),
    ("geometry.ball_query_padded", "pctrack.geometry", "ball_query_padded"),
    ("geometry.points_in_box", "pctrack.geometry", "points_in_box"),
    ("geometry.crop_template", "pctrack.geometry", "crop_template"),
    ("geometry.box_iou_3d", "pctrack.geometry", "box_iou_3d"),
    ("attention.PointRelationTransformer.forward", "pctrack.attention",
     "PointRelationTransformer.forward"),
    ("attention.PointRelationTransformer.backward", "pctrack.attention",
     "PointRelationTransformer.backward"),
    ("heads.coarse_forward", "pctrack.heads", "Heads.coarse_forward"),
    ("heads.coarse_backward", "pctrack.heads", "Heads.coarse_backward"),
    ("heads.refine_forward", "pctrack.heads", "Heads.refine_forward"),
    ("heads.refine_backward", "pctrack.heads", "Heads.refine_backward"),
    ("heads.local_pool_forward", "pctrack.heads", "local_pool_forward"),
    ("heads.local_pool_backward", "pctrack.heads", "local_pool_backward"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))
ROOT = "trace.root"
STEP_SPAN = "model.TrackerModel.forward"   # one call per frame or per sample

# Spans that only training reaches, and spans that only tracking reaches
# (the train workload traces its training loop alone). Every other span must
# be called on every workload.
TRAIN_ONLY = frozenset({
    "backbone.SetAbstraction.backward", "backbone.Backbone.backward",
    "model.TrackerModel.backward", "attention.PointRelationTransformer.backward",
    "heads.coarse_backward", "heads.refine_backward", "heads.local_pool_backward",
    "numeric.Adam.step", "pipeline.build_training_sample", "pipeline.loss",
})
TRACK_ONLY = frozenset({"evaldata.evaluate", "pipeline.track_sequence",
                        "geometry.box_iou_3d"})

# Per-layer self times plus the root span's own self time must cover the
# wall time measured around the traced loops to within this share.
SUM_TOLERANCE = 0.01

_SAMPLERS = ("sampling.sample_dfps", "sampling.sample_hybrid", "sampling.sample_ras")


def _observe(tracer, name: str, parent: str, result):
    """Counters taken from a layer's return value at its own boundary."""
    c = tracer.counters
    if name == "geometry.ball_query_padded" and parent == "backbone.SetAbstraction.forward":
        idx, counts = result
        c["sa_neighbors"] += int(counts.sum())
        c["sa_slots"] += idx.size
    elif name == "heads.local_pool_forward":
        idx, counts = result[2]
        c["pool_neighbors"] += int(counts.sum())
        c["pool_slots"] += idx.size
    elif name in _SAMPLERS and parent == "backbone.Backbone.forward":
        c["selections"] += 1
        c["padded"] += bool(result.padded)
    elif name == "pipeline.build_training_sample":
        c["samples_skipped"] += result is None


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.step: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._step = -1
        self.wall_s = 0.0     # measured around the root spans by the caller
        self._patches: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- spans

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        # A step begins with its first action: building the training pair,
        # or cropping the search region of the next frame.
        if name == "pipeline.build_training_sample" or (
                name == "geometry.points_in_box" and parent >= 0
                and self.names[parent] == "pipeline.track_sequence"):
            self._step += 1
        i = len(self.names)
        self.names.append(name)
        self.parent.append(parent)
        self.step.append(self._step)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self):
        i = self.open(ROOT)
        try:
            yield
        finally:
            self.close(i)

    # -------------------------------------------------------------- patching

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            i = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            p = tracer.parent[i]
            _observe(tracer, name, tracer.names[p] if p >= 0 else "", result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "pctrack" or n.startswith("pctrack.")]
        for name, modname, attr in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        while self._patches:
            holder, key, orig = self._patches.pop()
            setattr(holder, key, orig)

    # -------------------------------------------------------------- results

    def self_times(self) -> np.ndarray:
        """Span duration minus the time covered by its direct children (s)."""
        start = np.asarray(self.start)
        dur = np.asarray(self.end) - start
        parent = np.asarray(self.parent, dtype=np.int64)
        covered = np.zeros_like(dur)
        child = parent >= 0
        np.add.at(covered, parent[child], dur[child])
        return dur - covered

    def summary(self) -> dict:
        """Per-step self time and calls of every span, plus the counters.

        The sum of all self times must match ``wall_s`` within SUM_TOLERANCE.
        """
        selfs = self.self_times()
        names = np.asarray(self.names, dtype=object)
        steps = int(np.count_nonzero(names == STEP_SPAN))
        per = 1.0 / max(steps, 1)
        out: dict = {"steps": steps, "ms": {}, "calls": {}}
        for name in (*SPAN_NAMES, ROOT):
            mask = names == name
            out["ms"][name] = float(selfs[mask].sum()) * 1e3 * per
            out["calls"][name] = int(np.count_nonzero(mask))
        c = self.counters
        out["sa_neighbor_fill"] = c["sa_neighbors"] / max(c["sa_slots"], 1)
        out["pool_neighbor_fill"] = c["pool_neighbors"] / max(c["pool_slots"], 1)
        out["padded_share"] = c["padded"] / max(c["selections"], 1)
        out["samples_skipped"] = int(c["samples_skipped"])
        total = float(selfs.sum())
        out["self_sum_s"] = total
        out["wall_s"] = self.wall_s
        out["sum_ok"] = abs(total - self.wall_s) <= SUM_TOLERANCE * self.wall_s
        return out

    def write(self, path):
        """All spans as JSON lines: name, start, end (s), parent index, step."""
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({"i": i, "name": name, "start": self.start[i],
                                     "end": self.end[i], "parent": self.parent[i],
                                     "step": self.step[i]}) + "\n")


def coverage_problems(workload: str, calls: dict[str, int]) -> list[str]:
    """Spans that were not called where they must be, or called where they must not."""
    training = workload == "train"
    problems = []
    for name in SPAN_NAMES:
        must_run = (name not in TRACK_ONLY) if training else (name not in TRAIN_ONLY)
        if must_run and calls[name] == 0:
            problems.append(f"{name} never called on {workload}")
        if not must_run and calls[name] != 0:
            problems.append(f"{name} called {calls[name]} times on {workload}")
    return problems
