"""Workloads, measurement loop and correctness checks of the benchmark.

Each run makes its inputs from the workload seed and repeats one *pass*
until the time budget is spent: build the scenes and the model (set-up),
then drive the public entry points ``evaldata.evaluate`` and
``pipeline.train`` in this process, single-threaded. Every pass of a run
uses the same seed, so every pass must produce bit-identical network
outputs; that is the determinism check. It also means every pass does the
same frames and samples in the same order, so each frame or sample is timed
once per pass, and its percentiles are taken over its fastest time.

Tracking is anchored to ground truth: the model handed to ``evaluate`` runs
the real ``TrackerModel.predict_canonical`` (timed and checked) and then
returns the oracle's prediction, so the boxes the loop crops around, and
with them the work per frame, depend on the seed alone.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import pctrack
from pctrack import config, evaldata, pipeline
from pctrack.geometry import box_to_frame
from pctrack.model import TrackerModel

import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

# The initial weights are the same for every seed, so that loss_final and
# the work per step vary with the inputs, not with the draw of the weights.
INIT_SEED = 0
MIN_PASSES = 2              # the determinism check compares passes
MIN_BEYOND = 10             # samples a reported percentile must have above it
MAX_WALL_S = 150.0          # stop adding passes here
# Floors for the anchored loop. The canonical-frame round trip leaves
# round-off centre errors on some frames, which only the tau = 0 step of the
# Precision curve sees: with every error below its first non-zero step
# (1 cm), Precision is at least 99.75.
MIN_SUCCESS = 99.95
MIN_PRECISION = 99.75


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str
    overrides: tuple[str, ...]
    tracklets: int
    frames: int               # per tracklet
    object_points: int
    clutter: int
    epochs: int = 0           # training epochs per pass; 0 = tracking only
    held_out: int = 0         # extra tracklets the trained model is evaluated on


# Tracking passes of 14 tracklets x 10 frames give 126 frames and 112 frame
# cycles, training passes 167 step gaps and 112 evaluated frames: at least 110
# each, so that a p90 keeps MIN_BEYOND items above it.
WORKLOADS = {
    # The paper's operating point: fixed-size stages dominate.
    "track": Workload("track", "desk", (), tracklets=14, frames=10,
                      object_points=400, clutter=8000),
    # Same network, ~4.5x the raw input behind the same centroid budget:
    # stages that scale with input size dominate.
    "track-dense": Workload("track-dense", "desk", (), tracklets=14, frames=10,
                            object_points=1500, clutter=40000),
    # The learning-sanity recipe: every layer backwards, small crops.
    "train": Workload("train", "desk-small",
                      ("lr_step_epochs=180", "refine_hidden=128,128,96,96"),
                      tracklets=8, frames=8, object_points=100, clutter=60,
                      epochs=3, held_out=8),
}


def run_config(w: Workload, seed: int) -> config.RunConfig:
    """The workload's config; ``seed`` drives training augmentation and sampling."""
    overrides = [*w.overrides, f"seed={seed}", f"epochs={w.epochs}"]
    return config.apply_overrides(config.config_for_profile(w.profile), overrides)


def make_tracklets(w: Workload, seed: int) -> list:
    """Straight-line tracklets amid static clutter, all drawn from ``seed``.

    The training tracklets come first; the ``held_out`` ones follow them.
    """
    out = []
    for i in range(w.tracklets + w.held_out):
        ss = np.random.SeedSequence([seed, i])
        rng = np.random.default_rng(ss)
        heading = rng.uniform(-np.pi, np.pi)
        spec = evaldata.SynthSpec(
            n_frames=w.frames,
            size=(3.6 + 0.2 * (i % 3), 1.8, 1.5),
            points_on_object=w.object_points,
            start_center=(rng.uniform(-1, 1), rng.uniform(-1, 1), 0.8),
            start_yaw=heading,
            velocity=(0.35 * np.cos(heading), 0.35 * np.sin(heading), 0.0),
            noise_sigma=0.01,
            n_clutter=w.clutter,
            object_id=f"obj-{i:03d}",
        )
        out.append(evaldata.synth_tracklet(spec, int(ss.generate_state(1)[0])))
    return out


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples rank above the nearest-rank q-quantile."""
    return n - max(1, math.ceil(q * n))


def percentile(values, q: float) -> float:
    """Nearest-rank q-quantile of measured values.

    Raises ValueError when fewer than MIN_BEYOND values rank above it,
    because such a tail is too thin to report.
    """
    xs = sorted(values)
    beyond = samples_beyond(len(xs), q)
    if beyond < MIN_BEYOND:
        raise ValueError(f"{len(xs)} samples leave {beyond} beyond the "
                         f"{q:.2f} quantile; need {MIN_BEYOND}")
    return xs[len(xs) - beyond - 1]


def fastest(runs: list[list[float]]) -> list[float]:
    """Each item's fastest time over the passes; item k is the k-th time of a pass.

    Host interference slows whole stretches of a run; the fastest of an
    item's repeats is its cost without it.
    """
    if len({len(r) for r in runs}) != 1:
        raise ValueError(f"passes timed different item counts {[len(r) for r in runs]}")
    return np.min(np.asarray(runs), axis=0).tolist()


# ---------------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------------


@dataclass
class Recorder:
    """What one pass observed at the model boundary."""

    expected_seeds: int
    main_loop: bool = True    # forward calls count as samples only in the main loop
    gaps_ms: list = field(default_factory=list)
    frame_ms: list = field(default_factory=list)
    # Time marks that cut a loop into consecutive pieces: its start, the start
    # of every tracklet and frame (evaluate) or sample (main loop), its end.
    eval_marks: list = field(default_factory=list)
    loop_marks: list = field(default_factory=list)
    predicted: Counter = field(default_factory=Counter)   # frames per tracklet
    outputs: list = field(default_factory=list)
    forwards: int = 0
    bad_outputs: int = 0
    digest: object = field(default_factory=hashlib.sha256)
    _last: float | None = None

    def new_segment(self):
        self._last = None

    def on_forward(self, t: float, out):
        if self.main_loop:
            self.forwards += 1
            if self._last is not None:
                self.gaps_ms.append((t - self._last) * 1e3)
            self._last = t
            self.loop_marks.append(t)
        arrays = [out.seeds, out.coarse.cls_logits, out.coarse.reg]
        if out.refined is not None:
            arrays += [out.refined.cls_logits, out.refined.reg]
        ok = all(a.shape[0] == self.expected_seeds for a in arrays)
        for a in arrays:
            ok = ok and bool(np.isfinite(a).all())
            self.digest.update(np.ascontiguousarray(a).tobytes())
        self.bad_outputs += not ok


@contextmanager
def forward_probe(rec: Recorder):
    """Stamp the start of every TrackerModel.forward and check its output."""
    orig = TrackerModel.__dict__["forward"]

    def forward(self, *args, **kwargs):
        t = time.perf_counter()
        out, cache = orig(self, *args, **kwargs)
        rec.on_forward(t, out)
        return out, cache

    TrackerModel.forward = forward
    try:
        yield
    finally:
        TrackerModel.forward = orig


class AnchoredModel:
    """Runs and times the real network, then steers the loop by ground truth."""

    def __init__(self, net: TrackerModel, index: int, tracklet, rec: Recorder,
                 keep_outputs: bool):
        self.net = net
        self.index = index
        self.gt = [box for _, box in tracklet.frames]
        self.oracle = pipeline.OracleModel(self.gt)
        self.rec = rec
        self.keep_outputs = keep_outputs

    def predict_canonical(self, template_xyz, search_xyz, ref_box, frame_index, rng):
        t0 = time.perf_counter()
        pred, seeds = self.net.predict_canonical(template_xyz, search_xyz, ref_box,
                                                 frame_index, rng)
        self.rec.frame_ms.append((time.perf_counter() - t0) * 1e3)
        self.rec.eval_marks.append(t0)
        self.rec.predicted[self.index] += 1
        if self.keep_outputs:
            self.rec.outputs.append((pred, seeds, box_to_frame(self.gt[frame_index], ref_box)))
        return self.oracle.predict_canonical(template_xyz, search_xyz, ref_box,
                                             frame_index, rng)


@dataclass
class PassResult:
    traced: bool
    setup_s: float
    loop_s: float             # evaluate (track*) or train (train) wall time
    rec: Recorder
    digest: str
    loss_final: float
    frames_attempted: int
    frames_failed: int        # frames of failed tracklets, plus empty-search frames
    empty_frames: int
    samples_attempted: int
    samples_skipped: int
    success: float
    precision: float
    failures: list


def run_pass(w: Workload, seed: int, tracer: tracing.Tracer | None = None) -> PassResult:
    t0 = time.perf_counter()
    cfg = run_config(w, seed)
    scenes = make_tracklets(w, seed)
    tracklets = scenes[:w.tracklets]
    net = config.build_model(dataclasses.replace(cfg, seed=INIT_SEED))
    setup_s = time.perf_counter() - t0

    rec = Recorder(expected_seeds=cfg.sa_search_points[-1])
    training = w.epochs > 0

    def builder(i, tracklet):
        rec.eval_marks.append(time.perf_counter())
        rec.new_segment()
        return AnchoredModel(net, i, tracklet, rec, keep_outputs=not training)

    def evaluate():
        rec.eval_marks.append(time.perf_counter())
        report = evaldata.evaluate(scenes, None, seed=seed, model_builder=builder)
        rec.eval_marks.append(time.perf_counter())
        return report

    def traced(fn):
        if tracer is None:
            return fn()
        tracer.install()
        try:
            t = time.perf_counter()
            with tracer.root():
                result = fn()
            tracer.wall_s += time.perf_counter() - t
            return result
        finally:
            tracer.uninstall()

    history = None
    with forward_probe(rec):
        rec.loop_marks.append(time.perf_counter())
        if training:
            history = traced(lambda: pipeline.train(tracklets, net, cfg))
            rec.loop_marks.append(time.perf_counter())
            rec.main_loop = False
            report = evaluate()
        else:
            report = traced(evaluate)
            rec.loop_marks.append(time.perf_counter())
    loop_s = rec.loop_marks[-1] - rec.loop_marks[0]

    if training:
        loss_final = history[-1]["total"]
    else:
        losses = [pipeline.total_loss_forward(pred, None, pipeline.make_targets(seeds, gt),
                                              cfg.lam)[0]
                  for pred, seeds, gt in rec.outputs]
        loss_final = float(np.mean(losses))
    frames = [tr.n_frames - 1 for tr in scenes]
    failed_ids = {f["tracklet"] for f in report.failures}
    empty = sum(n - rec.predicted[i] for i, n in enumerate(frames) if i not in failed_ids)
    samples = w.epochs * len(pipeline.training_pairs(tracklets))
    return PassResult(
        traced=tracer is not None,
        setup_s=setup_s,
        loop_s=loop_s,
        rec=rec,
        digest=rec.digest.hexdigest(),
        loss_final=float(loss_final),
        frames_attempted=sum(frames),
        frames_failed=sum(frames[i] for i in failed_ids) + empty,
        empty_frames=empty,
        samples_attempted=samples,
        samples_skipped=samples - rec.forwards if training else 0,
        success=report.average["success"],
        precision=report.average["precision"],
        failures=report.failures,
    )


# ---------------------------------------------------------------------------
# A run: passes until the budget is spent, then metrics and checks
# ---------------------------------------------------------------------------


def warm_up(w: Workload, seed: int):
    """One short untimed loop so lazy set-up is done before timing starts."""
    short = dataclasses.replace(w, tracklets=1, frames=3, epochs=min(w.epochs, 1),
                                held_out=min(w.held_out, 1))
    run_pass(short, seed)


def run(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Every metric either mode can report, the checks and the run record."""
    warm_up(w, seed)
    tracer = tracing.Tracer() if trace else None
    passes: list[PassResult] = []
    # Passes take turns on the CPUs the process may use, so a CPU that other
    # work keeps slow for the whole run does not hold every repeat of an item.
    # A traced run keeps each untraced/traced pair on one CPU.
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    per_cpu = 2 if trace else 1
    start = time.perf_counter()
    try:
        while True:
            os.sched_setaffinity(0, {cpus[len(passes) // per_cpu % len(cpus)]})
            # In a traced run, traced and untraced passes alternate: the
            # untraced ones give the baseline for the tracing overhead.
            passes.append(run_pass(w, seed, tracer if trace and len(passes) % 2 else None))
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and len(passes) >= MIN_PASSES) or elapsed >= MAX_WALL_S:
                break
    finally:
        os.sched_setaffinity(0, allowed)
    return _results(w, seed, passes, tracer)


def _e2e(plain: list[PassResult]) -> dict:
    frame_ms = fastest([p.rec.frame_ms for p in plain])
    gaps = fastest([p.rec.gaps_ms for p in plain])
    return {
        # each piece of a loop at its fastest repeat, as for the percentiles
        "fps": plain[0].frames_attempted / sum(fastest([np.diff(p.rec.eval_marks)
                                                         for p in plain])),
        "frame_ms_p50": percentile(frame_ms, 0.5),
        "frame_ms_p90": percentile(frame_ms, 0.9),
        "samples_per_s": plain[0].rec.forwards / sum(fastest([np.diff(p.rec.loop_marks)
                                                               for p in plain])),
        "sample_ms_p50": percentile(gaps, 0.5),
        "sample_ms_p90": percentile(gaps, 0.9),
        "loss_final": plain[-1].loss_final,
        "setup_s": statistics.median(p.setup_s for p in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _per_layer(passes: list[PassResult], tracer: tracing.Tracer) -> tuple[dict, dict]:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    s = tracer.summary()

    def per_step(ps):
        return sum(p.loop_s for p in ps) * 1e3 / max(sum(p.rec.forwards for p in ps), 1)

    m = {f"{name}.ms": s["ms"][name] for name in tracing.SPAN_NAMES}
    steps = max(s["steps"], 1)
    m.update({
        "backbone.SetAbstraction.neighbor_fill": s["sa_neighbor_fill"],
        "heads.local_pool_forward.neighbor_fill": s["pool_neighbor_fill"],
        "geometry.ball_query_padded.calls": s["calls"]["geometry.ball_query_padded"] / steps,
        "sampling.sample_dfps.calls": s["calls"]["sampling.sample_dfps"] / steps,
        "sampling.padded_share": s["padded_share"],
        "pipeline.samples_skipped": s["samples_skipped"],
        "pipeline.empty_search_frames": sum(p.empty_frames for p in traced),
        "trace.root_self.ms": s["ms"][tracing.ROOT],
        "trace.wall.ms": per_step(traced),
        "trace.overhead.ms": per_step(traced) - per_step(plain),
    })
    return m, s


def _results(w: Workload, seed: int, passes: list[PassResult], tracer) -> dict:
    problems: list[str] = []
    ref = passes[0]
    for i, p in enumerate(passes):
        if (p.digest, p.loss_final) != (ref.digest, ref.loss_final):
            problems.append(f"pass {i} differs from pass 0: digest {p.digest[:12]} vs "
                            f"{ref.digest[:12]}, loss_final {p.loss_final!r} vs "
                            f"{ref.loss_final!r}")
        if p.rec.bad_outputs:
            problems.append(f"pass {i}: {p.rec.bad_outputs} non-finite or mis-sized outputs")
        if p.failures:
            problems.append(f"pass {i}: tracklet failures {p.failures}")
        if p.success < MIN_SUCCESS or p.precision < MIN_PRECISION:
            problems.append(f"pass {i}: anchored Success/Precision {p.success:.4f}/"
                            f"{p.precision:.4f} below {MIN_SUCCESS}/{MIN_PRECISION}")
        if not math.isfinite(p.loss_final):
            problems.append(f"pass {i}: loss_final {p.loss_final}")

    attempted = sum(p.frames_attempted + p.samples_attempted for p in passes)
    failed = sum(p.frames_failed + p.samples_skipped + p.rec.bad_outputs for p in passes)
    if failed:
        problems.append(f"{failed} of {attempted} frames and samples failed")

    record = {
        "workload": w.name, "seed": seed, "digest": ref.digest,
        "passes": len(passes), "traced_passes": sum(p.traced for p in passes),
        "frames": sum(len(p.rec.frame_ms) for p in passes),
        "forwards": sum(p.rec.forwards for p in passes),
        # percentile sample counts: distinct frames and frame gaps per pass
        "frame_items": len(ref.rec.frame_ms), "sample_items": len(ref.rec.gaps_ms),
        "success": ref.success, "precision": ref.precision,
        "environment": environment(seed),
    }
    metrics: dict = {}
    if tracer is None:
        try:
            metrics = _e2e(passes)
        except ValueError as e:     # a thin percentile, or passes of unequal length
            problems.append(str(e))
        record["end_to_end"] = metrics
    else:
        layer, summary = _per_layer(passes, tracer)
        metrics.update(layer)
        record["trace"] = {k: summary[k] for k in ("steps", "calls", "self_sum_s",
                                                   "wall_s", "sum_ok")}
        record["trace"]["tolerance"] = tracing.SUM_TOLERANCE
        if not summary["sum_ok"]:
            problems.append(f"self times sum to {summary['self_sum_s']:.6f} s, traced "
                            f"wall time is {summary['wall_s']:.6f} s")
        problems += tracing.coverage_problems(w.name, summary["calls"])
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{w.name}-{seed}.jsonl"
        tracer.write(spans_path)
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
    record["problems"] = problems
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "record": record}


# ---------------------------------------------------------------------------
# Environment record and output
# ---------------------------------------------------------------------------


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def environment(seed: int) -> dict:
    return {
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "pctrack": pctrack.__version__,
        "seed": seed,
    }


def main(workload: str, seed: int, seconds: float, trace: bool) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    res = run(WORKLOADS[workload], seed, seconds, trace)
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in res["metrics"]]
    if missing:
        res["record"]["problems"].append(f"metrics not measured: {missing}")
        res["correct"] = False
    metrics = {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in res["metrics"]}
    print(json.dumps(res["record"]))
    for problem in res["record"]["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if res["correct"] else 1
