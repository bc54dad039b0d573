"""Self-checks: finite-difference gradient checks of every differentiable
block and of the composed network, and brute-force oracles for the
samplers, the ball query, the set-abstraction level, the box IoU and the
metrics.

``pctrack check`` runs both suites; the tests use the same oracles and the
same tiny check model.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .attention import PointRelationTransformer, RelationAttention
from .backbone import SetAbstraction
from .config import RunConfig
from .evaldata import precision_metric, success_metric
from .geometry import Box3D, ball_query_padded, box_iou_3d, pair_sq_dist, points_in_box
from .model import TrackerModel
from .numeric import MLP, grad_check
from .pipeline import make_targets, total_loss_backward, total_loss_forward
from .sampling import SampleSelection, sample_dfps, sample_ffps, sample_ras


@dataclass
class CheckResult:
    name: str
    detail: str
    ok: bool


# A two-level network small enough for a finite-difference pass over every
# parameter.
_TINY_MODEL = {
    "embed_dim": 4,
    "sa_radii": (0.8, 1.2),
    "sa_template_points": (6, 4),
    "sa_search_points": (8, 6),
    "sa_channels": (6, 8),
    "sa_max_neighbors": 4,
    "coarse_hidden": (6, 6),
    "refine_hidden": (8, 6, 6, 6),
}


def tiny_config(**overrides) -> RunConfig:
    """The tiny check model's config, with ``overrides`` applied on top."""
    return dataclasses.replace(RunConfig(), **{**_TINY_MODEL, **overrides}).validate()


# ---------------------------------------------------------------------------
# Gradient suite
# ---------------------------------------------------------------------------


def full_model_gradient_error(training: bool = False, **overrides) -> float:
    """Finite-difference error of the composed tiny network through the loss."""
    model = TrackerModel(tiny_config(seed=8, **overrides), np.float64)
    rng = np.random.default_rng(9)
    coords_t = rng.uniform(-1.0, 1.0, size=(8, 3))
    coords_s = rng.uniform(-2.0, 2.0, size=(10, 3))
    gt = Box3D((0.0, 0.0, 0.0), (2.5, 2.0, 2.0), 0.2)
    holder = {}

    def fn():
        model.zero_grad()
        out, cache = model.forward(coords_t, coords_s, np.random.default_rng(11),
                                   plan=holder.get("plan"), training=training)
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
        y, cache = ram.forward(q, k, k)
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
        y, cache = prt.forward(xs, xt)
        prt.backward(wp, cache)
        return float((wp * y).sum())

    add("point-relation-transformer", grad_check(prt_fn, prt.params()))

    coords = rng.uniform(-1, 1, size=(7, 3))
    feats = rng.normal(size=(7, 4))
    sel = SampleSelection(np.arange(4))
    ws = rng.normal(size=(4, 5))
    for use_bn in (False, True):
        level = SetAbstraction(4, 5, 1.0, 3, np.random.default_rng(3), name="sa",
                               dtype=np.float64, use_bn=use_bn)

        def sa_fn():
            for p in level.params():
                p.zero_grad()
            (_, y), cache = level.forward(coords, feats, sel, training=use_bn)
            level.backward(ws, cache)
            return float((ws * y).sum())

        add("set-abstraction" + ("+batchnorm" if use_bn else ""),
            grad_check(sa_fn, level.params()))

    # The composed model without BN, then with BN everywhere in training
    # mode, batch statistics included.
    for suffix, bn in (("", False), ("+batchnorm-train", True)):
        add("full-model" + suffix, full_model_gradient_error(bn, use_bn=bn))
        add("full-model-cosine" + suffix,
            full_model_gradient_error(bn, use_bn=bn, use_prt=False))
        add("full-model-coarse-only" + suffix,
            full_model_gradient_error(bn, use_bn=bn, use_prm=False))
    return results


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def greedy_fps_oracle(points: np.ndarray, k: int, start: int = 0) -> list[int]:
    """Greedy farthest-point walk from ``start`` as plain scalar loops over
    squared distances, lowest index on ties; min(k, n) indices."""
    n = len(points)
    chosen = [start]
    dist = [float(((points[i] - points[start]) ** 2).sum()) for i in range(n)]
    dist[start] = -1.0
    while len(chosen) < min(k, n):
        best_i, best_d = -1, -1.0
        for i in range(n):
            if dist[i] > best_d:
                best_i, best_d = i, dist[i]
        chosen.append(best_i)
        dist[best_i] = -1.0
        for i in range(n):
            if dist[i] >= 0.0:
                d = float(((points[i] - points[best_i]) ** 2).sum())
                if d < dist[i]:
                    dist[i] = d
    return chosen


def ras_oracle_scores(search_feats: np.ndarray, template_feats: np.ndarray) -> list[float]:
    """Each search row's distance to its nearest template row, from the
    differences to every template row."""
    t = np.asarray(template_feats)
    return [float(np.sqrt(((t - s) ** 2).sum(axis=1)).min()) for s in np.asarray(search_feats)]


def ras_sort_oracle(search_feats: np.ndarray, template_feats: np.ndarray, k: int) -> list[int]:
    """Relation-aware selection by a full pairwise-distance sort: each search
    row scored by its nearest template row, lowest scores first, lowest
    index on ties."""
    v = ras_oracle_scores(search_feats, template_feats)
    return sorted(range(len(v)), key=lambda i: (v[i], i))[:k]


def brute_ball_query(queries, cloud, radius: float, max_k: int) -> list[np.ndarray]:
    """Each query's lowest max_k in-radius cloud indices, every pair's
    ``pair_sq_dist`` compared with ``radius²``: no filter, no GEMM."""
    cloud = np.atleast_2d(cloud)
    return [np.flatnonzero(pair_sq_dist(np.broadcast_to(q, cloud.shape), cloud)
                           <= radius * radius)[:max_k] for q in np.atleast_2d(queries)]


def ball_query_matches(queries, cloud, radius: float, max_k: int) -> bool:
    """``ball_query_padded`` has ``brute_ball_query``'s counts and neighbors,
    and pads each row with its first entry (index 0 when the row is empty)."""
    idx, counts = ball_query_padded(queries, cloud, radius, max_k)
    want = brute_ball_query(queries, cloud, radius, max_k)
    return all(n == len(w) and (row[:n] == w).all() and (row[n:] == row[0]).all()
               for row, n, w in zip(idx, counts, want))


def concat_linear_sa_oracle(level: SetAbstraction, coords: np.ndarray, feats: np.ndarray,
                            selection: SampleSelection) -> np.ndarray:
    """An eval-mode SA level by scalar loops: every slot of the padded
    ball-query grid through the plain Linear of its concatenated row
    [f_j, x_j − c_i], then BN with the running statistics, ReLU, and the
    max over the row's slots."""
    w, b = level.linear.weight.value, level.linear.bias.value
    norm = level.norm
    centroids = coords[selection.indices]
    idx, _ = ball_query_padded(centroids, coords, level.radius, level.max_neighbors)
    out = np.zeros((len(idx), len(b)))   # starting the max at 0 is the ReLU
    for i, row in enumerate(idx):
        for j in row:
            x = [*feats[j], *(coords[j] - centroids[i])]
            for c in range(len(b)):
                z = sum(float(x_t) * float(w_t) for x_t, w_t in zip(x, w[c])) + float(b[c])
                if norm is not None:
                    z = (float(norm.gamma.value[c]) * (z - float(norm.running_mean[c]))
                         / float(np.sqrt(norm.running_var[c] + norm.eps))
                         + float(norm.beta.value[c]))
                out[i, c] = max(out[i, c], z)
    return out


def mc_box_iou(a: Box3D, b: Box3D, n_samples: int, rng: np.random.Generator) -> float:
    """Monte-Carlo IoU: uniform samples over the joint AABB, membership counting."""
    corners = []
    for box in (a, b):
        z0 = box.center[2] - box.size[2] / 2.0
        z1 = box.center[2] + box.size[2] / 2.0
        for x, y in box.corners_bev():
            corners.append([x, y, z0])
            corners.append([x, y, z1])
    corners = np.asarray(corners)
    pts = rng.uniform(corners.min(axis=0), corners.max(axis=0), size=(n_samples, 3))
    in_a = points_in_box(pts, a)
    in_b = points_in_box(pts, b)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


def oracle_suite() -> list[CheckResult]:
    results = []
    rng = np.random.default_rng(42)

    fps_ok = True
    for trial in range(20):
        n = int(rng.integers(5, 48))
        k = int(rng.integers(2, n + 1))
        pts = rng.normal(size=(n, 3))
        if sample_dfps(pts, k).indices.tolist() != greedy_fps_oracle(pts, k):
            fps_ok = False
        feats = rng.normal(size=(n, 6))
        if sample_ffps(feats, k).indices.tolist() != greedy_fps_oracle(feats, k):
            fps_ok = False
    results.append(CheckResult("farthest-point-sampling",
                               "20 random fixtures vs scalar-loop walk", fps_ok))

    ras_ok = True
    for trial in range(20):
        n_s, n_t = int(rng.integers(6, 40)), int(rng.integers(3, 20))
        k = int(rng.integers(1, n_s + 1))
        fs = rng.normal(size=(n_s, 5))
        ft = rng.normal(size=(n_t, 5))
        if sample_ras(fs, ft, k).indices.tolist() != ras_sort_oracle(fs, ft, k):
            ras_ok = False
    results.append(CheckResult("relation-aware-sampling",
                               "20 random fixtures vs sort of pairwise distances", ras_ok))

    # The level-1 shape of a dense crop, 4000 x 1600 x 32: a ReLU embedding
    # of 3-D points, so the pair skip on slabs of the principal axis runs.
    # 90 search rows are template rows (score 0), 400 more have twins, and k
    # splits a tie.
    w, b = rng.normal(size=(3, 32)), rng.normal(scale=0.5, size=32)
    pts_t = rng.uniform(-1.0, 1.0, size=(1600, 3))
    pts_s = np.vstack([pts_t[:90], rng.uniform(-1.5, 1.5, size=(3910, 3))])
    ft, fs = (np.maximum(p @ w + b, 0.0) for p in (pts_t, pts_s))
    fs[3000:3400] = fs[90:490]
    v = ras_oracle_scores(fs, ft)
    order = sorted(range(len(v)), key=lambda i: (v[i], i))
    k = next(r for r in range(256, len(v)) if v[order[r - 1]] == v[order[r]])
    results.append(CheckResult(
        "relation-aware-sampling-dense", f"4000 x 1600 x 32, k={k} inside a tie, vs sort",
        sample_ras(fs, ft, k).indices.tolist() == order[:k]))

    # Two unit cubes offset by half an edge along one axis: IoU exactly 1/3.
    a = Box3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 0.0)
    b = Box3D((0.5, 0.0, 0.0), (1.0, 1.0, 1.0), 0.0)
    iou = box_iou_3d(a, b)
    results.append(CheckResult("iou-closed-form", f"unit cube offset -> {iou:.12f}",
                               abs(iou - 1.0 / 3.0) < 1e-9))

    worst = 0.0
    for trial in range(5):
        a, b = (Box3D(rng.uniform(-1, 1, size=3), rng.uniform(0.5, 2.5, size=3),
                      rng.uniform(-np.pi, np.pi)) for _ in range(2))
        worst = max(worst, abs(box_iou_3d(a, b) - mc_box_iou(a, b, 200_000, rng)))
    results.append(CheckResult("iou-monte-carlo",
                               f"5 random pairs, worst gap {worst:.4f}", worst <= 0.02))

    ious = rng.uniform(0, 1, size=100)
    s = success_metric(ious)
    thresholds = np.linspace(0.0, 1.0, 1001)
    curve = (ious[None, :] >= thresholds[:, None]).mean(axis=1)
    auc = float(np.trapezoid(curve, thresholds)) * 100.0
    results.append(CheckResult("success-metric-identity",
                               f"mean {s:.3f} vs AUC {auc:.3f}", abs(s - auc) < 0.1))
    p = precision_metric(np.ones(10))
    results.append(CheckResult("precision-metric-step",
                               f"all-1m errors -> {p:.3f}", abs(p - 50.0) < 0.5))

    # Random clouds, then points on the query spheres 1e5 m from the origin,
    # where only the exact pair distance tells which side of r² they are.
    ball_ok = True
    for trial in range(20):
        cloud = rng.uniform(-2, 2, size=(int(rng.integers(1, 200)), 3))
        queries = rng.uniform(-2, 2, size=(int(rng.integers(1, 40)), 3))
        ball_ok &= ball_query_matches(queries, cloud, float(rng.uniform(0.2, 1.5)),
                                      int(rng.integers(1, 40)))
    queries = 1e5 + rng.uniform(-1, 1, size=(60, 3))
    u = rng.normal(size=(60, 3))
    cloud = np.vstack([1e5 + rng.uniform(-1, 1, size=(300, 3)),
                       queries + 0.4 * u / np.linalg.norm(u, axis=1, keepdims=True)])
    ball_ok &= ball_query_matches(queries, cloud, 0.4, 16)
    # The level-1 shape of a dense crop in float32, 512 centroids in 4000
    # points plus 200 on their spheres, so the pair skip on slabs runs.
    dense = np.random.default_rng(43)
    cloud = dense.uniform((-3.0, -1.5, -1.0), (3.0, 1.5, 1.0), size=(4000, 3))
    queries = cloud[dense.choice(4000, 512, replace=False)] + dense.normal(0.0, 0.05, (512, 3))
    u = dense.normal(size=(200, 3))
    cloud = np.vstack([cloud, queries[:200] + 0.3 * u / np.linalg.norm(u, axis=1, keepdims=True)])
    ball_ok &= ball_query_matches(queries.astype(np.float32), cloud.astype(np.float32), 0.3, 32)
    results.append(CheckResult("ball-query",
                               "21 fixtures and a 512 x 4200 dense crop on slabs vs every "
                               "pair's direct distance", ball_ok))

    # Crops up to 1e3 m from the origin, BN with random running statistics
    # and gammas of both signs.
    worst = 0.0
    for trial in range(8):
        n, m = int(rng.integers(20, 60)), int(rng.integers(4, 16))
        level = SetAbstraction(5, 6, 0.7, 8, rng, "sa", dtype=np.float64,
                               use_bn=trial % 2 == 1)
        if level.norm is not None:
            level.norm.gamma.value[:] = rng.normal(size=6)
            level.norm.beta.value[:] = rng.normal(size=6)
            level.norm.running_mean[:] = rng.normal(size=6)
            level.norm.running_var[:] = rng.uniform(0.5, 2.0, size=6)
        coords = rng.uniform(-1.0, 1.0, size=(n, 3)) + rng.uniform(-600.0, 600.0, size=3)
        feats = rng.normal(size=(n, 5))
        sel = sample_dfps(coords, m)
        (_, pooled), _ = level.forward(coords, feats, sel, keep_cache=False)
        want = concat_linear_sa_oracle(level, coords, feats, sel)
        worst = max(worst, float((np.abs(pooled - want) / np.maximum(1.0, np.abs(want))).max()))
    results.append(CheckResult("set-abstraction",
                               f"8 fixtures with and without BN vs scalar-loop concat Linear, "
                               f"max rel err {worst:.1e}", worst < 1e-9))
    return results
