"""Shared test oracles: slow, obviously-correct reference implementations.

The oracles that ``pctrack check`` also runs live in ``pctrack.checks`` and
are re-exported here.
"""

from __future__ import annotations

import numpy as np

from pctrack.checks import (  # noqa: F401
    ball_query_matches,
    brute_ball_query,
    greedy_fps_oracle,
    mc_box_iou,
    ras_sort_oracle,
)
from pctrack.geometry import Box3D, ball_query_padded, pair_sq_dist, to_box_frame
from pctrack.numeric import relu_backward, relu_forward


def random_box(rng: np.random.Generator, center_span: float = 3.0) -> Box3D:
    center = rng.uniform(-center_span, center_span, size=3)
    size = rng.uniform(0.5, 4.0, size=3)
    yaw = rng.uniform(-np.pi, np.pi)
    return Box3D(center, size, yaw)


def reference_points_in_box(cloud, box: Box3D) -> np.ndarray:
    """Rotate-everything membership: every row through ``to_box_frame``, then
    ``|local| <= size / 2`` on all three axes."""
    return (np.abs(to_box_frame(cloud, box)) <= box.size / 2.0).all(axis=1)


def foreground_fixture(rng: np.random.Generator, n_search: int = 160, fg_frac: float = 0.2):
    """Search scene with a small on-object cluster amid spread-out clutter.

    Features are the raw coordinates, so relation scores against the template
    directly measure closeness to the object. Returns (search_feats,
    template_feats, fg_mask).
    """
    n_fg = int(round(n_search * fg_frac))
    fg = rng.normal(scale=0.4, size=(n_fg, 3))
    bg = rng.uniform(-8.0, 8.0, size=(n_search - n_fg, 3))
    bg = bg[np.linalg.norm(bg, axis=1) > 2.0]  # keep clutter off the object
    while len(bg) < n_search - n_fg:
        extra = rng.uniform(-8.0, 8.0, size=(n_search, 3))
        bg = np.vstack([bg, extra[np.linalg.norm(extra, axis=1) > 2.0]])
    bg = bg[: n_search - n_fg]
    search = np.vstack([fg, bg])
    order = rng.permutation(n_search)
    search = search[order]
    fg_mask = order < n_fg
    template = rng.normal(scale=0.4, size=(48, 3))
    return search, template, fg_mask


def desk_crops(seed: int = 0, n_template: int = 410, n_search: int = 900):
    """Canonical-frame crops at the ``desk`` operating point: a car-sized
    object's points as the template, and the search crop around it holding
    the object moved one frame on plus clutter, about 900 points in all."""
    rng = np.random.default_rng(seed)
    size = np.array([3.6, 1.8, 1.5])
    template = rng.uniform(-0.5, 0.5, size=(n_template, 3)) * size
    moved = rng.uniform(-0.5, 0.5, size=(n_template, 3)) * size + [0.35, 0.0, 0.0]
    clutter = rng.uniform(-1.0, 1.0, size=(n_search - n_template, 3)) * [4.0, 3.0, 1.0]
    return template, rng.permutation(np.vstack([moved, clutter]))


def reference_sa_forward(sa, coords, feats, selection, training=False, concat=False):
    """Padded set-abstraction level: encode all m·k slots of the padded
    grid (BN statistics over all of them), rectify, pool.

    Slot s of centroid c_i holds its neighbor j = idx[i, s] as
    fl(fl(P_j − Q_i) + b), with P = [f, x − o] @ Wᵀ for every point,
    Q = (c − o) @ W_rᵀ for every centroid and o the first centroid.
    ``concat=True`` holds the plain Linear of the concatenated row instead,
    [f_j, x_j − c_i] @ Wᵀ + b. Each channel pools the first slot with the
    largest pooled quantity: P (or the Linear) without BN, the rectified BN
    output with it. Runs ``sa``'s own layers; returns ((centroids, pooled),
    cache).
    """
    sel = selection.indices
    centroids = coords[sel]
    idx, _ = ball_query_padded(centroids, coords, sa.radius, sa.max_neighbors)
    m, k = idx.shape
    weight, bias = sa.linear.weight.value, sa.linear.bias.value
    if concat:
        rel = (coords[idx] - centroids[:, None, :]).astype(feats.dtype)
        key = np.concatenate([feats[idx], rel], axis=2) @ weight.T + bias
        z = key
    else:
        origin = centroids[0]
        rel = ((coords - origin).astype(feats.dtype),
               (centroids - origin).astype(feats.dtype))
        key = (np.concatenate([feats, rel[0]], axis=1) @ weight.T)[idx]
        z = key - (rel[1] @ weight[:, sa.in_ch:].T)[:, None, :] + bias
    z = z.reshape(m * k, -1)
    c_norm = None
    if sa.norm is not None:
        z, c_norm = sa.norm.forward(z, training)
    z, c_act = relu_forward(z)
    grouped = z.reshape(m, k, -1)
    if sa.norm is not None:
        key = grouped
    arg = key.argmax(axis=1)
    pooled = np.take_along_axis(grouped, arg[:, None, :], axis=1)[:, 0, :]
    return (centroids, pooled), (idx, rel, feats, c_norm, c_act, arg)


def reference_sa_backward(sa, d_pooled, cache):
    """Padded backward over all m·k neighbor rows; returns the feature gradient."""
    idx, rel, feats, c_norm, c_act, arg = cache
    m, k = idx.shape
    c = d_pooled.shape[1]
    dz_group = np.zeros((m, k, c), dtype=d_pooled.dtype)
    dz_group[np.arange(m)[:, None], arg, np.arange(c)[None, :]] = d_pooled
    dz = relu_backward(dz_group.reshape(m * k, c), c_act)
    if sa.norm is not None:
        dz = sa.norm.backward(dz, c_norm)
    dz = dz.reshape(m, k, c)
    g = np.zeros((feats.shape[0], c), dtype=dz.dtype)
    np.add.at(g, idx.reshape(-1), dz.reshape(-1, c))
    dq = dz.sum(axis=1)
    w_grad = sa.linear.weight.grad
    w_grad[:, : sa.in_ch] += g.T @ feats
    if isinstance(rel, tuple):
        w_grad[:, sa.in_ch:] += g.T @ rel[0] - dq.T @ rel[1]
    else:
        w_grad[:, sa.in_ch:] += np.einsum("mko,mkr->or", dz, rel)
    sa.linear.bias.grad += dq.sum(axis=0)
    return g @ sa.linear.weight.value[:, : sa.in_ch]


def reference_local_pool_forward(queries, cloud_coords, cloud_feats, radius):
    """Argmax pooling over every in-radius neighbor; empty → zero row."""
    idx, counts = ball_query_padded(queries, cloud_coords, radius,
                                    max_k=cloud_coords.shape[0])
    gathered = cloud_feats[idx]
    arg = gathered.argmax(axis=1)
    pooled = np.take_along_axis(gathered, arg[:, None, :], axis=1)[:, 0, :]
    empty = counts == 0
    pooled[empty] = 0.0
    return pooled, (idx, arg, empty, cloud_feats.shape)


def reference_local_pool_backward(d_pooled, cache):
    idx, arg, empty, feats_shape = cache
    m, c = d_pooled.shape
    d_feats = np.zeros(feats_shape, dtype=d_pooled.dtype)
    d_eff = np.where(empty[:, None], 0.0, d_pooled)
    winner = np.take_along_axis(idx, arg, axis=1)
    np.add.at(d_feats, (winner.reshape(-1), np.tile(np.arange(c), m)), d_eff.reshape(-1))
    return d_feats


def reference_ras_scores(search_feats, template_feats):
    """sqrt(min_j pair_sq_dist(s_i, t_j)), every pair scored: NaN for a row
    with a NaN, +inf for a row with an infinity."""
    s = np.asarray(search_feats)
    t = np.asarray(template_feats)
    m, n = s.shape[0], t.shape[0]
    d2 = np.empty(m)
    for lo in range(0, m, 64):
        rows = s[lo:lo + 64]
        pairs = pair_sq_dist(np.repeat(rows, n, axis=0), np.tile(t, (rows.shape[0], 1)))
        d2[lo:lo + 64] = pairs.reshape(rows.shape[0], n).min(axis=1)
    return np.sqrt(d2)


def reference_greedy_farthest(points, k, start_index=0):
    """Greedy farthest-point indices (without round-robin padding)."""
    points = np.asarray(points, dtype=np.float64)
    take = min(k, points.shape[0])
    chosen = np.empty(take, dtype=np.int64)
    chosen[0] = start_index
    min_d2 = np.sum((points - points[start_index]) ** 2, axis=1)
    min_d2[start_index] = -1.0
    for i in range(1, take):
        nxt = int(np.argmax(min_d2))
        chosen[i] = nxt
        np.minimum(min_d2, np.sum((points - points[nxt]) ** 2, axis=1), out=min_d2)
        min_d2[nxt] = -1.0
    return chosen
