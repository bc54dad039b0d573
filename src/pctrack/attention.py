"""Single-head attention blocks used to match search features to the template.

The core block projects queries/keys/values, scores them by the dot product
of L2-normalized projections (a cosine similarity, keeping the score matrix
in [-1, 1]), softmaxes per query row, and — in its offset form — feeds the
difference between the query and the attended value through a linear+ReLU
layer. Both normalization and the offset are toggleable for ablations, as
is replacing the whole transformer with a bare cosine matcher.
"""

from __future__ import annotations

import numpy as np

from .numeric import (
    Linear,
    Param,
    l2_normalize_rows_backward,
    l2_normalize_rows_forward,
    relu_backward,
    relu_forward,
    softmax_rows_backward,
    softmax_rows_forward,
)

L2_EPS = 1e-12


class RelationAttention:
    """One attention block: out = phi(Q - P @ (Wv V)), P = softmax(cos scores).

    With ``use_offset`` off the subtraction is skipped (plain attention);
    with ``use_l2_norm`` off the scores are raw projected dot products.
    """

    def __init__(self, channels: int, rng: np.random.Generator, name: str = "ram",
                 dtype=np.float32, use_l2_norm: bool = True, use_offset: bool = True):
        self.channels = channels
        self.use_l2_norm = use_l2_norm
        self.use_offset = use_offset
        self.wq = Linear(channels, channels, rng, name=f"{name}.wq", dtype=dtype)
        self.wk = Linear(channels, channels, rng, name=f"{name}.wk", dtype=dtype)
        self.wv = Linear(channels, channels, rng, name=f"{name}.wv", dtype=dtype)
        self.phi = Linear(channels, channels, rng, name=f"{name}.phi", dtype=dtype)

    def params(self) -> list[Param]:
        return [*self.wq.params(), *self.wk.params(), *self.wv.params(), *self.phi.params()]

    def forward(self, q_in: np.ndarray, k_in: np.ndarray, v_in: np.ndarray):
        if k_in.shape[0] == 0 or q_in.shape[0] == 0:
            raise ValueError("attention needs at least one query and one key")
        if not (q_in.shape[1] == k_in.shape[1] == v_in.shape[1] == self.channels):
            raise ValueError(
                f"channel mismatch: got {q_in.shape[1]}/{k_in.shape[1]}/{v_in.shape[1]}, "
                f"block is {self.channels}-wide")
        if k_in.shape[0] != v_in.shape[0]:
            raise ValueError("key and value row counts differ")

        q, c_q = self.wq.forward(q_in)
        k, c_k = self.wk.forward(k_in)
        v, c_v = self.wv.forward(v_in)
        if self.use_l2_norm:
            qn, c_qn = l2_normalize_rows_forward(q, L2_EPS)
            kn, c_kn = l2_normalize_rows_forward(k, L2_EPS)
        else:
            qn, kn, c_qn, c_kn = q, k, None, None
        a = qn @ kn.T
        p, _ = softmax_rows_forward(a)
        attended = p @ v
        pre = q_in - attended if self.use_offset else attended
        h, c_h = self.phi.forward(pre)
        out, c_relu = relu_forward(h)
        # a: raw scores, p: softmax weights (also the softmax's cache)
        cache = (c_q, c_k, c_v, c_qn, c_kn, qn, kn, v, a, p, c_h, c_relu)
        return out, cache

    def backward(self, d_out: np.ndarray, cache):
        """Returns (dQ_in, dK_in, dV_in) and accumulates parameter grads."""
        c_q, c_k, c_v, c_qn, c_kn, qn, kn, v, _a, p, c_h, c_relu = cache
        d_h = relu_backward(d_out, c_relu)
        d_pre = self.phi.backward(d_h, c_h)
        if self.use_offset:
            d_q_in = d_pre.copy()
            d_attended = -d_pre
        else:
            d_q_in = np.zeros_like(d_pre)
            d_attended = d_pre
        d_p = d_attended @ v.T
        d_v = p.T @ d_attended
        d_a = softmax_rows_backward(d_p, p)
        d_qn = d_a @ kn
        d_kn = d_a.T @ qn
        if self.use_l2_norm:
            d_q = l2_normalize_rows_backward(d_qn, c_qn)
            d_k = l2_normalize_rows_backward(d_kn, c_kn)
        else:
            d_q, d_k = d_qn, d_kn
        d_q_in += self.wq.backward(d_q, c_q)
        d_k_in = self.wk.backward(d_k, c_k)
        d_v_in = self.wv.backward(d_v, c_v)
        return d_q_in, d_k_in, d_v_in


class PointRelationTransformer:
    """Self-attention on each branch (one shared block), then cross-attention.

    The search tokens, enriched by their own context, query the enriched
    template tokens; every token attends to every other (no masking).
    """

    def __init__(self, channels: int, rng: np.random.Generator, name: str = "prt",
                 dtype=np.float32, use_l2_norm: bool = True, use_offset: bool = True):
        self.self_ram = RelationAttention(channels, rng, name=f"{name}.self",
                                          dtype=dtype, use_l2_norm=use_l2_norm,
                                          use_offset=use_offset)
        self.cross_ram = RelationAttention(channels, rng, name=f"{name}.cross",
                                           dtype=dtype, use_l2_norm=use_l2_norm,
                                           use_offset=use_offset)

    def params(self) -> list[Param]:
        return [*self.self_ram.params(), *self.cross_ram.params()]

    def forward(self, xs: np.ndarray, xt: np.ndarray):
        """Returns (X̂^s, cache); the cache holds the three blocks' caches."""
        xs_bar, c_s = self.self_ram.forward(xs, xs, xs)
        xt_bar, c_t = self.self_ram.forward(xt, xt, xt)
        xs_hat, c_x = self.cross_ram.forward(xs_bar, xt_bar, xt_bar)
        return xs_hat, (c_s, c_t, c_x)

    def backward(self, d_xs_hat: np.ndarray, cache):
        """Returns (d_xs, d_xt)."""
        c_s, c_t, c_x = cache
        d_xs_bar, d_k, d_v = self.cross_ram.backward(d_xs_hat, c_x)
        d_xt_bar = d_k + d_v
        dq, dk, dv = self.self_ram.backward(d_xs_bar, c_s)
        d_xs = dq + dk + dv
        dq, dk, dv = self.self_ram.backward(d_xt_bar, c_t)
        d_xt = dq + dk + dv
        return d_xs, d_xt


def cosine_match_forward(xs: np.ndarray, xt: np.ndarray):
    """Parameter-free matcher: softmaxed cosine similarity mixes template rows."""
    if xs.shape[0] == 0 or xt.shape[0] == 0:
        raise ValueError("cosine match needs non-empty inputs")
    if xs.shape[1] != xt.shape[1]:
        raise ValueError(f"channel mismatch: {xs.shape[1]} vs {xt.shape[1]}")
    xsn, c_sn = l2_normalize_rows_forward(xs, L2_EPS)
    xtn, c_tn = l2_normalize_rows_forward(xt, L2_EPS)
    s = xsn @ xtn.T
    p, _ = softmax_rows_forward(s)
    out = p @ xt
    # s: raw scores, p: softmax weights (also the softmax's cache)
    cache = (c_sn, c_tn, xsn, xtn, xt, s, p)
    return out, cache


def cosine_match_backward(d_out: np.ndarray, cache):
    """Returns (d_xs, d_xt)."""
    c_sn, c_tn, xsn, xtn, xt, _s, p = cache
    d_p = d_out @ xt.T
    d_xt = p.T @ d_out
    d_s = softmax_rows_backward(d_p, p)
    d_xsn = d_s @ xtn
    d_xtn = d_s.T @ xsn
    d_xs = l2_normalize_rows_backward(d_xsn, c_sn)
    d_xt += l2_normalize_rows_backward(d_xtn, c_tn)
    return d_xs, d_xt
