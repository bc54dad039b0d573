"""The full tracker network: feature pyramid, matcher, two prediction stages.

All stages run on explicit forward caches, so one backward call propagates
loss gradients through the refinement pooling, the attention blocks and
both backbone branches into every parameter. Discrete choices made on the
way (centroid selections, the best-point index, pooling neighborhoods) are
recorded in a plan that can be replayed, which makes a forward pass an
exactly repeatable function of the parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .attention import PointRelationTransformer, cosine_match_backward, cosine_match_forward
from .backbone import Backbone, BackbonePlan
from .heads import (
    Heads,
    Prediction,
    local_pool_backward,
    local_pool_forward,
    prm_offset,
    prm_offset_backward,
)
from .numeric import Param, load_checkpoint, save_checkpoint

if TYPE_CHECKING:
    from .config import RunConfig


@dataclass
class ModelPlan:
    """Every discrete decision of one forward pass, for exact replay."""

    backbone: BackbonePlan
    best_index: int | None = None
    pool_group_search: tuple | None = None
    pool_group_template: tuple | None = None


@dataclass(frozen=True)
class ModelOutput:
    coarse: Prediction
    refined: Prediction | None
    seeds: np.ndarray  # search-branch output coordinates (N_s, 3)
    plan: ModelPlan

    @property
    def final(self) -> Prediction:
        """The prediction tracking should decode: refined when present."""
        return self.refined if self.refined is not None else self.coarse


class TrackerModel:
    """Owns all parameters and wires the stages together.

    Built from the model fields of a run config, kept as ``cfg`` and saved
    with the weights; ``cfg.seed`` seeds the parameter initialization.
    """

    def __init__(self, cfg: RunConfig, dtype=np.float32):
        self.cfg = cfg.validate()
        self.dtype = dtype
        rng = np.random.default_rng(cfg.seed)
        self.backbone = Backbone(cfg, rng, dtype=dtype)
        # use_prt off → the parameter-free cosine matcher
        self.prt = (PointRelationTransformer(
            cfg.sa_channels[-1], rng, dtype=dtype, use_l2_norm=cfg.use_l2_norm,
            use_offset=cfg.use_offset) if cfg.use_prt else None)
        self.heads = Heads(cfg, rng, dtype=dtype)

    # -------------------------------------------------------------- state

    def params(self) -> list[Param]:
        out = self.backbone.params()
        if self.prt is not None:
            out.extend(self.prt.params())
        out.extend(self.heads.params())
        return out

    def zero_grad(self):
        for p in self.params():
            p.zero_grad()

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {p.name: p.value for p in self.params()}
        state.update(self.backbone.buffers())
        state.update(self.heads.buffers())
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]):
        """Copies every parameter and buffer in place; nothing is written
        unless every name and shape matches and every value is finite."""
        own = self.state_dict()
        missing = set(own) - set(state)
        extra = set(state) - set(own)
        if missing or extra:
            raise ValueError(
                f"checkpoint mismatch: missing {sorted(missing)[:3]}..., "
                f"unexpected {sorted(extra)[:3]}...")
        incoming = {name: np.asarray(state[name], dtype=own[name].dtype) for name in own}
        for name, target in own.items():
            if incoming[name].shape != target.shape:
                raise ValueError(f"{name}: shape {incoming[name].shape} != {target.shape}")
            if not np.isfinite(incoming[name]).all():
                raise ValueError(f"{name}: non-finite values in checkpoint")
        for name, target in own.items():
            target[...] = incoming[name]

    def save(self, path):
        from .config import config_lines  # config imports this module

        save_checkpoint(path, self.state_dict(), config_lines(self.cfg))

    @classmethod
    def from_checkpoint(cls, path) -> TrackerModel:
        """The network a checkpoint's config builds, holding its weights."""
        from .config import RunConfig, apply_overrides  # config imports this module

        arrays, lines = load_checkpoint(path)
        model = cls(apply_overrides(RunConfig(), lines))
        model.load_state_dict(arrays)
        return model

    # -------------------------------------------------------------- forward

    def forward(self, coords_t: np.ndarray, coords_s: np.ndarray,
                rng: np.random.Generator, plan: ModelPlan | None = None,
                training: bool = False, keep_cache: bool = True):
        """Returns (ModelOutput, cache).

        ``keep_cache=False`` returns ``None`` as the cache: a forward that no
        backward follows (tracking) then frees each stage's per-hit arrays
        as the stage returns instead of holding them to the end.
        """
        replay = plan is not None
        (ct, xt, cs, xs, bplan), c_backbone = self.backbone.forward(
            coords_t, coords_s, rng,
            plan=plan.backbone if replay else None, training=training,
            keep_cache=keep_cache)

        if self.prt is not None:
            xs_hat, c_match = self.prt.forward(xs, xt)
        else:
            xs_hat, c_match = cosine_match_forward(xs, xt)

        coarse, c_coarse = self.heads.coarse_forward(xs_hat, training)

        refined = None
        c_refine = c_pool_s = c_pool_t = c_prm = None
        if not replay:
            plan = ModelPlan(backbone=bplan)
        if self.cfg.use_prm:  # off → coarse stage only
            mapped, i_star = prm_offset(cs, coarse, pinned_index=plan.best_index)
            plan.best_index = i_star
            f_s, c_pool_s, group_s = local_pool_forward(
                cs, cs, xs, self.cfg.pool_radius, group=plan.pool_group_search,
                keep_cache=keep_cache)
            f_t, c_pool_t, group_t = local_pool_forward(
                mapped, ct, xt, self.cfg.pool_radius, group=plan.pool_group_template,
                keep_cache=keep_cache)
            plan.pool_group_search = group_s
            plan.pool_group_template = group_t
            refined, c_refine = self.heads.refine_forward(f_s, f_t, mapped, training)
            c_prm = (cs, coarse.reg[i_star].copy(), i_star)

        output = ModelOutput(coarse=coarse, refined=refined, seeds=cs, plan=plan)
        if not keep_cache:
            return output, None
        cache = (c_backbone, c_match, c_coarse, c_refine, c_pool_s, c_pool_t,
                 c_prm)
        return output, cache

    def backward(self, d_coarse_cls: np.ndarray, d_coarse_reg: np.ndarray,
                 d_refined_cls: np.ndarray | None,
                 d_refined_reg: np.ndarray | None, cache):
        """Accumulates parameter gradients from per-stage output gradients."""
        if cache is None:
            raise ValueError("backward needs the cache of a forward run with "
                             "keep_cache=True; this forward kept none")
        c_backbone, c_match, c_coarse, c_refine, c_pool_s, c_pool_t, c_prm = cache

        d_xs = None
        d_xt = None
        if c_refine is not None:
            if d_refined_cls is None or d_refined_reg is None:
                raise ValueError("refined-stage gradients missing")
            d_fs, d_ft, d_mapped = self.heads.refine_backward(
                d_refined_cls, d_refined_reg, c_refine)
            d_xs = local_pool_backward(d_fs, c_pool_s)
            d_xt = local_pool_backward(d_ft, c_pool_t)
            # the mapped coordinates depend on the best coarse regression row
            seeds, reg_row, i_star = c_prm
            d_coarse_reg = np.asarray(d_coarse_reg).copy()
            d_coarse_reg[i_star] += prm_offset_backward(
                d_mapped, seeds, reg_row, i_star)
        d_xs_hat = self.heads.coarse_backward(d_coarse_cls, d_coarse_reg, c_coarse)

        if self.prt is not None:
            d_xs_m, d_xt_m = self.prt.backward(d_xs_hat, c_match)
        else:
            d_xs_m, d_xt_m = cosine_match_backward(d_xs_hat, c_match)

        d_xs = d_xs_m if d_xs is None else d_xs + d_xs_m
        d_xt = d_xt_m if d_xt is None else d_xt + d_xt_m
        self.backbone.backward(d_xt, d_xs, c_backbone)

    # -------------------------------------------------------------- tracking

    def predict_canonical(self, template_xyz: np.ndarray, search_xyz: np.ndarray,
                          ref_box, frame_index: int, rng: np.random.Generator):
        """Tracking-time protocol: one prediction in the canonical frame.

        ``ref_box``/``frame_index`` exist for alternative implementations of
        this protocol (the evaluation oracle uses them); the network itself
        only needs the two canonicalized clouds.
        """
        output, _ = self.forward(template_xyz, search_xyz, rng, training=False,
                                 keep_cache=False)
        return output.final, output.seeds
