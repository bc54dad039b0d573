import numpy as np
import pytest

import pctrack.backbone
from pctrack.backbone import BackboneSpec, SALevelSpec
from pctrack.config import apply_ablation, build_model, config_for_profile
from pctrack.heads import HeadSpec
from pctrack.model import ModelOutput, ModelSpec, TrackerModel
from pctrack.numeric import grad_check


def tiny_model_spec(use_bn=False, **kw):
    backbone = BackboneSpec(
        embed_dim=4,
        levels=(
            SALevelSpec(radius=0.8, out_template=6, out_search=8, channels=6, max_neighbors=4),
            SALevelSpec(radius=1.2, out_template=4, out_search=6, channels=8, max_neighbors=4),
        ),
        use_bn=use_bn,
    )
    heads = HeadSpec(channels=8, coarse_hidden=(6, 6), refine_hidden=(8, 6, 6, 6),
                     pool_radius=1.0, use_bn=use_bn)
    return ModelSpec(backbone=backbone, heads=heads, **kw)


def tiny_clouds(seed=0, n_t=8, n_s=10):
    rng = np.random.default_rng(seed)
    return (rng.normal(scale=0.5, size=(n_t, 3)),
            rng.normal(scale=0.5, size=(n_s, 3)))


def run_forward(model, seed_clouds=1, seed_rng=2, plan=None):
    ct, cs = tiny_clouds(seed_clouds)
    return model.forward(ct, cs, np.random.default_rng(seed_rng), plan=plan)


# ---------------------------------------------------------------- structure


def test_model_output_shapes():
    model = TrackerModel(tiny_model_spec(), init_seed=0, dtype=np.float64)
    out, _ = run_forward(model)
    assert out.coarse.cls_logits.shape == (6, 1)
    assert out.coarse.reg.shape == (6, 4)
    assert out.refined.cls_logits.shape == (6, 1)
    assert out.refined.reg.shape == (6, 4)
    assert out.seeds.shape == (6, 3)
    assert out.template_coords.shape == (4, 3)


def test_model_final_prefers_refined():
    model = TrackerModel(tiny_model_spec(), init_seed=1, dtype=np.float64)
    out, _ = run_forward(model)
    assert out.final is out.refined

    bare = TrackerModel(tiny_model_spec(use_prm=False), init_seed=1, dtype=np.float64)
    out2, _ = run_forward(bare)
    assert out2.refined is None
    assert out2.final is out2.coarse


def test_model_spec_rejects_width_mismatch():
    with pytest.raises(ValueError):
        ModelSpec(backbone=BackboneSpec(), heads=HeadSpec(channels=64))


def test_model_cosine_variant_runs():
    model = TrackerModel(tiny_model_spec(use_prt=False), init_seed=2, dtype=np.float64)
    out, _ = run_forward(model)
    assert isinstance(out, ModelOutput)
    assert out.refined is not None
    assert model.prt is None


@pytest.mark.parametrize("l2,off", [(False, True), (True, False), (False, False)])
def test_model_attention_toggles_change_predictions(l2, off):
    base = TrackerModel(tiny_model_spec(), init_seed=3, dtype=np.float64)
    variant = TrackerModel(tiny_model_spec(use_l2_norm=l2, use_offset=off),
                           init_seed=3, dtype=np.float64)
    out_b, _ = run_forward(base)
    out_v, _ = run_forward(variant, plan=out_b.plan)
    assert not np.allclose(out_b.coarse.cls_logits, out_v.coarse.cls_logits)


def test_model_plan_replay_bitwise():
    model = TrackerModel(tiny_model_spec(), init_seed=4, dtype=np.float64)
    out0, _ = run_forward(model, seed_rng=5)
    out1, _ = run_forward(model, seed_rng=999, plan=out0.plan)
    np.testing.assert_array_equal(out0.coarse.cls_logits, out1.coarse.cls_logits)
    np.testing.assert_array_equal(out0.refined.reg, out1.refined.reg)


def test_model_param_names_unique():
    model = TrackerModel(tiny_model_spec(), init_seed=5, dtype=np.float64)
    names = [p.name for p in model.params()]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("ablation,runs", [(None, 1), ("sampler-dfps", 2)],
                         ids=["desk", "desk-sampler-dfps"])
def test_one_dfps_run_per_dfps_branch(monkeypatch, ablation, runs):
    """Each branch that samples by D-FPS runs the greedy loop once per
    forward, at level 1; deeper levels take its prefix."""
    cfg = config_for_profile("desk")
    if ablation:
        cfg = apply_ablation(cfg, ablation)
    model = build_model(cfg)
    calls = []
    real = pctrack.backbone.sample_dfps

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(pctrack.backbone, "sample_dfps", counted)
    rng = np.random.default_rng(8)
    model.forward(rng.uniform(-2, 2, size=(300, 3)), rng.uniform(-3, 3, size=(700, 3)), rng)
    assert len(calls) == runs
    assert calls[0] == cfg.sa_template_points[0]


@pytest.mark.parametrize("branch,value", [("template", np.nan), ("search", np.inf),
                                          ("search", -np.inf), ("template", 1e39)])
def test_predict_canonical_rejects_non_finite_coordinates(branch, value):
    """Direct callers skip PointCloud's check, so the backbone makes it; 1e39
    overflows the float32 network to inf."""
    model = TrackerModel(tiny_model_spec(), init_seed=0)
    ct, cs = tiny_clouds(3)
    (ct if branch == "template" else cs)[4, 1] = value
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        model.predict_canonical(ct, cs, None, 0, np.random.default_rng(0))


# ---------------------------------------------------------------- checkpoints


def test_model_checkpoint_roundtrip(tmp_path):
    spec = tiny_model_spec()
    a = TrackerModel(spec, init_seed=6, dtype=np.float32)
    path = tmp_path / "model.ckpt"
    a.save(path)
    b = TrackerModel(spec, init_seed=777, dtype=np.float32)
    b.load(path)
    out_a, _ = run_forward(a)
    out_b, _ = run_forward(b, plan=out_a.plan)
    np.testing.assert_array_equal(out_a.final.cls_logits, out_b.final.cls_logits)
    np.testing.assert_array_equal(out_a.final.reg, out_b.final.reg)


def test_model_checkpoint_rejects_other_architecture(tmp_path):
    a = TrackerModel(tiny_model_spec(), init_seed=7)
    path = tmp_path / "model.ckpt"
    a.save(path)
    b = TrackerModel(tiny_model_spec(use_prt=False), init_seed=7)  # no attention params
    with pytest.raises(ValueError, match="mismatch"):
        b.load(path)


# ---------------------------------------------------------------- gradients


def full_model_grad_error(spec, n_t=8, n_s=10, training=False):
    model = TrackerModel(spec, init_seed=8, dtype=np.float64)
    ct, cs = tiny_clouds(seed=9, n_t=n_t, n_s=n_s)
    rng = np.random.default_rng(10)
    w = {}
    holder = {}

    def fn():
        model.zero_grad()
        out, cache = model.forward(ct, cs, np.random.default_rng(11),
                                   plan=holder.get("plan"), training=training)
        holder["plan"] = out.plan
        if not w:
            w["cc"] = rng.normal(size=out.coarse.cls_logits.shape)
            w["cr"] = rng.normal(size=out.coarse.reg.shape)
            if out.refined is not None:
                w["fc"] = rng.normal(size=out.refined.cls_logits.shape)
                w["fr"] = rng.normal(size=out.refined.reg.shape)
        loss = float((w["cc"] * out.coarse.cls_logits).sum()
                     + (w["cr"] * out.coarse.reg).sum())
        d_fc = d_fr = None
        if out.refined is not None:
            loss += float((w["fc"] * out.refined.cls_logits).sum()
                          + (w["fr"] * out.refined.reg).sum())
            d_fc, d_fr = w["fc"], w["fr"]
        model.backward(w["cc"], w["cr"], d_fc, d_fr, cache)
        return loss

    return grad_check(fn, model.params())


def test_full_model_grad_check():
    """Backbone → attention → both heads, every parameter, one backward;
    also with BN everywhere in training mode, batch statistics included."""
    assert full_model_grad_error(tiny_model_spec()) < 1e-4
    assert full_model_grad_error(tiny_model_spec(use_bn=True), training=True) < 1e-4


def test_full_model_grad_check_cosine_variant():
    assert full_model_grad_error(tiny_model_spec(use_prt=False)) < 1e-4
    assert full_model_grad_error(tiny_model_spec(use_bn=True, use_prt=False),
                                 training=True) < 1e-4


def test_full_model_grad_check_coarse_only():
    assert full_model_grad_error(tiny_model_spec(use_prm=False)) < 1e-4
    assert full_model_grad_error(tiny_model_spec(use_bn=True, use_prm=False),
                                 training=True) < 1e-4
