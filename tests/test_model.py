import dataclasses

import numpy as np
import pytest

import pctrack.backbone
import pctrack.checks
from pctrack.checks import full_model_gradient_error, tiny_config
from pctrack.config import RunConfig, apply_ablation, build_model, config_for_profile
from pctrack.model import ModelOutput, TrackerModel
from pctrack.numeric import Adam, load_checkpoint, save_checkpoint

from helpers import desk_crops


def tiny_clouds(seed=0, n_t=8, n_s=10):
    rng = np.random.default_rng(seed)
    return (rng.normal(scale=0.5, size=(n_t, 3)),
            rng.normal(scale=0.5, size=(n_s, 3)))


def run_forward(model, seed_clouds=1, seed_rng=2, plan=None):
    ct, cs = tiny_clouds(seed_clouds)
    return model.forward(ct, cs, np.random.default_rng(seed_rng), plan=plan)


# ---------------------------------------------------------------- structure


def test_model_output_shapes():
    model = TrackerModel(tiny_config(seed=0), np.float64)
    out, _ = run_forward(model)
    assert out.coarse.cls_logits.shape == (6, 1)
    assert out.coarse.reg.shape == (6, 4)
    assert out.refined.cls_logits.shape == (6, 1)
    assert out.refined.reg.shape == (6, 4)
    assert out.seeds.shape == (6, 3)


def test_model_final_prefers_refined():
    model = TrackerModel(tiny_config(seed=1), np.float64)
    out, _ = run_forward(model)
    assert out.final is out.refined

    bare = TrackerModel(tiny_config(seed=1, use_prm=False), np.float64)
    out2, _ = run_forward(bare)
    assert out2.refined is None
    assert out2.final is out2.coarse


def test_model_cosine_variant_runs():
    model = TrackerModel(tiny_config(seed=2, use_prt=False), np.float64)
    out, _ = run_forward(model)
    assert isinstance(out, ModelOutput)
    assert out.refined is not None
    assert model.prt is None


@pytest.mark.parametrize("l2,off", [(False, True), (True, False), (False, False)])
def test_model_attention_toggles_change_predictions(l2, off):
    base = TrackerModel(tiny_config(seed=3), np.float64)
    variant = TrackerModel(tiny_config(seed=3, use_l2_norm=l2, use_offset=off), np.float64)
    out_b, _ = run_forward(base)
    out_v, _ = run_forward(variant, plan=out_b.plan)
    assert not np.allclose(out_b.coarse.cls_logits, out_v.coarse.cls_logits)


def test_model_plan_replay_bitwise():
    model = TrackerModel(tiny_config(seed=4), np.float64)
    out0, _ = run_forward(model, seed_rng=5)
    out1, _ = run_forward(model, seed_rng=999, plan=out0.plan)
    np.testing.assert_array_equal(out0.coarse.cls_logits, out1.coarse.cls_logits)
    np.testing.assert_array_equal(out0.refined.reg, out1.refined.reg)


def test_model_param_names_unique():
    model = TrackerModel(tiny_config(seed=5), np.float64)
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
    model = TrackerModel(tiny_config(seed=0))
    ct, cs = tiny_clouds(3)
    (ct if branch == "template" else cs)[4, 1] = value
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        model.predict_canonical(ct, cs, None, 0, np.random.default_rng(0))


# ---------------------------------------------------------------- forward caches


@pytest.mark.parametrize("profile", ["desk", "full"])
def test_forward_without_caches_is_bitwise_equal(profile):
    """keep_cache only decides what the forward keeps for a backward; the
    outputs, the seeds and every discrete decision are the same bits."""
    model = build_model(config_for_profile(profile))
    ct, cs = desk_crops(3)
    kept, cache = model.forward(ct, cs, np.random.default_rng(4))
    bare, none = model.forward(ct, cs, np.random.default_rng(4), keep_cache=False)
    assert cache is not None and none is None
    for a, b in [(kept.coarse, bare.coarse), (kept.refined, bare.refined)]:
        np.testing.assert_array_equal(a.cls_logits, b.cls_logits)
        np.testing.assert_array_equal(a.reg, b.reg)
    np.testing.assert_array_equal(kept.seeds, bare.seeds)
    for pair_a, pair_b in zip(kept.plan.backbone.selections, bare.plan.backbone.selections):
        for a, b in zip(pair_a, pair_b):
            np.testing.assert_array_equal(a.indices, b.indices)
            assert a.padded == b.padded
    assert kept.plan.best_index == bare.plan.best_index
    for a, b in [(kept.plan.pool_group_search, bare.plan.pool_group_search),
                 (kept.plan.pool_group_template, bare.plan.pool_group_template)]:
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    pred, seeds = model.predict_canonical(ct, cs, None, 0, np.random.default_rng(4))
    np.testing.assert_array_equal(pred.cls_logits, kept.final.cls_logits)
    np.testing.assert_array_equal(pred.reg, kept.final.reg)
    np.testing.assert_array_equal(seeds, kept.seeds)


def test_predict_canonical_runs_one_forward_without_caches(monkeypatch):
    model = TrackerModel(tiny_config(seed=0))
    calls = []
    real = TrackerModel.forward

    def spy(self, *args, **kwargs):
        out, cache = real(self, *args, **kwargs)
        calls.append(cache)
        return out, cache

    monkeypatch.setattr(TrackerModel, "forward", spy)
    ct, cs = tiny_clouds(1)
    model.predict_canonical(ct, cs, None, 0, np.random.default_rng(0))
    assert calls == [None]


def test_backward_of_a_cache_free_forward_is_value_error():
    model = TrackerModel(tiny_config(seed=0))
    out, cache = model.forward(*tiny_clouds(1), np.random.default_rng(2), keep_cache=False)
    zeros = np.zeros_like(out.coarse.cls_logits), np.zeros_like(out.coarse.reg)
    with pytest.raises(ValueError, match="keep_cache=True"):
        model.backward(*zeros, *zeros, cache)


# ---------------------------------------------------------------- checkpoints


def scramble_params(model, seed=777):
    """Overwrites every parameter with values its init seed would not give,
    so a model that matches it can only have loaded them."""
    rng = np.random.default_rng(seed)
    for p in model.params():
        p.value[...] = rng.normal(scale=0.1, size=p.value.shape)


def assert_same_state(a, b):
    sa, sb = a.state_dict(), b.state_dict()
    assert sa.keys() == sb.keys()
    for name in sa:
        np.testing.assert_array_equal(sa[name], sb[name], err_msg=name)


def test_model_checkpoint_roundtrip(tmp_path):
    a = TrackerModel(tiny_config(seed=6))
    scramble_params(a)
    path = tmp_path / "model.ckpt"
    a.save(path)
    b = TrackerModel.from_checkpoint(path)
    assert_same_state(a, b)
    out_a, _ = run_forward(a)
    out_b, _ = run_forward(b, plan=out_a.plan)
    np.testing.assert_array_equal(out_a.final.cls_logits, out_b.final.cls_logits)
    np.testing.assert_array_equal(out_a.final.reg, out_b.final.reg)


def test_checkpoint_carries_its_config(tmp_path):
    """A no-offset checkpoint rebuilds the no-offset network, with no
    config file beside it."""
    cfg = apply_ablation(config_for_profile("tiny"), "no-offset")
    a = build_model(cfg)
    scramble_params(a)
    path = tmp_path / "model.ckpt"
    a.save(path)
    b = TrackerModel.from_checkpoint(path)
    assert b.cfg == cfg and b.cfg.use_offset is False
    assert_same_state(a, b)
    out_a, _ = run_forward(a)
    out_b, _ = run_forward(b)
    np.testing.assert_array_equal(out_a.final.cls_logits, out_b.final.cls_logits)
    np.testing.assert_array_equal(out_a.final.reg, out_b.final.reg)


def test_packing_params_keeps_the_checkpoint_bytes(tmp_path):
    model = TrackerModel(tiny_config(seed=6, use_bn=True))
    scramble_params(model)
    model.save(tmp_path / "before.ckpt")
    opt = Adam(model.params())
    model.save(tmp_path / "after.ckpt")
    assert (tmp_path / "before.ckpt").read_bytes() == (tmp_path / "after.ckpt").read_bytes()
    assert all(np.shares_memory(p.value, opt.value) and np.shares_memory(p.grad, opt.grad)
               for p in model.params())


def test_gradient_check_passes_on_a_packed_model(monkeypatch):
    class Packed(TrackerModel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            Adam(self.params())

    monkeypatch.setattr(pctrack.checks, "TrackerModel", Packed)
    assert full_model_gradient_error(True, use_bn=True) < 1e-4


def test_model_checkpoint_rejects_other_architecture(tmp_path):
    a = TrackerModel(tiny_config(seed=7))
    path = tmp_path / "model.ckpt"
    a.save(path)
    b = TrackerModel(tiny_config(seed=7, use_prt=False))  # no attention params
    with pytest.raises(ValueError, match="mismatch"):
        b.load_state_dict(load_checkpoint(path)[0])


def test_model_checkpoint_rejects_buffer_of_wrong_shape(tmp_path):
    """A (1,) running mean would broadcast to every channel; the load is
    refused and writes nothing."""
    model = TrackerModel(tiny_config(seed=7, use_bn=True))
    state = {name: value.copy() for name, value in model.state_dict().items()}
    state["backbone.embed.0.bn.running_mean"] = np.ones(1, dtype=np.float32)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, state, [])
    before = {name: value.copy() for name, value in model.state_dict().items()}
    with pytest.raises(ValueError, match="running_mean"):
        model.load_state_dict(load_checkpoint(path)[0])
    for name, value in model.state_dict().items():
        np.testing.assert_array_equal(value, before[name])


@pytest.mark.parametrize("entry,bad", [
    ("backbone.embed.0.weight", np.nan),
    ("backbone.embed.0.bn.running_var", np.inf),
])
def test_model_checkpoint_rejects_non_finite_values(tmp_path, entry, bad):
    """A checksummed checkpoint with one non-finite weight or buffer is
    refused by name, and the load writes nothing."""
    model = TrackerModel(tiny_config(seed=7, use_bn=True))
    state = {name: value.copy() for name, value in model.state_dict().items()}
    state[entry].reshape(-1)[0] = bad
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, state, [])
    before = {name: value.copy() for name, value in model.state_dict().items()}
    with pytest.raises(ValueError, match=entry.replace(".", r"\.")):
        model.load_state_dict(load_checkpoint(path)[0])
    for name, value in model.state_dict().items():
        np.testing.assert_array_equal(value, before[name])


# ---------------------------------------------------------------- construction


# One changed value per RunConfig field, each valid on the tiny check config.
FIELD_CHANGES = {
    "embed_dim": 5,
    "sa_radii": (0.5, 1.2),
    "sa_template_points": (6, 3),
    "sa_search_points": (8, 4),
    "sa_channels": (6, 9),
    "sa_max_neighbors": 2,
    "template_sampler": "random",
    "search_sampler": "dfps",
    "use_bn": True,
    "coarse_hidden": (6, 7),
    "refine_hidden": (8, 6, 6, 7),
    "pool_radius": 0.3,
    "use_prt": False,
    "use_prm": False,
    "use_l2_norm": False,
    "use_offset": False,
    "seed": 1,
    "lam": 0.5,
    "lr": 0.01,
    "lr_divisor": 2.0,
    "lr_step_epochs": 3,
    "epochs": 1,
    "batch_size": 2,
    "template_extend_ratio": 0.2,
    "search_margin_m": 1.0,
    "distort_range_m": 0.1,
}
TRAINING_AND_TRACKING_FIELDS = {"lam", "lr", "lr_divisor", "lr_step_epochs", "epochs",
                                "batch_size", "template_extend_ratio", "search_margin_m",
                                "distort_range_m"}


def model_fingerprint(cfg):
    """The state_dict's names, shapes and bytes, and every forward output."""
    model = build_model(cfg)
    state = [(name, value.shape, value.tobytes())
             for name, value in model.state_dict().items()]
    rng = np.random.default_rng(12)
    out, _ = model.forward(rng.normal(scale=0.6, size=(12, 3)),
                           rng.normal(scale=0.6, size=(16, 3)), rng)
    arrays = [out.coarse.cls_logits, out.coarse.reg, out.seeds]
    if out.refined is not None:
        arrays += [out.refined.cls_logits, out.refined.reg]
    return state, [(a.shape, a.tobytes()) for a in arrays]


def test_field_changes_cover_every_config_field():
    assert set(FIELD_CHANGES) == {f.name for f in dataclasses.fields(RunConfig)}


@pytest.mark.parametrize("name", sorted(FIELD_CHANGES))
def test_model_fields_and_only_they_change_the_model(name):
    """Each model field, changed alone, reaches the parameters or the
    forward output; the training and tracking fields reach neither."""
    base = tiny_config()
    changed = dataclasses.replace(base, **{name: FIELD_CHANGES[name]}).validate()
    assert getattr(changed, name) != getattr(base, name)
    same = model_fingerprint(changed) == model_fingerprint(base)
    assert same == (name in TRAINING_AND_TRACKING_FIELDS)
