import dataclasses

import numpy as np
import pytest

import pctrack.backbone
from pctrack.checks import tiny_config
from pctrack.config import RunConfig, apply_ablation, build_model, config_for_profile
from pctrack.model import ModelOutput, TrackerModel
from pctrack.numeric import save_checkpoint


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
    assert out.template_coords.shape == (4, 3)


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


# ---------------------------------------------------------------- checkpoints


def test_model_checkpoint_roundtrip(tmp_path):
    a = TrackerModel(tiny_config(seed=6))
    path = tmp_path / "model.ckpt"
    a.save(path)
    b = TrackerModel(tiny_config(seed=777))
    b.load(path)
    out_a, _ = run_forward(a)
    out_b, _ = run_forward(b, plan=out_a.plan)
    np.testing.assert_array_equal(out_a.final.cls_logits, out_b.final.cls_logits)
    np.testing.assert_array_equal(out_a.final.reg, out_b.final.reg)


def test_model_checkpoint_rejects_other_architecture(tmp_path):
    a = TrackerModel(tiny_config(seed=7))
    path = tmp_path / "model.ckpt"
    a.save(path)
    b = TrackerModel(tiny_config(seed=7, use_prt=False))  # no attention params
    with pytest.raises(ValueError, match="mismatch"):
        b.load(path)


def test_model_checkpoint_rejects_buffer_of_wrong_shape(tmp_path):
    """A (1,) running mean would broadcast to every channel; the load is
    refused and writes nothing."""
    model = TrackerModel(tiny_config(seed=7, use_bn=True))
    state = {name: value.copy() for name, value in model.state_dict().items()}
    state["backbone.embed.0.bn.running_mean"] = np.ones(1, dtype=np.float32)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, state)
    before = {name: value.copy() for name, value in model.state_dict().items()}
    with pytest.raises(ValueError, match="running_mean"):
        model.load(path)
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
    save_checkpoint(path, state)
    before = {name: value.copy() for name, value in model.state_dict().items()}
    with pytest.raises(ValueError, match=entry.replace(".", r"\.")):
        model.load(path)
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
    arrays = [out.coarse.cls_logits, out.coarse.reg, out.seeds, out.template_coords]
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
