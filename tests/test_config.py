import dataclasses

import numpy as np
import pytest

import pctrack
from pctrack.backbone import SAMPLER_NAMES
from pctrack.config import (
    PROFILES,
    RunConfig,
    apply_overrides,
    build_model,
    config_for_profile,
    load_config,
    save_config,
)
from pctrack.evaldata import SynthSpec, evaluate, synth_tracklet
from pctrack.pipeline import train


def test_default_config_validates():
    RunConfig().validate()


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_profiles_validate_and_build_specs(name):
    cfg = config_for_profile(name)
    model = build_model(cfg)
    assert len(model.backbone.levels) == len(cfg.sa_radii)
    assert model.heads.coarse_cls.layers[0].weight.value.shape[1] == cfg.sa_channels[-1]


def test_unknown_profile_rejected():
    with pytest.raises(ValueError, match="profile"):
        config_for_profile("enormous")


def test_desk_profile_matches_defaults():
    assert config_for_profile("desk") == RunConfig()


def test_tiny_profile_builds_runnable_model():
    cfg = config_for_profile("tiny")
    model = build_model(cfg)
    rng = np.random.default_rng(3)
    t = rng.normal(size=(40, 3))
    s = rng.normal(size=(70, 3))
    out, _ = model.forward(t, s, rng)
    assert out.final.cls_logits.shape == (cfg.sa_search_points[-1], 1)


def test_roundtrip_through_file(tmp_path):
    cfg = apply_overrides(RunConfig(), [
        "embed_dim=16",
        "sa_radii=0.4,0.8,1.5",
        "use_bn=true",
        "lam=0.5",
        "template_sampler=ffps",
    ])
    path = tmp_path / "run.cfg"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_load_config_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# a comment\n\nepochs=7\n  seed=12\n")
    cfg = load_config(path)
    assert cfg.epochs == 7 and cfg.seed == 12


@pytest.mark.parametrize("override,attr,value", [
    ("epochs=25", "epochs", 25),
    ("lr=0.01", "lr", 0.01),
    ("use_prm=false", "use_prm", False),
    ("use_prm=1", "use_prm", True),
    ("sa_channels=8,16,32", "sa_channels", (8, 16, 32)),
    ("sa_radii=0.25,0.5,1.0", "sa_radii", (0.25, 0.5, 1.0)),
    ("search_sampler=random", "search_sampler", "random"),
])
def test_override_parsing(override, attr, value):
    cfg = apply_overrides(RunConfig(), [override])
    got = getattr(cfg, attr)
    assert got == value
    assert type(got) is type(value)


def test_override_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown config key"):
        apply_overrides(RunConfig(), ["depth=3"])


def test_override_rejects_bad_forms():
    with pytest.raises(ValueError, match="key=value"):
        apply_overrides(RunConfig(), ["epochs"])
    with pytest.raises(ValueError, match="boolean"):
        apply_overrides(RunConfig(), ["use_bn=maybe"])
    with pytest.raises(ValueError):
        apply_overrides(RunConfig(), ["epochs=three"])


def test_validate_rejects_inconsistencies():
    with pytest.raises(ValueError, match="equal lengths"):
        dataclasses.replace(RunConfig(), sa_radii=(0.3, 0.5)).validate()
    with pytest.raises(ValueError, match="sampler"):
        dataclasses.replace(RunConfig(), search_sampler="farthest").validate()
    with pytest.raises(ValueError, match="even"):
        dataclasses.replace(RunConfig(), sa_search_points=(512, 255, 128)).validate()
    with pytest.raises(ValueError, match="lam"):
        dataclasses.replace(RunConfig(), lam=-0.5).validate()


NO_LEVELS = "sa_radii= sa_template_points= sa_search_points= sa_channels="


@pytest.mark.parametrize("override,message", [
    ("sa_max_neighbors=0", "sa_max_neighbors"),
    ("sa_search_points=0,16", "sa_search_points"),
    ("sa_template_points=16,-1", "sa_template_points"),
    pytest.param(NO_LEVELS, "at least one level", id="no-levels"),
])
def test_counts_below_one_rejected(override, message):
    """These used to validate and then fail in the first forward pass."""
    with pytest.raises(ValueError, match=message):
        apply_overrides(config_for_profile("tiny"), override.split())


@pytest.mark.parametrize("name", ["ras", "hybrid"])
def test_relation_samplers_rejected_for_template_branch(name):
    """The template branch has no template features to score against."""
    with pytest.raises(ValueError, match="template_sampler"):
        RunConfig(template_sampler=name).validate()
    with pytest.raises(ValueError, match="template_sampler"):
        apply_overrides(RunConfig(), [f"template_sampler={name}"])


def test_every_public_name_imports():
    for name in pctrack.__all__:
        exec(f"from pctrack import {name}", {})


def test_odd_counts_fine_for_non_hybrid_sampler():
    cfg = dataclasses.replace(RunConfig(), search_sampler="dfps",
                              sa_search_points=(512, 255, 128))
    cfg.validate()


def drawn_config(seed: int) -> RunConfig:
    """A small config that validates, drawn from ``seed``: 1-3 levels, the
    samplers and the BN, PRT and PRM switches cycled over the seeds."""
    rng = np.random.default_rng(seed)
    levels = int(rng.integers(1, 4))

    def widths(n):
        return tuple(int(w) for w in rng.integers(2, 17, size=n))

    return RunConfig(
        embed_dim=int(rng.integers(2, 13)),
        sa_radii=tuple(float(r) for r in rng.uniform(0.05, 2.0, size=levels)),
        sa_template_points=tuple(int(n) for n in rng.integers(1, 40, size=levels)),
        sa_search_points=tuple(2 * int(n) for n in rng.integers(1, 40, size=levels)),
        sa_channels=widths(levels),
        sa_max_neighbors=int(rng.integers(1, 20)),
        template_sampler=("random", "dfps", "ffps")[seed % 3],
        search_sampler=SAMPLER_NAMES[seed % len(SAMPLER_NAMES)],
        use_bn=seed % 2 == 0,
        coarse_hidden=widths(int(rng.integers(0, 3))),
        refine_hidden=widths(int(rng.integers(0, 5))),
        pool_radius=float(rng.uniform(0.1, 2.0)),
        use_prt=seed % 4 < 2,
        use_prm=seed % 3 != 2,
        epochs=1,
        batch_size=int(rng.integers(1, 5)),
        seed=seed,
    ).validate()


@pytest.fixture(scope="module")
def two_tiny_tracklets():
    spec = SynthSpec(n_frames=3, points_on_object=30, n_clutter=20)
    return [synth_tracklet(spec, seed) for seed in (0, 1)]


@pytest.mark.parametrize("seed", range(12))
def test_every_config_that_validates_trains_and_evaluates(seed, two_tiny_tracklets):
    cfg = drawn_config(seed)
    model = build_model(cfg)
    (row,) = train(two_tiny_tracklets, model, cfg)
    assert np.isfinite(row["total"])
    report = evaluate(two_tiny_tracklets, model, seed=cfg.seed)
    assert report.failures == []
    assert report.average["frames"] == 4
