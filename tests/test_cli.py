import csv
import json

import numpy as np
import pytest

import pctrack.cli
from pctrack.checks import CheckResult, oracle_suite
from pctrack.cli import main
from pctrack.evaldata import load_dataset
from pctrack.numeric import load_checkpoint, save_checkpoint


def _filecmp(a, b):
    return a.read_bytes() == b.read_bytes()


def test_no_subcommand_is_validation_error(capsys):
    assert main([]) == 1


def test_unknown_subcommand_and_flag(capsys):
    assert main(["frobnicate"]) == 1
    assert main(["synth", "--out", "/tmp/x", "--no-such-flag"]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "synth" in capsys.readouterr().out


def test_synth_writes_deterministic_dataset(tmp_path, capsys):
    args = ["synth", "--tracklets", "2", "--frames", "4", "--seed", "11"]
    assert main([*args, "--out", str(tmp_path / "a")]) == 0
    assert main([*args, "--out", str(tmp_path / "b")]) == 0
    ds = load_dataset(tmp_path / "a")
    assert len(ds) == 2 and ds[0].n_frames == 4
    for name in ["meta.json", "frame_0000.bin", "frame_0003.bin"]:
        assert _filecmp(tmp_path / "a" / "tracklet_000" / name,
                        tmp_path / "b" / "tracklet_000" / name)
    other = tmp_path / "c"
    assert main(["synth", "--tracklets", "2", "--frames", "4", "--seed", "12",
                 "--out", str(other)]) == 0
    assert not _filecmp(tmp_path / "a" / "tracklet_000" / "frame_0000.bin",
                        other / "tracklet_000" / "frame_0000.bin")


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "ds"
    rc = main(["synth", "--out", str(path), "--tracklets", "2", "--frames", "4",
               "--points", "40", "--clutter", "30", "--seed", "5"])
    assert rc == 0
    return path


def test_eval_passes_configured_crops(small_dataset, monkeypatch, capsys):
    import pctrack.cli

    seen = {}
    real = pctrack.cli.evaluate

    def spy(*args, **kwargs):
        seen.update(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(pctrack.cli, "evaluate", spy)
    rc = main(["eval", "--data", str(small_dataset), "--oracle",
               "--set", "search_margin_m=0.75", "--set", "template_extend_ratio=0.3"])
    assert rc == 0
    assert seen["margin_m"] == 0.75 and seen["extend_ratio"] == 0.3


def test_train_zero_epochs_writes_init_checkpoint(small_dataset, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["train", "--data", str(small_dataset), "--out", str(out),
               "--profile", "tiny", "--epochs", "0"])
    assert rc == 0
    assert (out / "model.ckpt").exists()
    assert (out / "config.cfg").exists()
    with open(out / "train_log.csv") as f:
        rows = list(csv.reader(f))
    assert rows == [["epoch", "total", "cls_coarse", "reg_coarse",
                     "cls_refine", "reg_refine", "lr"]]


def test_train_track_eval_round(small_dataset, tmp_path, capsys):
    run = tmp_path / "run"
    rc = main(["train", "--data", str(small_dataset), "--out", str(run),
               "--profile", "tiny", "--epochs", "2", "--seed", "3"])
    assert rc == 0
    with open(run / "train_log.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 2 and rows[1]["epoch"] == "1"

    # track picks up config.cfg sitting next to the checkpoint
    tr_out = tmp_path / "tracked"
    rc = main(["track", "--data", str(small_dataset), "--ckpt",
               str(run / "model.ckpt"), "--out", str(tr_out), "--index", "1"])
    assert rc == 0
    with open(tr_out / "boxes.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 4
    assert rows[0]["frame"] == "0" and float(rows[2]["length"]) > 0
    assert {r["held_reason"] for r in rows} <= {"", "empty_search", "non_finite"}

    ev_out = tmp_path / "ev"
    rc = main(["eval", "--data", str(small_dataset), "--ckpt",
               str(run / "model.ckpt"), "--out", str(ev_out)])
    assert rc == 0
    report = json.loads((ev_out / "eval.json").read_text())
    assert set(report) == {"per_class", "average", "failures"}
    assert report["average"]["frames"] == 6


def test_track_index_out_of_range(small_dataset, tmp_path):
    run = tmp_path / "run"
    main(["train", "--data", str(small_dataset), "--out", str(run),
          "--profile", "tiny", "--epochs", "0"])
    rc = main(["track", "--data", str(small_dataset), "--ckpt",
               str(run / "model.ckpt"), "--out", str(tmp_path / "t"),
               "--index", "9"])
    assert rc == 1


@pytest.mark.parametrize("command", ["track", "eval"])
def test_non_finite_checkpoint_is_validation_error(small_dataset, tmp_path, capsys,
                                                   command):
    run = tmp_path / "run"
    main(["train", "--data", str(small_dataset), "--out", str(run),
          "--profile", "tiny", "--epochs", "0"])
    state = load_checkpoint(run / "model.ckpt")
    name = next(iter(state))
    state[name].reshape(-1)[0] = np.nan
    save_checkpoint(run / "model.ckpt", state)
    capsys.readouterr()
    rc = main([command, "--data", str(small_dataset), "--ckpt",
               str(run / "model.ckpt"), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert name in err and "non-finite" in err


def test_eval_needs_model_xor_oracle(small_dataset, tmp_path):
    assert main(["eval", "--data", str(small_dataset)]) == 1


def test_eval_oracle_prints_perfect_scores(small_dataset, tmp_path, capsys):
    rc = main(["eval", "--data", str(small_dataset), "--oracle",
               "--out", str(tmp_path / "ev")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Success 100.0 / Precision 100.0" in out
    with open(tmp_path / "ev" / "eval.csv") as f:
        rows = list(csv.DictReader(f))
    assert rows[-1]["class"] == "average"
    assert float(rows[-1]["success"]) == pytest.approx(100.0)


def test_truncated_cloud_is_validation_error(small_dataset, tmp_path, capsys):
    import shutil

    data = tmp_path / "ds"
    shutil.copytree(small_dataset, data)
    (data / "tracklet_000" / "frame_0001.bin").write_bytes(b"\x01\x00")
    rc = main(["eval", "--data", str(data), "--oracle", "--out", str(tmp_path / "ev")])
    assert rc == 1
    assert "runtime failure" not in capsys.readouterr().err


def test_eval_csv_identical_across_runs(small_dataset, tmp_path):
    for name in ("x", "y"):
        rc = main(["eval", "--data", str(small_dataset), "--oracle",
                   "--seed", "2", "--out", str(tmp_path / name)])
        assert rc == 0
    assert _filecmp(tmp_path / "x" / "eval.csv", tmp_path / "y" / "eval.csv")
    assert _filecmp(tmp_path / "x" / "eval.json", tmp_path / "y" / "eval.json")


def test_missing_dataset_is_validation_error(tmp_path):
    assert main(["train", "--data", str(tmp_path / "nope"), "--out",
                 str(tmp_path / "r"), "--profile", "tiny"]) == 1


def test_unexpected_exception_is_runtime_failure(small_dataset, tmp_path, monkeypatch):
    import pctrack.cli as cli_mod

    def boom(*a, **k):
        raise RuntimeError("injected")

    monkeypatch.setattr(cli_mod, "train", boom)
    rc = main(["train", "--data", str(small_dataset), "--out",
               str(tmp_path / "r"), "--profile", "tiny"])
    assert rc == 2


def test_build_dataset_command(tmp_path):
    from pctrack.evaldata import _write_cloud_bin

    rng = np.random.default_rng(0)
    records = []
    for i in range(4):
        center = [0.1 * i, 0.0, 0.0]
        obj = center + rng.uniform(-0.4, 0.4, size=(25, 3))
        _write_cloud_bin(tmp_path / f"scan{i}.bin", obj)
        records.append({"cloud": f"scan{i}.bin",
                        "annotations": [{"object_id": "a", "label": "car",
                                         "box": [*center, 1.0, 1.0, 1.0, 0.0]}]})
    index = tmp_path / "scenes.jsonl"
    index.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    out = tmp_path / "built"
    assert main(["build-dataset", "--scenes", str(index), "--out", str(out)]) == 0
    ds = load_dataset(out)
    assert len(ds) == 1 and ds[0].n_frames == 4


def test_build_dataset_rejects_when_everything_filtered(tmp_path):
    from pctrack.evaldata import _write_cloud_bin

    _write_cloud_bin(tmp_path / "scan0.bin", np.zeros((3, 3)))
    record = {"cloud": "scan0.bin",
              "annotations": [{"object_id": "a", "label": "car",
                               "box": [0, 0, 0, 1, 1, 1, 0]}]}
    index = tmp_path / "scenes.jsonl"
    index.write_text(json.dumps(record) + "\n")
    assert main(["build-dataset", "--scenes", str(index),
                 "--out", str(tmp_path / "o")]) == 1


def test_bench_json_output(capsys):
    rc = main(["bench", "--profile", "tiny", "--template", "48", "--search", "64",
               "--repeats", "2", "--warmup", "1", "--json"])
    assert rc == 0
    stats = json.loads(capsys.readouterr().out.split("{", 1)[1].join(["{", ""]))
    assert stats["template"] == 48 and stats["search"] == 64
    assert stats["total_ms_min"] > 0
    assert stats["total_ms_mean"] >= stats["total_ms_min"]


@pytest.mark.parametrize("name", ["ras", "hybrid"])
def test_template_relation_sampler_is_validation_error(name, capsys):
    rc = main(["bench", "--profile", "tiny", "--set", f"template_sampler={name}",
               "--template", "32", "--search", "64", "--repeats", "1", "--warmup", "0"])
    assert rc == 1
    assert "template_sampler" in capsys.readouterr().err


@pytest.mark.parametrize("override", [
    "sa_max_neighbors=0", "sa_search_points=0,16",
    pytest.param("sa_radii= sa_template_points= sa_search_points= sa_channels=",
                 id="no-levels"),
])
def test_counts_below_one_are_validation_errors(override, capsys):
    sets = [arg for item in override.split() for arg in ("--set", item)]
    rc = main(["bench", "--profile", "tiny", *sets,
               "--template", "32", "--search", "64", "--repeats", "1", "--warmup", "0"])
    assert rc == 1
    assert override.split("=")[0] in capsys.readouterr().err


@pytest.mark.parametrize("override", [
    "lam=nan", "lr=inf", "distort_range_m=nan", "lr_divisor=0", "lr_divisor=-1",
    "coarse_hidden=0", "refine_hidden=0,0", "sa_channels=16,0", "sa_radii=nan,0.8",
    "sa_radii=inf,0.8", "pool_radius=nan", "template_extend_ratio=-0.5",
    "search_margin_m=-3", "distort_range_m=-0.3",
])
def test_out_of_range_numbers_are_validation_errors(override, small_dataset,
                                                                 tmp_path, capsys):
    """Each would crash or stop training, or train at a wrong rate; validation
    names the field."""
    rc = main(["train", "--data", str(small_dataset), "--out", str(tmp_path / "run"),
               "--profile", "tiny", "--epochs", "3", "--set", "lr_step_epochs=1",
               "--set", override])
    assert rc == 1
    assert override.split("=")[0] in capsys.readouterr().err


def test_ablation_flag_changes_model(small_dataset, tmp_path):
    runs = {}
    for name, extra in [("base", []), ("ab", ["--ablation", "matcher-cosine"])]:
        out = tmp_path / name
        rc = main(["train", "--data", str(small_dataset), "--out", str(out),
                   "--profile", "tiny", "--epochs", "0", *extra])
        assert rc == 0
        runs[name] = (out / "model.ckpt").stat().st_size
    assert runs["ab"] < runs["base"]  # attention weights removed


def test_oracle_suite_is_green():
    assert all(r.ok for r in oracle_suite())


@pytest.mark.parametrize("failing", [False, True])
def test_check_exit_code_follows_results(failing, monkeypatch, capsys):
    grad = [CheckResult("grad-a", "ok", True), CheckResult("grad-b", "bad", not failing)]
    monkeypatch.setattr(pctrack.cli, "gradient_suite", lambda: grad)
    monkeypatch.setattr(pctrack.cli, "oracle_suite",
                        lambda: [CheckResult("oracle-a", "ok", True)])
    assert main(["check"]) == (1 if failing else 0)
    out = capsys.readouterr().out
    assert ("FAIL  grad-b" in out) == failing
    assert "PASS  grad-a" in out and "PASS  oracle-a" in out
