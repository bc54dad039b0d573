import csv
import json
import math
import shutil
import struct

import numpy as np
import pytest

import pctrack.cli
import pctrack.evaldata
from pctrack.checks import CheckResult, oracle_suite
from pctrack.cli import main
from pctrack.evaldata import load_dataset
from pctrack.model import TrackerModel
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


@pytest.mark.parametrize("flag,value", [
    ("--tracklets", "0"), ("--frames", "0"), ("--points", "0"), ("--seed", "-1"),
    ("--clutter", "-5"), ("--distractors", "-2"), ("--noise", "-1"), ("--noise", "inf"),
    ("--speed", "nan"), ("--speed", "-0.5"), ("--yaw-rate", "nan"),
])
def test_synth_bad_count_or_seed_is_validation_error(flag, value, tmp_path, capsys):
    """Refused before the output directory is made, naming the flag: counts,
    the seed, and the scene's noise and motion."""
    out = tmp_path / "ds"
    assert main(["synth", "--out", str(out), "--tracklets", "1", "--frames", "2",
                 flag, value]) == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()


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

    # track builds the network the checkpoint records
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


def test_track_writes_the_boxes_eval_tracks(small_dataset, tmp_path, monkeypatch):
    """``track --index 1`` tracks tracklet 1 with the RNG stream ``eval``
    gives it, so with the default hybrid sampler both give the same boxes."""
    run = tmp_path / "run"
    assert main(["train", "--data", str(small_dataset), "--out", str(run),
                 "--profile", "tiny", "--epochs", "0"]) == 0
    tracked = {}
    real = pctrack.evaldata.track_tracklet

    def spy(tracklet, *args):
        result = real(tracklet, *args)
        tracked[tracklet.object_id] = result[0]
        return result

    monkeypatch.setattr(pctrack.evaldata, "track_tracklet", spy)
    assert main(["eval", "--data", str(small_dataset), "--ckpt", str(run / "model.ckpt"),
                 "--seed", "4"]) == 0
    assert main(["track", "--data", str(small_dataset), "--ckpt", str(run / "model.ckpt"),
                 "--out", str(tmp_path / "t"), "--index", "1", "--seed", "4"]) == 0
    with open(tmp_path / "t" / "boxes.csv") as f:
        written = [[float(v) for v in row[1:8]] for row in list(csv.reader(f))[1:]]
    boxes = tracked[load_dataset(small_dataset)[1].object_id]
    assert written == [b.as_array7().tolist() for b in boxes]


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
    state, config = load_checkpoint(run / "model.ckpt")
    name = next(iter(state))
    state[name].reshape(-1)[0] = np.nan
    save_checkpoint(run / "model.ckpt", state, config)
    capsys.readouterr()
    rc = main([command, "--data", str(small_dataset), "--ckpt",
               str(run / "model.ckpt"), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert name in err and "non-finite" in err


@pytest.fixture(scope="module")
def no_offset_run(small_dataset, tmp_path_factory):
    run = tmp_path_factory.mktemp("no-offset") / "run"
    assert main(["train", "--data", str(small_dataset), "--out", str(run),
                 "--profile", "tiny", "--epochs", "2", "--ablation", "no-offset"]) == 0
    return run


def test_checkpoint_alone_evaluates_as_in_place(small_dataset, no_offset_run, tmp_path,
                                                capsys):
    """The checkpoint is the whole record: moved away from train's
    config.cfg, it gives the same eval.csv bytes."""
    alone = tmp_path / "alone"
    alone.mkdir()
    shutil.copy(no_offset_run / "model.ckpt", alone / "model.ckpt")
    for ckpt, out in [(no_offset_run, "in-place"), (alone, "alone")]:
        assert main(["eval", "--data", str(small_dataset), "--ckpt",
                     str(ckpt / "model.ckpt"), "--out", str(tmp_path / out)]) == 0
    assert _filecmp(tmp_path / "in-place" / "eval.csv", tmp_path / "alone" / "eval.csv")


@pytest.mark.parametrize("command", ["track", "eval"])
@pytest.mark.parametrize("flags,named", [
    (["--set", "use_offset=true"], "use_offset"),
    (["--set", "lr=0.1"], "lr"),
    (["--profile", "tiny"], "--profile"),
])
def test_tracking_commands_change_only_tracking_fields(command, flags, named,
                                                       small_dataset, no_offset_run,
                                                       tmp_path, capsys):
    rc = main([command, "--data", str(small_dataset), "--ckpt",
               str(no_offset_run / "model.ckpt"), "--out", str(tmp_path / "out"), *flags])
    assert rc == 1
    assert named in capsys.readouterr().err


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


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_eval_threads_below_one_is_validation_error(threads, small_dataset, tmp_path, capsys):
    rc = main(["eval", "--data", str(small_dataset), "--oracle", "--threads", threads])
    assert rc == 1
    assert "threads must be >= 1" in capsys.readouterr().err


def test_label_average_is_reserved(small_dataset, tmp_path, capsys):
    """A class named like the average row would be written twice to eval.csv."""
    assert main(["synth", "--out", str(tmp_path / "s"), "--tracklets", "1",
                 "--frames", "3", "--label", "average"]) == 1
    assert "'average' is reserved" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()
    data = tmp_path / "ds"
    shutil.copytree(small_dataset, data)
    meta_path = data / "tracklet_000" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta_path.write_text(json.dumps({**meta, "label": "average"}))
    assert main(["eval", "--data", str(data), "--oracle"]) == 1
    assert "'average' is reserved" in capsys.readouterr().err


def test_truncated_cloud_is_validation_error(small_dataset, tmp_path, capsys):
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


def _write_scenes(tmp_path, label):
    """Four scans of one annotated object; returns the scene index path."""
    from pctrack.evaldata import _write_cloud_bin

    rng = np.random.default_rng(0)
    records = []
    for i in range(4):
        center = [0.1 * i, 0.0, 0.0]
        obj = center + rng.uniform(-0.4, 0.4, size=(25, 3))
        _write_cloud_bin(tmp_path / f"scan{i}.bin", obj)
        records.append({"cloud": f"scan{i}.bin",
                        "annotations": [{"object_id": "a", "label": label,
                                         "box": [*center, 1.0, 1.0, 1.0, 0.0]}]})
    index = tmp_path / "scenes.jsonl"
    index.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    return index


def test_build_dataset_command(tmp_path):
    out = tmp_path / "built"
    assert main(["build-dataset", "--scenes", str(_write_scenes(tmp_path, "car")),
                 "--out", str(out)]) == 0
    ds = load_dataset(out)
    assert len(ds) == 1 and ds[0].n_frames == 4


def test_build_dataset_rejects_reserved_label(tmp_path, capsys):
    assert main(["build-dataset", "--scenes", str(_write_scenes(tmp_path, "average")),
                 "--out", str(tmp_path / "o")]) == 1
    assert "'average' is reserved" in capsys.readouterr().err


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


@pytest.mark.parametrize("flags,name", [(["--min-len", "0"], "min_len"),
                                        (["--min-points", "-5"], "min_points")])
def test_build_dataset_bad_filter_rule_writes_nothing(tmp_path, capsys, flags, name):
    out = tmp_path / "o"
    assert main(["build-dataset", "--scenes", str(_write_scenes(tmp_path, "car")),
                 "--out", str(out), *flags]) == 1
    assert name in capsys.readouterr().err and not out.exists()


def _meta_case(edit):
    """``eval --oracle`` on a copy of the dataset whose first ``meta.json``
    holds ``edit(meta)``."""
    def case(tmp_path, dataset):
        data = tmp_path / "ds"
        shutil.copytree(dataset, data)
        path = data / "tracklet_000" / "meta.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        return ["eval", "--data", str(data), "--oracle"], str(path), None
    return case


def _scene_case(edit):
    """``build-dataset`` on a scene index whose second record is ``edit(record)``."""
    def case(tmp_path, dataset):
        index = _write_scenes(tmp_path, "car")
        lines = index.read_text().splitlines()
        lines[1] = json.dumps(edit(json.loads(lines[1])))
        index.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        return ["build-dataset", "--scenes", str(index), "--out", str(out)], f"{index}:2", out
    return case


def _annotation_case(edit):
    """``build-dataset`` with the second record's annotation ``edit(annotation)``."""
    return _scene_case(lambda r: {**r, "annotations": [edit(r["annotations"][0])]})


def _checkpoint_directory(tmp_path, dataset):
    return ["eval", "--data", str(dataset), "--ckpt", str(tmp_path)], str(tmp_path), None


_BAD_RECORDS = {
    "meta-list": _meta_case(lambda m: [m]),
    "meta-boxes-null": _meta_case(lambda m: {**m, "boxes": None}),
    "meta-box-null": _meta_case(lambda m: {**m, "boxes": [None, *m["boxes"][1:]]}),
    "meta-box-8": _meta_case(lambda m: {**m, "boxes": [m["boxes"][0] + [0.0], *m["boxes"][1:]]}),
    "meta-no-label": _meta_case(lambda m: {k: v for k, v in m.items() if k != "label"}),
    "meta-n-frames-string": _meta_case(lambda m: {**m, "n_frames": str(m["n_frames"])}),
    "meta-object-id-int": _meta_case(lambda m: {**m, "object_id": 3}),
    "meta-box-size-negative": _meta_case(
        lambda m: {**m, "boxes": [[*m["boxes"][0][:3], -1.0, *m["boxes"][0][4:]],
                                  *m["boxes"][1:]]}),
    "meta-box-dropped": _meta_case(lambda m: {**m, "boxes": m["boxes"][:-1]}),
    "scene-list": _scene_case(lambda r: [r]),
    "scene-annotations-int": _scene_case(lambda r: {**r, "annotations": 1}),
    "scene-cloud-int": _scene_case(lambda r: {**r, "cloud": 1}),
    "scene-box-nan": _annotation_case(lambda a: {**a, "box": [math.nan, *a["box"][1:]]}),
    "scene-box-6": _annotation_case(lambda a: {**a, "box": a["box"][:6]}),
    "scene-no-label": _annotation_case(lambda a: {k: v for k, v in a.items() if k != "label"}),
    "checkpoint-directory": _checkpoint_directory,
}


@pytest.mark.parametrize("name", _BAD_RECORDS)
def test_bad_record_is_validation_error_naming_the_file(name, small_dataset, tmp_path, capsys):
    """A malformed tracklet ``meta.json`` or scene record, or a directory
    given as a checkpoint, exits 1 with the file on stderr, and
    ``build-dataset`` writes nothing."""
    argv, named, out = _BAD_RECORDS[name](tmp_path, small_dataset)
    assert main(argv) == 1
    assert named in capsys.readouterr().err
    assert out is None or not out.exists()


_FUZZ_CASES = [
    *[(kind, mutation) for mutation in ("drop-key", "change-type", "change-length", "nan",
                                        "non-positive-size") for kind in ("meta", "scene")],
    *[(kind, mutation) for mutation in ("truncate", "change-length", "nan")
      for kind in ("frame-bin", "scene-bin")],
]


def _fuzz_record(rng, objects, box, mutation):
    """Applies ``mutation`` in place to one of ``objects`` (JSON objects whose
    every key is required) or to ``box`` (a list of 7 numbers)."""
    obj = objects[rng.integers(len(objects))]
    key = str(rng.choice(sorted(obj)))
    if mutation == "drop-key":
        del obj[key]
    elif mutation == "change-type":
        value = obj[key]
        others = [o for o in (None, True, {"v": value}, [value], str(value))
                  if type(o) is not type(value)]
        obj[key] = others[rng.integers(len(others))]
    elif mutation == "change-length":
        if rng.integers(2):
            box.append(1.0)
        else:
            del box[rng.integers(7)]
    elif mutation == "nan":
        box[rng.integers(7)] = math.nan
    else:
        box[3 + rng.integers(3)] = -float(rng.choice([0.0, 1.5]))


def _fuzz_bin(rng, raw: bytes, mutation) -> bytes:
    """A cloud file (count header, float32 xyz rows) with ``mutation`` applied."""
    if mutation == "truncate":
        return raw[:rng.integers(len(raw))]
    if mutation == "change-length":
        (n,) = struct.unpack_from("<I", raw)
        return struct.pack("<I", n + int(rng.choice([-1, 1]))) + raw[4:]
    at = 4 + 4 * int(rng.integers((len(raw) - 4) // 4))
    return raw[:at] + struct.pack("<f", math.nan) + raw[at + 4:]


@pytest.mark.parametrize("kind,mutation", _FUZZ_CASES)
def test_seeded_record_fuzz_exits_1_naming_the_file(kind, mutation, small_dataset,
                                                    tmp_path, capsys):
    """One seeded mutation of a tracklet ``meta.json``, a scene record or a
    cloud file, read by ``eval --oracle`` or ``build-dataset``: exit 1, the
    file on stderr, no output directory."""
    rng = np.random.default_rng([7, _FUZZ_CASES.index((kind, mutation))])
    out = tmp_path / "out"
    if kind in ("meta", "frame-bin"):
        data = tmp_path / "ds"
        shutil.copytree(small_dataset, data)
        argv = ["eval", "--data", str(data), "--oracle", "--out", str(out)]
        tracklet = data / f"tracklet_{rng.integers(2):03d}"
        path = tracklet / ("meta.json" if kind == "meta" else f"frame_{rng.integers(4):04d}.bin")
        named = str(path)
    else:
        index = _write_scenes(tmp_path, "car")
        argv = ["build-dataset", "--scenes", str(index), "--out", str(out)]
        line = int(rng.integers(4))
        path = index if kind == "scene" else tmp_path / f"scan{line}.bin"
        named = f"{index}:{line + 1}"
    if kind == "meta":
        meta = json.loads(path.read_text())
        _fuzz_record(rng, [meta], meta["boxes"][rng.integers(len(meta["boxes"]))], mutation)
        path.write_text(json.dumps(meta))
    elif kind == "scene":
        lines = index.read_text().splitlines()
        record = json.loads(lines[line])
        ann = record["annotations"][0]
        _fuzz_record(rng, [record, ann], ann["box"], mutation)
        lines[line] = json.dumps(record)
        index.write_text("\n".join(lines) + "\n")
    else:
        path.write_bytes(_fuzz_bin(rng, path.read_bytes(), mutation))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert named in err and (kind != "scene-bin" or str(path) in err)
    assert not out.exists()


def test_bench_json_output(capsys):
    rc = main(["bench", "--profile", "tiny", "--template", "48", "--search", "64",
               "--repeats", "2", "--warmup", "1", "--json"])
    assert rc == 0
    stats = json.loads(capsys.readouterr().out.split("{", 1)[1].join(["{", ""]))
    assert stats["template"] == 48 and stats["search"] == 64
    assert stats["total_ms_min"] > 0
    assert stats["total_ms_mean"] >= stats["total_ms_min"]
    assert stats["minor_faults_per_forward"] >= 0


def test_bench_times_the_cache_free_forward(monkeypatch, capsys):
    seen = []
    real = TrackerModel.forward

    def spy(self, *args, **kwargs):
        out, cache = real(self, *args, **kwargs)
        seen.append(cache)
        return out, cache

    monkeypatch.setattr(TrackerModel, "forward", spy)
    assert main(["bench", "--profile", "tiny", "--template", "32", "--search", "48",
                 "--repeats", "2", "--warmup", "1"]) == 0
    assert seen == [None] * 3
    assert "minor faults" in capsys.readouterr().out


def test_bench_zero_repeats_is_validation_error(capsys):
    assert main(["bench", "--profile", "tiny", "--repeats", "0"]) == 1
    assert "--repeats" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--template", "-3"), ("--search", "0"),
                                        ("--warmup", "-1")])
def test_bench_bad_size_or_warmup_is_validation_error(flag, value, monkeypatch, capsys):
    """Refused before a model is built, naming the flag."""
    def build_model(cfg):
        raise AssertionError("model built before the flags were checked")

    monkeypatch.setattr(pctrack.cli, "build_model", build_model)
    assert main(["bench", "--profile", "tiny", flag, value]) == 1
    assert flag in capsys.readouterr().err


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
    "search_margin_m=-3", "distort_range_m=-0.3", "seed=-1", "lr_step_epochs=-5",
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
    results = oracle_suite()
    assert all(r.ok for r in results)
    assert "set-abstraction" in [r.name for r in results]


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
