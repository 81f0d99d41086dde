import base64
import collections
import dataclasses
import json
import logging
import shutil
import threading
from pathlib import Path

import numpy as np
import pytest

from clustersfm import io as sfm_io
from clustersfm.cli import main as cli_main
from clustersfm.errors import ConfigurationError
from clustersfm.io import load_local_reconstructions, load_tracks, save_tracks
from clustersfm.local_sfm import LocalReconstruction
from clustersfm.pipeline import (ARTIFACTS, STAGE_INPUTS, STAGE_SETTINGS, STAGES, PipelineConfig, run_pipeline,
                                  stage_status, validated_tracks)
from clustersfm.utils import parallel_map
from conftest import SMALL, track_rows, track_table, tree_leaves


def test_full_run_produces_report(small_run):
    out, config, report = small_run
    for name in ("matches.json", "clusters.json", "tracks.json", "relative_motions.npz",
                 "global_motion.npz", "points.npz", "final_motion.npz", "points.ply",
                 "cameras.ply", "ba_rounds.csv", "report.json"):
        assert (out / name).exists(), name
    for key in ("meanPositionError", "medianPositionError", "meanRelRotationErrorDeg",
                "meanRelTranslationErrorDeg", "medianEpipolarErrorPx", "numRegistered",
                "numConnectedPairs", "numPoints", "numClusters"):
        assert key in report
    assert report["numRegistered"] == SMALL["num_cameras"]


def test_status_reports_fresh(small_run):
    out, config, report = small_run
    status = stage_status(out)
    assert all(info["present"] and not info["stale"] for info in status.values())


def test_resume_reruns_only_missing_stage(small_run):
    out, config, report = small_run
    (out / "report.json").unlink()
    before = {name: (out / name).stat().st_mtime_ns for name in ("final_motion.npz", "tracks.json")}
    run_pipeline(config, resume=True)
    assert (out / "report.json").exists()
    after = {name: (out / name).stat().st_mtime_ns for name in before}
    assert before == after  # upstream stages untouched


def _resumed_stages(caplog, config) -> list:
    """The stages a resumed run of config runs."""
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="clustersfm.pipeline"):
        run_pipeline(config, resume=True)
    return [r.args[0] for r in caplog.records if r.msg == "stage %s: running"]


def test_resume_reruns_the_stages_whose_settings_or_inputs_changed(small_run, tmp_path, caplog):
    """Each stage hashes only its own settings, so a new cap re-runs cluster
    and every later stage, whose inputs it changed, and skips synth."""
    shutil.copytree(small_run[0], tmp_path, dirs_exist_ok=True)
    config = PipelineConfig(output_dir=str(tmp_path), **dict(SMALL, max_cluster_size=12))
    assert _resumed_stages(caplog, config) == list(STAGES[1:])
    assert _resumed_stages(caplog, config) == []


def test_resume_after_single_stage_runs_reruns_nothing(small_run, tmp_path, caplog):
    """A subcommand takes only its own stage's flags; the settings it leaves
    at their defaults are none of the stage's, so its record stays fresh."""
    shutil.copytree(small_run[0], tmp_path, dirs_exist_ok=True)
    seed = ["--output-dir", str(tmp_path), "--seed", str(SMALL["seed"])]
    assert cli_main(["cluster", *seed, "--max-cluster-size", str(SMALL["max_cluster_size"])]) == 0
    assert cli_main(["tracks", *seed]) == 0
    assert cli_main(["triangulate", *seed]) == 0
    assert _resumed_stages(caplog, PipelineConfig(output_dir=str(tmp_path), **SMALL)) == []


def test_stage_settings_cover_every_setting_that_changes_an_artifact():
    names = {f.name for f in dataclasses.fields(PipelineConfig)} - {"output_dir", "workers"}
    assert set(STAGE_SETTINGS) <= set(STAGES)
    assert {name for settings in STAGE_SETTINGS.values() for name in settings} == names


def test_resume_reruns_nothing_when_only_workers_or_output_dir_changed(small_run, tmp_path, caplog):
    shutil.copytree(small_run[0], tmp_path, dirs_exist_ok=True)
    assert _resumed_stages(caplog, PipelineConfig(output_dir=str(tmp_path), workers=2, **SMALL)) == []


def test_tampering_marks_downstream_stale(small_run):
    out, config, report = small_run
    clusters = out / "clusters.json"
    original = clusters.read_text()
    try:
        data = json.loads(original)
        data["exhausted"] = not data["exhausted"]
        clusters.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n")
        status = stage_status(out)
        assert status["cluster"]["stale"]  # outputs changed behind the manifest
        assert status["tracks"]["stale"]  # inputs no longer match
        assert status["local-sfm"]["stale"]
    finally:
        clusters.write_text(original)


def test_each_stage_reads_exactly_the_files_it_declares(small_run, tmp_path, monkeypatch):
    """Every loader reads through io._load or io._load_npz; the files a
    stage reads are the inputs its manifest entry hashes, so a change to
    any of them marks the stage stale."""
    shutil.copytree(small_run[0], tmp_path, dirs_exist_ok=True)
    config = PipelineConfig(output_dir=str(tmp_path), **SMALL)
    read = []
    for reader in ("_load", "_load_npz"):
        def recording(path, _reader=getattr(sfm_io, reader)):
            read.append(Path(path).name)
            return _reader(path)
        monkeypatch.setattr(sfm_io, reader, recording)
    for stage in STAGES:
        read.clear()
        run_pipeline(config, stages=[stage])
        assert set(read) - {"manifest.json"} == set(STAGE_INPUTS[stage]), stage
    path = tmp_path / "matches.json"
    data = json.loads(path.read_text())
    data["intrinsics"][0][0] += 1.0  # one focal length
    path.write_text(json.dumps(data))
    assert all(info["stale"] for info in stage_status(tmp_path).values())


def test_each_artifact_is_hashed_at_most_once_per_call(small_run, tmp_path, monkeypatch, caplog):
    """A call reads the manifest once and hashes each artifact at most once;
    a full run hashes each artifact once, after the stage that writes it."""
    hashed, manifest_reads = collections.Counter(), []

    def counting(path, _hash=sfm_io.file_hash):
        hashed[Path(path).name] += 1
        return _hash(path)

    def loading(path, _load=sfm_io._load):
        if Path(path).name == "manifest.json":
            manifest_reads.append(path)
        return _load(path)

    monkeypatch.setattr(sfm_io, "file_hash", counting)
    monkeypatch.setattr(sfm_io, "_load", loading)
    artifacts = {name for names in ARTIFACTS.values() for name in names}
    run_pipeline(PipelineConfig(output_dir=str(tmp_path / "full"), **SMALL))
    assert hashed == dict.fromkeys(artifacts, 1)
    resumed = tmp_path / "resumed"
    shutil.copytree(small_run[0], resumed)
    for call in (lambda: _resumed_stages(caplog, PipelineConfig(output_dir=str(resumed), **SMALL)),
                 lambda: stage_status(resumed)):
        hashed.clear()
        manifest_reads.clear()
        ret = call()
        assert set(hashed) <= artifacts and set(hashed.values()) == {1}
        assert len(manifest_reads) == 1
    assert ret.keys() == set(STAGES) and all(info.keys() == {"present", "stale"} for info in ret.values())
    assert all(info["present"] and not info["stale"] for info in ret.values())


def test_status_empty_dir(tmp_path):
    status = stage_status(tmp_path)
    assert all(not info["present"] for info in status.values())


def test_config_validation():
    with pytest.raises(ConfigurationError, match="completeness_ratio"):
        PipelineConfig(completeness_ratio=1.5)
    with pytest.raises(ConfigurationError, match="max_cluster_size"):
        PipelineConfig(max_cluster_size=1)
    with pytest.raises(ConfigurationError):
        PipelineConfig.from_dict({"not_a_key": 1})


def test_cli_invalid_config_exit_code(tmp_path, capsys):
    code = cli_main([
        "run", "--output-dir", str(tmp_path), "--completeness-ratio", "1.5",
    ])
    assert code == 2
    assert not (tmp_path / "matches.json").exists()
    capsys.readouterr()
    for flags, message in (
        (["--seed", "-1"], "seed must be >= 0"),  # a traceback in the synth stage, exit 1
        (["--pixel-sigma", "nan"], "pixel_sigma must be >= 0 and finite"),  # a noise-free scene, exit 0
        (["--pixel-sigma", "inf"], "pixel_sigma must be >= 0 and finite"),  # the cluster stage exited 3
    ):
        _assert_config_error(capsys, ["run", "--output-dir", str(tmp_path), *flags], message)
        assert not (tmp_path / "matches.json").exists()
    cfg = tmp_path / "removed.json"
    cfg.write_text(json.dumps({"ba_every": 0}))  # a removed key is an unknown key
    assert cli_main(["run", "--output-dir", str(tmp_path), "--config", str(cfg)]) == 2
    assert not (tmp_path / "matches.json").exists()
    # solver caps are module constants now
    for removed in ({"l1_max_iters": 200}, {"l1_tol": 1e-10}, {"ba_rounds": 10}, {"max_outer_iterations": 16}):
        cfg.write_text(json.dumps(removed))
        assert cli_main(["run", "--output-dir", str(tmp_path), "--config", str(cfg)]) == 2
        assert not (tmp_path / "matches.json").exists()
    with pytest.raises(SystemExit) as info:
        cli_main(["run", "--output-dir", str(tmp_path), "--rounds", "10"])
    assert info.value.code == 2
    cfg.write_text(json.dumps({"max_cluster_size": 1}))  # checked before the synth stage
    assert cli_main(["run", "--output-dir", str(tmp_path), "--config", str(cfg)]) == 2
    assert not (tmp_path / "matches.json").exists()


def _assert_config_error(capsys, argv, message):
    assert cli_main(argv) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("configuration error:") and message in err
    assert "\n" not in err and "Traceback" not in err


def test_cli_missing_config_file_exit_code(tmp_path, capsys):
    cfg = tmp_path / "absent.json"
    _assert_config_error(capsys, ["run", "--output-dir", str(tmp_path / "o"), "--config", str(cfg)],
                         "cannot read config file")


def test_cli_invalid_json_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"seed": 1,')
    _assert_config_error(capsys, ["run", "--output-dir", str(tmp_path / "o"), "--config", str(cfg)],
                         "malformed config file")


def test_cli_invalid_toml_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.toml"
    cfg.write_text("seed = \n")
    _assert_config_error(capsys, ["run", "--output-dir", str(tmp_path / "o"), "--config", str(cfg)],
                         "malformed config file")


def test_cli_wrong_typed_config_value_exit_code(tmp_path, capsys):
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps({"seed": "x"}))
    _assert_config_error(capsys, ["run", "--output-dir", str(tmp_path / "o"), "--config", str(cfg)],
                         "seed must be int")
    assert not (tmp_path / "o").exists()


def test_cli_bad_workers_env_exit_code(tmp_path, capsys, monkeypatch):
    _synth_small(tmp_path)
    for value, message in (("abc", "must be an integer, got 'abc'"), ("0", "must be >= 1, got '0'"),
                           ("-3", "must be >= 1, got '-3'")):
        monkeypatch.setenv("CLUSTERSFM_WORKERS", value)
        _assert_config_error(capsys, ["cluster", "--output-dir", str(tmp_path)], f"CLUSTERSFM_WORKERS {message}")
        assert not (tmp_path / "clusters.json").exists()


def _synth_small(out_dir):
    code = cli_main([
        "synth", "--output-dir", str(out_dir), "--layout", "loop",
        "--cameras", "12", "--points", "100", "--seed", "7",
    ])
    assert code == 0


def test_cli_synth_and_status(tmp_path):
    _synth_small(tmp_path)
    assert (tmp_path / "matches.json").exists()
    assert cli_main(["status", "--output-dir", str(tmp_path)]) == 0


def test_cli_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"layout": "orbit", "num_cameras": 8, "num_points": 120,
                               "pixel_sigma": 0.0, "seed": 3}))
    code = cli_main(["synth", "--output-dir", str(tmp_path / "o"), "--config", str(cfg)])
    assert code == 0
    data = json.loads((tmp_path / "o" / "matches.json").read_text())
    assert len(data["intrinsics"]) == len(data["size"]) == 8


def test_worker_count_does_not_change_artifacts(tmp_path):
    from clustersfm.io import file_hash

    hashes = {}
    for workers in (1, 3):
        out = tmp_path / f"w{workers}"
        config = PipelineConfig(output_dir=str(out), workers=workers, **SMALL)
        run_pipeline(config)
        hashes[workers] = {
            name: file_hash(out / name)
            for name in ("matches.json", "clusters.json", "tracks.json", "local_reconstructions.json",
                         "relative_motions.npz", "global_motion.npz", "points.npz", "final_motion.npz",
                         "final_points.npz", "report.json")
        }
    assert hashes[1] == hashes[3]


def test_stages_run_on_the_calling_thread(tmp_path, monkeypatch):
    from clustersfm import ba_core, pipeline

    threads = {"local sfm": set(), "lm": set()}

    def recorded(name, fn):
        def wrapper(*args, **kwargs):
            threads[name].add(threading.current_thread())
            return fn(*args, **kwargs)
        return wrapper

    # lm_minimize serves both the local SfM and the BA partition solves
    monkeypatch.setattr(pipeline, "run_local_sfm", recorded("local sfm", pipeline.run_local_sfm))
    monkeypatch.setattr(ba_core, "lm_minimize", recorded("lm", ba_core.lm_minimize))
    run_pipeline(PipelineConfig(output_dir=str(tmp_path), workers=3, **SMALL))
    assert threads == {"local sfm": {threading.main_thread()}, "lm": {threading.main_thread()}}


def test_parallel_map_keeps_order_and_stops_at_the_first_error():
    assert parallel_map(lambda x: 10 * x, iter([3, 1, 2])) == [30, 10, 20]
    ran = []

    def fail_on_odd(x):
        ran.append(x)
        if x % 2:
            raise ValueError(f"item {x}")
        return x

    with pytest.raises(ValueError, match="item 1"):
        parallel_map(fail_on_odd, [0, 1, 2, 3])
    assert ran == [0, 1]


def test_stage_error_keeps_exception_object(tmp_path, monkeypatch):
    from clustersfm import clustering
    from clustersfm.clustering import ClusteringError

    # one outer iteration cannot settle this clustering
    monkeypatch.setattr(clustering, "MAX_OUTER_ITERATIONS", 1)
    config = PipelineConfig(output_dir=str(tmp_path), **SMALL)
    run_pipeline(config, stages=["synth"])
    with pytest.raises(ClusteringError) as info:
        run_pipeline(config, stages=["cluster"])
    assert "stage 'cluster' failed" in str(info.value)
    assert info.value.last_state is not None
    assert len(info.value.last_state.interdependent) >= 2


def test_cli_malformed_artifact_exit_code(tmp_path, capsys):
    assert cli_main(["cluster", "--output-dir", str(tmp_path)]) == 3  # no matches.json yet
    _synth_small(tmp_path)
    path = tmp_path / "matches.json"
    data = json.loads(path.read_text())
    del data["intrinsics"]
    path.write_text(json.dumps(data))
    assert cli_main(["cluster", "--output-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "intrinsics" in err
    path.write_bytes(b"")  # an empty match graph
    assert cli_main(["cluster", "--output-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("data error:") and "matches.json" in err and "\n" not in err
    assert not list(tmp_path.glob("*.tmp"))


def test_cli_split_motion_graph_exit_code(tmp_path, capsys):
    # at cap 12 this grid's clusters fall into two groups that share no
    # camera; posed in a gauge each, the run exited 0 with a median position
    # error of 2.53
    argv = ["run", "--output-dir", str(tmp_path), "--layout", "grid", "--cameras", "64", "--points", "500",
            "--max-cluster-size", "12", "--seed", "2"]
    assert cli_main(argv) == 4
    err = capsys.readouterr().err.strip()
    assert err.startswith("numerical failure: stage 'average' failed: the motion graph is split: cameras [24, ")
    assert err.endswith(", 63] are cut off from camera 0") and "\n" not in err
    assert (tmp_path / "relative_motions.npz").exists() and not (tmp_path / "global_motion.npz").exists()


def test_cli_cluster_camera_outside_match_graph_exit_code(small_run, tmp_path, capsys):
    out, _, _ = small_run
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    clusters = tmp_path / "clusters.json"
    data = json.loads(clusters.read_text())
    data["interdependent"][0].append(999)
    clusters.write_text(json.dumps(data))
    for stage in ("tracks", "local-sfm", "ba", "evaluate"):
        assert cli_main([stage, "--output-dir", str(tmp_path)]) == 3, stage
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"data error: stage {stage!r} failed:") and "clusters.json" in err
        assert "not in the match graph's 0..17" in err and "\n" not in err


def _one_line_data_error(capsys, stage, *fragments):
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"data error: stage {stage!r} failed:") and "\n" not in err and "Traceback" not in err
    assert all(f in err for f in fragments), err


def _edit(path, change):
    """Apply change to the arrays of an `.npz` artifact, or to the data of a
    JSON one, save them in place and return them."""
    if path.suffix == ".npz":
        with np.load(path) as archive:
            data = dict(archive)
    else:
        data = json.loads(path.read_text())
    change(data)
    if path.suffix == ".npz":
        with open(path, "wb") as fh:
            np.savez(fh, **data)
    else:
        path.write_text(json.dumps(data))
    return data


def _put(key, index, value):
    """A change that sets data[key][index] to value, or to value(the old one)."""
    def change(data):
        data[key][index] = value(data[key][index]) if callable(value) else value
    return change


def _replace(key, make):
    """A change that replaces the array data[key] with make(it)."""
    def change(data):
        data[key] = make(data[key])
    return change


def _append_first_row(*keys):
    """A change that appends a copy of its first row to each array of keys."""
    def change(data):
        for key in keys:
            data[key] = np.concatenate([data[key], data[key][:1]])
    return change


def _b64_ints(data, key):
    """The int64 array that data[key] holds as base64."""
    return np.frombuffer(base64.b64decode(data[key]), "<i8").copy()


def _change_b64_ints(key, change):
    """A change that applies change(data, values) to the int64 values of the
    base64 array data[key]."""
    def apply(data):
        values = _b64_ints(data, key)
        change(data, values)
        data[key] = base64.b64encode(values.tobytes()).decode()
    return apply


def _register_first_twice(cluster):
    cluster["registered"][1] = cluster["registered"][0]


def _motion(d, q=0):
    (i, j), k = d["pairs"][q].tolist(), d["cluster"][q].item()
    return f"motion {q} ({i}, {j}) in cluster {k}"


def _motion_file_rows(name, stages):
    """The rows of a global motion file: global_motion.npz or final_motion.npz."""
    return [pytest.param(name, stages, change, message, id=f"{name[:-4]}-{row_id}") for row_id, change, message in (
        ("camera-999", _put("cameras", 0, 999), "motion camera 999 is not in the match graph's 0..17"),
        ("camera-negative", _put("cameras", 0, -1),  # -1 would take the last camera's intrinsics
         "motion camera -1 is not in the match graph's 0..17"),
        ("camera-repeated", _put("cameras", [0, 1], lambda c: c[[0, 0]]),  # the last row of an id would win
         lambda d: f"motion camera {d['cameras'][0]} follows camera {d['cameras'][0]}: the ids must rise strictly"),
        ("cameras-swapped", _put("cameras", [0, 1], lambda c: c[::-1]),
         lambda d: f"motion camera {d['cameras'][1]} follows camera {d['cameras'][0]}: the ids must rise strictly"),
        ("R-nan", _put("rotation", 1, np.nan), lambda d: f"motion camera {d['cameras'][1]}: R or c is not finite"),
        ("c-inf", _put("center", (0, 1), np.inf), lambda d: f"motion camera {d['cameras'][0]}: R or c is not finite"),
        ("R-negated", _put("rotation", 0, np.negative),  # exited 0
         lambda d: f"motion camera {d['cameras'][0]}: R is not a rotation (|R^T R - I| = "),
        ("scales-repeated", _append_first_row("clusters", "scale"),
         lambda d: f"the scales repeat cluster {d['clusters'][0]}"),
        ("cluster-fractional", _replace("clusters", lambda k: k + 0.5), "malformed artifact (TypeError: Cannot cast"),
        ("scale-nan", _put("scale", 0, np.nan),  # ba exited 0 and wrote NaN into the final motion
         lambda d: f"cluster {d['clusters'][0]}: the scale nan is not a finite value above 1e-12"),
    )]


@pytest.mark.parametrize("name,stages,change,message", [
    *_motion_file_rows("global_motion.npz", ("triangulate", "ba")),
    *_motion_file_rows("final_motion.npz", ("evaluate",)),
    *[pytest.param("relative_motions.npz", stages, change, message, id=f"relative_motions-{row_id}")
      for row_id, stages, change, message in (
        ("self-pair", ("average",), _put("pairs", 0, lambda p: [p[0], p[0]]),
         lambda d: f"{_motion(d)}: the pair is not 0 <= i < j"),
        ("pair-reversed", ("average",), _put("pairs", 0, lambda p: p[::-1]),
         lambda d: f"{_motion(d)}: the pair is not 0 <= i < j"),
        ("camera-negative", ("average",), _put("pairs", (0, 0), -1),
         lambda d: f"{_motion(d)}: the pair is not 0 <= i < j"),
        ("support-negative", ("average",), _put("support", 0, -3), lambda d: f"{_motion(d)}: the support is negative"),
        ("id-fractional", ("average",), _replace("pairs", lambda p: p + 0.5),
         "malformed artifact (TypeError: Cannot cast"),
        ("R-nan", ("average",), _put("rotation", 0, np.nan), lambda d: f"{_motion(d)}: R or t is not finite"),
        ("R-negated", ("average",), _put("rotation", 0, np.negative),  # exited 0
         lambda d: f"{_motion(d)}: R is not a rotation (|R^T R - I| = "),
        ("pair-measured-twice", ("average",),
         _append_first_row("pairs", "cluster", "rotation", "translation", "support"),
         lambda d: f"{_motion(d, len(d['pairs']) - 1)}: its cluster measures this pair twice"),
        ("camera-18", ("average", "evaluate"), _put("pairs", (0, 1), 18),  # still i < j, past the last camera
         lambda d: f"{_motion(d)}: a camera is not in the match graph's 0..17"),
        ("camera-999", ("average", "evaluate"), _put("pairs", (0, 1), 999),
         lambda d: f"{_motion(d)}: a camera is not in the match graph's 0..17"),
    )],
    *[pytest.param("ground_truth.npz", ("evaluate",), change, message, id=f"ground_truth-{row_id}")
      for row_id, change, message in (
        ("last-camera-missing", lambda d: d.update(rotation=d["rotation"][:-1], center=d["center"][:-1]),
         "the ground truth holds 17 cameras, not the match graph's 18"),  # was an IndexError
        ("camera-extra", _append_first_row("rotation", "center"),  # was accepted
         "the ground truth holds 19 cameras, not the match graph's 18"),
        ("R-nan", _put("rotation", 3, np.nan), "ground-truth camera 3: R or c is not finite"),  # reported nan
        ("c-nan", _put("center", (3, 1), np.nan), "ground-truth camera 3: R or c is not finite"),  # SVD failed
        ("R-not-orthonormal", _put("rotation", (5, 0, 0), lambda r: r + 0.001),
         "ground-truth camera 5: R is not a rotation"),
    )],
    *[pytest.param(name, stages, change, message, id=f"{name[:-4]}-{row_id}")
      for name, stages in (("points.npz", ("ba",)), ("final_points.npz", ("evaluate",)))
      for row_id, change, message in (
        ("track-negative", _put("track", 0, -1), "point track -1 is negative"),  # exited 0
        ("tracks-swapped", _put("track", [0, 1], lambda t: t[::-1]),
         lambda d: f"point track {d['track'][1]} follows track {d['track'][0]}: the ids must rise strictly"),
    )],
    pytest.param("local_reconstructions.json", ("triangulate",), lambda d: d["clusters"][0].update(clusterId=-1),
                 "cluster entry 0 has the clusterId -1, not its index 0", id="local_reconstructions-cluster-id"),
    pytest.param("local_reconstructions.json", ("triangulate",), lambda d: _register_first_twice(d["clusters"][0]),
                 "cluster 0: the registered cameras do not rise strictly", id="local_reconstructions-registered"),
    *[pytest.param("local_reconstructions.json", ("triangulate",), change, message, id=f"local_reconstructions-{row_id}")
      for row_id, change, message in (
        # the last camera of cluster 0's first point, so it stays ascending; exited 0
        ("camera-999", _change_b64_ints("cameras", lambda d, c: c.__setitem__(d["offsets"][1] - 1, 999)),
         lambda d: f"track {_b64_ints(d, 'track')[0]}: camera 999 is not in the match graph's 0..17"),
        # its first camera; broke the (track, camera) key of validated_tracks
        ("camera-negative", _change_b64_ints("cameras", lambda d, c: c.__setitem__(0, -1)),
         lambda d: f"track {_b64_ints(d, 'track')[0]}: camera -1 is not in the match graph's 0..17"),
    )],
])
def test_cli_bad_table_exit_code(small_run, tmp_path, capsys, name, stages, change, message):
    """One array of a pose, motion or point table (or one field of a local
    reconstruction) edited: every stage that reads the file exits 3 with a
    one-line message naming it."""
    out, _, _ = small_run
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    data = _edit(tmp_path / name, change)
    for stage in stages:
        assert cli_main([stage, "--output-dir", str(tmp_path)]) == 3, stage
        _one_line_data_error(capsys, stage, name, message(data) if callable(message) else message)
    assert not list(tmp_path.glob("*.tmp"))


def test_cli_track_camera_outside_match_graph_exit_code(small_run, tmp_path, capsys):
    out, _, _ = small_run
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    path = tmp_path / "tracks.json"
    tracks = load_tracks(path, SMALL["num_cameras"])
    cameras = tracks.cameras.copy()
    cameras[tracks.offsets[1] - 1] = 999  # the last camera of the first track, so it stays ascending
    save_tracks(path, dataclasses.replace(tracks, cameras=cameras))
    assert cli_main(["local-sfm", "--output-dir", str(tmp_path)]) == 3
    _one_line_data_error(capsys, "local-sfm", "tracks.json",
                         f"track {tracks.ids[0]}: camera 999 is not in the match graph's 0..17")


def test_cli_point_camera_not_posed_exit_code(small_run, tmp_path, capsys):
    out, _, _ = small_run
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    _edit(tmp_path / "global_motion.npz",  # the points still see camera 3
          lambda d: d.update({k: d[k][d["cameras"] != 3] for k in ("cameras", "rotation", "center")}))
    assert cli_main(["ba", "--output-dir", str(tmp_path)]) == 3
    _one_line_data_error(capsys, "ba", "point camera 3 is not posed by the global motion")
    assert not list(tmp_path.glob("*.tmp"))


def test_cli_bad_camera_table_exit_code(small_run, tmp_path, capsys):
    out, _, _ = small_run
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    path = tmp_path / "matches.json"
    original = path.read_text()
    nan, inf = float("nan"), float("inf")
    for key, value, message in (
        ("intrinsics", [nan, 640.0, 480.0], "camera 3: focal, cx or cy is not finite"),  # every stage exited 0
        ("intrinsics", [inf, 640.0, 480.0], "camera 3: focal, cx or cy is not finite"),
        ("intrinsics", [-800.0, 640.0, 480.0], "camera 3: focal must be positive"),
        ("size", [0, 0], "camera 3: image must be at least 1 x 1 pixels"),
    ):
        data = json.loads(original)
        data[key][3] = value
        path.write_text(json.dumps(data))
        for stage in ("cluster", "tracks", "local-sfm", "average", "triangulate", "ba", "evaluate"):
            assert cli_main([stage, "--output-dir", str(tmp_path)]) == 3, (message, stage)
            _one_line_data_error(capsys, stage, "matches.json", message)
    assert not list(tmp_path.glob("*.tmp"))


def test_cli_bad_points_exit_code(small_run, tmp_path, capsys):
    out, _, _ = small_run
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    for name, stage in (("points.npz", "ba"), ("final_points.npz", "evaluate")):
        path = tmp_path / name
        original = path.read_bytes()
        with np.load(path) as archive:
            data = dict(archive)
        k = int(np.argmax(np.diff(data["offsets"]) >= 2))  # the first point with two cameras
        (a, b), track, cameras = data["offsets"][k:k + 2], data["track"][k], data["cameras"]
        for rows, value, message in (
            (b - 1, 999, f"track {track}: camera 999 is not in the match graph's 0..17"),  # was accepted
            (a, cameras[a + 1], f"track {track}: cameras are not strictly ascending"),  # a repeat
            ([a, a + 1], cameras[[a + 1, a]], f"track {track}: cameras are not strictly ascending"),  # swapped
        ):
            changed = cameras.copy()
            changed[rows] = value
            with open(path, "wb") as fh:
                np.savez(fh, **dict(data, cameras=changed))
            assert cli_main([stage, "--output-dir", str(tmp_path)]) == 3, (name, message)
            _one_line_data_error(capsys, stage, name, message)
        path.write_bytes(original)
    assert not list(tmp_path.glob("*.tmp"))


def test_cli_inconsistent_cluster_set_exit_code(small_run, tmp_path, capsys):
    out, _, _ = small_run
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    path = tmp_path / "clusters.json"
    original = path.read_text()
    leaves = tree_leaves(json.loads(original)["tree"])
    c, last = leaves[0]["cameras"][0], len(leaves) - 1
    consumers = ("tracks", "local-sfm", "ba", "evaluate")

    def share(d):  # camera c of leaf 0 joins leaf 1 too
        cameras = tree_leaves(d["tree"])[1]["cameras"]
        cameras[:] = sorted(cameras + [c])

    for change, message, stages in (
        (lambda d: d["interdependent"][0].insert(0, d["interdependent"][0][0]),
         "interdependent cluster 0: cameras are not strictly ascending", ("local-sfm",)),  # exited 0
        (share, f"independent clusters 0 and 1 share camera {c}", consumers),
        (lambda d: tree_leaves(d["tree"])[1]["cameras"].reverse(),
         "independent cluster 1: cameras are not strictly ascending", consumers),
        (lambda d: d["interdependent"].pop(),  # each exited 0
         f"interdependent cluster {last} does not hold independent cluster {last}", consumers),
        (lambda d: d["interdependent"].__setitem__(1, d["interdependent"][0]),  # each exited 0
         "interdependent cluster 1 does not hold independent cluster 1", consumers),
        # a tree without camera c, whose match edges remain: tracks named a match edge, not the file
        (lambda d: tree_leaves(d["tree"])[0]["cameras"].remove(c),
         f"camera {c} is in neither a tree leaf nor droppedCameras", consumers),
        (lambda d: d["droppedCameras"].append(c), f"camera {c} is in both a tree leaf and droppedCameras", consumers),
        (lambda d: d["droppedCameras"].append(99),
         "a cluster camera is not in the match graph's 0..17: droppedCameras", consumers),
    ):
        data = json.loads(original)
        change(data)
        path.write_text(json.dumps(data))
        for stage in stages:
            assert cli_main([stage, "--output-dir", str(tmp_path)]) == 3, (message, stage)
            _one_line_data_error(capsys, stage, "clusters.json", message)
    assert not list(tmp_path.glob("*.tmp"))


def _true_in_clusters(d):  # camera 1 of the first interdependent cluster that holds it
    cameras = next(c for c in d["interdependent"] if 1 in c)
    cameras[cameras.index(1)] = True


def _true_in_registered(d):  # camera 1 of the first local reconstruction that registers it
    cameras = next(c["registered"] for c in d["clusters"] if 1 in c["registered"])
    cameras[cameras.index(1)] = True


@pytest.mark.parametrize("name,stage,change,message", [
    ("clusters.json", "local-sfm", _true_in_clusters,
     "a cluster camera is not in the match graph's 0..17: interdependent cluster"),
    ("relative_motions.npz", "average", _replace("pairs", lambda p: p == 1),
     "pairs: true or false where integers are expected"),
    ("local_reconstructions.json", "triangulate", _true_in_registered, "registered holds true, not an integer"),
    ("global_motion.npz", "triangulate", _replace("cameras", lambda c: c == 1),
     "cameras: true or false where integers are expected"),
], ids=["clusters", "relative_motions", "local_reconstructions", "global_motion"])
def test_cli_boolean_camera_id_exit_code(small_run, tmp_path, capsys, name, stage, change, message):
    """JSON's true loads as a Python bool, which is an int equal to 1, and
    an `.npz` array of ids may hold bools: each stage took true for camera 1
    and exited 0."""
    out, _, _ = small_run
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    _edit(tmp_path / name, change)
    assert cli_main([stage, "--output-dir", str(tmp_path)]) == 3
    _one_line_data_error(capsys, stage, name, message)


def test_cli_non_finite_pixel_exit_code(small_run, tmp_path, capsys):
    out, _, _ = small_run
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    path = tmp_path / "matches.json"
    data = json.loads(path.read_text())
    xy = np.frombuffer(base64.b64decode(data["xy"]), "<f8").reshape(-1, 4).copy()
    xy[data["offsets"][2], 1] = float("nan")  # a pixel of the third edge; every stage exited 0
    path.write_text(json.dumps(dict(data, xy=base64.b64encode(xy.tobytes()).decode())))
    (i, j) = data["edges"][2]
    for stage in ("cluster", "tracks", "local-sfm", "evaluate"):
        assert cli_main([stage, "--output-dir", str(tmp_path)]) == 3, stage
        _one_line_data_error(capsys, stage, "matches.json", f"edge ({i}, {j}) has a pixel that is not finite")
    shutil.copy(out / "matches.json", path)
    path = tmp_path / "tracks.json"
    tracks = load_tracks(path, SMALL["num_cameras"])
    xy = tracks.xy.copy()
    xy[tracks.offsets[1], 0] = float("inf")  # the first pixel of the second track
    save_tracks(path, dataclasses.replace(tracks, xy=xy))
    assert cli_main(["local-sfm", "--output-dir", str(tmp_path)]) == 3
    _one_line_data_error(capsys, "local-sfm", "tracks.json", f"track {tracks.ids[1]}: a pixel is not finite")
    assert not list(tmp_path.glob("*.tmp"))


def test_cli_status_corrupt_manifest_exit_code(tmp_path, capsys):
    _synth_small(tmp_path)
    manifest = tmp_path / "manifest.json"
    text = manifest.read_text()
    for broken in (text[: len(text) // 2], "[]", json.dumps({"synth": {"inputs": 5}}), b"\xff\xfe"):
        manifest.write_bytes(broken if isinstance(broken, bytes) else broken.encode())  # ff fe is not UTF-8
        assert cli_main(["status", "--output-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err.strip()
        assert "manifest.json" in err and "\n" not in err
    # a stage fails before it writes anything
    assert cli_main(["cluster", "--output-dir", str(tmp_path)]) == 3
    assert not (tmp_path / "clusters.json").exists()
    assert not list(tmp_path.glob("*.tmp"))


def test_stage_error_names_stage(tmp_path):
    config = PipelineConfig(output_dir=str(tmp_path), **SMALL)
    run_pipeline(config, stages=["synth"])
    (tmp_path / "matches.json").write_text("{not json")
    with pytest.raises(Exception) as info:
        run_pipeline(config, stages=["cluster"])
    assert "stage 'cluster' failed" in str(info.value)


def test_cli_unwritable_artifact_exit_code(tmp_path, capsys):
    _synth_small(tmp_path)
    (tmp_path / "clusters.json").mkdir()
    assert cli_main(["cluster", "--output-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("data error: stage 'cluster' failed:") and "clusters.json" in err
    assert "\n" not in err
    assert not list(tmp_path.glob("*.tmp"))


def _validated_tracks_reference(recs):
    """validated_tracks as a merge of per-track dicts: (id, cameras,
    features, pixels) per track."""
    merged = {}
    for rec in recs:
        for t, cams, feats, xy in track_rows(rec.inliers):
            for c, f, p in zip(cams.tolist(), feats.tolist(), xy.tolist()):
                merged.setdefault(t, {}).setdefault(c, (f, p))
    return [(t, sorted(merged[t]), [merged[t][c][0] for c in sorted(merged[t])],
             [merged[t][c][1] for c in sorted(merged[t])]) for t in sorted(merged) if len(merged[t]) >= 2]


def test_validated_tracks_matches_dict_merge(small_run):
    out, _, _ = small_run
    tracks = load_tracks(out / "tracks.json", SMALL["num_cameras"])
    recs = load_local_reconstructions(out / "local_reconstructions.json")
    registered = [c for r in recs for c in r.registered]
    assert len(set(registered)) < len(registered)  # the clusters overlap
    made_recs = [
        LocalReconstruction(cluster_id=0, inliers=track_table([
            (0, [0, 1], [10, 11], [[0, 1], [2, 3]]), (1, [1, 5], [20, 25], [[4, 5], [6, 7]]),
            (7, [0, 1], [70, 71], [[8, 9], [1, 1]])])),
        # camera 1 of track 0 again, with another pixel; track 3 keeps one view
        LocalReconstruction(cluster_id=1, inliers=track_table([
            (0, [1, 2], [11, 12], [[-1, -1], [-2, -2]]), (3, [4], [31], [[5, 5]])])),
    ]
    for merged in (recs, made_recs, []):
        got = validated_tracks(merged)
        assert [(t, cams.tolist(), feats.tolist(), xy.tolist()) for t, cams, feats, xy in track_rows(got)] == \
            _validated_tracks_reference(merged)
        assert got.ids.dtype == got.offsets.dtype == got.cameras.dtype == got.features.dtype == np.int64
        assert got.xy.dtype == np.float64 and got.xy.shape == (len(got.cameras), 2)
        got.check(SMALL["num_cameras"])
    assert [(t, feats.tolist(), xy.tolist()) for t, _, feats, xy in track_rows(validated_tracks(made_recs))] == [
        (0, [10, 11, 12], [[0, 1], [2, 3], [-2, -2]]), (1, [20, 25], [[4, 5], [6, 7]]),
        (7, [70, 71], [[8, 9], [1, 1]])]
    # the inlier rows of a run keep the features and pixels of their tracks
    features = {(t, c): (f, p) for t, cams, feats, xy in track_rows(tracks)
                for c, f, p in zip(cams.tolist(), feats.tolist(), xy.tolist())}
    for t, cams, feats, xy in track_rows(validated_tracks(recs)):
        assert [features[t, c] for c in cams.tolist()] == list(zip(feats.tolist(), xy.tolist()))
