import json
import shutil

import numpy as np
import pytest

from clustersfm.cli import main as cli_main
from clustersfm.errors import ConfigurationError
from clustersfm.io import load_local_reconstructions, load_tracks, save_tracks
from clustersfm.local_sfm import LocalReconstruction
from clustersfm.pipeline import PipelineConfig, run_pipeline, stage_status, validated_tracks
from clustersfm.tracks import Track


SMALL = dict(
    layout="orbit",
    num_cameras=18,
    num_points=250,
    pixel_sigma=0.3,
    seed=5,
    max_cluster_size=8,
    completeness_ratio=0.7,
    ba_rounds=4,
)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = PipelineConfig(output_dir=str(out), **SMALL)
    report = run_pipeline(config)
    return out, config, report


def test_full_run_produces_report(small_run):
    out, config, report = small_run
    for name in ("matches.json", "clusters.json", "tracks.json", "relative_motions.json",
                 "global_motion.json", "points.npz", "final_motion.json", "points.ply",
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
    before = {name: (out / name).stat().st_mtime_ns for name in ("final_motion.json", "tracks.json")}
    run_pipeline(config, resume=True)
    assert (out / "report.json").exists()
    after = {name: (out / name).stat().st_mtime_ns for name in before}
    assert before == after  # upstream stages untouched


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


def test_status_empty_dir(tmp_path):
    status = stage_status(tmp_path)
    assert all(not info["present"] for info in status.values())


def test_config_validation():
    with pytest.raises(ConfigurationError):
        PipelineConfig(completeness_ratio=1.5)
    with pytest.raises(ConfigurationError, match="max_outer_iterations"):
        PipelineConfig(max_outer_iterations=0)
    with pytest.raises(ConfigurationError):
        PipelineConfig.from_dict({"not_a_key": 1})


def test_cli_invalid_config_exit_code(tmp_path):
    code = cli_main([
        "run", "--output-dir", str(tmp_path), "--completeness-ratio", "1.5",
    ])
    assert code == 2
    assert not (tmp_path / "matches.json").exists()
    cfg = tmp_path / "removed.json"
    cfg.write_text(json.dumps({"ba_every": 0}))  # a removed key is an unknown key
    assert cli_main(["run", "--output-dir", str(tmp_path), "--config", str(cfg)]) == 2
    assert not (tmp_path / "matches.json").exists()
    for removed in ({"l1_max_iters": 200}, {"l1_tol": 1e-10}):  # averaging settings are constants now
        cfg.write_text(json.dumps(removed))
        assert cli_main(["run", "--output-dir", str(tmp_path), "--config", str(cfg)]) == 2
        assert not (tmp_path / "matches.json").exists()
    cfg.write_text(json.dumps({"max_outer_iterations": 0}))  # checked before the synth stage
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
    monkeypatch.setenv("CLUSTERSFM_WORKERS", "abc")
    _assert_config_error(capsys, ["cluster", "--output-dir", str(tmp_path)],
                         "CLUSTERSFM_WORKERS must be an integer, got 'abc'")
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
                         "relative_motions.json", "global_motion.json", "points.npz", "final_motion.json",
                         "final_points.npz", "report.json")
        }
    assert hashes[1] == hashes[3]


def test_stage_error_keeps_exception_object(tmp_path):
    from clustersfm.clustering import ClusteringError

    # one outer iteration cannot settle this clustering
    config = PipelineConfig(output_dir=str(tmp_path), **dict(SMALL, max_outer_iterations=1))
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


def test_cli_cluster_camera_outside_match_graph_exit_code(small_run, tmp_path, capsys):
    out, _, _ = small_run
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    clusters = tmp_path / "clusters.json"
    data = json.loads(clusters.read_text())
    data["interdependent"][0].append(999)
    clusters.write_text(json.dumps(data))
    for stage in ("tracks", "local-sfm", "triangulate", "ba", "evaluate"):
        assert cli_main([stage, "--output-dir", str(tmp_path)]) == 3, stage
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"data error: stage {stage!r} failed:") and "clusters.json" in err
        assert "not in the match graph's 0..17" in err and "\n" not in err


def _one_line_data_error(capsys, stage, *fragments):
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"data error: stage {stage!r} failed:") and "\n" not in err and "Traceback" not in err
    assert all(f in err for f in fragments), err


def test_cli_motion_camera_outside_match_graph_exit_code(small_run, tmp_path, capsys):
    out, _, _ = small_run
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    for name, stages in (("global_motion.json", ("triangulate", "ba")), ("final_motion.json", ("evaluate",))):
        path = tmp_path / name
        original = path.read_text()
        data = json.loads(original)
        for camera in (999, -1):  # -1 would take the last camera's intrinsics
            data["cameras"][0]["id"] = camera
            path.write_text(json.dumps(data))
            for stage in stages:
                assert cli_main([stage, "--output-dir", str(tmp_path)]) == 3, (name, camera, stage)
                _one_line_data_error(capsys, stage, name, f"motion camera {camera} is not in the match graph's 0..17")
        path.write_text(original)


def test_cli_track_camera_outside_match_graph_exit_code(small_run, tmp_path, capsys):
    out, _, _ = small_run
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    path = tmp_path / "tracks.json"
    tracks = load_tracks(path, SMALL["num_cameras"])
    first = tracks[0]
    cameras = np.append(first.cameras[:-1], 999)  # still ascending
    save_tracks(path, [Track(first.id, cameras, first.features, first.xy), *tracks[1:]])
    for stage in ("local-sfm", "triangulate"):
        assert cli_main([stage, "--output-dir", str(tmp_path)]) == 3, stage
        _one_line_data_error(capsys, stage, "tracks.json", f"track {first.id}: camera 999 is not in the match graph's 0..17")


def test_cli_point_camera_not_posed_exit_code(small_run, tmp_path, capsys):
    out, _, _ = small_run
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    path = tmp_path / "global_motion.json"
    data = json.loads(path.read_text())
    data["cameras"] = [c for c in data["cameras"] if c["id"] != 3]  # the points still see camera 3
    path.write_text(json.dumps(data))
    assert cli_main(["ba", "--output-dir", str(tmp_path)]) == 3
    _one_line_data_error(capsys, "ba", "point camera 3 is not posed by the global motion")
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


def _validated_tracks_reference(tracks, recs):
    """validated_tracks as a merge of per-track dicts: (id, cameras,
    features, pixels) per track."""
    by_id = {t.id: t for t in tracks}
    merged = {}
    for rec in recs:
        for t, c, xy in zip(rec.obs_tracks.tolist(), rec.obs_cameras.tolist(), rec.obs_xy.tolist()):
            merged.setdefault(t, {}).setdefault(c, xy)
    out = []
    for t in sorted(merged):
        if len(merged[t]) < 2 or t not in by_id:
            continue
        feature_of = dict(zip(by_id[t].cameras.tolist(), by_id[t].features.tolist()))
        cameras = sorted(merged[t])
        out.append((t, cameras, [feature_of.get(c, -1) for c in cameras], [merged[t][c] for c in cameras]))
    return out


def _rec(cluster_id, tracks, cameras, xy):
    return LocalReconstruction(cluster_id=cluster_id, obs_tracks=np.array(tracks), obs_cameras=np.array(cameras),
                               obs_xy=np.array(xy, dtype=float))


def test_validated_tracks_matches_dict_merge(small_run):
    out, _, _ = small_run
    tracks = load_tracks(out / "tracks.json", SMALL["num_cameras"])
    recs = load_local_reconstructions(out / "local_reconstructions.json")
    registered = [c for r in recs for c in r.registered]
    assert len(set(registered)) < len(registered)  # the clusters overlap
    made = [
        Track(id=0, cameras=np.array([0, 1, 2]), features=np.array([10, 11, 12]), xy=np.zeros((3, 2))),
        Track(id=1, cameras=np.array([1, 2]), features=np.array([20, 21]), xy=np.zeros((2, 2))),
        Track(id=3, cameras=np.array([0, 4]), features=np.array([30, 31]), xy=np.zeros((2, 2))),
    ]
    made_recs = [
        # track 7 is not in the tracks; camera 5 is not in track 1
        _rec(0, [0, 0, 1, 1, 7, 7], [0, 1, 1, 5, 0, 1], [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9], [1, 1]]),
        # camera 1 of track 0 again, with another pixel; track 3 keeps one view
        _rec(1, [0, 0, 3], [1, 2, 4], [[-1, -1], [-2, -2], [5, 5]]),
    ]
    for tracks, recs in ((tracks, recs), (made, made_recs), (made, []), ([], made_recs)):
        got = validated_tracks(tracks, recs)
        assert [(t.id, t.cameras.tolist(), t.features.tolist(), t.xy.tolist()) for t in got] == \
            _validated_tracks_reference(tracks, recs)
        for t in got:
            assert type(t.id) is int and t.cameras.dtype == t.features.dtype == np.int64
            assert t.xy.dtype == np.float64 and t.xy.shape == (len(t), 2)
    assert [(t.id, t.features.tolist(), t.xy.tolist()) for t in validated_tracks(made, made_recs)] == [
        (0, [10, 11, 12], [[0, 1], [2, 3], [-2, -2]]), (1, [20, -1], [[4, 5], [6, 7]])]
