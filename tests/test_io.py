import base64
import json

import numpy as np
import pytest

from clustersfm import io as sfm_io
from clustersfm.averaging import GlobalMotion
from clustersfm.clustering import ClusterConfig, cluster_cameras
from clustersfm.errors import DataError
from clustersfm.global_ba import GlobalPoint
from clustersfm.local_sfm import LocalReconstruction, RelativeMotion
from clustersfm.scene import build_camera_graph
from clustersfm.synthetic import generate_synthetic_scene
from clustersfm.tracks import Track
from conftest import geometric_graph


def test_match_graph_roundtrip(tmp_path):
    scene, matches = generate_synthetic_scene("orbit", 6, 80, pixel_sigma=0.3, seed=1)
    path = tmp_path / "matches.json"
    sfm_io.save_match_graph(path, scene.cameras, matches)
    assert json.loads(path.read_text())["version"] == 2
    cameras, loaded = sfm_io.load_match_graph(path)
    assert len(cameras) == 6 and len(loaded) == len(matches)
    assert cameras == scene.cameras
    assert all(type(c.width) is int and type(c.height) is int for c in cameras)
    for name in ("edges", "offsets", "feat", "xy"):
        assert np.array_equal(getattr(matches, name), getattr(loaded, name))
        assert getattr(matches, name).dtype == getattr(loaded, name).dtype
    # graph built from the roundtrip matches is identical
    assert build_camera_graph(matches, 6).edges == build_camera_graph(loaded, 6).edges
    sfm_io.save_match_graph(path, scene.cameras, matches.take([]))
    cameras, empty = sfm_io.load_match_graph(path)
    assert cameras == scene.cameras and empty.edges.shape == (0, 2) and empty.offsets.tolist() == [0]
    assert empty.feat.shape == (0, 2) and empty.xy.shape == (0, 4)


def test_saves_are_byte_identical(tmp_path):
    scene, matches = generate_synthetic_scene("orbit", 6, 80, pixel_sigma=0.3, seed=1)
    sfm_io.save_match_graph(tmp_path / "a.json", scene.cameras, matches)
    sfm_io.save_match_graph(tmp_path / "b.json", scene.cameras, matches)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    points = _points_of_every_status()
    sfm_io.save_global_points(tmp_path / "a.npz", points)
    sfm_io.save_global_points(tmp_path / "b.npz", points)
    assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()
    for save, value in ((sfm_io.save_tracks, _tracks()), (sfm_io.save_local_reconstructions, _local_reconstructions())):
        save(tmp_path / "a.json", value)
        save(tmp_path / "b.json", value)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_ground_truth_roundtrip(tmp_path):
    scene, _ = generate_synthetic_scene("loop", 10, 100, seed=2)
    path = tmp_path / "gt.json"
    sfm_io.save_ground_truth(path, scene.poses)
    loaded = sfm_io.load_ground_truth(path)
    for a, b in zip(scene.poses, loaded):
        assert np.allclose(a.R, b.R) and np.allclose(a.c, b.c)


def test_cluster_set_roundtrip(tmp_path):
    g = geometric_graph(80, 0.15, 5)
    cs = cluster_cameras(g, ClusterConfig(max_cluster_size=30, completeness_ratio=0.4, seed=3))
    path = tmp_path / "clusters.json"
    sfm_io.save_cluster_set(path, cs)
    loaded = sfm_io.load_cluster_set(path, 80)
    assert [c.cameras for c in loaded.independent] == [c.cameras for c in cs.independent]
    assert [c.cameras for c in loaded.interdependent] == [c.cameras for c in cs.interdependent]
    assert loaded.discarded_edges == [tuple(e) for e in cs.discarded_edges]
    assert [l.cameras for l in loaded.tree.leaves()] == [l.cameras for l in cs.tree.leaves()]


def test_cluster_set_cameras_checked_against_match_graph(tmp_path):
    g = geometric_graph(30, 0.3, 5)
    cs = cluster_cameras(g, ClusterConfig(max_cluster_size=12, completeness_ratio=0.4, seed=3))
    path = tmp_path / "clusters.json"
    sfm_io.save_cluster_set(path, cs)
    data = json.loads(path.read_text())
    leaf = data["tree"]
    while "leaf" not in leaf:
        leaf = leaf["children"][0]
    for cameras, bad in ((data["interdependent"][0], 999), (data["independent"][-1], 30),
                         (leaf["cameras"], -1)):
        cameras.append(bad)
        path.write_text(json.dumps(data))
        with pytest.raises(DataError, match=r"clusters.json: a cluster camera is not in the match graph's 0\.\.29"):
            sfm_io.load_cluster_set(path, 30)
        cameras.pop()
    path.write_text(json.dumps(data))
    assert sfm_io.load_cluster_set(path, 30).tree.root.cameras == cs.tree.root.cameras


def test_relative_motions_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    from clustersfm.geometry import random_rotation

    motions = [
        RelativeMotion(i=0, j=1, cluster_id=2, rotation=random_rotation(rng),
                       translation=rng.normal(size=3), support=17)
    ]
    path = tmp_path / "motions.json"
    sfm_io.save_relative_motions(path, motions)
    loaded = sfm_io.load_relative_motions(path)
    assert loaded[0].cluster_id == 2 and loaded[0].support == 17
    assert np.allclose(loaded[0].rotation, motions[0].rotation)


def _local_reconstructions():
    """A reconstructed cluster, a failed one and one with poses but no tracks."""
    rng = np.random.default_rng(4)
    from clustersfm.geometry import random_rotation

    rec = LocalReconstruction(cluster_id=3, seed_pair=(0, 4), mean_reprojection=1 / 3)
    rec.rotations = {c: random_rotation(rng) for c in (4, 0, 7)}
    rec.centers = {c: rng.normal(size=3) for c in (0, 4, 7)}
    rec.point_tracks, rec.positions = np.array([9, 5, 12]), rng.normal(size=(3, 3))
    rec.obs_tracks, rec.obs_cameras = np.array([9, 9, 5, 5, 5, 12, 12]), np.array([0, 7, 0, 4, 7, 4, 7])
    rec.obs_xy = rng.normal(size=(7, 2)) * 1e3
    empty = LocalReconstruction(cluster_id=5, seed_pair=(2, 3))
    empty.rotations, empty.centers = {2: np.eye(3), 3: np.eye(3)}, {2: np.zeros(3), 3: np.array([1e-300, 0, -0.0])}
    return [rec, LocalReconstruction(cluster_id=4, failed=True), empty]


def test_local_reconstructions_roundtrip(tmp_path):
    path = tmp_path / "recs.json"
    for recs in (_local_reconstructions(), []):
        sfm_io.save_local_reconstructions(path, recs)
        assert json.loads(path.read_text())["version"] == 2
        loaded = sfm_io.load_local_reconstructions(path)
        assert len(loaded) == len(recs)
        for a, b in zip(recs, loaded):
            assert (a.cluster_id, a.seed_pair, a.failed) == (b.cluster_id, b.seed_pair, b.failed)
            assert a.registered == b.registered and type(b.cluster_id) is int
            assert np.array_equal(a.mean_reprojection, b.mean_reprojection, equal_nan=True)  # NaN if failed
            for c in a.registered:
                assert np.array_equal(a.rotations[c], b.rotations[c]) and np.array_equal(a.centers[c], b.centers[c])
            for name in ("point_tracks", "positions", "obs_tracks", "obs_cameras", "obs_xy"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name
                assert getattr(b, name).shape == getattr(a, name).shape, name
                assert getattr(b, name).dtype == (np.int64 if name in ("point_tracks", "obs_tracks", "obs_cameras")
                                                  else np.float64), name


def _tracks():
    return [
        Track(id=0, cameras=np.array([0, 3]), features=np.array([7, 2]), xy=np.array([[1.5, 2.5], [-3.0, 1e-300]])),
        Track(id=4, cameras=np.array([1, 2, 5]), features=np.array([0, 0, 9]), xy=np.arange(6.0).reshape(3, 2) / 7),
    ]


def test_tracks_roundtrip_exact(tmp_path):
    path = tmp_path / "tracks.json"
    for tracks in (_tracks(), []):
        sfm_io.save_tracks(path, tracks)
        loaded = sfm_io.load_tracks(path, 6)
        assert [t.id for t in loaded] == [t.id for t in tracks]
        assert all(type(t.id) is int for t in loaded)
        for a, b in zip(tracks, loaded):
            for name in ("cameras", "features", "xy"):
                assert np.array_equal(getattr(a, name), getattr(b, name)) and getattr(b, name).shape == getattr(a, name).shape
            assert b.cameras.dtype == b.features.dtype == np.int64 and b.xy.dtype == np.float64


def test_global_motion_and_points_roundtrip(tmp_path):
    motion = GlobalMotion(
        rotations={0: np.eye(3), 1: np.eye(3)},
        centers={0: np.zeros(3), 1: np.array([1.0, 0, 0])},
        scales={0: 1.0, 1: 2.5},
        residual_norms=np.array([0.1, 0.2]),
        objective=0.3,
    )
    sfm_io.save_global_motion(tmp_path / "gm.json", motion)
    loaded = sfm_io.load_global_motion(tmp_path / "gm.json", 2)
    assert loaded.scales == {0: 1.0, 1: 2.5}
    assert np.allclose(loaded.centers[1], [1, 0, 0])

    points = [
        GlobalPoint(track_id=0, position=np.array([1.0, 2, 3]), cluster_id=0,
                    cameras=np.array([0, 1, 2]), xy=np.zeros((3, 2)), status="active"),
        GlobalPoint(track_id=1, position=None, cluster_id=1,
                    cameras=np.array([0, 1]), xy=np.zeros((2, 2)), status="too_few_views"),
    ]
    sfm_io.save_global_points(tmp_path / "pts.npz", points)
    loaded_pts = sfm_io.load_global_points(tmp_path / "pts.npz")
    assert loaded_pts[0].active and not loaded_pts[1].active
    assert np.allclose(loaded_pts[0].position, [1, 2, 3])


def _points_of_every_status():
    return [
        GlobalPoint(track_id=0, position=np.array([1.0, 2, 3]), cluster_id=0,
                    cameras=np.array([0, 1, 2]), xy=np.arange(6.0).reshape(3, 2) / 3, status="active"),
        GlobalPoint(track_id=1, position=None, cluster_id=1,
                    cameras=np.array([0, 1]), xy=np.zeros((2, 2)), status="too_few_views"),
        GlobalPoint(track_id=7, position=None, cluster_id=1,
                    cameras=np.array([3, 4, 5, 6]), xy=np.full((4, 2), 0.1), status="cheirality"),
        GlobalPoint(track_id=9, position=None, cluster_id=0,
                    cameras=np.array([2]), xy=np.array([[1e-300, -2.5]]), status="reprojection"),
    ]


def test_global_points_roundtrip_exact(tmp_path):
    path = tmp_path / "pts.npz"
    for points in (_points_of_every_status(), []):
        sfm_io.save_global_points(path, points)
        loaded = sfm_io.load_global_points(path)
        assert len(loaded) == len(points)
        for a, b in zip(points, loaded):
            assert (a.track_id, a.cluster_id, a.status) == (b.track_id, b.cluster_id, b.status)
            assert type(b.track_id) is int and type(b.cluster_id) is int
            assert (b.position is None) == (a.position is None)
            assert a.position is None or np.array_equal(a.position, b.position)
            assert np.array_equal(a.cameras, b.cameras) and b.cameras.dtype == np.int64
            assert np.array_equal(a.xy, b.xy) and b.xy.shape == a.xy.shape


def test_ply_export(tmp_path):
    pts = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
    sfm_io.save_ply_points(tmp_path / "p.ply", pts)
    text = (tmp_path / "p.ply").read_text().splitlines()
    assert text[0] == "ply"
    assert "element vertex 2" in text[2]
    assert text[-1].startswith("3 4 5")
    sfm_io.save_ply_cameras(tmp_path / "c.ply", pts)
    cam_text = (tmp_path / "c.ply").read_text()
    assert "property uchar red" in cam_text


def _rewrite_npz(path, data, **changes):
    """Save `data` to path with some arrays replaced; a None value drops the key."""
    arrays = {k: v for k, v in dict(data, **changes).items() if v is not None}
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def test_malformed_artifacts_raise_data_error(tmp_path):
    scene, matches = generate_synthetic_scene("orbit", 6, 80, pixel_sigma=0.3, seed=1)
    path = tmp_path / "matches.json"
    sfm_io.save_match_graph(path, scene.cameras, matches)
    assert not list(tmp_path.glob("*.tmp"))  # the temp file was renamed into place
    good = path.read_text()
    data = json.loads(good)
    offsets, edges = data["offsets"], data["edges"]
    feat = np.frombuffer(base64.b64decode(data["feat"]), "<i8").reshape(-1, 2).copy()
    feat[offsets[2] + 1, 1] = feat[offsets[2], 1]  # the third edge sees one feature of its j twice
    (i2, j2), (i3, j3) = edges[2], edges[3]
    for key, value, message in (
        ("intrinsics", None, "intrinsics"),  # a missing key is named
        ("edges", [{"i": 0}], "malformed"),
        ("edges", [[i + 0.5, j] for i, j in edges], "Cannot cast"),  # no float to int
        ("version", 1, "unsupported match-graph version 1"),
        ("intrinsics", data["intrinsics"][:-1], "malformed"),  # one camera without intrinsics
        ("feat", data["feat"][:-4], "malformed"),  # not a whole number of int64
        ("xy", data["xy"][:8] + "*" + data["xy"][8:], "malformed"),  # outside the base64 alphabet
        ("xy", [0.0, 1.0], "malformed"),  # a list where base64 is expected
        ("offsets", [offsets[0], offsets[2], offsets[1], *offsets[3:]], "offsets do not rise"),  # 1 and 2 swapped
        ("offsets", offsets[:-1] + [offsets[-1] - 1], "offsets do not rise"),  # ends before P
        ("offsets", [0, 0, *offsets[2:]], "edge \\(0, 1\\) has no correspondences"),  # an empty edge
        ("feat", base64.b64encode(feat.tobytes()).decode(), f"edge \\({i2}, {j2}\\) repeats a feature index"),
        ("edges", [*edges[:3], [j3, i3], *edges[4:]], f"match edge \\({j3}, {i3}\\) must have i < j"),
        ("edges", [*edges[:3], [i3, i3], *edges[4:]], f"self match edge on camera {i3}"),
        ("edges", [[i, 6 if j == 5 else j] for i, j in edges], "edge camera is not in 0..5"),
        ("edges", [*edges[:3], edges[1], *edges[4:]], f"duplicate match edge \\({edges[1][0]}, {edges[1][1]}\\)"),
    ):
        broken = {k: v for k, v in dict(data, **{key: value}).items() if v is not None}
        path.write_text(json.dumps(broken))
        with pytest.raises(DataError, match=f"^{path}: .*{message}"):
            sfm_io.load_match_graph(path)
    for damaged, message in ((good[: len(good) // 2], "invalid JSON"), ("", "invalid JSON"),
                             (json.dumps([data]), "malformed")):
        path.write_text(damaged)
        with pytest.raises(DataError, match=f"^{path}: {message}"):
            sfm_io.load_match_graph(path)
    path = tmp_path / "points.npz"
    sfm_io.save_global_points(path, _points_of_every_status())
    good = path.read_bytes()
    with np.load(path) as archive:
        data = dict(archive)
    for changes, message in ((dict(status=data["status"] + 1), "status code is not in 0..3"),
                             (dict(track=None), "track"),  # a missing key is named
                             (dict(cameras=data["cameras"].astype(object)), "Object arrays"),
                             (dict(cluster=data["cluster"] + 0.5), "Cannot cast"),
                             (dict(has_position=data["has_position"][:-1]), "malformed"),
                             (dict(offsets=data["offsets"][::-1]), "offsets do not rise")):
        _rewrite_npz(path, data, **changes)
        with pytest.raises(DataError, match=f"^{path}: .*{message}"):
            sfm_io.load_global_points(path)
    flipped = bytearray(good)
    flipped[len(good) // 2] ^= 0xFF
    for damaged, message in ((good[: len(good) // 2], "BadZipFile"), (b"", "EOFError"),
                             (bytes(flipped), "Bad CRC-32")):
        path.write_bytes(damaged)
        with pytest.raises(DataError, match=f"^{path}: malformed artifact .*{message}"):
            sfm_io.load_global_points(path)
    path = tmp_path / "artifact.json"
    path.write_text(json.dumps([1, 2]))
    with pytest.raises(DataError):
        sfm_io.load_tracks(path, 6)
    with pytest.raises(DataError, match="cannot read"):
        sfm_io.load_tracks(tmp_path, 6)  # a directory
    for cameras, message in (([3, 1], "cameras are not strictly ascending"),  # unsorted
                             ([1, 3, 3], "cameras are not strictly ascending"),  # a repeated camera
                             ([1, 2, 6], "camera 6 is not in the match graph's 0..5$"),  # past the last camera
                             ([-1, 2], "camera -1 is not in the match graph's 0..5$")):  # before the first
        bad = Track(id=4, cameras=np.array(cameras), features=np.zeros(len(cameras), np.int64),
                    xy=np.zeros((len(cameras), 2)))
        sfm_io.save_tracks(path, [*_tracks()[:1], bad])
        with pytest.raises(DataError, match=f"^{path}: track 4: {message}"):
            sfm_io.load_tracks(path, 6)
    recs = _local_reconstructions()
    recs[0].obs_cameras = np.array([0, 7, 0, 7, 4, 4, 7])  # the rows of track 5 are unsorted
    sfm_io.save_local_reconstructions(path, recs)
    with pytest.raises(DataError, match=f"^{path}: track 5: cameras are not strictly ascending"):
        sfm_io.load_local_reconstructions(path)
    recs[0].obs_tracks = np.array([9, 5, 9, 5, 5, 12, 12])
    with pytest.raises(ValueError, match="cluster 3: the inlier rows are not grouped by the points' tracks"):
        sfm_io.save_local_reconstructions(path, recs)
    nested = {  # the formats of earlier releases
        "tracks": [{"id": 0, "elements": [[0, 0, 0.0, 0.0], [1, 0, 0.0, 0.0]]}],
        "local-reconstruction": [{"clusterId": 0, "failed": False, "seedPair": [0, 1], "meanReprojection": 0.5,
                                  "cameras": [{"id": 0, "rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1], "center": [0, 0, 0]}],
                                  "points": [{"trackId": 0, "position": [0, 0, 1], "observations": [[0, 1.0, 2.0]]}]}],
    }
    for save, value, load, name in (
        (sfm_io.save_tracks, _tracks(), lambda path: sfm_io.load_tracks(path, 6), "tracks"),
        (sfm_io.save_local_reconstructions, _local_reconstructions(), sfm_io.load_local_reconstructions,
         "local-reconstruction"),
    ):
        path.write_text(json.dumps(nested[name]))
        with pytest.raises(DataError, match=f"^{path}: malformed artifact: not a version-2 {name} object$"):
            load(path)
        save(path, value)
        data = json.loads(path.read_text())
        offsets = data["offsets"]
        for key, change, message in (
            ("version", 1, f"unsupported {name} version 1"),
            ("xy", data["xy"][:-4], "malformed"),  # cut: not a whole number of float64
            ("cameras", data["cameras"][:8] + "*" + data["cameras"][8:], "malformed"),  # outside the alphabet
            ("offsets", [offsets[0], offsets[2], offsets[1], *offsets[3:]], "offsets do not rise"),
            ("offsets", offsets[:-1] + [offsets[-1] + 1], "offsets do not rise"),  # ends after the last row
            ("track", None, "track"),  # a missing key is named
        ):
            broken = {k: v for k, v in dict(data, **{key: change}).items() if v is not None}
            path.write_text(json.dumps(broken))
            with pytest.raises(DataError, match=f"^{path}: .*{message}"):
                load(path)
    data["clusters"][0]["points"] += 1  # the clusters claim one point more than the arrays hold
    path.write_text(json.dumps(data))
    with pytest.raises(DataError, match=f"^{path}: offsets do not rise from 0 to 3"):
        sfm_io.load_local_reconstructions(path)
    sfm_io.save_ground_truth(path, scene.poses)
    data = json.loads(path.read_text())
    data[0]["cameraId"] = 1  # camera 0 would be left without a pose
    path.write_text(json.dumps(data))
    with pytest.raises(DataError, match="camera ids"):
        sfm_io.load_ground_truth(path)
    data[0]["cameraId"] = -1  # would index the last camera
    path.write_text(json.dumps(data))
    with pytest.raises(DataError, match="camera id -1"):
        sfm_io.load_ground_truth(path)
    motion = GlobalMotion(rotations={0: np.eye(3), 5: np.eye(3)}, centers={0: np.zeros(3), 5: np.ones(3)},
                          scales={0: 1.0}, residual_norms=np.zeros(1), objective=0.0)
    sfm_io.save_global_motion(path, motion)
    assert sorted(sfm_io.load_global_motion(path, 6).centers) == [0, 5]
    data = json.loads(path.read_text())
    for camera in (999, -1, 6):  # -1 would take the last camera's intrinsics
        data["cameras"][1]["id"] = camera
        path.write_text(json.dumps(data))
        with pytest.raises(DataError, match=f"^{path}: motion camera {camera} is not in the match graph's 0..5$"):
            sfm_io.load_global_motion(path, 6)
