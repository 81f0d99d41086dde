import base64
import dataclasses
import json
import zipfile

import numpy as np
import pytest

from clustersfm import io as sfm_io
from clustersfm.clustering import cluster_cameras
from clustersfm.errors import DataError
from clustersfm.global_ba import GlobalPoint
from clustersfm.local_sfm import LocalReconstruction
from clustersfm.scene import build_camera_graph
from clustersfm.synthetic import generate_synthetic_scene
from conftest import geometric_graph, global_motion, motion_table, random_rotation, track_table, tree_leaves


def test_match_graph_roundtrip(tmp_path):
    scene, matches = generate_synthetic_scene("orbit", 6, 80, pixel_sigma=0.3, seed=1)
    path = tmp_path / "matches.json"
    sfm_io.save_match_graph(path, scene.cameras, matches)
    assert json.loads(path.read_text())["version"] == 2
    cameras, loaded = sfm_io.load_match_graph(path)
    assert len(cameras) == 6 and len(loaded) == len(matches)
    for name, dtype in (("intrinsics", np.float64), ("size", np.int64)):
        a, b = getattr(scene.cameras, name), getattr(cameras, name)
        assert np.array_equal(a, b) and b.shape == a.shape and b.dtype == dtype, name
        assert np.array_equal(getattr(sfm_io.load_cameras(path), name), a), name
    for name in ("edges", "offsets", "feat", "xy"):
        assert np.array_equal(getattr(matches, name), getattr(loaded, name))
        assert getattr(matches, name).dtype == getattr(loaded, name).dtype
    # graph built from the roundtrip matches is identical
    a, b = build_camera_graph(matches, 6), build_camera_graph(loaded, 6)
    assert np.array_equal(a.pairs, b.pairs) and np.array_equal(a.weights, b.weights)
    sfm_io.save_match_graph(path, scene.cameras, matches.take([]))
    cameras, empty = sfm_io.load_match_graph(path)
    assert np.array_equal(cameras.intrinsics, scene.cameras.intrinsics) and np.array_equal(cameras.size, scene.cameras.size)
    assert empty.edges.shape == (0, 2) and empty.offsets.tolist() == [0]
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


def _npz_arrays(path) -> dict:
    with np.load(path) as archive:
        return dict(archive)


def test_ground_truth_roundtrip(tmp_path, small_run):
    scene, _ = generate_synthetic_scene("loop", 10, 100, seed=2)
    path = tmp_path / "gt.npz"
    sfm_io.save_ground_truth(path, scene.rotation, scene.center)
    assert sorted(_npz_arrays(path)) == ["center", "rotation"]  # row k is camera k
    rotation, center = sfm_io.load_ground_truth(path, 10)
    assert np.array_equal(rotation, scene.rotation) and rotation.shape == (10, 3, 3) and rotation.dtype == np.float64
    assert np.array_equal(center, scene.center) and center.shape == (10, 3) and center.dtype == np.float64
    # a pipeline artifact saves back to the same bytes
    out = small_run[0]
    artifact = out / "ground_truth.npz"
    sfm_io.save_ground_truth(path, *sfm_io.load_ground_truth(artifact, len(sfm_io.load_cameras(out / "matches.json"))))
    assert path.read_bytes() == artifact.read_bytes()


def test_cluster_set_roundtrip(tmp_path):
    g = geometric_graph(80, 0.15, 5)
    cs = cluster_cameras(g, max_cluster_size=30, completeness_ratio=0.4, seed=3)
    path = tmp_path / "clusters.json"
    sfm_io.save_cluster_set(path, cs)
    loaded = sfm_io.load_cluster_set(path, 80)
    assert [c.cameras for c in loaded.independent] == [c.cameras for c in cs.independent]
    assert [c.cameras for c in loaded.interdependent] == [c.cameras for c in cs.interdependent]
    assert loaded.discarded_edges == [tuple(e) for e in cs.discarded_edges]
    assert [l.cameras for l in loaded.tree.leaves()] == [l.cameras for l in cs.tree.leaves()]


@pytest.mark.parametrize("name,load,save", [pytest.param(*row, id=row[0]) for row in (
    ("clusters.json", sfm_io.load_cluster_set, sfm_io.save_cluster_set),
    ("local_reconstructions.json", lambda path, n: sfm_io.load_local_reconstructions(path),
     sfm_io.save_local_reconstructions),
    ("points.npz", sfm_io.load_global_points, sfm_io.save_global_points),
    ("final_points.npz", sfm_io.load_global_points, sfm_io.save_global_points),
)])
def test_pipeline_artifact_saves_back_to_the_same_bytes(tmp_path, small_run, name, load, save):
    out = small_run[0]
    save(tmp_path / name, load(out / name, len(sfm_io.load_cameras(out / "matches.json"))))
    assert (tmp_path / name).read_bytes() == (out / name).read_bytes()


def test_cluster_set_cameras_checked_against_match_graph(tmp_path):
    g = geometric_graph(30, 0.3, 5)
    cs = cluster_cameras(g, max_cluster_size=12, completeness_ratio=0.4, seed=3)
    path = tmp_path / "clusters.json"
    sfm_io.save_cluster_set(path, cs)
    data = json.loads(path.read_text())
    leaves = tree_leaves(data["tree"])
    for cameras, bad in ((data["interdependent"][0], 999), (leaves[-1]["cameras"], 30), (leaves[0]["cameras"], -1)):
        cameras.append(bad)
        path.write_text(json.dumps(data))
        with pytest.raises(DataError, match=r"clusters.json: a cluster camera is not in the match graph's 0\.\.29"):
            sfm_io.load_cluster_set(path, 30)
        cameras.pop()
    path.write_text(json.dumps(data))
    assert sfm_io.load_cluster_set(path, 30).tree.root.cameras == cs.tree.root.cameras


def _motions():
    """Three motions: pair (0, 1) measured by clusters 2 and 0, and (1, 4)."""
    rng = np.random.default_rng(0)

    return motion_table([(0, 1, 2, random_rotation(rng), rng.normal(size=3), 17),
                         (1, 4, 2, random_rotation(rng), rng.normal(size=3), 0),
                         (0, 1, 0, random_rotation(rng), rng.normal(size=3) * 1e-300, 3)])


def test_relative_motions_roundtrip(tmp_path, small_run):
    path = tmp_path / "motions.npz"
    names = ["cluster", "pairs", "rotation", "support", "translation"]
    for motions in (_motions(), motion_table([])):
        sfm_io.save_relative_motions(path, motions)
        assert sorted(_npz_arrays(path)) == names  # the table's own arrays
        loaded = sfm_io.load_relative_motions(path, 5)
        assert len(loaded) == len(motions)
        for name in names:
            assert np.array_equal(getattr(loaded, name), getattr(motions, name)), name
            assert getattr(loaded, name).dtype == getattr(motions, name).dtype, name
            assert getattr(loaded, name).shape == getattr(motions, name).shape, name
    # a pipeline artifact saves back to the same bytes
    out, _, _ = small_run
    artifact = out / "relative_motions.npz"
    num_cameras = len(sfm_io.load_cameras(out / "matches.json"))
    sfm_io.save_relative_motions(path, sfm_io.load_relative_motions(artifact, num_cameras))
    assert path.read_bytes() == artifact.read_bytes()


def _local_reconstructions():
    """A reconstructed cluster, a failed one and one with poses but no tracks."""
    rng = np.random.default_rng(4)

    rec = LocalReconstruction(cluster_id=0, seed_pair=(0, 4), mean_reprojection=1 / 3)
    rotations = {c: random_rotation(rng) for c in (4, 0, 7)}
    rec.registered, rec.rotation = np.array([0, 4, 7]), np.array([rotations[c] for c in (0, 4, 7)])
    rec.center = rng.normal(size=(3, 3))
    rec.positions = rng.normal(size=(3, 3))
    xy = rng.normal(size=(7, 2)) * 1e3
    rec.inliers = track_table([(9, [0, 7], [3, 1], xy[:2]), (5, [0, 4, 7], [8, 0, 2], xy[2:5]),
                               (12, [4, 7], [5, 6], xy[5:])])
    empty = LocalReconstruction(cluster_id=2, seed_pair=(2, 3), registered=np.array([2, 3]),
                                rotation=np.array([np.eye(3), np.eye(3)]),
                                center=np.array([np.zeros(3), [1e-300, 0, -0.0]]))
    return [rec, LocalReconstruction(cluster_id=1), empty]


def test_local_reconstructions_roundtrip(tmp_path):
    path = tmp_path / "recs.json"
    for recs in (_local_reconstructions(), []):
        sfm_io.save_local_reconstructions(path, recs)
        assert json.loads(path.read_text())["version"] == 2
        loaded = sfm_io.load_local_reconstructions(path)
        assert len(loaded) == len(recs)
        for a, b in zip(recs, loaded):
            assert (a.cluster_id, a.seed_pair, a.failed) == (b.cluster_id, b.seed_pair, b.failed)
            assert type(b.cluster_id) is int
            assert np.array_equal(a.mean_reprojection, b.mean_reprojection, equal_nan=True)  # NaN if failed
            for name in ("registered", "rotation", "center", "positions"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name
                assert getattr(b, name).shape == getattr(a, name).shape, name
                assert getattr(b, name).dtype == getattr(a, name).dtype, name
            for name in ("ids", "offsets", "cameras", "features", "xy"):
                x, y = getattr(a.inliers, name), getattr(b.inliers, name)
                assert np.array_equal(x, y) and y.shape == x.shape and y.dtype == x.dtype, name


_FIRST_TRACK = (0, [0, 3], [7, 2], [[1.5, 2.5], [-3.0, 1e-300]])


def _tracks():
    return track_table([_FIRST_TRACK, (4, [1, 2, 5], [0, 0, 9], np.arange(6.0).reshape(3, 2) / 7)])


def test_tracks_roundtrip_exact(tmp_path):
    path = tmp_path / "tracks.json"
    for tracks in (_tracks(), track_table([])):
        sfm_io.save_tracks(path, tracks)
        loaded = sfm_io.load_tracks(path, 6)
        assert len(loaded) == len(tracks)
        for name in ("ids", "offsets", "cameras", "features", "xy"):
            a, b = getattr(tracks, name), getattr(loaded, name)
            assert np.array_equal(a, b) and b.shape == a.shape and b.dtype == a.dtype, name


def test_global_motion_and_points_roundtrip(tmp_path, small_run):
    rng = np.random.default_rng(2)
    motion = global_motion({0: np.eye(3), 1: random_rotation(rng), 4: np.eye(3)},
                           {0: np.zeros(3), 1: np.array([1.0, 0, 1e-300]), 4: rng.normal(size=3)},
                           {0: 1.0, 1: 2.5, 3: 1 / 3}, residual_norms=[0.1, 0.2], objective=0.3)
    names = ["cameras", "center", "clusters", "residual_norms", "rotation", "scale"]
    for saved in (motion, global_motion({})):
        sfm_io.save_global_motion(tmp_path / "gm.npz", saved)
        assert sorted(_npz_arrays(tmp_path / "gm.npz")) == sorted(names + ["objective"])
        loaded = sfm_io.load_global_motion(tmp_path / "gm.npz", 5)
        for name in names:
            a, b = getattr(saved, name), getattr(loaded, name)
            assert np.array_equal(a, b) and b.shape == a.shape and b.dtype == a.dtype, name
        assert loaded.objective == saved.objective and type(loaded.objective) is float
    # a pipeline artifact saves back to the same bytes
    out = small_run[0]
    artifact = out / "final_motion.npz"
    sfm_io.save_global_motion(tmp_path / "gm.npz",
                              sfm_io.load_global_motion(artifact, len(sfm_io.load_cameras(out / "matches.json"))))
    assert (tmp_path / "gm.npz").read_bytes() == artifact.read_bytes()

    points = [
        GlobalPoint(track_id=0, position=np.array([1.0, 2, 3]),
                    cameras=np.array([0, 1, 2]), xy=np.zeros((3, 2)), status="active"),
        GlobalPoint(track_id=1, position=None,
                    cameras=np.array([0, 1]), xy=np.zeros((2, 2)), status="too_few_views"),
    ]
    sfm_io.save_global_points(tmp_path / "pts.npz", points)
    loaded_pts = sfm_io.load_global_points(tmp_path / "pts.npz", 3)
    assert loaded_pts[0].active and not loaded_pts[1].active
    assert np.allclose(loaded_pts[0].position, [1, 2, 3])


def _points_of_every_status():
    return [
        GlobalPoint(track_id=0, position=np.array([1.0, 2, 3]),
                    cameras=np.array([0, 1, 2]), xy=np.arange(6.0).reshape(3, 2) / 3, status="active"),
        GlobalPoint(track_id=1, position=None,
                    cameras=np.array([0, 1]), xy=np.zeros((2, 2)), status="too_few_views"),
        GlobalPoint(track_id=7, position=None,
                    cameras=np.array([3, 4, 5, 6]), xy=np.full((4, 2), 0.1), status="cheirality"),
        GlobalPoint(track_id=9, position=None,
                    cameras=np.array([2]), xy=np.array([[1e-300, -2.5]]), status="reprojection"),
    ]


def test_global_points_roundtrip_exact(tmp_path):
    path = tmp_path / "pts.npz"
    for points in (_points_of_every_status(), []):
        sfm_io.save_global_points(path, points)
        loaded = sfm_io.load_global_points(path, 7)
        assert len(loaded) == len(points)
        for a, b in zip(points, loaded):
            assert (a.track_id, a.status) == (b.track_id, b.status) and type(b.track_id) is int
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
        ("edges", [[False, True] for _ in edges], "edges: true or false where integers are expected"),
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
    for value in (float("nan"), float("inf")):  # a pixel of the fourth edge
        xy = np.frombuffer(base64.b64decode(data["xy"]), "<f8").reshape(-1, 4).copy()
        xy[offsets[3] + 1, 2] = value
        path.write_text(json.dumps(dict(data, xy=base64.b64encode(xy.tobytes()).decode())))
        with pytest.raises(DataError, match=f"^{path}: edge \\({i3}, {j3}\\) has a pixel that is not finite$"):
            sfm_io.load_match_graph(path)
    nan, inf = float("nan"), float("inf")
    for key, camera, value, message in (
        ("intrinsics", 3, [nan, 640.0, 480.0], "focal, cx or cy is not finite"),
        ("intrinsics", 3, [inf, 640.0, 480.0], "focal, cx or cy is not finite"),
        ("intrinsics", 3, [800.0, -inf, 480.0], "focal, cx or cy is not finite"),
        ("intrinsics", 3, [800.0, 640.0, nan], "focal, cx or cy is not finite"),
        ("intrinsics", 3, [0.0, 640.0, 480.0], "focal must be positive"),
        ("intrinsics", 3, [800.0, 1280.0, 480.0], "principal point outside image"),
        ("intrinsics", 3, [800.0, 640.0, -1.0], "principal point outside image"),
        ("size", 2, [0, 960], "image must be at least 1 x 1 pixels"),
        ("size", 2, [1280, -960], "image must be at least 1 x 1 pixels"),
    ):
        broken = json.loads(good)
        broken[key][camera] = value
        path.write_text(json.dumps(broken))
        for load in (sfm_io.load_match_graph, sfm_io.load_cameras):
            with pytest.raises(DataError, match=f"^{path}: camera {camera}: {message}$"):
                load(path)
    path = tmp_path / "points.npz"
    sfm_io.save_global_points(path, _points_of_every_status())
    good = path.read_bytes()
    with np.load(path) as archive:
        data = dict(archive)
    for changes, message in ((dict(status=data["status"] + 1), "status code is not in 0..3"),
                             (dict(track=None), "track"),  # a missing key is named
                             (dict(cameras=data["cameras"].astype(object)), "Object arrays"),
                             (dict(status=data["status"] + 0.5), "Cannot cast"),
                             (dict(status=data["status"] > 0), "status: true or false where integers are expected"),
                             (dict(position=data["position"][:-1]), "malformed"),
                             (dict(offsets=data["offsets"][::-1]), "offsets do not rise"),
                             (dict(cameras=np.append(data["cameras"][:-1], 7)),  # point 9 sees camera 2
                              "track 9: camera 7 is not in the match graph's 0..6$"),
                             (dict(cameras=np.append(999, data["cameras"][1:])),
                              "track 0: cameras are not strictly ascending$"),
                             (dict(cameras=np.append(-1, data["cameras"][1:])),
                              "track 0: camera -1 is not in the match graph's 0..6$"),
                             (dict(cameras=np.append([1, 0], data["cameras"][2:])),  # the first two swapped
                              "track 0: cameras are not strictly ascending$"),
                             (dict(cameras=np.append([0, 0], data["cameras"][2:])),  # a repeated camera
                              "track 0: cameras are not strictly ascending$"),
                             (dict(track=np.array([-1, 1, 7, 9])), "point track -1 is negative$"),  # accepted
                             (dict(track=np.array([0, 7, 1, 9])), "point track 1 follows track 7: the ids must rise"),
                             (dict(track=np.array([0, 1, 1, 9])), "point track 1 follows track 1: the ids must rise")):
        _rewrite_npz(path, data, **changes)
        with pytest.raises(DataError, match=f"^{path}: .*{message}"):
            sfm_io.load_global_points(path, 7)
    _rewrite_npz(path, data)
    assert len(sfm_io.load_global_points(path, 7)) == 4
    with pytest.raises(DataError, match=f"^{path}: track 7: camera 6 is not in the match graph's 0..5$"):
        sfm_io.load_global_points(path, 6)
    with zipfile.ZipFile(path) as archive:
        member = archive.getinfo("position.npy")
    start = member.header_offset + 30  # past the fixed part of the member's local header
    start += int.from_bytes(good[start - 4:start - 2], "little") + int.from_bytes(good[start - 2:start], "little")
    flipped = bytearray(good)
    flipped[start + member.compress_size - 1] ^= 0xFF  # the last byte of the positions
    for damaged, message in ((good[: len(good) // 2], "BadZipFile"), (b"", "EOFError"),
                             (bytes(flipped), "Bad CRC-32")):
        path.write_bytes(damaged)
        with pytest.raises(DataError, match=f"^{path}: malformed artifact .*{message}"):
            sfm_io.load_global_points(path, 7)
    path = tmp_path / "clusters.json"
    sfm_io.save_cluster_set(path, cluster_cameras(geometric_graph(30, 0.3, 5), max_cluster_size=12,
                                                  completeness_ratio=0.4, seed=3))
    good = path.read_text()
    leaves = [leaf["cameras"] for leaf in tree_leaves(json.loads(good)["tree"])]
    c, last = leaves[0][0], len(leaves) - 1

    def share(d):  # camera c of leaf 0 joins leaf 1 too
        cameras = tree_leaves(d["tree"])[1]["cameras"]
        cameras[:] = sorted(cameras + [c])

    for change, message in (
        (lambda d: d["interdependent"][0].insert(0, d["interdependent"][0][0]),
         "interdependent cluster 0: cameras are not strictly ascending"),
        (lambda d: tree_leaves(d["tree"])[0]["cameras"].reverse(),
         "independent cluster 0: cameras are not strictly ascending"),
        (lambda d: tree_leaves(d["tree"])[1]["cameras"].append(tree_leaves(d["tree"])[1]["cameras"][-1]),
         "independent cluster 1: cameras are not strictly ascending"),
        (lambda d: tree_leaves(d["tree"])[1]["cameras"].append(True),
         "a cluster camera is not in the match graph's 0..29: independent cluster 1"),
        (share, f"independent clusters 0 and 1 share camera {c}"),
        (lambda d: d["interdependent"][1].remove(leaves[1][0]),
         "interdependent cluster 1 does not hold independent cluster 1"),
        (lambda d: d["interdependent"].pop(), f"interdependent cluster {last} does not hold independent cluster {last}"),
        (lambda d: d["interdependent"].append([0]),
         f"interdependent cluster {last + 1} does not hold independent cluster {last + 1}"),
    ):
        data = json.loads(good)
        change(data)
        path.write_text(json.dumps(data))
        with pytest.raises(DataError, match=f"^{path}: {message}$"):
            sfm_io.load_cluster_set(path, 30)
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
        bad = track_table([_FIRST_TRACK, (4, cameras, np.zeros(len(cameras)), np.zeros((len(cameras), 2)))])
        with pytest.raises(DataError, match=f"^track 4: {message}"):
            bad.check(6)
        sfm_io.save_tracks(path, bad)
        with pytest.raises(DataError, match=f"^{path}: track 4: {message}"):
            sfm_io.load_tracks(path, 6)
    for value in (float("nan"), float("-inf")):
        bad = track_table([_FIRST_TRACK, (4, [1, 3], [0, 0], [[0.0, 0.0], [2.0, value]])])
        with pytest.raises(DataError, match="^track 4: a pixel is not finite$"):
            bad.check(6)
        sfm_io.save_tracks(path, bad)
        with pytest.raises(DataError, match=f"^{path}: track 4: a pixel is not finite$"):
            sfm_io.load_tracks(path, 6)
    recs = _local_reconstructions()
    recs[0].inliers = dataclasses.replace(recs[0].inliers, cameras=np.array([0, 7, 0, 7, 4, 4, 7]))  # track 5 unsorted
    sfm_io.save_local_reconstructions(path, recs)
    with pytest.raises(DataError, match=f"^{path}: track 5: cameras are not strictly ascending"):
        sfm_io.load_local_reconstructions(path)
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
            ("features", data["features"][:-12], "malformed"),  # one row short
        ):
            broken = {k: v for k, v in dict(data, **{key: change}).items() if v is not None}
            path.write_text(json.dumps(broken))
            with pytest.raises(DataError, match=f"^{path}: .*{message}"):
                load(path)
    data["clusters"][0]["points"] += 1  # the clusters claim one point more than the arrays hold
    path.write_text(json.dumps(data))
    with pytest.raises(DataError, match=f"^{path}: offsets do not rise from 0 to 3"):
        sfm_io.load_local_reconstructions(path)
    sfm_io.save_local_reconstructions(path, _local_reconstructions())
    good = path.read_text()
    for change, message in (  # a JSON true was taken for the id or count 1
        (lambda d: d["clusters"][0]["registered"].__setitem__(1, True), "cluster entry 0: registered holds true"),
        (lambda d: d["clusters"][2].update(registered=[True, True]), "cluster entry 2: registered holds true"),
        (lambda d: d["clusters"][1].update(clusterId=True), "cluster entry 1: clusterId holds true"),
        (lambda d: d["clusters"][0]["seedPair"].__setitem__(0, False), "cluster entry 0: seedPair holds false"),
        (lambda d: d["clusters"][2].update(points=False), "cluster entry 2: points holds false"),
        (lambda d: d["clusters"][0].update(points=3.0), "cluster entry 0: points holds 3.0"),
    ):
        data = json.loads(good)
        change(data)
        path.write_text(json.dumps(data))
        with pytest.raises(DataError, match=f"^{path}: {message}, not an integer$"):
            sfm_io.load_local_reconstructions(path)
    for clusterId, message in ((4, "cluster entry 1 has the clusterId 4, not its index 1"),
                               (-1, "cluster entry 1 has the clusterId -1, not its index 1")):  # -1 was accepted
        data = json.loads(good)
        data["clusters"][1]["clusterId"] = clusterId
        path.write_text(json.dumps(data))
        with pytest.raises(DataError, match=f"^{path}: {message}$"):
            sfm_io.load_local_reconstructions(path)
    path = tmp_path / "poses.npz"
    sfm_io.save_ground_truth(path, scene.rotation, scene.center)
    good = _npz_arrays(path)
    rotation, center = good["rotation"], good["center"]
    flipped = np.diag([1.0, 1.0, -1.0])

    def at(a, k, value):  # a copy of a with row k replaced
        a = a.copy()
        a[k] = value
        return a

    for changes, message in (
        (dict(rotation=rotation[:-1], center=center[:-1]), "the ground truth holds 5 cameras, not the match graph's 6"),
        (dict(rotation=np.concatenate([rotation, rotation[:1]]), center=np.concatenate([center, center[:1]])),
         "the ground truth holds 7 cameras, not the match graph's 6"),
        (dict(rotation=at(rotation, 2, nan)), "ground-truth camera 2: R or c is not finite"),
        (dict(center=at(center, 4, [0.0, nan, 0.0])), "ground-truth camera 4: R or c is not finite"),
        (dict(center=at(center, 1, [inf, 0.0, 0.0])), "ground-truth camera 1: R or c is not finite"),
        (dict(rotation=at(rotation, 3, rotation[3] + np.diag([1.0, 0, 0]))),
         r"ground-truth camera 3: R is not a rotation \(\|R\^T R - I\| = "),
        (dict(rotation=at(rotation, 3, flipped)), r"ground-truth camera 3: R is not a rotation .*det -1\)"),
        (dict(rotation=rotation.reshape(-1)[:-1]), "malformed"),
        (dict(center=center[:-1]), "malformed"),
        (dict(center=None), "malformed .*center"),  # a missing key is named
    ):
        _rewrite_npz(path, good, **changes)
        with pytest.raises(DataError, match=f"^{path}: {message}"):
            sfm_io.load_ground_truth(path, 6)
    motion = global_motion({0: np.eye(3), 5: np.eye(3)}, {0: np.zeros(3), 5: np.ones(3)}, {0: 1.0, 2: 0.5},
                           residual_norms=np.zeros(1))
    sfm_io.save_global_motion(path, motion)
    assert sfm_io.load_global_motion(path, 6).cameras.tolist() == [0, 5]
    good = _npz_arrays(path)
    for camera in (999, -1, 6):  # -1 would take the last camera's intrinsics
        _rewrite_npz(path, good, cameras=np.array([0, camera]))
        with pytest.raises(DataError, match=f"^{path}: motion camera {camera} is not in the match graph's 0..5$"):
            sfm_io.load_global_motion(path, 6)
    rotation, center = good["rotation"], good["center"]
    for changes, message in (
        (dict(cameras=np.array([0, 0])), "motion camera 0 follows camera 0: the ids must rise strictly"),
        (dict(cameras=np.array([5, 0])), "motion camera 0 follows camera 5: the ids must rise strictly"),
        (dict(rotation=at(rotation, 1, nan)), "motion camera 5: R or c is not finite"),
        (dict(center=at(center, 0, [0.0, inf, 0.0])), "motion camera 0: R or c is not finite"),
        (dict(rotation=-rotation), r"motion camera 0: R is not a rotation .*det -1\)"),  # accepted
        (dict(rotation=at(rotation, 1, np.eye(3)[::-1])), r"motion camera 5: R is not a rotation .*det -1\)"),
        (dict(rotation=at(rotation, 1, 2 * np.eye(3))), r"motion camera 5: R is not a rotation \(\|R\^T R - I\| = "),
        (dict(clusters=np.array([0, 0])), "the scales repeat cluster 0"),
        (dict(clusters=np.array([0.0, 2.5])), "malformed .*Cannot cast"),  # no float to int
        (dict(cameras=np.array([False, True])), "malformed .*cameras: true or false where integers are expected"),
        (dict(scale=np.array([nan, 0.5])), "cluster 0: the scale nan is not a finite value above 1e-12$"),  # accepted
        (dict(scale=np.array([1.0, inf])), "cluster 2: the scale inf is not a finite value above 1e-12$"),
        (dict(scale=np.array([1.0, 1e-12])), "cluster 2: the scale 1e-12 is not a finite value above 1e-12$"),
        (dict(scale=np.array([-1.0, 0.5])), "cluster 0: the scale -1.0 is not a finite value above 1e-12$"),
        (dict(clusters=np.array([2, 0])), None),  # the scales come back by ascending cluster
        (dict(rotation=rotation.reshape(-1)[:-1]), "malformed"),
        (dict(objective=None), "malformed .*objective"),
    ):
        _rewrite_npz(path, good, **changes)
        if message is None:
            loaded = sfm_io.load_global_motion(path, 6)
            assert loaded.clusters.tolist() == [0, 2] and loaded.scale.tolist() == [0.5, 1.0]
            continue
        with pytest.raises(DataError, match=f"^{path}: {message}"):
            sfm_io.load_global_motion(path, 6)
    path = tmp_path / "recs.json"
    sfm_io.save_local_reconstructions(path, _local_reconstructions())
    good = json.loads(path.read_text())
    for registered in ([0, 0, 7], [4, 0, 7]):  # a repeated camera, cameras out of order
        data = json.loads(json.dumps(good))
        data["clusters"][0]["registered"] = registered
        path.write_text(json.dumps(data))
        with pytest.raises(DataError, match=f"^{path}: cluster 0: the registered cameras do not rise strictly$"):
            sfm_io.load_local_reconstructions(path)
    path = tmp_path / "motions.npz"
    sfm_io.save_relative_motions(path, _motions())
    good = _npz_arrays(path)
    pairs, rotation = good["pairs"], good["rotation"]
    for changes, message in (
        (dict(pairs=at(pairs, 1, [1, 1])), "motion 1 \\(1, 1\\) in cluster 2: the pair is not 0 <= i < j"),  # self
        (dict(pairs=at(pairs, 1, [5, 4])), "motion 1 \\(5, 4\\) in cluster 2: the pair is not 0 <= i < j"),  # reversed
        (dict(pairs=at(pairs, 0, [-1, 1])), "motion 0 \\(-1, 1\\) in cluster 2: the pair is not 0 <= i < j"),
        (dict(support=np.array([17, 0, -3])), "motion 2 \\(0, 1\\) in cluster 0: the support is negative"),
        (dict(pairs=pairs + 0.5), "malformed .*Cannot cast"),  # no float to int
        (dict(cluster=np.array([2.0, 2.0, 0.5])), "malformed .*Cannot cast"),
        (dict(pairs=pairs > 0), "malformed .*pairs: true or false where integers are expected"),
        (dict(support=np.array([True, False, True])), "malformed .*support: true or false where integers are expected"),
        (dict(rotation=at(rotation, 2, nan)), "motion 2 \\(0, 1\\) in cluster 0: R or t is not finite"),
        (dict(translation=at(good["translation"], 1, [0.0, inf, 0.0])),
         "motion 1 \\(1, 4\\) in cluster 2: R or t is not finite"),
        (dict(rotation=-rotation), r"motion 0 \(0, 1\) in cluster 2: R is not a rotation .*det -1\)"),  # accepted
        (dict(rotation=at(rotation, 1, 2 * rotation[1])), r"motion 1 \(1, 4\) in cluster 2: R is not a rotation"),
        (dict(cluster=np.array([2, 2, 2])), "motion 2 \\(0, 1\\) in cluster 2: its cluster measures this pair twice"),
        (dict(pairs=at(pairs, 1, [1, 5])),  # the first past the last camera
         "motion 1 \\(1, 5\\) in cluster 2: a camera is not in the match graph's 0..4"),
        (dict(pairs=at(pairs, 0, [0, 999])),
         "motion 0 \\(0, 999\\) in cluster 2: a camera is not in the match graph's 0..4"),
        (dict(rotation=rotation[:, :2]), "malformed"),
        (dict(cluster=good["cluster"][:-1]), "malformed"),
        (dict(support=None), "malformed .*support"),  # a missing key is named
    ):
        _rewrite_npz(path, good, **changes)
        with pytest.raises(DataError, match=f"^{path}: {message}"):
            sfm_io.load_relative_motions(path, 5)
