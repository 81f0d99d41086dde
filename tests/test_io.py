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
from conftest import geometric_graph


def test_match_graph_roundtrip(tmp_path):
    scene, matches = generate_synthetic_scene("orbit", 6, 80, pixel_sigma=0.3, seed=1)
    path = tmp_path / "matches.json"
    sfm_io.save_match_graph(path, scene.cameras, matches)
    cameras, loaded, n = sfm_io.load_match_graph(path)
    assert n == 6 and len(loaded) == len(matches)
    for a, b in zip(matches, loaded):
        assert (a.i, a.j) == (b.i, b.j)
        assert np.array_equal(a.feat_i, b.feat_i)
        assert np.array_equal(a.xy_j, b.xy_j)
    # graph built from the roundtrip matches is identical
    g1 = build_camera_graph(matches, 6)
    g2 = build_camera_graph(loaded, 6)
    assert sorted(g1.edges) == sorted(g2.edges)
    assert [e.weight for e in g1.edges.values()] == [e.weight for e in g2.edges.values()]


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
    loaded = sfm_io.load_cluster_set(path)
    assert [c.cameras for c in loaded.independent] == [c.cameras for c in cs.independent]
    assert [c.cameras for c in loaded.interdependent] == [c.cameras for c in cs.interdependent]
    assert loaded.discarded_edges == [tuple(e) for e in cs.discarded_edges]
    assert [l.cameras for l in loaded.tree.leaves()] == [l.cameras for l in cs.tree.leaves()]


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


def test_local_reconstructions_roundtrip(tmp_path):
    rec = LocalReconstruction(cluster_id=3)
    rec.rotations = {0: np.eye(3)}
    rec.centers = {0: np.array([1.0, 2.0, 3.0])}
    rec.points = {5: np.array([0.0, 0.0, 1.0])}
    rec.observations = {5: [(0, 10.0, 20.0)]}
    rec.seed_pair = (0, 1)
    path = tmp_path / "recs.json"
    sfm_io.save_local_reconstructions(path, [rec])
    loaded = sfm_io.load_local_reconstructions(path)[0]
    assert loaded.cluster_id == 3 and loaded.seed_pair == (0, 1)
    assert np.allclose(loaded.points[5], [0, 0, 1])
    assert loaded.observations[5] == [(0, 10.0, 20.0)]


def test_global_motion_and_points_roundtrip(tmp_path):
    motion = GlobalMotion(
        rotations={0: np.eye(3), 1: np.eye(3)},
        centers={0: np.zeros(3), 1: np.array([1.0, 0, 0])},
        scales={0: 1.0, 1: 2.5},
        residual_norms=np.array([0.1, 0.2]),
        objective=0.3,
    )
    sfm_io.save_global_motion(tmp_path / "gm.json", motion)
    loaded = sfm_io.load_global_motion(tmp_path / "gm.json")
    assert loaded.scales == {0: 1.0, 1: 2.5}
    assert np.allclose(loaded.centers[1], [1, 0, 0])

    points = [
        GlobalPoint(track_id=0, position=np.array([1.0, 2, 3]), cluster_id=0,
                    cameras=np.array([0, 1, 2]), xy=np.zeros((3, 2)), status="active"),
        GlobalPoint(track_id=1, position=None, cluster_id=1,
                    cameras=np.array([0, 1]), xy=np.zeros((2, 2)), status="too_few_views"),
    ]
    sfm_io.save_global_points(tmp_path / "pts.json", points)
    loaded_pts = sfm_io.load_global_points(tmp_path / "pts.json")
    assert loaded_pts[0].active and not loaded_pts[1].active
    assert np.allclose(loaded_pts[0].position, [1, 2, 3])


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


def test_malformed_artifacts_raise_data_error(tmp_path):
    scene, matches = generate_synthetic_scene("orbit", 6, 80, pixel_sigma=0.3, seed=1)
    path = tmp_path / "matches.json"
    sfm_io.save_match_graph(path, scene.cameras, matches)
    assert not list(tmp_path.glob("*.tmp"))  # the temp file was renamed into place
    data = json.loads(path.read_text())
    for key, value in (("intrinsics", None), ("edges", [{"i": 0}]), ("numCameras", "six"),
                       ("intrinsics", data["intrinsics"][:-1])):  # one camera without intrinsics
        broken = dict(data, **{key: value})
        path.write_text(json.dumps(broken))
        with pytest.raises(DataError, match="matches.json"):
            sfm_io.load_match_graph(path)
    path.write_text(json.dumps([1, 2]))
    with pytest.raises(DataError):
        sfm_io.load_tracks(path)
    with pytest.raises(DataError, match="cannot read"):
        sfm_io.load_tracks(tmp_path)  # a directory
    for elements in ([[3, 1, 0.0, 0.0], [1, 2, 0.0, 0.0]],  # unsorted cameras
                     [[1, 1, 0.0, 0.0], [3, 2, 0.0, 0.0], [3, 5, 0.0, 0.0]]):  # a repeated camera
        path.write_text(json.dumps([{"id": 0, "elements": [[0, 0, 0.0, 0.0], [1, 0, 0.0, 0.0]]},
                                    {"id": 4, "elements": elements}]))
        with pytest.raises(DataError, match="track 4: cameras are not strictly ascending"):
            sfm_io.load_tracks(path)
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
