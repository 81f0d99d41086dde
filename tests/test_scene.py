import numpy as np
import pytest

from clustersfm import io as sfm_io
from clustersfm.errors import DataError, DuplicateEdgeError
from clustersfm.scene import build_camera_graph
from conftest import BehindCameraError, camera_table, match_table, project_point, random_rotation, weighted_edge


def test_project_identity_case():
    assert np.allclose(project_point(np.eye(3), np.zeros(3), (1.0, 0.0, 0.0), [0, 0, 1]), [0, 0])


def test_project_hand_evaluated():
    # x = 2*1/2 + 100 = 101
    assert np.allclose(project_point(np.eye(3), np.zeros(3), (2.0, 100.0, 100.0), [1, 1, 2]), [101, 101])


def test_project_behind_camera():
    with pytest.raises(BehindCameraError):
        project_point(np.eye(3), np.array([0.0, 0.0, 5.0]), (1.0, 0.0, 0.0), [0, 0, 1])


def test_projection_rigid_invariance():
    # applying one rigid transform to both pose and point leaves pixels fixed
    rng = np.random.default_rng(1)
    intrinsics = (500.0, 320.0, 240.0)
    for _ in range(20):
        R = random_rotation(rng)
        c = rng.normal(size=3)
        X = c + rng.normal(size=3) + np.array([0, 0, 5.0]) @ R  # keep in front
        try:
            base = project_point(R, c, intrinsics, X)
        except BehindCameraError:
            continue
        Q = random_rotation(rng)
        d = rng.normal(size=3)
        moved = project_point(R @ Q.T, Q @ c + d, intrinsics, Q @ X + d)
        assert np.allclose(base, moved, atol=1e-8)


def test_pose_validation(tmp_path):
    path = tmp_path / "ground_truth.npz"
    rotation, center = np.array([np.eye(3)] * 3), np.zeros((3, 3))
    sfm_io.save_ground_truth(path, rotation, center)
    assert all(np.array_equal(a, b) for a, b in zip(sfm_io.load_ground_truth(path, 3), (rotation, center)))
    bad = np.eye(3)
    bad[0, 0] = -1.0  # det -1
    for R, message in ((np.eye(3) * 1.001, r"\|R\^T R - I\| = 2.00e-03"), (bad, r"det -1\)$")):
        sfm_io.save_ground_truth(path, np.array([np.eye(3), R, np.eye(3)]), center)
        with pytest.raises(DataError, match=f"^{path}: ground-truth camera 1: R is not a rotation .*{message}"):
            sfm_io.load_ground_truth(path, 3)


def test_camera_table_K_stacks_the_calibrations():
    cameras = camera_table(3)
    cameras.intrinsics[1] = [500.0, 320.0, 240.0]
    assert len(cameras) == 3
    K = cameras.K(np.array([1, 0]))
    assert K.shape == (2, 3, 3) and K.dtype == np.float64
    assert np.array_equal(K[0], [[500.0, 0.0, 320.0], [0.0, 500.0, 240.0], [0.0, 0.0, 1.0]])
    assert np.array_equal(K[1], [[800.0, 0.0, 640.0], [0.0, 800.0, 480.0], [0.0, 0.0, 1.0]])
    assert np.array_equal(cameras.K(), cameras.K([0, 1, 2])) and cameras.K([]).shape == (0, 3, 3)


def test_camera_table_check_names_the_first_faulty_camera():
    camera_table(4).check()
    camera_table(0).check()
    nan, inf = float("nan"), float("inf")
    for column, value, message in (
        (0, 0.0, "focal must be positive"),
        (0, -800.0, "focal must be positive"),
        (0, nan, "focal, cx or cy is not finite"),
        (0, inf, "focal, cx or cy is not finite"),
        (1, nan, "focal, cx or cy is not finite"),
        (2, -inf, "focal, cx or cy is not finite"),
        (1, 1280.0, "principal point outside image"),  # cx must be below the width
        (2, -0.5, "principal point outside image"),
    ):
        cameras = camera_table(4)
        cameras.intrinsics[2, column] = value
        cameras.intrinsics[3, 0] = -1.0  # a later faulty camera is not named
        with pytest.raises(DataError, match=f"^camera 2: {message}$"):
            cameras.check()
    for size in ((0, 960), (1280, 0), (-5, 960)):
        cameras = camera_table(4, cx=0.0, cy=0.0)
        cameras.size[1] = size
        with pytest.raises(DataError, match="^camera 1: image must be at least 1 x 1 pixels$"):
            cameras.check()
    with pytest.raises(DataError, match="^camera 0: principal point outside image$"):
        camera_table(2, cx=2.0, width=2).check()


def test_build_camera_graph_direct_definition():
    g = build_camera_graph(match_table([weighted_edge(0, 1, 50), weighted_edge(1, 2, 20)]), 3)
    assert g.pairs.tolist() == [[0, 1], [1, 2]]
    assert g.weights.tolist() == [50, 20]
    assert g.num_cameras == 3


def test_match_table_check_rejects_unknown_camera():
    table = match_table([weighted_edge(0, 1, 5), weighted_edge(1, 3, 5)])
    table.check(4)
    with pytest.raises(DataError, match=r"^edge \(1, 3\): an edge camera is not in 0..2$"):
        table.check(3)
    with pytest.raises(DataError, match=r"^edge \(-1, 1\): an edge camera is not in 0..2$"):
        match_table([weighted_edge(-1, 1, 5)]).check(3)


def test_build_camera_graph_empty_matches():
    g = build_camera_graph(match_table([]), 2)
    assert g.num_cameras == 2 and g.pairs.shape == (0, 2) and len(g.weights) == 0


def test_build_camera_graph_cycle_weight_total():
    edges = [weighted_edge(i, (i + 1) % 4, 10) if i < 3 else weighted_edge(0, 3, 10) for i in range(4)]
    g = build_camera_graph(match_table(edges), 4)
    assert g.pairs.tolist() == [[0, 1], [0, 3], [1, 2], [2, 3]]  # ascending by (i, j)
    assert g.weights.tolist() == [10, 10, 10, 10]
    assert g.weights.sum() == 40


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdgeError, match=r"^duplicate match edge \(0, 1\)$"):
        match_table([weighted_edge(0, 1, 5), weighted_edge(1, 2, 3), weighted_edge(0, 1, 7)]).check(3)


def test_edge_validation():
    with pytest.raises(DataError, match="^self match edge on camera 2$"):
        match_table([weighted_edge(2, 2, 3)]).check(3)
    with pytest.raises(DataError, match=r"^match edge \(2, 1\) must have i < j$"):
        match_table([weighted_edge(2, 1, 3)]).check(3)
    with pytest.raises(DataError, match=r"^edge \(0, 1\) has no correspondences$"):
        match_table([weighted_edge(0, 1, 0)]).check(3)
    for feat in ([[0, 0], [0, 1]], [[0, 1], [1, 1]]):  # a feature of i, then of j, twice
        with pytest.raises(DataError, match=r"^edge \(0, 1\) repeats a feature index$"):
            match_table([(0, 1, feat, np.zeros((2, 4)))]).check(3)


def test_match_table_check_names_the_first_faulty_edge():
    edges = [
        (0, 1, [[4, 7], [2, 9]], np.zeros((2, 4))),
        (1, 3, [[0, 1], [5, 2], [8, 2]], np.zeros((3, 4))),  # feature 2 of camera 3 twice
        (2, 1, [[0, 0]], np.zeros((1, 4))),
        (0, 1, [[1, 1]], np.zeros((1, 4))),
    ]
    match_table(edges[:1]).check(4)
    # of several faulty edges the first is named, whatever its fault
    with pytest.raises(DataError, match=r"^edge \(1, 3\) repeats a feature index$"):
        match_table(edges).check(4)
    with pytest.raises(DataError, match=r"^match edge \(2, 1\) must have i < j$"):
        match_table(edges[:1] + edges[2:]).check(4)
    # of several faults of one edge the range comes first
    with pytest.raises(DataError, match=r"^edge \(1, 3\): an edge camera is not in 0..2$"):
        match_table(edges).check(3)


def test_match_table_take_selects_edges_in_the_order_given():
    table = match_table([
        (0, 1, [[4, 7], [2, 9]], np.arange(8.0).reshape(2, 4)),
        (1, 3, [[0, 1], [5, 2], [8, 3]], np.arange(8.0, 20.0).reshape(3, 4)),
        (2, 3, [[6, 6]], np.arange(20.0, 24.0).reshape(1, 4)),
    ])
    picked = table.take([2, 0])
    assert picked.edges.tolist() == [[2, 3], [0, 1]]
    assert picked.offsets.tolist() == [0, 1, 3]
    assert picked.feat.tolist() == [[6, 6], [4, 7], [2, 9]]
    assert np.array_equal(picked.xy, np.concatenate([table.xy[5:], table.xy[:2]]))
    masked = table.take(np.array([False, True, True]))
    assert masked.edges.tolist() == [[1, 3], [2, 3]] and masked.offsets.tolist() == [0, 3, 4]
    assert np.array_equal(masked.xy, table.xy[2:]) and masked.feat.dtype == np.int64
    empty = table.take(np.zeros(3, dtype=bool))
    assert empty.edges.shape == (0, 2) and empty.offsets.tolist() == [0] and empty.xy.shape == (0, 4)
    assert table.row_cameras().tolist() == [[0, 1], [0, 1], [1, 3], [1, 3], [1, 3], [2, 3]]


def test_isolated_cameras_kept_as_nodes():
    g = build_camera_graph(match_table([weighted_edge(0, 1, 5)]), 4)
    assert g.num_cameras == 4
    assert g.adjacency().shape == (4, 4)
