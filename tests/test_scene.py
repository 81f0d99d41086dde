import numpy as np
import pytest

from clustersfm.errors import BehindCameraError, DataError, DuplicateEdgeError
from clustersfm.geometry import random_rotation, so3_exp
from clustersfm.scene import Camera, Pose, build_camera_graph, project_point
from conftest import weighted_edge


def test_project_identity_case():
    cam = Camera(id=0, focal=1.0, cx=0.0, cy=0.0, width=2, height=2)
    pose = Pose(R=np.eye(3), c=np.zeros(3))
    assert np.allclose(project_point(pose, cam, [0, 0, 1]), [0, 0])


def test_project_hand_evaluated():
    cam = Camera(id=0, focal=2.0, cx=100.0, cy=100.0, width=200, height=200)
    pose = Pose(R=np.eye(3), c=np.zeros(3))
    # x = 2*1/2 + 100 = 101
    assert np.allclose(project_point(pose, cam, [1, 1, 2]), [101, 101])


def test_project_behind_camera():
    cam = Camera(id=0, focal=1.0, cx=0.0, cy=0.0, width=2, height=2)
    pose = Pose(R=np.eye(3), c=np.array([0.0, 0.0, 5.0]))
    with pytest.raises(BehindCameraError):
        project_point(pose, cam, [0, 0, 1])


def test_projection_rigid_invariance():
    # applying one rigid transform to both pose and point leaves pixels fixed
    rng = np.random.default_rng(1)
    cam = Camera(id=0, focal=500.0, cx=320.0, cy=240.0, width=640, height=480)
    for _ in range(20):
        R = random_rotation(rng)
        c = rng.normal(size=3)
        X = c + rng.normal(size=3) + np.array([0, 0, 5.0]) @ R  # keep in front
        pose = Pose(R=R, c=c)
        try:
            base = project_point(pose, cam, X)
        except BehindCameraError:
            continue
        Q = random_rotation(rng)
        d = rng.normal(size=3)
        pose2 = Pose(R=R @ Q.T, c=Q @ c + d)
        moved = project_point(pose2, cam, Q @ X + d)
        assert np.allclose(base, moved, atol=1e-8)


def test_pose_validation():
    with pytest.raises(DataError):
        Pose(R=np.eye(3) * 1.001, c=np.zeros(3))
    bad = np.eye(3)
    bad[0, 0] = -1.0  # det -1
    with pytest.raises(DataError):
        Pose(R=bad, c=np.zeros(3))


def test_build_camera_graph_direct_definition():
    g = build_camera_graph([weighted_edge(0, 1, 50), weighted_edge(1, 2, 20)], 3)
    assert g.weight(0, 1) == 50
    assert g.weight(1, 2) == 20
    assert g.num_cameras == 3


def test_build_camera_graph_rejects_unknown_camera():
    with pytest.raises(DataError, match=r"edge \(1, 3\) references an unknown camera"):
        build_camera_graph([weighted_edge(0, 1, 5), weighted_edge(1, 3, 5)], 3)


def test_build_camera_graph_empty_matches():
    g = build_camera_graph([], 2)
    assert g.num_cameras == 2 and len(g.edges) == 0


def test_build_camera_graph_cycle_weight_total():
    edges = [weighted_edge(i, (i + 1) % 4, 10) if i < 3 else weighted_edge(0, 3, 10) for i in range(4)]
    g = build_camera_graph(edges, 4)
    assert len(g.edges) == 4
    assert all(e.weight == 10 for e in g.edges.values())
    assert g.total_weight == 40


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdgeError):
        build_camera_graph([weighted_edge(0, 1, 5), weighted_edge(0, 1, 7)], 2)


def test_edge_validation():
    with pytest.raises(DataError):
        weighted_edge(2, 2, 3)
    with pytest.raises(DataError):
        weighted_edge(3, 1, 3)  # i > j
    f = np.array([0, 0])
    xy = np.zeros((2, 2))
    from clustersfm.scene import MatchEdge

    with pytest.raises(DataError):
        MatchEdge(i=0, j=1, feat_i=f, xy_i=xy, feat_j=np.array([0, 1]), xy_j=xy)


def test_match_table_builds_checked_edges_and_never_returns_a_flagged_one(monkeypatch):
    from clustersfm.scene import MatchEdge

    edges = np.array([[0, 1], [1, 3]])
    offsets = np.array([0, 2, 5])
    feat = np.array([[4, 7], [2, 9], [0, 1], [5, 2], [8, 3]])
    xy = np.arange(20.0).reshape(5, 4)
    built = MatchEdge.from_table(edges, offsets, feat, xy)
    for edge, (i, j), a, b in zip(built, edges.tolist(), offsets[:-1], offsets[1:]):
        ref = MatchEdge(i=i, j=j, feat_i=feat[a:b, 0], xy_i=xy[a:b, :2], feat_j=feat[a:b, 1], xy_j=xy[a:b, 2:])
        assert (edge.i, edge.j) == (ref.i, ref.j)
        for name in ("feat_i", "xy_i", "feat_j", "xy_j"):
            assert np.array_equal(getattr(edge, name), getattr(ref, name))
            assert getattr(edge, name).dtype == getattr(ref, name).dtype
    repeated = feat.copy()
    repeated[4, 1] = 2  # feature 2 of camera 3 twice in edge (1, 3)
    with pytest.raises(DataError, match=r"edge \(1, 3\) repeats a feature index"):
        MatchEdge.from_table(edges, offsets, repeated, xy)
    # were the per-edge checks ever to accept what the table check flags,
    # the table is still refused
    monkeypatch.setattr(MatchEdge, "__post_init__", lambda self: None)
    with pytest.raises(DataError, match=r"edge \(1, 3\) fails the match-table checks"):
        MatchEdge.from_table(edges, offsets, repeated, xy)


def test_isolated_cameras_kept_as_nodes():
    g = build_camera_graph([weighted_edge(0, 1, 5)], 4)
    assert g.num_cameras == 4
    assert g.adjacency().shape == (4, 4)
