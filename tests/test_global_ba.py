import numpy as np
import pytest

from clustersfm import global_ba
from clustersfm.clustering import cluster_cameras
from clustersfm.global_ba import (
    ROUND_RELATIVE_TOL,
    build_partitions,
    distributed_bundle_adjust,
    triangulate_global,
)
from clustersfm.scene import build_camera_graph
from clustersfm.synthetic import generate_synthetic_scene
from clustersfm.errors import DataError, NumericalError
from clustersfm.geometry import so3_exp
from clustersfm.io import load_global_points, save_global_points
from conftest import camera_table, global_motion, joint_bundle_adjust, project_point, track_rows, track_table


def gt_motion(scene, unposed=()):
    """The ground-truth poses of the scene's cameras but those in unposed."""
    cams = [c for c in range(scene.num_cameras) if c not in unposed]
    return global_motion({c: scene.rotation[c] for c in cams}, {c: scene.center[c] for c in cams}, {0: 1.0})


def tracks_from_scene(scene, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    tracks = []
    for pid, vis in enumerate(scene.visibility):
        cams = np.array(sorted(int(c) for c in vis))
        xy = []
        for c in cams:
            f = int(np.flatnonzero(scene.feature_points[c] == pid)[0])
            xy.append(scene.feature_xy[c][f])
        xy = np.array(xy)
        if noise:
            xy = xy + rng.normal(0, noise, xy.shape)
        tracks.append((pid, cams, np.arange(len(cams)), xy))
    return track_table(tracks)


@pytest.fixture(scope="module")
def loop24():
    scene, matches = generate_synthetic_scene("loop", 24, 400, pixel_sigma=0.0, seed=5)
    graph = build_camera_graph(matches, 24)
    cs = cluster_cameras(graph, max_cluster_size=9, completeness_ratio=0.0, seed=1)
    return scene, matches, graph, cs


def test_triangulate_global_noise_free(loop24):
    scene, matches, graph, cs = loop24
    points = triangulate_global(tracks_from_scene(scene), gt_motion(scene), scene.cameras)
    active = [p for p in points if p.active]
    # noise-free: every track with >= 3 views triangulates exactly
    expected = sum(1 for v in scene.visibility if len(v) >= 3)
    assert len(active) == expected
    for p in active:
        assert np.abs(p.position - scene.points[p.track_id]).max() < 1e-9


def test_triangulate_global_too_few_views(loop24):
    scene, matches, graph, cs = loop24
    t = track_table([(0, [0, 1], [0, 1], np.zeros((2, 2)))])
    points = triangulate_global(t, gt_motion(scene), scene.cameras)
    assert points[0].status == "too_few_views"
    assert not points[0].active


def test_triangulate_global_keeps_each_tracks_posed_views(loop24, tmp_path):
    scene = loop24[0]
    motion = gt_motion(scene, unposed=(3, 10))
    made = {
        900: [4, 6, 10, 11],  # three posed views
        901: [20, 21, 22],
        902: [3, 10],  # no posed view
        903: [1, 3, 7],  # two posed views
        904: [8, 9, 12, 13],
    }
    tracks = track_table(track_rows(tracks_from_scene(scene))
                         + [(t, cams, np.arange(len(cams)), np.ones((len(cams), 2))) for t, cams in made.items()])
    points = triangulate_global(tracks, motion, scene.cameras)
    assert len(points) == len(tracks)
    for (t, cams, _, xy), p in zip(track_rows(tracks), points):
        keep = [k for k, c in enumerate(cams.tolist()) if c in motion.cameras]
        assert (p.track_id, p.cameras.tolist(), p.xy.tolist()) == (t, cams[keep].tolist(), xy[keep].tolist())
        assert p.cameras.dtype == np.int64 and p.xy.shape == (len(keep), 2)
        if len(keep) < 3:
            assert p.status == "too_few_views" and p.position is None
        elif t < 900:  # a noise-free scene track
            assert p.active and np.abs(p.position - scene.points[t]).max() < 1e-9
    # a point without posed views keeps int64 cameras, so the ba stage can load it
    save_global_points(tmp_path / "points.npz", points)
    assert load_global_points(tmp_path / "points.npz", scene.num_cameras)[-3].cameras.tolist() == []


def test_triangulate_global_noisy_rms():
    scene, matches = generate_synthetic_scene("orbit", 10, 250, pixel_sigma=0.0, seed=6)
    graph = build_camera_graph(matches, 10)
    cs = cluster_cameras(graph, max_cluster_size=5, completeness_ratio=0.0, seed=1)
    tracks = track_table([t for t in track_rows(tracks_from_scene(scene, noise=0.5, seed=3)) if len(t[1]) >= 6])
    assert len(tracks)
    points = triangulate_global(tracks, gt_motion(scene), scene.cameras)
    sq = []
    for p in points:
        if not p.active:
            continue
        for c, xy in zip(p.cameras, p.xy):
            proj = project_point(scene.rotation[c], scene.center[c], scene.cameras.intrinsics[c], p.position)
            sq.append(((proj - xy) ** 2).sum())
    assert sq
    assert np.sqrt(np.mean(sq)) <= 1.5


def test_partition_structure(loop24):
    scene, matches, graph, cs = loop24
    points = triangulate_global(tracks_from_scene(scene), gt_motion(scene), scene.cameras)
    partitions = build_partitions(points, cs, gt_motion(scene))
    seen = set()
    for part in partitions:
        assert not seen.intersection(part.cameras)
        seen.update(part.cameras)
    # an active point is interior to partition k exactly when all its cameras are among k's
    active = [p for p in points if p.active]
    for part in partitions:
        inside = [pi for pi, p in enumerate(active) if set(p.cameras.tolist()) <= set(part.cameras)]
        assert part.interior_points == inside
    assert any(part.interior_points for part in partitions)
    # every observation appears in exactly one sub-problem
    total_obs = sum(np.isin(p.cameras, part.cameras).sum() for part in partitions for p in points if p.active)
    assert total_obs == sum(len(p.cameras) for p in points if p.active)


def test_point_camera_the_motion_does_not_pose_is_a_data_error(loop24):
    scene, matches, graph, cs = loop24
    points = triangulate_global(tracks_from_scene(scene), gt_motion(scene), scene.cameras)
    motion = gt_motion(scene, unposed=(3,))  # posed when the points were triangulated, not now
    partitions = build_partitions(points, cs, motion)
    with pytest.raises(DataError, match="^point camera 3 is not posed by the global motion$"):
        distributed_bundle_adjust(partitions, motion, points, scene.cameras)


def test_ground_truth_noise_free_terminates_immediately(loop24):
    scene, matches, graph, cs = loop24
    points = triangulate_global(tracks_from_scene(scene), gt_motion(scene), scene.cameras)
    partitions = build_partitions(points, cs, gt_motion(scene))
    assert len(partitions) >= 3
    motion, out_points, log = distributed_bundle_adjust(partitions, gt_motion(scene), points, scene.cameras)
    assert log[0].cost < 1e-12
    assert len(log) <= 2  # terminates after the first round


def test_global_cost_non_increasing(loop24, monkeypatch):
    scene, matches, graph, cs = loop24
    rng = np.random.default_rng(4)
    motion = gt_motion(scene)
    for k in range(1, len(motion.cameras)):
        motion.rotation[k] = so3_exp(rng.normal(size=3) * 0.002) @ motion.rotation[k]
        motion.center[k] = motion.center[k] + rng.normal(size=3) * 0.02
    before = motion.rotation.copy(), motion.center.copy()
    points = triangulate_global(tracks_from_scene(scene), motion, scene.cameras)
    partitions = build_partitions(points, cs, motion)
    monkeypatch.setattr(global_ba, "MAX_ROUNDS", 6)
    final, out_points, log = distributed_bundle_adjust(partitions, motion, points, scene.cameras)
    costs = [entry.cost for entry in log]
    assert all(b <= a + 1e-9 * max(a, 1.0) for a, b in zip(costs, costs[1:]))
    assert costs[-1] < costs[0]
    # the result is a new pose table over the same cameras; the input keeps its poses
    assert np.array_equal(final.cameras, motion.cameras) and not np.array_equal(final.center, motion.center)
    assert np.array_equal(motion.rotation, before[0]) and np.array_equal(motion.center, before[1])
    assert np.array_equal(final.clusters, motion.clusters) and np.array_equal(final.scale, motion.scale)


@pytest.fixture(scope="module")
def orbit_perturbed(orbit_scene_small):
    """Noisy tracks triangulated on perturbed poses of the conftest orbit,
    split into four partitions: the rounds have work to do."""
    scene, matches = orbit_scene_small
    graph = build_camera_graph(matches, scene.num_cameras)
    cs = cluster_cameras(graph, max_cluster_size=6, completeness_ratio=0.0, seed=1)
    rng = np.random.default_rng(4)
    motion = gt_motion(scene)
    for k in range(1, len(motion.cameras)):
        motion.rotation[k] = so3_exp(rng.normal(size=3) * 0.0005) @ motion.rotation[k]
        motion.center[k] = motion.center[k] + rng.normal(size=3) * 0.005
    points = triangulate_global(tracks_from_scene(scene, noise=0.5, seed=1), motion, scene.cameras)
    return scene, motion, points, build_partitions(points, cs, motion)


def test_rounds_stop_on_relative_cost_drop(orbit_perturbed, caplog):
    scene, motion, points, partitions = orbit_perturbed
    assert len(partitions) >= 3
    with caplog.at_level("WARNING", logger="clustersfm.global_ba"):
        _, _, log = distributed_bundle_adjust(partitions, motion, points, scene.cameras)
    assert len(log) - 1 < global_ba.MAX_ROUNDS and "cap" not in caplog.text
    drops = [(before.cost - after.cost, before.cost) for before, after in zip(log, log[1:])]
    assert drops[-1][0] <= ROUND_RELATIVE_TOL * drops[-1][1]
    assert all(drop > ROUND_RELATIVE_TOL * cost for drop, cost in drops[:-1])


def test_rounds_cap_warning(orbit_perturbed, caplog, monkeypatch):
    scene, motion, points, partitions = orbit_perturbed
    monkeypatch.setattr(global_ba, "MAX_ROUNDS", 1)
    with caplog.at_level("WARNING", logger="clustersfm.global_ba"):
        _, _, log = distributed_bundle_adjust(partitions, motion, points, scene.cameras)
    assert len(log) == 2 and log[0].cost - log[1].cost > ROUND_RELATIVE_TOL * log[0].cost
    assert "distributed bundle adjustment stopped at its cap of 1 rounds" in caplog.text


def test_single_partition_matches_monolithic(monkeypatch):
    scene, matches = generate_synthetic_scene("orbit", 8, 150, pixel_sigma=0.4, seed=9)
    graph = build_camera_graph(matches, 8)
    cs = cluster_cameras(graph, max_cluster_size=100, completeness_ratio=0.0, seed=1)
    assert len(cs.independent) == 1
    rng = np.random.default_rng(2)
    motion = gt_motion(scene)
    for k in range(1, len(motion.cameras)):
        motion.center[k] = motion.center[k] + rng.normal(size=3) * 0.01
    tracks = tracks_from_scene(scene, noise=0.4, seed=1)
    points = triangulate_global(tracks, motion, scene.cameras)
    partitions = build_partitions(points, cs, motion)
    assert len(partitions) == 1
    monkeypatch.setattr(global_ba, "MAX_ROUNDS", 3)
    monkeypatch.setattr(global_ba, "PARTITION_MAX_ITERATIONS", 80)
    final, _, log = distributed_bundle_adjust(partitions, motion, points, scene.cameras)
    reference = joint_bundle_adjust(motion, points, scene.cameras, max_iterations=240)
    assert abs(log[-1].cost - reference.cost) <= 1e-10 * max(reference.cost, 1e-12)


def test_all_boundary_points_reach_the_joint_optimum():
    """A cityBlocks scene whose every active point spans partitions: only
    the consensus step moves the points, and the rounds end within 0.1% of
    one LM over all cameras and points together. A linear re-triangulation
    of the boundary points stopped 8.5% above it."""
    scene, matches = generate_synthetic_scene("cityBlocks", 36, 300, pixel_sigma=0.5, seed=2)
    cs = cluster_cameras(build_camera_graph(matches, 36), max_cluster_size=12, completeness_ratio=0.0, seed=1)
    rng = np.random.default_rng(4)
    motion = gt_motion(scene)
    for k in range(1, len(motion.cameras)):
        motion.rotation[k] = so3_exp(rng.normal(size=3) * 0.001) @ motion.rotation[k]
        motion.center[k] = motion.center[k] + rng.normal(size=3) * 0.003
    points = triangulate_global(tracks_from_scene(scene, noise=0.5, seed=1), motion, scene.cameras)
    partitions = build_partitions(points, cs, motion)
    active = sum(p.active for p in points)
    assert len(partitions) >= 3 and active > 200
    assert not any(part.interior_points for part in partitions)  # boundary points == active
    _, _, log = distributed_bundle_adjust(partitions, motion, points, scene.cameras)
    reference = joint_bundle_adjust(motion, points, scene.cameras, max_iterations=200)
    assert reference.converged
    assert log[-1].cost <= 1.001 * reference.cost


def test_non_finite_residuals_raise(loop24):
    scene, matches, graph, cs = loop24
    motion = gt_motion(scene)
    points = triangulate_global(tracks_from_scene(scene), motion, scene.cameras)
    partitions = build_partitions(points, cs, motion)
    p = next(p for p in points if p.active)
    # mirror the point through its first camera's center: behind that camera
    c = int(p.cameras[0])
    p.position = 2.0 * motion.center[c] - p.position  # camera c at row c: every camera is posed
    behind = sum(
        (motion.rotation[k] @ (p.position - motion.center[k]))[2] <= 1e-12
        for k in p.cameras
    )
    assert behind >= 1
    with pytest.raises(NumericalError, match=f"^{behind} observations have non-finite residuals"):
        distributed_bundle_adjust(partitions, motion, points, scene.cameras)


@pytest.mark.parametrize("flipped, perturbed, expected", [(2, 0, "reprojection"), (0, 2, "cheirality")])
def test_triangulate_global_first_failing_view_names_status(flipped, perturbed, expected):
    # three cameras along x looking down +z; one is turned to look down -z,
    # so the point is behind it, and another sees the point 30 px off
    X = np.array([0.2, -0.1, 10.0])
    rotations = {c: np.eye(3) for c in range(3)}
    rotations[flipped] = np.diag([1.0, -1.0, -1.0])
    centers = {c: np.array([c - 1.0, 0.0, 0.0]) for c in range(3)}
    cameras = camera_table(3)
    xy = []
    for c in range(3):
        Y = rotations[c] @ (X - centers[c])
        xy.append([800.0 * Y[0] / Y[2] + 640.0, 800.0 * Y[1] / Y[2] + 480.0])
    xy = np.array(xy)
    xy[perturbed, 0] += 30.0
    track = track_table([(0, np.arange(3), np.arange(3), xy)])
    motion = global_motion(rotations, centers, {0: 1.0})
    [point] = triangulate_global(track, motion, cameras)
    assert point.status == expected and point.position is None

