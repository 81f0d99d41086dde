import numpy as np
import pytest

from clustersfm import ba_core
from clustersfm.averaging import GlobalMotion
from clustersfm.clustering import ClusterConfig, cluster_cameras
from clustersfm.global_ba import (
    ROUND_RELATIVE_TOL,
    build_partitions,
    distributed_bundle_adjust,
    triangulate_global,
)
from clustersfm.scene import build_camera_graph, project_point
from clustersfm.synthetic import generate_synthetic_scene
from clustersfm.tracks import Track
from clustersfm.errors import DataError, NumericalError
from clustersfm.geometry import so3_exp


def gt_motion(scene):
    return GlobalMotion(
        rotations={c: scene.poses[c].R.copy() for c in range(scene.num_cameras)},
        centers={c: scene.poses[c].c.copy() for c in range(scene.num_cameras)},
        scales={0: 1.0},
        residual_norms=np.zeros(0),
        objective=0.0,
    )


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
        tracks.append(Track(id=pid, cameras=cams, features=np.arange(len(cams)), xy=xy))
    return tracks


@pytest.fixture(scope="module")
def loop24():
    scene, matches = generate_synthetic_scene("loop", 24, 400, pixel_sigma=0.0, seed=5)
    graph = build_camera_graph(matches, 24)
    cs = cluster_cameras(graph, ClusterConfig(max_cluster_size=9, completeness_ratio=0.0, seed=1))
    return scene, matches, graph, cs


def test_triangulate_global_noise_free(loop24):
    scene, matches, graph, cs = loop24
    points = triangulate_global(tracks_from_scene(scene), gt_motion(scene), cs, scene.cameras)
    active = [p for p in points if p.active]
    # noise-free: every track with >= 3 views triangulates exactly
    expected = sum(1 for v in scene.visibility if len(v) >= 3)
    assert len(active) == expected
    for p in active:
        assert np.abs(p.position - scene.points[p.track_id]).max() < 1e-9


def test_triangulate_global_too_few_views(loop24):
    scene, matches, graph, cs = loop24
    t = Track(id=0, cameras=np.array([0, 1]), features=np.array([0, 1]), xy=np.zeros((2, 2)))
    points = triangulate_global([t], gt_motion(scene), cs, scene.cameras)
    assert points[0].status == "too_few_views"
    assert not points[0].active


def test_triangulate_global_noisy_rms():
    scene, matches = generate_synthetic_scene("orbit", 10, 250, pixel_sigma=0.0, seed=6)
    graph = build_camera_graph(matches, 10)
    cs = cluster_cameras(graph, ClusterConfig(max_cluster_size=5, completeness_ratio=0.0, seed=1))
    tracks = [t for t in tracks_from_scene(scene, noise=0.5, seed=3) if len(t) >= 6]
    assert tracks
    points = triangulate_global(tracks, gt_motion(scene), cs, scene.cameras)
    sq = []
    for p in points:
        if not p.active:
            continue
        for c, xy in zip(p.cameras, p.xy):
            proj = project_point(scene.poses[int(c)], scene.cameras[int(c)], p.position)
            sq.append(((proj - xy) ** 2).sum())
    assert sq
    assert np.sqrt(np.mean(sq)) <= 1.5


def test_partition_structure(loop24):
    scene, matches, graph, cs = loop24
    points = triangulate_global(tracks_from_scene(scene), gt_motion(scene), cs, scene.cameras)
    partitions = build_partitions(points, cs, gt_motion(scene))
    seen = set()
    for part in partitions:
        assert not seen.intersection(part.cameras)
        seen.update(part.cameras)
    # ownership: each active point owned by exactly one partition
    owned = sorted(pi for part in partitions for pi in part.owned_points)
    assert owned == sorted(set(owned))
    assert len(owned) == sum(p.active for p in points)
    # every observation appears in exactly one sub-problem
    total_obs = sum(np.isin(p.cameras, part.cameras).sum() for part in partitions for p in points if p.active)
    assert total_obs == sum(len(p.cameras) for p in points if p.active)


def test_point_camera_the_motion_does_not_pose_is_a_data_error(loop24):
    scene, matches, graph, cs = loop24
    points = triangulate_global(tracks_from_scene(scene), gt_motion(scene), cs, scene.cameras)
    motion = gt_motion(scene)
    del motion.rotations[3], motion.centers[3]  # posed when the points were triangulated, not now
    partitions = build_partitions(points, cs, motion)
    with pytest.raises(DataError, match="^point camera 3 is not posed by the global motion$"):
        distributed_bundle_adjust(partitions, motion, points, scene.cameras, rounds=1)


def test_ground_truth_noise_free_terminates_immediately(loop24):
    scene, matches, graph, cs = loop24
    points = triangulate_global(tracks_from_scene(scene), gt_motion(scene), cs, scene.cameras)
    partitions = build_partitions(points, cs, gt_motion(scene))
    assert len(partitions) >= 3
    motion, out_points, log = distributed_bundle_adjust(
        partitions, gt_motion(scene), points, scene.cameras, rounds=5
    )
    assert log[0].cost < 1e-12
    assert len(log) <= 2  # terminates after the first round


def test_global_cost_non_increasing(loop24):
    scene, matches, graph, cs = loop24
    rng = np.random.default_rng(4)
    motion = gt_motion(scene)
    for c in list(motion.centers)[1:]:
        motion.rotations[c] = so3_exp(rng.normal(size=3) * 0.002) @ motion.rotations[c]
        motion.centers[c] = motion.centers[c] + rng.normal(size=3) * 0.02
    points = triangulate_global(tracks_from_scene(scene), motion, cs, scene.cameras)
    partitions = build_partitions(points, cs, motion)
    final, out_points, log = distributed_bundle_adjust(
        partitions, motion, points, scene.cameras, rounds=6
    )
    costs = [entry.cost for entry in log]
    assert all(b <= a + 1e-9 * max(a, 1.0) for a, b in zip(costs, costs[1:]))
    assert costs[-1] < costs[0]


@pytest.fixture(scope="module")
def orbit_perturbed(orbit_scene_small):
    """Noisy tracks triangulated on perturbed poses of the conftest orbit,
    split into four partitions: the rounds have work to do."""
    scene, matches = orbit_scene_small
    graph = build_camera_graph(matches, scene.num_cameras)
    cs = cluster_cameras(graph, ClusterConfig(max_cluster_size=6, completeness_ratio=0.0, seed=1))
    rng = np.random.default_rng(4)
    motion = gt_motion(scene)
    for c in list(motion.centers)[1:]:
        motion.rotations[c] = so3_exp(rng.normal(size=3) * 0.0005) @ motion.rotations[c]
        motion.centers[c] = motion.centers[c] + rng.normal(size=3) * 0.005
    points = triangulate_global(tracks_from_scene(scene, noise=0.5, seed=1), motion, cs, scene.cameras)
    return scene, motion, points, build_partitions(points, cs, motion)


def test_rounds_stop_on_relative_cost_drop(orbit_perturbed, caplog):
    scene, motion, points, partitions = orbit_perturbed
    assert len(partitions) >= 3
    with caplog.at_level("WARNING", logger="clustersfm.global_ba"):
        _, _, log = distributed_bundle_adjust(partitions, motion, points, scene.cameras, rounds=10)
    assert len(log) - 1 < 10 and "cap" not in caplog.text
    drops = [(before.cost - after.cost, before.cost) for before, after in zip(log, log[1:])]
    assert drops[-1][0] <= ROUND_RELATIVE_TOL * drops[-1][1]
    assert all(drop > ROUND_RELATIVE_TOL * cost for drop, cost in drops[:-1])


def test_rounds_cap_warning(orbit_perturbed, caplog):
    scene, motion, points, partitions = orbit_perturbed
    with caplog.at_level("WARNING", logger="clustersfm.global_ba"):
        _, _, log = distributed_bundle_adjust(partitions, motion, points, scene.cameras, rounds=1)
    assert len(log) == 2 and log[0].cost - log[1].cost > ROUND_RELATIVE_TOL * log[0].cost
    assert "distributed bundle adjustment stopped at its cap of 1 rounds" in caplog.text


def test_single_partition_matches_monolithic():
    scene, matches = generate_synthetic_scene("orbit", 8, 150, pixel_sigma=0.4, seed=9)
    graph = build_camera_graph(matches, 8)
    cs = cluster_cameras(graph, ClusterConfig(max_cluster_size=100, completeness_ratio=0.0, seed=1))
    assert len(cs.independent) == 1
    rng = np.random.default_rng(2)
    motion = gt_motion(scene)
    for c in list(motion.centers)[1:]:
        motion.centers[c] = motion.centers[c] + rng.normal(size=3) * 0.01
    tracks = tracks_from_scene(scene, noise=0.4, seed=1)
    points = triangulate_global(tracks, motion, cs, scene.cameras)
    partitions = build_partitions(points, cs, motion)
    assert len(partitions) == 1
    final, _, log = distributed_bundle_adjust(
        partitions, motion, points, scene.cameras, rounds=3, inner_max_iterations=80
    )

    # monolithic oracle: one LM over the identical problem
    active = [p for p in points if p.active]
    cam_ids = sorted(motion.centers)
    cam_pos = {c: k for k, c in enumerate(cam_ids)}
    obs_cam, obs_pt, obs_xy = [], [], []
    for pi, p in enumerate(active):
        for k, c in enumerate(p.cameras):
            obs_cam.append(cam_pos[int(c)])
            obs_pt.append(pi)
            obs_xy.append(p.xy[k])
    problem = ba_core.BAProblem(
        rotations=np.array([motion.rotations[c] for c in cam_ids]),
        centers=np.array([motion.centers[c] for c in cam_ids]),
        intrinsics=np.array([[scene.cameras[c].focal, scene.cameras[c].cx, scene.cameras[c].cy] for c in cam_ids]),
        points=np.array([p.position for p in active]),
        cam_idx=np.array(obs_cam),
        pt_idx=np.array(obs_pt),
        pixels=np.array(obs_xy),
        free_cams=np.ones(len(cam_ids), dtype=bool),
        free_pts=np.ones(len(active), dtype=bool),
    )
    reference = ba_core.lm_minimize(problem, max_iterations=240)
    assert abs(log[-1].cost - reference.cost) <= 1e-10 * max(reference.cost, 1e-12)


def test_non_finite_residuals_raise(loop24):
    scene, matches, graph, cs = loop24
    motion = gt_motion(scene)
    points = triangulate_global(tracks_from_scene(scene), motion, cs, scene.cameras)
    partitions = build_partitions(points, cs, motion)
    p = next(p for p in points if p.active)
    # mirror the point through its first camera's center: behind that camera
    c = int(p.cameras[0])
    p.position = 2.0 * motion.centers[c] - p.position
    behind = sum(
        (motion.rotations[int(k)] @ (p.position - motion.centers[int(k)]))[2] <= 1e-12
        for k in p.cameras
    )
    assert behind >= 1
    with pytest.raises(NumericalError, match=f"^{behind} observations have non-finite residuals"):
        distributed_bundle_adjust(partitions, motion, points, scene.cameras, rounds=2)


@pytest.mark.parametrize("flipped, perturbed, expected", [(2, 0, "reprojection"), (0, 2, "cheirality")])
def test_triangulate_global_first_failing_view_names_status(flipped, perturbed, expected):
    from types import SimpleNamespace

    from clustersfm.scene import Camera

    # three cameras along x looking down +z; one is turned to look down -z,
    # so the point is behind it, and another sees the point 30 px off
    X = np.array([0.2, -0.1, 10.0])
    rotations = {c: np.eye(3) for c in range(3)}
    rotations[flipped] = np.diag([1.0, -1.0, -1.0])
    centers = {c: np.array([c - 1.0, 0.0, 0.0]) for c in range(3)}
    cameras = [Camera(id=c, focal=800.0, cx=640.0, cy=480.0, width=1280, height=960) for c in range(3)]
    xy = []
    for c in range(3):
        Y = rotations[c] @ (X - centers[c])
        xy.append([800.0 * Y[0] / Y[2] + 640.0, 800.0 * Y[1] / Y[2] + 480.0])
    xy = np.array(xy)
    xy[perturbed, 0] += 30.0
    track = Track(id=0, cameras=np.arange(3), features=np.arange(3), xy=xy)
    motion = GlobalMotion(rotations=rotations, centers=centers, scales={0: 1.0},
                          residual_norms=np.zeros(0), objective=0.0)
    cluster_set = SimpleNamespace(independent_cluster_of=lambda: {0: 0, 1: 0, 2: 0})
    [point] = triangulate_global([track], motion, cluster_set, cameras)
    assert point.status == expected and point.position is None


def test_point_costs_match_per_view_loop():
    from clustersfm.global_ba import _point_costs

    rng = np.random.default_rng(3)
    n, k = 12, 3
    Ps = rng.normal(size=(n, k, 3, 4))
    Ps[..., 2, :] = [0.0, 0.0, 1.0, 5.0]  # depth z + 5
    X = rng.normal(size=(n, 3))
    X[0, 2] = -6.0  # behind every view
    xy = rng.normal(size=(n, k, 2))
    ref = []
    for i in range(n):
        total = 0.0
        for P, z in zip(Ps[i], xy[i]):
            uvw = P @ np.append(X[i], 1.0)
            if uvw[2] <= 1e-12:
                total = np.inf
                break
            total += (uvw[0] / uvw[2] - z[0]) ** 2 + (uvw[1] / uvw[2] - z[1]) ** 2
        ref.append(total)
    assert np.isinf(ref[0])
    assert np.allclose(_point_costs(Ps, xy, X), ref, rtol=1e-12)
