import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from clustersfm import ba_core
from clustersfm.clustering import Cluster, ClusterTree, ClusterTreeNode
from clustersfm.errors import NumericalError
from clustersfm.geometry import (
    MAX_REPROJECTION_PX,
    angle_between,
    projection_matrix,
    rotation_angle,
)
from clustersfm.local_sfm import (
    ACTIVE,
    DEAD,
    ClusterTracks,
    TRIANGULATION_MIN_ANGLE_DEG,
    LocalReconstruction,
    SeedFailure,
    estimate_relative_pose,
    estimate_seed_pair,
    extract_relative_motions,
    register_next_view,
    run_local_sfm,
    _SfMState,
    _triangulate,
)
from clustersfm.evaluation import align_similarity
from clustersfm.scene import build_camera_graph
from clustersfm.synthetic import generate_synthetic_scene
from clustersfm.tracks import generate_tracks
from clustersfm.utils import seeded_rng
from conftest import camera_table, motion_rows, project_point, random_rotation, track_rows, track_table

SEED = 11
CAMERA = camera_table(1)  # focal 800, principal point (640, 480), 1280 x 960 pixels
K = CAMERA.K()[0]


def test_relative_pose_noise_free_exact():
    rng = np.random.default_rng(0)
    # moderate rotation, unit baseline
    from clustersfm.geometry import so3_exp

    R_gt = so3_exp(np.array([0.1, -0.2, 0.05]))
    t_gt = np.array([1.0, 0.1, 0.2])
    t_gt /= np.linalg.norm(t_gt)
    X = rng.normal(size=(80, 3)) * 1.5 + np.array([0, 0, 6.0])
    x1 = X[:, :2] / X[:, 2:3] * 800 + np.array([640, 480])
    Xc = X @ R_gt.T + t_gt
    x2 = Xc[:, :2] / Xc[:, 2:3] * 800 + np.array([640, 480])
    result = estimate_relative_pose(K, K, x1, x2, seeded_rng(1))
    assert result is not None
    R, t, mask = result
    assert mask.all()
    assert rotation_angle(R @ R_gt.T) < 1e-6
    assert angle_between(t, t_gt) < 1e-6


def test_relative_pose_forty_percent_outliers():
    # well-conditioned wide-baseline pair; inlier recall >= 95%
    rng = np.random.default_rng(3)
    from clustersfm.geometry import so3_exp

    R_gt = so3_exp(np.array([0.0, -0.5, 0.1]))
    t_gt = np.array([1.0, 0.0, 0.3])
    t_gt /= np.linalg.norm(t_gt)
    n = 300
    X = rng.normal(size=(n, 3)) * 2.0 + np.array([0, 0, 7.0])
    x1 = X[:, :2] / X[:, 2:3] * 800 + np.array([640, 480])
    Xc = X @ R_gt.T + t_gt
    x2 = Xc[:, :2] / Xc[:, 2:3] * 800 + np.array([640, 480])
    x1 += rng.normal(0, 0.5, x1.shape)
    x2 += rng.normal(0, 0.5, x2.shape)
    n_out = int(0.4 * n)
    out_idx = rng.choice(n, n_out, replace=False)
    x2[out_idx] = rng.uniform([0, 0], [1279, 959], size=(n_out, 2))
    true_inliers = np.ones(n, dtype=bool)
    true_inliers[out_idx] = False
    result = estimate_relative_pose(K, K, x1, x2, seeded_rng(2))
    assert result is not None
    _, _, mask = result
    recall = (mask & true_inliers).sum() / true_inliers.sum()
    assert recall >= 0.95


def _tracks_for_pair(rotation, center, cameras, points):
    """Tracks with one observation per camera for the given GT geometry."""
    tracks = []
    for pid, X in enumerate(points):
        xys, cs = [], []
        for c, (R, center_c, intrinsics, (width, height)) in enumerate(
                zip(rotation, center, cameras.intrinsics, cameras.size)):
            try:
                xy = project_point(R, center_c, intrinsics, X)
            except Exception:
                continue
            if 0 <= xy[0] < width and 0 <= xy[1] < height:
                cs.append(c)
                xys.append(xy)
        if len(cs) >= 2:
            tracks.append((pid, cs, np.full(len(cs), pid), xys))
    return track_table(tracks)


def test_seed_pair_rejects_zero_baseline():
    rng = np.random.default_rng(4)
    cams = camera_table(2)
    points = rng.normal(size=(60, 3)) * 1.5 + np.array([0, 0, 6.0])
    tracks = _tracks_for_pair(np.array([np.eye(3)] * 2), np.zeros((2, 3)), cams, points)  # identical poses
    from conftest import match_table, weighted_edge

    graph = build_camera_graph(match_table([weighted_edge(0, 1, len(tracks))]), 2)
    ct = ClusterTracks((0, 1), tracks)
    with pytest.raises(SeedFailure):
        estimate_seed_pair(graph, ct, cams.K(ct.cameras), seeded_rng(0))


def test_register_noise_free_exact():
    rng = np.random.default_rng(5)
    R_gt = random_rotation(rng)
    c_gt = rng.normal(size=3)
    X = (rng.normal(size=(50, 3)) * 2 + np.array([0, 0, 8.0])) @ R_gt + c_gt
    pix = []
    for x in X:
        pix.append(project_point(R_gt, c_gt, CAMERA.intrinsics[0], x))
    result = register_next_view(K, X, np.array(pix), seeded_rng(1))
    assert result is not None
    R, c, mask = result
    assert mask.all()
    diam = np.linalg.norm(X.max(0) - X.min(0))
    assert rotation_angle(R @ R_gt.T) < 1e-6
    assert np.linalg.norm(c - c_gt) < 1e-6 * diam


def test_register_too_few_points_deferred():
    result = register_next_view(K, np.zeros((5, 3)), np.zeros((5, 2)), seeded_rng(0))
    assert result is None


def test_register_thirty_percent_mislabeled():
    rng = np.random.default_rng(6)
    R_gt = random_rotation(rng)
    c_gt = rng.normal(size=3)
    X = (rng.normal(size=(120, 3)) * 2 + np.array([0, 0, 8.0])) @ R_gt + c_gt
    pix = np.array([project_point(R_gt, c_gt, CAMERA.intrinsics[0], x) for x in X])
    bad = rng.choice(len(X), int(0.3 * len(X)), replace=False)
    pix[bad] = rng.uniform([0, 0], [1279, 959], size=(len(bad), 2))
    result = register_next_view(K, X, pix, seeded_rng(2))
    assert result is not None
    R, c, _ = result
    diam = np.linalg.norm(X.max(0) - X.min(0))
    assert np.degrees(rotation_angle(R @ R_gt.T)) < 0.5
    assert np.linalg.norm(c - c_gt) < 0.01 * diam


def triangulate_one(poses, K, xys):
    """One track through local SfM's batched triangulation, every view with
    calibration K; None when the gate or the parallax test rejects it."""
    Ps = np.array([projection_matrix(K, R, c) for R, c in poses])
    X, ok, _ = _triangulate(Ps, np.array([c for _, c in poses]), np.asarray(xys, dtype=float)[None])
    return X[0] if ok[0] else None


UNIT_K = camera_table(1, focal=1.0, cx=0.0, cy=0.0, width=2, height=2).K()[0]


def test_triangulate_closed_form():
    poses = [(np.eye(3), np.array([0.5, 0.0, 0.0])), (np.eye(3), np.array([-0.5, 0.0, 0.0]))]
    X = np.array([0.0, 0.0, 2.0])
    xys = []
    for R, c in poses:
        Y = R @ (X - c)
        xys.append(Y[:2] / Y[2])
    rec = triangulate_one(poses, UNIT_K, np.array(xys))
    assert rec is not None
    assert np.abs(rec - X).max() < 1e-9


def test_triangulate_rejects_behind_camera():
    # second camera faces away from the point
    flip = np.diag([1.0, -1.0, -1.0])
    poses = [(np.eye(3), np.array([0.5, 0.0, 0.0])), (flip, np.array([-0.5, 0.0, 4.0]))]
    X = np.array([0.0, 0.0, 2.0])
    xys = np.array([[(X - c)[0] / (X - c)[2], (X - c)[1] / (X - c)[2]] for R, c in [poses[0]]] + [[0.0, 0.0]])
    assert triangulate_one(poses, UNIT_K, xys) is None


def test_triangulate_five_views_noisy_rms():
    rng = np.random.default_rng(7)
    centers = np.array([[2 * k - 4.0, 0.3 * k, 0.0] for k in range(5)])
    from clustersfm.synthetic import _look_at

    target = np.array([0.0, 0.0, 10.0])
    poses = [(_look_at(c, target), c) for c in centers]
    errors = []
    for _ in range(60):
        X = target + rng.normal(size=3)
        xys = []
        for R, c in poses:
            Y = R @ (X - c)
            xys.append([800 * Y[0] / Y[2] + 640, 800 * Y[1] / Y[2] + 480])
        xys = np.array(xys) + rng.normal(0, 0.5, (5, 2))
        rec = triangulate_one(poses, K, xys)
        if rec is None:
            continue
        for (R, c), z in zip(poses, xys):
            Y = R @ (rec - c)
            u = np.array([800 * Y[0] / Y[2] + 640, 800 * Y[1] / Y[2] + 480])
            errors.append(((u - z) ** 2).sum())
    assert errors
    assert np.sqrt(np.mean(errors)) <= 1.5


@pytest.fixture(scope="module")
def orbit_run(orbit_scene_small):
    scene, matches = orbit_scene_small
    graph = build_camera_graph(matches, scene.num_cameras)
    tree = ClusterTree(root=ClusterTreeNode(cameras=tuple(range(scene.num_cameras))))
    tracks = generate_tracks(tree, matches)
    cluster = Cluster(id=0, cameras=tuple(range(scene.num_cameras)))
    rec = run_local_sfm(graph, cluster, tracks, scene.cameras, SEED)
    return scene, matches, graph, tracks, rec


def diameter(scene) -> float:
    """Max pairwise distance between camera centers."""
    c = scene.center
    return float(np.linalg.norm(c[:, None, :] - c[None, :, :], axis=-1).max())


def test_run_local_sfm_noise_free_all_registered(orbit_run):
    scene, _, graph, _, rec = orbit_run
    assert not rec.failed
    assert rec.registered.tolist() == list(range(scene.num_cameras)) and rec.registered.dtype == np.int64
    assert rec.rotation.shape == (scene.num_cameras, 3, 3) and rec.center.shape == (scene.num_cameras, 3)
    est = rec.center
    gt = scene.center[rec.registered]
    s, R, t = align_similarity(est, gt)
    aligned = s * est @ R.T + t
    rmse = np.sqrt(((aligned - gt) ** 2).sum(axis=1).mean())
    assert rmse < 1e-6 * diameter(scene)


def test_run_local_sfm_deterministic(orbit_run):
    scene, matches, graph, tracks, rec = orbit_run
    cluster = Cluster(id=0, cameras=tuple(range(scene.num_cameras)))
    rec2 = run_local_sfm(graph, cluster, tracks, scene.cameras, SEED)
    for name in ("registered", "rotation", "center"):
        assert np.array_equal(getattr(rec, name), getattr(rec2, name)), name


def test_two_camera_cluster_is_seed_only(orbit_scene_small):
    scene, matches = orbit_scene_small
    graph = build_camera_graph(matches, scene.num_cameras)
    tree = ClusterTree(root=ClusterTreeNode(cameras=(0, 1)))
    sub = matches.take((matches.edges == (0, 1)).all(axis=1))
    tracks = generate_tracks(tree, sub)
    rec = run_local_sfm(graph, Cluster(id=0, cameras=(0, 1)), tracks, scene.cameras, SEED)
    assert rec.registered.tolist() == [0, 1]
    assert rec.seed_pair == (0, 1)


def test_extract_relative_motions_identity_example():
    rec = LocalReconstruction(cluster_id=0, registered=np.array([0, 1]), rotation=np.stack([np.eye(3), np.eye(3)]),
                              center=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    rec.positions, rec.inliers = np.zeros((1, 3)), track_table([(0, [0, 1], [0, 0], np.zeros((2, 2)))])
    from conftest import match_table, weighted_edge

    graph = build_camera_graph(match_table([weighted_edge(0, 1, 5)]), 2)
    # the same pair measured again by cluster 7, at twice the scale, after a
    # failed cluster that adds nothing
    twice = dataclasses.replace(rec, cluster_id=7, center=np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
    motions = extract_relative_motions([rec, LocalReconstruction(cluster_id=4), twice], graph)
    assert len(motions) == 2 and motions.pairs.tolist() == [[0, 1], [0, 1]] and motions.cluster.tolist() == [0, 7]
    assert np.array_equal(motions.rotation, np.stack([np.eye(3), np.eye(3)]))
    assert np.array_equal(motions.translation, [[-1.0, 0.0, 0.0], [-2.0, 0.0, 0.0]])
    assert motions.support.tolist() == [1, 1]
    motions.check(2)
    empty = extract_relative_motions([LocalReconstruction(cluster_id=4)], graph)
    assert len(empty) == 0 and empty.pairs.shape == (0, 2) and empty.rotation.shape == (0, 3, 3)


def test_extract_relative_motions_similarity_gauge(orbit_run):
    # R_ij invariant and t scales uniformly under a similarity of the frame
    scene, _, graph, _, rec = orbit_run
    rng = np.random.default_rng(9)
    base = motion_rows(extract_relative_motions([rec], graph))
    s = rng.uniform(0.3, 3.0)
    Q = random_rotation(rng)
    d = rng.normal(size=3)
    moved = dataclasses.replace(rec, rotation=np.array([R @ Q.T for R in rec.rotation]),
                                center=np.array([s * (Q @ c) + d for c in rec.center]))
    for m0, m1 in zip(base, motion_rows(extract_relative_motions([moved], graph))):
        # arccos cannot resolve equality below ~1.5e-8 rad
        assert rotation_angle(m0.R @ m1.R.T) < 1e-7
        assert np.abs(m1.t - s * m0.t).max() < 1e-6 * s


def test_support_counts_shared_inlier_tracks(orbit_run):
    scene, _, graph, _, rec = orbit_run
    # reference: the set of tracks each camera keeps as inliers
    tracks_of = {}
    for t, cams, _, _ in track_rows(rec.inliers):
        for c in cams.tolist():
            tracks_of.setdefault(c, set()).add(t)
    motions = motion_rows(extract_relative_motions([rec], graph))
    registered = set(rec.registered.tolist())
    assert [(m.i, m.j) for m in motions] == [(i, j) for i, j in graph.pairs.tolist() if {i, j} <= registered]
    row = {c: k for k, c in enumerate(rec.registered.tolist())}
    for m in motions:
        assert m.support == len(tracks_of.get(m.i, set()) & tracks_of.get(m.j, set()))
        # the stacked products are the per-motion ones, bit for bit
        R_i, R_j = rec.rotation[row[m.i]], rec.rotation[row[m.j]]
        assert np.array_equal(m.R, R_j @ R_i.T)
        assert np.array_equal(m.t, R_j @ (rec.center[row[m.i]] - rec.center[row[m.j]]))
    assert sum(m.support > 0 for m in motions) > len(motions) // 2


def test_run_local_sfm_inlier_rows_match_points(orbit_run):
    _, _, _, tracks, rec = orbit_run
    # each point's rows are a track of the table: >= 2 cameras, ascending,
    # each with the feature and pixel of the track's element
    rec.inliers.check(int(rec.registered[-1]) + 1)
    assert np.all(np.diff(rec.inliers.offsets) >= 2) and np.all(np.diff(rec.inliers.ids) > 0)
    by_id = {t: (cams.tolist(), feats, xys) for t, cams, feats, xys in track_rows(tracks)}
    for t, cams, feats, xys in track_rows(rec.inliers):
        all_cams, all_feats, all_xys = by_id[t]
        at = [all_cams.index(c) for c in cams.tolist()]
        assert np.array_equal(all_feats[at], feats) and np.array_equal(all_xys[at], xys)
    assert rec.positions.shape == (len(rec.inliers), 3)


def test_cross_cluster_consistency_noise_free(orbit_scene_small):
    scene, matches = orbit_scene_small
    graph = build_camera_graph(matches, scene.num_cameras)
    tree = ClusterTree(root=ClusterTreeNode(cameras=tuple(range(scene.num_cameras))))
    tracks = generate_tracks(tree, matches)
    cams_a = tuple(range(0, 12))
    cams_b = tuple(range(8, 20))
    rec_a = run_local_sfm(graph, Cluster(id=0, cameras=cams_a), tracks, scene.cameras, SEED)
    rec_b = run_local_sfm(graph, Cluster(id=1, cameras=cams_b), tracks, scene.cameras, SEED)
    # the second cluster's camera indices are not its camera ids
    assert set(rec_b.seed_pair) <= set(rec_b.registered.tolist()) <= set(cams_b)
    assert set(rec_b.inliers.cameras.tolist()) <= set(rec_b.registered.tolist())
    motions = motion_rows(extract_relative_motions([rec_a, rec_b], graph))
    ma = {(m.i, m.j): m for m in motions if m.k == 0}
    mb = {(m.i, m.j): m for m in motions if m.k == 1}
    shared = sorted(set(ma) & set(mb))
    assert shared
    for pair in shared:
        assert rotation_angle(ma[pair].R @ mb[pair].R.T) < 1e-6
        assert angle_between(ma[pair].t, mb[pair].t) < 1e-6


def test_run_local_sfm_noisy_monte_carlo():
    # 50 cameras, 0.5 px noise, 10% outliers: >= 95% registered, < 1 px mean
    scene, matches = generate_synthetic_scene(
        "orbit", 50, 800, pixel_sigma=0.5, outlier_fraction=0.1, seed=9
    )
    graph = build_camera_graph(matches, 50)
    tree = ClusterTree(root=ClusterTreeNode(cameras=tuple(range(50))))
    tracks = generate_tracks(tree, matches)
    rec = run_local_sfm(graph, Cluster(id=0, cameras=tuple(range(50))), tracks, scene.cameras, SEED)
    assert len(rec.registered) >= 48
    assert rec.mean_reprojection < 1.0


def _triangulate_reference(poses, K, xys):
    """Per-track, per-view reference of local SfM triangulation, every view
    with calibration K: DLT, then depth and reprojection in every view and
    the largest pairwise parallax."""
    Ps = [projection_matrix(K, R, c) for R, c in poses]
    A = np.concatenate([[x[0] * P[2] - P[0], x[1] * P[2] - P[1]] for P, x in zip(Ps, xys)])
    Xh = np.linalg.svd(A)[2][-1]
    if abs(Xh[3]) < 1e-15:
        return None
    X = Xh[:3] / Xh[3]
    max_angle = 0.0
    for a, ((R, c), P, x) in enumerate(zip(poses, Ps, xys)):
        if (R @ (X - c))[2] <= 0:
            return None
        uv = P @ np.append(X, 1.0)
        if np.hypot(uv[0] / uv[2] - x[0], uv[1] / uv[2] - x[1]) > MAX_REPROJECTION_PX:
            return None
        for _, c_b in poses[a + 1:]:
            max_angle = max(max_angle, np.degrees(angle_between(c - X, c_b - X)))
    return X if max_angle >= TRIANGULATION_MIN_ANGLE_DEG else None


def test_batched_triangulation_matches_per_track_reference():
    from clustersfm.synthetic import _look_at

    rng = np.random.default_rng(31)
    flip = np.diag([1.0, -1.0, -1.0])
    target = np.array([0.0, 0.0, 10.0])
    outcomes = set()
    for k in range(2, 6):
        poses_n, xys_n = [], []
        for i in range(50):
            case = i % 5  # 0 clean, 1 behind, 2 > 4 px, 3 at infinity, 4 < 1 degree
            spread = 0.02 if case == 4 else 2.0
            centers = [spread * np.array([v - k / 2, 0.15 * v, 0.0]) for v in range(k)]
            poses = [(_look_at(c, target), c) for c in centers]
            X = target + rng.normal(size=3)
            if case == 3:
                poses = [(np.eye(3), np.array([float(v), 0.0, 0.0])) for v in range(k)]
            xys = []
            for R, c in poses:
                Y = R @ (X - c)
                xys.append([800 * Y[0] / Y[2] + 640, 800 * Y[1] / Y[2] + 480])
            xys = np.array(xys) + rng.normal(0, 0.3, (k, 2))
            if case == 1:
                v = i % k
                poses[v] = (flip @ poses[v][0], poses[v][1])
            if case == 2:
                xys[i % k] += rng.choice([-1.0, 1.0], size=2) * rng.uniform(6.0, 30.0)
            if case == 3:
                xys[:] = [700.0, 500.0]
            poses_n.append(poses)
            xys_n.append(xys)
        Ps = np.array([[projection_matrix(K, R, c) for R, c in poses] for poses in poses_n])
        centers = np.array([[c for _, c in poses] for poses in poses_n])
        X, ok, _ = _triangulate(Ps, centers, np.array(xys_n))
        for i, (poses, xys) in enumerate(zip(poses_n, xys_n)):
            ref = _triangulate_reference(poses, K, xys)
            assert ok[i] == (ref is not None), (k, i)
            if ref is not None:
                assert np.array_equal(X[i], ref)
            outcomes.add((i % 5, bool(ok[i])))
    # clean tracks pass; each failure case is rejected
    assert outcomes == {(0, True), (1, False), (2, False), (3, False), (4, False)}


def test_local_ba_rising_cost_raises(monkeypatch):
    tracks = track_table([(t, [0, 1], [t, t], np.zeros((2, 2))) for t in range(5)])
    state = _SfMState(0, ClusterTracks((0, 1), tracks), camera_table(2))
    assert state.register(0, np.eye(3), np.zeros(3)) == 0
    assert state.register(1, np.eye(3), np.array([1.0, 0.0, 0.0])) == 1
    state.X[:] = [[0.0, 0.0, 5.0 + t] for t in range(5)]
    state.status[:] = ACTIVE
    state.joined[:] = state.tracks.pos  # the seed pair joins in camera order
    state.seed_pair = (0, 1)
    monkeypatch.setattr(ba_core, "lm_minimize", lambda *a, **k: SimpleNamespace(cost_trace=[2.0, 1.0, 1.5]))
    with pytest.raises(NumericalError, match="cost increased"):
        state.bundle_adjust()


def _three_view_state():
    """Six points seen by three noise-free cameras, every point active with
    cameras 1 and 2 as the seed pair, and camera 0 not registered yet."""
    from clustersfm.synthetic import _look_at

    rng = np.random.default_rng(21)
    target = np.array([0.0, 0.0, 8.0])
    center = np.array([[x, 0.2 * x, 0.0] for x in (-1.0, 0.0, 1.0)])
    rotation = np.array([_look_at(c, target) for c in center])
    cams = camera_table(3)
    points = target + rng.normal(size=(6, 3))
    tracks = _tracks_for_pair(rotation, center, cams, points)
    assert np.diff(tracks.offsets).tolist() == [3] * 6
    state = _SfMState(0, ClusterTracks((0, 1, 2), tracks), cams)
    for k in (1, 2):
        state.register(k, rotation[k], center[k])
    state.X[:] = points
    state.status[:] = ACTIVE
    state.joined[state.tracks.pos == 1] = 0
    state.joined[state.tracks.pos == 2] = 1
    state.seed_pair = (1, 2)
    return state, rotation, center


def _capture_lm(monkeypatch, residuals=lambda problem: np.zeros(len(problem.pixels))):
    """Replace LM by a no-op step that records each problem and reports the
    given per-observation residuals."""
    problems = []

    def fake(problem, **kwargs):
        problems.append(problem)
        return ba_core.BAResult(
            rotations=problem.rotations, centers=problem.centers, points=problem.points,
            cost=0.0, initial_cost=0.0, iterations=1, converged=True,
            residual_norms=residuals(problem), cost_trace=[0.0],
        )

    monkeypatch.setattr(ba_core, "lm_minimize", fake)
    return problems


def test_local_ba_orders_observations_by_join(monkeypatch):
    # camera 0 registers after the seed pair: its observations come last in
    # every point, although its id is the smallest
    state, rotation, center = _three_view_state()
    index = state.register(0, rotation[0], center[0])
    assert index == 2
    state.add_camera_observations(0, index)
    assert (state.joined[state.tracks.pos == 0] == 2).all()
    problems = _capture_lm(monkeypatch)
    state.bundle_adjust()
    (problem,) = problems
    assert np.array_equal(problem.pt_idx, np.repeat(np.arange(6), 3))
    registered = state.tracks.cameras[state.registered]
    assert np.array_equal(registered[problem.cam_idx], np.tile([1, 2, 0], 6))


def test_local_ba_drops_non_finite_residual_and_retires_point(monkeypatch):
    state, rotation, center = _three_view_state()
    tr = state.tracks

    def residuals(problem):
        res = np.zeros(len(problem.pixels))
        res[1] = np.nan  # point 0 as seen by camera 2
        return res

    _capture_lm(monkeypatch, residuals)
    state.bundle_adjust()
    assert state.status[0] == DEAD and (state.status[1:] == ACTIVE).all()
    assert (state.joined[tr.track == 0] == -1).all()
    assert (state.joined[(tr.track > 0) & (tr.pos > 0)] >= 0).all()
    # camera 0 registers and sees every point: the dead one is neither
    # re-attached nor triangulated again
    X_dead = state.X[0].copy()
    index = state.register(0, rotation[0], center[0])
    state.add_camera_observations(0, index)
    state.triangulate_new_tracks(0, index)
    assert state.status[0] == DEAD and (state.joined[tr.track == 0] == -1).all()
    assert np.array_equal(state.X[0], X_dead)
    assert (state.joined[(tr.track > 0) & (tr.pos == 0)] == 2).all()


def test_cluster_tracks_table_matches_scan():
    rng = np.random.default_rng(12)
    tracks = []
    for tid in range(40):
        # strictly ascending cameras; some tracks leave the cluster
        cams = np.sort(rng.choice(8, size=int(rng.integers(2, 7)), replace=False))
        tracks.append((100 + tid, cams, np.arange(len(cams)), rng.normal(size=(len(cams), 2)) * 100))
    # the second cluster's camera indices differ from its camera ids
    for cluster in ((0, 1, 2, 3, 4), (1, 3, 4, 6)):
        ct = ClusterTracks(cluster, track_table(tracks))
        assert ct.cameras.tolist() == list(cluster)
        cam = ct.cameras[ct.pos]
        # per-track scan: the in-cluster elements of the tracks with >= 2 of them
        expected = [(t, int(c), p) for t, cams, _, xy in tracks if np.isin(cams, cluster).sum() >= 2
                    for c, p in zip(cams, xy) if c in cluster]
        assert 0 < len(ct) < len(tracks)
        assert list(zip(ct.track_ids[ct.track].tolist(), cam.tolist())) == [e[:2] for e in expected]
        assert np.array_equal(ct.xy, np.array([e[2] for e in expected]))
        assert np.array_equal(np.unique(ct.track), np.arange(len(ct)))
        # every row holds a cluster camera, and rows(k) are the rows of camera k
        assert np.isin(cam, cluster).all()
        for k, c in enumerate(cluster):
            assert np.array_equal(ct.rows(k), np.flatnonzero(cam == c))
        for a, i in enumerate(cluster):
            for b, j in enumerate(cluster[a + 1:], a + 1):
                rows_i, rows_j = ct.shared_rows(a, b)
                shared = sorted(set(ct.track[cam == i].tolist()) & set(ct.track[cam == j].tolist()))
                assert ct.track[rows_i].tolist() == shared == ct.track[rows_j].tolist()
                assert (cam[rows_i] == i).all() and (cam[rows_j] == j).all()
