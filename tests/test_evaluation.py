import numpy as np
import pytest

from clustersfm.errors import NumericalError
from clustersfm.evaluation import (
    align_similarity,
    connected_pair_count,
    epipolar_error,
    pose_error_report,
)
from clustersfm.geometry import angle_between, rotation_angle, skew, so3_exp
from clustersfm.io import load_global_points
from clustersfm.synthetic import generate_synthetic_scene
from conftest import global_motion, random_rotation


@pytest.fixture(scope="module")
def eval_scene():
    scene, matches = generate_synthetic_scene("orbit", 15, 300, pixel_sigma=0.0, seed=4)
    pairs = [tuple(e) for e in matches.edges.tolist()]
    return scene, matches, pairs


def gt_estimate(scene):
    rot = {c: scene.rotation[c].copy() for c in range(scene.num_cameras)}
    cen = {c: scene.center[c].copy() for c in range(scene.num_cameras)}
    return rot, cen


def test_align_identity():
    pts = np.random.default_rng(0).normal(size=(10, 3))
    s, R, t = align_similarity(pts, pts)
    assert abs(s - 1) < 1e-12
    assert np.abs(R - np.eye(3)).max() < 1e-12
    assert np.abs(t).max() < 1e-12


def test_align_recovers_inverse_transform():
    rng = np.random.default_rng(1)
    gt = rng.normal(size=(20, 3))
    Q = random_rotation(rng)
    d = rng.normal(size=3)
    est = 2.0 * gt @ Q.T + d  # est = 2 Q gt + d
    s, R, t = align_similarity(est, gt)
    assert abs(s - 0.5) < 1e-10
    assert np.abs(R - Q.T).max() < 1e-10
    assert np.abs(t - (-0.5 * Q.T @ d)).max() < 1e-10


def test_align_degenerate_cases():
    with pytest.raises(NumericalError):
        align_similarity(np.zeros((2, 3)), np.zeros((2, 3)))
    line = np.outer(np.arange(5, dtype=float), [1.0, 0, 0])
    with pytest.raises(NumericalError):
        align_similarity(line, line)


def test_report_zero_errors_at_ground_truth(eval_scene):
    scene, matches, pairs = eval_scene
    rot, cen = gt_estimate(scene)
    report = pose_error_report(global_motion(rot, cen), scene.rotation, scene.center, pairs)
    assert report.mean_position_error < 1e-10
    assert report.median_position_error < 1e-10
    assert report.mean_rel_rotation_error_deg < 1e-5
    assert report.mean_rel_translation_error_deg < 1e-5
    assert report.num_registered == scene.num_cameras


def test_report_single_rotated_camera(eval_scene):
    scene, matches, pairs = eval_scene
    rot, cen = gt_estimate(scene)
    bump = so3_exp(np.array([0.0, 0.0, np.radians(1.0)]))
    rot[3] = bump @ rot[3]
    report = pose_error_report(global_motion(rot, cen), scene.rotation, scene.center, pairs)
    unique_pairs = {(min(i, j), max(i, j)) for (i, j) in pairs}
    touched = [p for p in unique_pairs if 3 in p]
    expected = len(touched) * 1.0 / len(unique_pairs)
    assert abs(report.mean_rel_rotation_error_deg - expected) < 1e-5


def test_report_gauge_invariance(eval_scene):
    scene, matches, pairs = eval_scene
    rng = np.random.default_rng(2)
    rot, cen = gt_estimate(scene)
    # perturb slightly so errors are non-trivial
    for c in rot:
        rot[c] = so3_exp(rng.normal(size=3) * 1e-3) @ rot[c]
        cen[c] = cen[c] + rng.normal(size=3) * 1e-2
    base = pose_error_report(global_motion(rot, cen), scene.rotation, scene.center, pairs,
                             epipolar_median=epipolar_error(global_motion(rot, cen), scene.cameras, matches))
    s = 2.7
    Q = random_rotation(rng)
    d = rng.normal(size=3)
    rot2 = {c: rot[c] @ Q.T for c in rot}
    cen2 = {c: s * (Q @ cen[c]) + d for c in cen}
    moved = pose_error_report(global_motion(rot2, cen2), scene.rotation, scene.center, pairs,
                              epipolar_median=epipolar_error(global_motion(rot2, cen2), scene.cameras, matches))
    assert abs(base.mean_position_error - moved.mean_position_error) < 1e-8
    assert abs(base.mean_rel_rotation_error_deg - moved.mean_rel_rotation_error_deg) < 1e-8
    assert abs(base.mean_rel_translation_error_deg - moved.mean_rel_translation_error_deg) < 1e-8
    assert abs(base.median_epipolar_error_px - moved.median_epipolar_error_px) < 1e-8


def _evaluation_reference(rotations, centers, gt_rotation, gt_center, measured_pairs, cameras, matches):
    """The pose errors and the epipolar median one pair and one edge at a
    time over {camera: R} and {camera: c} dicts, with one calibration matrix
    inverted at a time: (mean and median position error, mean relative
    rotation and translation errors, epipolar median)."""
    common = sorted(c for c in rotations if 0 <= c < len(gt_rotation))
    est_c, gt_c = np.array([centers[c] for c in common]), np.array([gt_center[c] for c in common])
    s, R, t = align_similarity(est_c, gt_c)
    residuals = np.linalg.norm(s * (est_c @ R.T) + t - gt_c, axis=1)
    pairs = sorted({(min(i, j), max(i, j)) for (i, j) in measured_pairs if i in rotations and j in rotations})
    rel_errs, dir_errs = [], []
    for i, j in pairs:
        rel_errs.append((rotations[j] @ rotations[i].T) @ (gt_rotation[j] @ gt_rotation[i].T).T)
        t_est = rotations[j] @ (centers[i] - centers[j])
        t_gt = gt_rotation[j] @ (gt_center[i] - gt_center[j])
        dir_errs.append(np.degrees(angle_between(t_est, t_gt)))
    distances = []
    for (i, j), a, b in zip(matches.edges.tolist(), matches.offsets[:-1].tolist(), matches.offsets[1:].tolist()):
        if i in rotations and j in rotations:
            E = skew(rotations[j] @ (centers[i] - centers[j])) @ (rotations[j] @ rotations[i].T)
            K_i, K_j = cameras.K([i])[0], cameras.K([j])[0]
            F = np.linalg.inv(K_j).T @ E @ np.linalg.inv(K_i)
            lines = np.column_stack([matches.xy[a:b, :2], np.ones(b - a)]) @ F.T
            xj = np.column_stack([matches.xy[a:b, 2:], np.ones(b - a)])
            distances.append(np.abs(np.sum(xj * lines, axis=1)) / np.hypot(lines[:, 0], lines[:, 1]))
    return (float(residuals.mean()), float(np.median(residuals)),
            float(np.mean(np.degrees(rotation_angle(np.array(rel_errs))))), float(np.mean(dir_errs)),
            float(np.median(np.concatenate(distances))))


def test_report_matches_per_pair_reference(eval_scene):
    # a motion that leaves cameras 2 and 7 unposed, and pairs given twice,
    # reversed and with an unposed camera
    scene, matches, pairs = eval_scene
    rng = np.random.default_rng(5)
    rot, cen = gt_estimate(scene)
    for c in (2, 7):
        del rot[c], cen[c]
    for c in rot:
        rot[c] = so3_exp(rng.normal(size=3) * 1e-3) @ rot[c]
        cen[c] = cen[c] + rng.normal(size=3) * 1e-2
    measured = pairs + [(j, i) for i, j in pairs[::3]]
    motion = global_motion(rot, cen)
    report = pose_error_report(motion, scene.rotation, scene.center, measured,
                               epipolar_median=epipolar_error(motion, scene.cameras, matches))
    assert report.num_registered == scene.num_cameras - 2
    assert (report.mean_position_error, report.median_position_error, report.mean_rel_rotation_error_deg,
            report.mean_rel_translation_error_deg, report.median_epipolar_error_px) == \
        _evaluation_reference(rot, cen, scene.rotation, scene.center, measured, scene.cameras, matches)


def test_epipolar_zero_on_ground_truth(eval_scene):
    scene, matches, pairs = eval_scene
    rot, cen = gt_estimate(scene)
    assert epipolar_error(global_motion(rot, cen), scene.cameras, matches) < 1e-9


def test_epipolar_noise_band():
    scene, matches = generate_synthetic_scene("orbit", 15, 300, pixel_sigma=0.5, seed=8)
    rot = {c: scene.rotation[c] for c in range(15)}
    cen = {c: scene.center[c] for c in range(15)}
    med = epipolar_error(global_motion(rot, cen), scene.cameras, matches)
    assert 0.3 <= med <= 0.6


def test_epipolar_increases_with_perturbation(eval_scene):
    scene, matches, pairs = eval_scene
    rot, cen = gt_estimate(scene)
    base = epipolar_error(global_motion(rot, cen), scene.cameras, matches)
    rot[2] = so3_exp(np.array([0.002, 0, 0])) @ rot[2]
    assert epipolar_error(global_motion(rot, cen), scene.cameras, matches) > base


def test_error_monotone_in_noise():
    meds = []
    for sigma in (0.0, 0.5, 1.0):
        vals = []
        for seed in range(3):
            scene, matches = generate_synthetic_scene("orbit", 10, 150, pixel_sigma=sigma, seed=30 + seed)
            rot = {c: scene.rotation[c] for c in range(10)}
            cen = {c: scene.center[c] for c in range(10)}
            vals.append(epipolar_error(global_motion(rot, cen), scene.cameras, matches))
        meds.append(np.median(vals))
    assert meds[0] <= meds[1] <= meds[2]


def test_connected_pair_count(small_run):
    class P:
        def __init__(self, cams, active=True):
            self.cameras = np.array(cams)
            self.active = active

    points = [P([0, 1, 2]), P([1, 2]), P([3, 4], active=False)]
    # pairs: (0,1), (0,2), (1,2) -- inactive point contributes nothing
    assert connected_pair_count(points) == 3
    assert connected_pair_count([]) == 0
    # brute force over every pair of cameras of every active point of a run
    points = load_global_points(small_run[0] / "final_points.npz", small_run[1].num_cameras)
    pairs = {(a, b) for p in points if p.active for a in p.cameras.tolist() for b in p.cameras.tolist() if a < b}
    assert 0 < connected_pair_count(points) == len(pairs)
