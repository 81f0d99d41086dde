import numpy as np
import pytest

from clustersfm.errors import ConfigurationError
from clustersfm.geometry import skew
from clustersfm.synthetic import generate_synthetic_scene
from conftest import project_point
from synthetic_reference import reference_scene


def true_correspondence_mask(scene, matches) -> np.ndarray:
    """True for the rows of the match table that link real observations of
    one point; injected outliers use feature indices past a camera's real
    features."""
    real = np.array([len(f) for f in scene.feature_points])
    cams = matches.row_cameras()
    ok = (matches.feat < real[cams]).all(axis=1)
    points = np.concatenate(scene.feature_points)[(np.cumsum(real) - real)[cams[ok]] + matches.feat[ok]]
    mask = np.zeros(len(ok), dtype=bool)
    mask[ok] = points[:, 0] == points[:, 1]
    return mask


def test_noise_free_correspondences_exact(loop_scene_noisefree):
    scene, matches = loop_scene_noisefree
    matches.check(scene.num_cameras)
    assert true_correspondence_mask(scene, matches).all()
    checked = 0
    for (i, _), a in zip(matches.edges.tolist(), matches.offsets[:-1].tolist()):
        for fi, xy in zip(matches.feat[a:a + 5, 0], matches.xy[a:a + 5, :2]):
            pid = scene.feature_points[i][fi]
            proj = project_point(scene.rotation[i], scene.center[i], scene.cameras.intrinsics[i], scene.points[pid])
            assert np.abs(proj - xy).max() < 1e-9
            checked += 1
    assert checked > 0


def test_seed_changes_noise_not_layout():
    s1, _ = generate_synthetic_scene("loop", 10, 100, pixel_sigma=0.7, seed=1)
    s2, _ = generate_synthetic_scene("loop", 10, 100, pixel_sigma=0.7, seed=2)
    assert np.array_equal(s1.rotation, s2.rotation) and np.array_equal(s1.center, s2.center)
    assert s1.rotation.shape == (10, 3, 3) and s1.center.shape == (10, 3)
    # noise realizations differ
    assert not np.array_equal(np.vstack(s1.feature_xy), np.vstack(s2.feature_xy))


def test_same_seed_is_deterministic():
    s1, m1 = generate_synthetic_scene("orbit", 8, 120, pixel_sigma=0.5, outlier_fraction=0.1, seed=9)
    s2, m2 = generate_synthetic_scene("orbit", 8, 120, pixel_sigma=0.5, outlier_fraction=0.1, seed=9)
    for name in ("edges", "offsets", "feat", "xy"):
        assert np.array_equal(getattr(m1, name), getattr(m2, name))


def test_noise_sigma_calibration():
    scene, matches = generate_synthetic_scene("orbit", 50, 400, pixel_sigma=0.5, seed=13)
    residuals = []
    for cam_id in range(scene.num_cameras):
        pids = scene.feature_points[cam_id]
        for f, pid in enumerate(pids):
            exact = project_point(scene.rotation[cam_id], scene.center[cam_id], scene.cameras.intrinsics[cam_id],
                                  scene.points[pid])
            residuals.extend((scene.feature_xy[cam_id][f] - exact).tolist())
    std = np.std(residuals)
    assert 0.45 <= std <= 0.55


def test_noise_free_matches_are_epipolar_inliers(loop_scene_noisefree):
    scene, matches = loop_scene_noisefree
    K = scene.cameras.K()
    for (i, j), a, b in zip(matches.edges.tolist(), matches.offsets[:-1], matches.offsets[1:]):
        Ri, ci = scene.rotation[i], scene.center[i]
        Rj, cj = scene.rotation[j], scene.center[j]
        R_rel = Rj @ Ri.T
        t_rel = Rj @ (ci - cj)
        E = skew(t_rel) @ R_rel
        F = np.linalg.inv(K[j]).T @ E @ np.linalg.inv(K[i])
        xi = np.column_stack([matches.xy[a:b, :2], np.ones(b - a)])
        xj = np.column_stack([matches.xy[a:b, 2:], np.ones(b - a)])
        lines = xi @ F.T
        dist = np.abs(np.sum(xj * lines, axis=1)) / np.hypot(lines[:, 0], lines[:, 1])
        assert dist.max() < 1e-6


def test_outlier_fraction_replaces_correspondences():
    scene, matches = generate_synthetic_scene(
        "orbit", 10, 200, pixel_sigma=0.0, outlier_fraction=0.2, seed=5
    )
    true = np.add.reduceat(true_correspondence_mask(scene, matches), matches.offsets[:-1])
    fractions = (1.0 - true / matches.weights)[matches.weights >= 20]
    assert len(fractions)
    assert abs(np.mean(fractions) - 0.2) < 0.03


def test_layout_validation():
    with pytest.raises(ConfigurationError):
        generate_synthetic_scene("grid", 3, 100)
    with pytest.raises(ConfigurationError):
        generate_synthetic_scene("nope", 10, 100)
    with pytest.raises(ConfigurationError, match="outlier_fraction must be in"):
        generate_synthetic_scene("loop", 10, 100, outlier_fraction=1.0)
    for sigma in (-0.5, float("nan"), float("inf")):  # nan skipped the noise
        with pytest.raises(ConfigurationError, match="pixel_sigma must be >= 0 and finite"):
            generate_synthetic_scene("loop", 10, 100, pixel_sigma=sigma)
    # two cameras that face outward share no point, so every rejection round fails
    with pytest.raises(ConfigurationError, match="layout 'loop' with 2 cameras cannot host 10 points"):
        generate_synthetic_scene("loop", 2, 10)


@pytest.mark.parametrize("layout,n", [("grid", 9), ("cityBlocks", 24), ("orbit", 6), ("loop", 16)])
def test_all_layouts_generate(layout, n):
    scene, matches = generate_synthetic_scene(layout, n, 200, pixel_sigma=0.0, seed=2)
    assert scene.num_cameras == n
    assert len(matches) > 0
    matches.check(n)
    # every point visible in >= 2 cameras
    assert min(len(v) for v in scene.visibility) >= 2


@pytest.mark.parametrize("layout,n,points", [("grid", 9, 200), ("cityBlocks", 24, 200), ("orbit", 6, 200),
                                             ("loop", 16, 200), ("loop", 12, 300)])  # the last takes 5 rounds
@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("pixel_sigma,outlier_fraction", [(0.0, 0.0), (0.5, 0.0), (0.0, 0.1), (0.5, 0.1)])
def test_scene_equals_the_reference_generator(layout, n, points, seed, pixel_sigma, outlier_fraction):
    """The array-built scene and match table equal, array for array, the
    ones built one point and one pair at a time from the same draws."""
    args = (layout, n, points, pixel_sigma, outlier_fraction, seed)
    (scene, matches), (ref_scene, ref_matches) = generate_synthetic_scene(*args), reference_scene(*args)

    def equal(a, b):
        return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)

    for name in ("edges", "offsets", "feat", "xy"):
        assert equal(getattr(matches, name), getattr(ref_matches, name)), name
    for name in ("rotation", "center", "points"):
        assert equal(getattr(scene, name), getattr(ref_scene, name)), name
    assert equal(scene.cameras.intrinsics, ref_scene.cameras.intrinsics)
    assert equal(scene.cameras.size, ref_scene.cameras.size)
    for name in ("visibility", "feature_points", "feature_xy"):
        arrays, ref_arrays = getattr(scene, name), getattr(ref_scene, name)
        assert isinstance(arrays, list) and len(arrays) == len(ref_arrays), name
        assert all(equal(a, b) for a, b in zip(arrays, ref_arrays)), name
