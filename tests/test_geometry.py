import numpy as np
import pytest

from clustersfm.geometry import (
    angle_between,
    decompose_essential,
    eight_point_essential,
    projection_matrix,
    ransac,
    resect_linear,
    rotation_angle,
    sampson_distance,
    skew,
    so3_exp,
    so3_log,
    triangulate_linear,
    triangulation_status,
)
from conftest import random_rotation


def project_to_so3(M):
    """Nearest rotation matrix in Frobenius norm."""
    U, _, Vt = np.linalg.svd(M)
    R = U @ Vt
    if np.linalg.det(R) < 0:
        R = U @ np.diag([1.0, 1.0, -1.0]) @ Vt
    return R


def test_so3_exp_log_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(200):
        w = rng.normal(size=3)
        w = w / np.linalg.norm(w) * rng.uniform(1e-8, np.pi - 1e-6)
        R = so3_exp(w)
        assert np.allclose(so3_log(R), w, atol=1e-8)


def test_so3_log_near_pi():
    rng = np.random.default_rng(1)
    for _ in range(50):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        w = axis * (np.pi - 1e-9)
        R = so3_exp(w)
        w_back = so3_log(R)
        assert abs(np.linalg.norm(w_back) - (np.pi - 1e-9)) < 1e-6
        # same rotation regardless of axis sign convention
        assert np.allclose(so3_exp(w_back), R, atol=1e-6)


def test_rotation_angle_and_projection():
    rng = np.random.default_rng(2)
    R = random_rotation(rng)
    assert abs(rotation_angle(R @ R.T)) < 1e-12
    noisy = R + rng.normal(scale=1e-3, size=(3, 3))
    fixed = project_to_so3(noisy)
    assert np.abs(fixed.T @ fixed - np.eye(3)).max() < 1e-12
    assert np.linalg.det(fixed) > 0


def _skew_reference(v):
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def _so3_exp_reference(w):
    """One-vector Rodrigues map, the arithmetic every stacked row must get."""
    theta = np.linalg.norm(w)
    if theta < 1e-12:
        W = _skew_reference(w)
        return np.eye(3) + W + 0.5 * W @ W
    W = _skew_reference(w / theta)
    return np.eye(3) + np.sin(theta) * W + (1.0 - np.cos(theta)) * (W @ W)


def _so3_log_reference(R):
    """One-matrix logarithm with its three branches: small, near pi, generic."""
    cos_theta = np.clip((np.trace(R) - 1.0) * 0.5, -1.0, 1.0)
    theta = np.arccos(cos_theta)
    w = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    if theta < 1e-10:
        return w * 0.5
    if np.pi - theta < 1e-6:
        S = (R + R.T) * 0.5
        aaT = (S - cos_theta * np.eye(3)) / max(1.0 - cos_theta, 1e-12)
        k = int(np.argmax(np.diag(aaT)))
        axis = aaT[:, k] / np.sqrt(max(aaT[k, k], 1e-15))
        axis = axis / max(np.linalg.norm(axis), 1e-12)
        if np.dot(w, axis) < 0.0:
            axis = -axis
        return axis * theta
    return w * theta / (2.0 * np.sin(theta))


def _so3_vectors(rng):
    """Axis-angle vectors over every branch: random, tiny, zero, the band
    below pi, and exactly pi."""
    axes = rng.normal(size=(400, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    angles = np.concatenate([
        rng.uniform(0.0, np.pi, 100),
        rng.uniform(0.0, 1e-12, 50),
        10.0 ** rng.uniform(-20, -10, 50),
        np.zeros(50),
        np.pi - rng.uniform(0.0, 1e-6, 100),
        np.full(50, np.pi),
    ])
    return axes * angles[:, None]


def test_stacked_so3_maps_match_one_matrix_reference_exactly():
    rng = np.random.default_rng(30)
    w = _so3_vectors(rng)
    R = so3_exp(w)
    assert R.shape == (len(w), 3, 3)
    assert np.array_equal(R, np.array([_so3_exp_reference(v) for v in w]))
    # rotations from the map, exact half-turns, and matrices off SO(3)
    # whose trace leaves [-1, 3] and is clipped
    half_turns = np.array([np.diag(d) for d in ([1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0])])
    noisy = R[:100] + rng.normal(scale=1e-3, size=(100, 3, 3))
    mats = np.concatenate([R, half_turns, noisy, np.eye(3)[None]])
    logs = so3_log(mats)
    assert logs.shape == (len(mats), 3)
    assert np.array_equal(logs, np.array([_so3_log_reference(M) for M in mats]))
    angles = rotation_angle(mats)
    assert angles.shape == (len(mats),)
    assert np.array_equal(angles, [np.arccos(np.clip((np.trace(M) - 1.0) * 0.5, -1.0, 1.0)) for M in mats])
    # every branch was exercised, with both axis signs near pi
    theta = np.linalg.norm(logs, axis=1)
    assert (theta < 1e-10).sum() > 100 and (np.pi - theta < 1e-6).sum() > 100
    # (the near-pi axis is flipped onto the antisymmetric part when its
    # largest component comes out negative)
    near_pi = logs[np.pi - theta < 1e-6]
    largest = near_pi[np.arange(len(near_pi)), np.argmax(np.abs(near_pi), axis=1)]
    assert (largest < 0).any() and (largest > 0).any()


def test_so3_maps_keep_the_one_matrix_shapes():
    rng = np.random.default_rng(31)
    w = _so3_vectors(rng)
    for v in w[::7]:
        R = so3_exp(v)
        assert R.shape == (3, 3) and np.array_equal(R, _so3_exp_reference(v))
        assert so3_log(R).shape == (3,) and np.array_equal(so3_log(R), _so3_log_reference(R))
        assert type(rotation_angle(R)) is float
    assert so3_exp(np.zeros((0, 3))).shape == (0, 3, 3)
    assert so3_log(np.zeros((0, 3, 3))).shape == (0, 3)
    assert rotation_angle(np.zeros((0, 3, 3))).shape == (0,)
    assert so3_exp(w.reshape(8, 50, 3)).shape == (8, 50, 3, 3)
    assert np.array_equal(skew(w), np.array([_skew_reference(v) for v in w]))


def two_view_setup(rng, n=60, outliers=0):
    R = so3_exp(np.array([0.05, -0.3, 0.1]))
    t = np.array([1.0, 0.2, -0.1])
    t /= np.linalg.norm(t)
    X = rng.normal(size=(n, 3)) * 1.5 + np.array([0, 0, 6.0])
    x1 = X[:, :2] / X[:, 2:3]
    Xc = X @ R.T + t
    x2 = Xc[:, :2] / Xc[:, 2:3]
    if outliers:
        idx = rng.choice(n, outliers, replace=False)
        x2[idx] += rng.uniform(0.05, 0.4, size=(outliers, 2))
    return R, t, x1, x2


def test_eight_point_exact_recovery():
    rng = np.random.default_rng(3)
    R, t, x1, x2 = two_view_setup(rng)
    E = eight_point_essential(x1, x2)
    E_true = skew(t) @ R
    E_true /= np.linalg.norm(E_true)
    E_n = E / np.linalg.norm(E)
    if np.sum(E_n * E_true) < 0:
        E_n = -E_n
    assert np.abs(E_n - E_true).max() < 1e-9


def test_decompose_essential_cheirality():
    rng = np.random.default_rng(4)
    R, t, x1, x2 = two_view_setup(rng)
    E = eight_point_essential(x1, x2)
    R_est, t_est = decompose_essential(E, x1, x2)
    assert rotation_angle(R_est @ R.T) < 1e-8
    assert angle_between(t_est, t) < 1e-8


def test_sampson_distance_zero_for_inliers():
    rng = np.random.default_rng(5)
    R, t, x1, x2 = two_view_setup(rng)
    F = skew(t) @ R  # identity intrinsics: F == E
    d = sampson_distance(F, x1, x2)
    assert d.max() < 1e-12


def test_triangulate_two_identity_cameras():
    # cameras at (+-0.5, 0, 0) looking down +z, identity intrinsics
    P1 = np.hstack([np.eye(3), np.array([[0.5], [0.0], [0.0]])])
    P2 = np.hstack([np.eye(3), np.array([[-0.5], [0.0], [0.0]])])
    X = np.array([0.0, 0.0, 2.0])
    x1 = (P1 @ np.append(X, 1))[:2] / (P1 @ np.append(X, 1))[2]
    x2 = (P2 @ np.append(X, 1))[:2] / (P2 @ np.append(X, 1))[2]
    rec, finite = triangulate_linear(np.stack([P1, P2]), np.vstack([x1, x2])[None])
    assert finite.tolist() == [True]
    assert np.abs(rec[0] - X).max() < 1e-9


def test_resect_linear_exact():
    rng = np.random.default_rng(6)
    R = random_rotation(rng)
    t = rng.normal(size=3)
    X = rng.normal(size=(30, 3)) * 2
    Xc = X @ R.T + t
    keep = Xc[:, 2] > 0.5
    X, Xc = X[keep], Xc[keep]
    if len(X) < 6:
        pytest.skip("degenerate draw")
    rays = Xc[:, :2] / Xc[:, 2:3]
    R_est, t_est = resect_linear(X, rays)
    assert rotation_angle(R_est @ R.T) < 1e-8
    assert np.abs(t_est - t).max() < 1e-8


def _line_fit(x, y):
    """fit and residual functions of a least-squares line y = a x + b."""

    def fit(idx):
        A = np.column_stack([x[idx], np.ones(len(idx))])
        coef, *_ = np.linalg.lstsq(A, y[idx], rcond=None)
        return coef

    def residual(coef):
        return np.abs(coef[0] * x + coef[1] - y)

    return fit, residual


def test_ransac_finds_inliers(caplog):
    rng = np.random.default_rng(7)
    # robust line fit y = a x + b with 30% outliers
    n = 100
    x = rng.uniform(-1, 1, n)
    y = 2.0 * x + 1.0 + rng.normal(0, 0.01, n)
    out = rng.choice(n, 30, replace=False)
    y[out] += rng.uniform(1, 5, 30)

    with caplog.at_level("WARNING", logger="clustersfm.geometry"):
        model, mask = ransac(n, 2, *_line_fit(x, y), 0.05, rng)
    assert mask.sum() >= 68
    assert abs(model[0] - 2.0) < 0.05 and abs(model[1] - 1.0) < 0.05
    assert not caplog.records  # the adaptive count stops it well before its cap


def test_ransac_cap_warning(caplog):
    # pure outliers: no line holds more than a few points, so the adaptive
    # count asks for far more than 50 hypotheses
    rng = np.random.default_rng(9)
    x, y = rng.uniform(-1, 1, (2, 200))
    with caplog.at_level("WARNING", logger="clustersfm.geometry"):
        model, mask = ransac(200, 2, *_line_fit(x, y), 0.001, rng, max_iterations=50)
    assert model is not None and mask.sum() < 10
    assert [r.getMessage() for r in caplog.records] == [
        f"RANSAC stopped at its cap of 50 hypotheses with {mask.sum()} of 200 data as inliers"]


def test_ransac_refits_on_the_final_inliers():
    """The last fit is one on the best consensus; its threshold inliers,
    three more than it was fit on here, are what RANSAC returns."""
    rng = np.random.default_rng(15)
    n = 40
    x = rng.uniform(-1, 1, n)
    y = 2.0 * x + 1.0 + rng.normal(0, 0.05, n)
    out = rng.choice(n, 10, replace=False)
    y[out] += rng.uniform(0.5, 3, 10)
    fit, residual = _line_fit(x, y)
    fitted = []

    def recorded_fit(idx):
        fitted.append(np.asarray(idx))
        return fit(idx)

    model, mask = ransac(n, 2, recorded_fit, residual, 0.05, np.random.default_rng(1015))
    assert np.array_equal(model, fit(fitted[-1]))
    assert np.array_equal(mask, residual(model) < 0.05)
    assert mask.sum() == len(fitted[-1]) + 3


def test_ransac_insufficient_data():
    rng = np.random.default_rng(8)
    model, mask = ransac(3, 8, lambda idx: None, lambda m: np.zeros(3), 1.0, rng)
    assert model is None and mask is None


def _dlt_reference(Ps, xs):
    """Per-point DLT, one 2k x 4 system per point; None at infinity."""
    A = np.empty((2 * len(Ps), 4))
    for v, (P, x) in enumerate(zip(Ps, xs)):
        A[2 * v] = x[0] * P[2] - P[0]
        A[2 * v + 1] = x[1] * P[2] - P[1]
    X = np.linalg.svd(A)[2][-1]
    return None if abs(X[3]) < 1e-15 else X[:3] / X[3]


def _status_reference(Ps, xs, X, max_px):
    """Per-view gate: the first view behind the camera or beyond max_px of
    its observation names the failure."""
    if X is None:
        return "cheirality"
    for P, x in zip(Ps, xs):
        uvw = P @ np.append(X, 1.0)
        if uvw[2] <= 1e-12:
            return "cheirality"
        if np.hypot(uvw[0] / uvw[2] - x[0], uvw[1] / uvw[2] - x[1]) > max_px:
            return "reprojection"
    return "active"


def test_stacked_projection_matrix_matches_per_camera_formula_exactly():
    rng = np.random.default_rng(13)
    n = 2000
    R = so3_exp(rng.normal(size=(n, 3)))
    c = rng.normal(size=(n, 3)) * 10
    K = np.zeros((n, 3, 3))
    K[:, 0, 0] = K[:, 1, 1] = rng.uniform(100.0, 2000.0, n)
    K[:, :2, 2] = rng.uniform(0.0, 1000.0, (n, 2))
    K[:, 2, 2] = 1.0
    # the one-camera formula of K [R | -Rc]
    reference = np.array([K_i @ np.hstack([R_i, (-R_i @ c_i).reshape(3, 1)]) for K_i, R_i, c_i in zip(K, R, c)])
    assert np.array_equal(projection_matrix(K, R, c), reference)
    assert np.array_equal(projection_matrix(K[5], R[5], c[5]), reference[5])  # one camera keeps its (3, 4) shape
    assert projection_matrix(K[:0], R[:0], c[:0]).shape == (0, 3, 4)


def test_triangulate_linear_matches_per_point_dlt():
    rng = np.random.default_rng(8)
    K = np.array([[800.0, 0.0, 640.0], [0.0, 800.0, 480.0], [0.0, 0.0, 1.0]])
    n, k = 20, 4
    Ps = np.empty((n, k, 3, 4))
    xs = np.empty((n, k, 2))
    X = rng.normal(size=(n, 3)) + np.array([0.0, 0.0, 10.0])
    for i in range(n):
        for v in range(k):
            R = so3_exp(rng.normal(size=3) * 0.05)
            Ps[i, v] = K @ np.hstack([R, (-R @ rng.normal(size=3)).reshape(3, 1)])
            uvw = Ps[i, v] @ np.append(X[i], 1.0)
            xs[i, v] = uvw[:2] / uvw[2] + rng.normal(size=2) * 0.5
    out, finite = triangulate_linear(Ps, xs)
    assert finite.all()
    for i in range(n):
        assert np.array_equal(out[i], _dlt_reference(Ps[i], xs[i]))
    # shared cameras broadcast over the points
    shared, _ = triangulate_linear(Ps[0], xs)
    assert np.allclose(shared[0], out[0], atol=1e-12)


def test_triangulate_linear_flags_points_at_infinity():
    # parallel rays of two translated identity cameras meet at infinity
    P1 = np.hstack([np.eye(3), np.zeros((3, 1))])
    P2 = np.hstack([np.eye(3), np.array([[-1.0], [0.0], [0.0]])])
    xs = np.array([[[0.2, 0.1], [0.2, 0.1]], [[0.0, 0.0], [-0.5, 0.0]]])
    X, finite = triangulate_linear(np.stack([P1, P2]), xs)
    assert finite.tolist() == [False, True]
    assert np.allclose(X[1], [0.0, 0.0, 2.0])
    assert triangulation_status(np.stack([P1, P2]), xs, X, finite).tolist() == ["cheirality", "active"]


def test_triangulation_status_matches_per_point_reference():
    rng = np.random.default_rng(21)
    K = np.array([[800.0, 0.0, 640.0], [0.0, 800.0, 480.0], [0.0, 0.0, 1.0]])
    flip = np.diag([1.0, -1.0, -1.0])  # looks down -z
    seen = set()
    for k in range(2, 6):
        n = 60
        Ps = np.empty((n, k, 3, 4))
        xs = np.empty((n, k, 2))
        for i in range(n):
            X = rng.normal(size=3) + np.array([0.0, 0.0, 10.0])
            for v in range(k):
                R = so3_exp(rng.normal(size=3) * 0.05)
                c = np.array([2.0 * v - k, 0.3 * v, 0.0])
                if i % 5 == 1 and v == i % k:
                    R = flip @ R  # the point is behind this view
                Ps[i, v] = K @ np.hstack([R, (-R @ c).reshape(3, 1)])
                uvw = Ps[i, v] @ np.append(X, 1.0)
                xs[i, v] = uvw[:2] / uvw[2] + rng.normal(size=2) * 0.5
            if i % 5 == 2:
                xs[i, i % k] += rng.choice([-1.0, 1.0], size=2) * rng.uniform(5.0, 40.0)  # > 4 px
            if i % 5 == 3:
                # translated copies of one camera see the same pixel: the
                # parallel rays meet at infinity
                Ps[i] = [K @ np.hstack([np.eye(3), [[-v], [0.0], [0.0]]]) for v in range(k)]
                xs[i] = [700.0, 500.0]
        X, finite = triangulate_linear(Ps, xs)
        assert not finite[3::5].any() and finite[0::5].all()
        status = triangulation_status(Ps, xs, X, finite)
        for i in range(n):
            ref = _status_reference(Ps[i], xs[i], _dlt_reference(Ps[i], xs[i]), 4.0)
            assert status[i] == ref, (k, i)
            seen.add(ref)
    assert seen == {"active", "cheirality", "reprojection"}


def test_triangulation_status_first_failing_view_decides():
    front = np.hstack([np.eye(3), [[0.0], [0.0], [5.0]]])  # depth z + 5
    back = np.hstack([np.diag([1.0, 1.0, -1.0]), [[0.0], [0.0], [5.0]]])  # depth 5 - z
    Ps = np.array([[front, back], [back, front], [front, front], [front, front]])
    X = np.array([[0.0, 0.0, 6.0], [0.0, 0.0, 6.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    far, near = [9.0, 0.0], [0.0, 0.0]
    xs = np.array([[far, near], [near, far], [near, near], [near, near]])
    finite = np.array([True, True, True, False])
    status = triangulation_status(Ps, xs, X, finite)
    assert status.tolist() == ["reprojection", "cheirality", "active", "cheirality"]
