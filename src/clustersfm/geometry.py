"""Multi-view geometry primitives: SO(3) maps, essential matrix estimation,
linear triangulation and its acceptance gate, camera resection, and a generic
RANSAC loop."""

import logging

import numpy as np

from .errors import DataError

logger = logging.getLogger(__name__)

# depth at or below which a point counts as behind a camera, in the
# triangulation gate and in the bundle adjustment residuals
MIN_DEPTH = 1e-12
# the pipeline's one reprojection gate: a triangulated point is kept, and
# an observation stays an inlier, only within this many pixels
MAX_REPROJECTION_PX = 4.0
RANSAC_CONFIDENCE = 0.9999
ROTATION_TOL = 1e-9  # of a pose read from a file: |R^T R - I| and |det R - 1|


# ---------------------------------------------------------------------------
# SO(3)
# ---------------------------------------------------------------------------

def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrices [v]x of vectors (..., 3) -> (..., 3, 3)."""
    v = np.asarray(v, dtype=float)
    W = np.zeros(v.shape[:-1] + (3, 3))
    W[..., 0, 1], W[..., 0, 2] = -v[..., 2], v[..., 1]
    W[..., 1, 0], W[..., 1, 2] = v[..., 2], -v[..., 0]
    W[..., 2, 0], W[..., 2, 1] = -v[..., 1], v[..., 0]
    return W


def _cos_angle(R: np.ndarray) -> np.ndarray:
    """Cosines of the rotation angles of R (..., 3, 3), clipped to [-1, 1]."""
    return np.asarray(np.clip((np.trace(R, axis1=-2, axis2=-1) - 1.0) * 0.5, -1.0, 1.0))


# The SO(3) maps take stacks, (..., 3) vectors or (..., 3, 3) matrices, and
# give every row the arithmetic of a one-matrix call: each branch runs on its
# own rows, and norms and dot products of 3-vectors use np.vecdot, which
# rounds as np.linalg.norm and np.dot do on one vector (BLAS ddot);
# np.linalg.norm(axis=-1) differs in the last bit on about 1 row in 10.

def so3_exp(w: np.ndarray) -> np.ndarray:
    """Rodrigues exponential map, axis-angle vectors (..., 3) -> rotation
    matrices (..., 3, 3)."""
    w = np.asarray(w, dtype=float)
    theta = np.sqrt(np.vecdot(w, w))
    R = np.empty(w.shape + (3,))
    small = theta < 1e-12
    W = skew(w[small])
    R[small] = np.eye(3) + W + 0.5 * W @ W
    t = theta[~small][:, None]
    W = skew(w[~small] / t)
    t = t[..., None]
    R[~small] = np.eye(3) + np.sin(t) * W + (1.0 - np.cos(t)) * (W @ W)
    return R


def so3_log(R: np.ndarray) -> np.ndarray:
    """Logarithm map, rotation matrices (..., 3, 3) -> axis-angle vectors
    (..., 3) with norms in [0, pi]."""
    cos_theta = _cos_angle(R)
    theta = np.arccos(cos_theta)
    v = np.stack([R[..., 2, 1] - R[..., 1, 2], R[..., 0, 2] - R[..., 2, 0], R[..., 1, 0] - R[..., 0, 1]], axis=-1)
    w = np.empty(v.shape)
    small = theta < 1e-10
    w[small] = v[small] * 0.5
    near_pi = ~small & (np.pi - theta < 1e-6)
    generic = ~small & ~near_pi
    t = theta[generic][:, None]
    w[generic] = v[generic] * t / (2.0 * np.sin(t))
    if near_pi.any():
        # near pi the antisymmetric part vanishes; recover the axis from
        # the symmetric part S = cos(theta) I + (1 - cos(theta)) a a^T
        Rp, c = R[near_pi], cos_theta[near_pi][:, None, None]
        S = (Rp + Rp.swapaxes(-1, -2)) * 0.5
        aaT = (S - c * np.eye(3)) / np.maximum(1.0 - c, 1e-12)
        diag = np.diagonal(aaT, axis1=-2, axis2=-1)
        rows = np.arange(len(aaT))
        k = np.argmax(diag, axis=-1)
        axis = aaT[rows, :, k] / np.sqrt(np.maximum(diag[rows, k], 1e-15))[:, None]
        axis = axis / np.maximum(np.sqrt(np.vecdot(axis, axis)), 1e-12)[:, None]
        axis = np.where(np.vecdot(v[near_pi], axis)[:, None] < 0.0, -axis, axis)
        w[near_pi] = axis * theta[near_pi][:, None]
    return w


def rotation_angle(R: np.ndarray) -> float | np.ndarray:
    """Rotation angles in radians of matrices (..., 3, 3); a float for one
    matrix."""
    theta = np.arccos(_cos_angle(R))
    return float(theta) if theta.ndim == 0 else theta


def check_poses(R: np.ndarray, v: np.ndarray, name, v_name: str) -> None:
    """Raise a DataError naming name(k), the first pose whose R[k] or v[k]
    (its center or translation, v_name) is not finite, else the first whose
    |R^T R - I| or |det R - 1| reaches ROTATION_TOL."""
    bad = ~(np.isfinite(R).all(axis=(1, 2)) & np.isfinite(v).all(axis=1))
    if bad.any():
        raise DataError(f"{name(int(np.argmax(bad)))}: R or {v_name} is not finite")
    err = np.abs(R.transpose(0, 2, 1) @ R - np.eye(3)).max(axis=(1, 2))
    det = np.linalg.det(R)
    bad = ~((err < ROTATION_TOL) & (np.abs(det - 1.0) < ROTATION_TOL))
    if bad.any():
        k = int(np.argmax(bad))
        raise DataError(f"{name(k)}: R is not a rotation (|R^T R - I| = {err[k]:.2e}, det {det[k]:.6g})")


def angle_between(u: np.ndarray, v: np.ndarray) -> float:
    """Angle between two vectors in radians."""
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu < 1e-15 or nv < 1e-15:
        return 0.0
    return float(np.arccos(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0)))


# ---------------------------------------------------------------------------
# RANSAC
# ---------------------------------------------------------------------------

def ransac(
    num_data: int,
    min_samples: int,
    fit_fn,
    residual_fn,
    threshold: float,
    rng: np.random.Generator,
    max_iterations: int = 10000,
    sample_size: int | None = None,
):
    """Generic LO-RANSAC. fit_fn(indices) returns a model or None;
    residual_fn returns per-datum residuals.

    sample_size may exceed min_samples: non-minimal least-squares samples
    average out measurement noise, which matters for near-degenerate fits.
    When a sample improves the consensus, the model is re-fit on its inliers
    with an annealed threshold (4x -> 2x -> 1x), the classic local
    optimization step. A loop that reaches max_iterations before the
    adaptive hypothesis count logs a warning. Last, the best model is re-fit
    once on all its inliers, and the refit is kept when it holds at least as
    many. Returns (model, inlier_mask) or (None, None).
    """
    sample_size = sample_size or min_samples
    if num_data < sample_size:
        sample_size = min_samples
    if num_data < min_samples:
        return None, None

    def optimized(model, mask):
        current = model
        for factor in (4.0, 2.0, 1.0):
            inliers = residual_fn(current) < factor * threshold
            if inliers.sum() >= min_samples:
                refit = fit_fn(np.flatnonzero(inliers))
                if refit is not None:
                    current = refit
        new_mask = residual_fn(current) < threshold
        if new_mask.sum() > mask.sum():
            return current, new_mask
        return model, mask

    best_model, best_mask, best_count = None, None, -1
    iteration, needed = 0, np.inf  # hypotheses the adaptive count asks for
    while iteration < min(needed, max_iterations):
        sample = rng.choice(num_data, size=sample_size, replace=False)
        model = fit_fn(sample)
        iteration += 1
        if model is None:
            continue
        mask = residual_fn(model) < threshold
        count = int(mask.sum())
        if count > best_count and count >= min_samples:
            model, mask = optimized(model, mask)
            count = int(mask.sum())
        if count > best_count:
            best_model, best_mask, best_count = model, mask, count
            # an all-inlier consensus asks for one hypothesis, which ends the loop
            ratio = max(count / num_data, 1e-9)
            denom = np.log(max(1.0 - ratio**min_samples, 1e-15))
            needed = np.inf if denom >= -1e-15 else int(np.ceil(np.log(max(1.0 - RANSAC_CONFIDENCE, 1e-15)) / denom))
    refit = None if best_model is None else fit_fn(np.flatnonzero(best_mask))
    if refit is not None:
        refit_mask = residual_fn(refit) < threshold
        if refit_mask.sum() >= best_count:
            best_model, best_mask, best_count = refit, refit_mask, int(refit_mask.sum())
    if needed > max_iterations:
        logger.warning("RANSAC stopped at its cap of %d hypotheses with %d of %d data as inliers",
                       max_iterations, max(best_count, 0), num_data)
    return best_model, best_mask


# ---------------------------------------------------------------------------
# Essential matrix (two-view relative pose)
# ---------------------------------------------------------------------------

def _normalize_2d(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hartley normalization: zero centroid, mean distance sqrt(2)."""
    centroid = x.mean(axis=0)
    d = np.linalg.norm(x - centroid, axis=1).mean()
    s = np.sqrt(2.0) / max(d, 1e-12)
    T = np.array([[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]])
    xn = (x - centroid) * s
    return xn, T


def eight_point_essential(rays_i: np.ndarray, rays_j: np.ndarray) -> np.ndarray | None:
    """Essential matrix from >= 8 calibrated correspondences.

    rays are inhomogeneous normalized image coordinates (x/z, y/z); the
    returned E satisfies ray_j^T E ray_i = 0 (homogeneous rays).
    """
    n = len(rays_i)
    if n < 8:
        return None
    xi, Ti = _normalize_2d(rays_i)
    xj, Tj = _normalize_2d(rays_j)
    A = np.empty((n, 9))
    A[:, 0] = xj[:, 0] * xi[:, 0]
    A[:, 1] = xj[:, 0] * xi[:, 1]
    A[:, 2] = xj[:, 0]
    A[:, 3] = xj[:, 1] * xi[:, 0]
    A[:, 4] = xj[:, 1] * xi[:, 1]
    A[:, 5] = xj[:, 1]
    A[:, 6] = xi[:, 0]
    A[:, 7] = xi[:, 1]
    A[:, 8] = 1.0
    try:
        _, _, Vt = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError:
        return None
    F = Vt[-1].reshape(3, 3)
    F = Tj.T @ F @ Ti
    # project onto the essential manifold: two equal singular values, one zero
    U, S, Vt = np.linalg.svd(F)
    s = (S[0] + S[1]) * 0.5
    return U @ np.diag([s, s, 0.0]) @ Vt


def sampson_distance(F: np.ndarray, x_i: np.ndarray, x_j: np.ndarray) -> np.ndarray:
    """First-order epipolar distance of pixel correspondences under F."""
    xi = np.column_stack([x_i, np.ones(len(x_i))])
    xj = np.column_stack([x_j, np.ones(len(x_j))])
    Fxi = xi @ F.T  # rows: F @ xi
    Ftxj = xj @ F  # rows: F^T @ xj
    num = np.sum(xj * Fxi, axis=1) ** 2
    den = Fxi[:, 0] ** 2 + Fxi[:, 1] ** 2 + Ftxj[:, 0] ** 2 + Ftxj[:, 1] ** 2
    return np.sqrt(num / np.maximum(den, 1e-15))


def decompose_essential(
    E: np.ndarray, rays_i: np.ndarray, rays_j: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Pick the cheirality-positive (R, t) with x_j ~ R x_i + t, |t| = 1."""
    U, _, Vt = np.linalg.svd(E)
    if np.linalg.det(U) < 0:
        U = -U
    if np.linalg.det(Vt) < 0:
        Vt = -Vt
    W = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    t = U[:, 2]
    best, best_count = None, -1
    for R in (U @ W @ Vt, U @ W.T @ Vt):
        for tc in (t, -t):
            P1 = np.hstack([np.eye(3), np.zeros((3, 1))])
            P2 = np.hstack([R, tc.reshape(3, 1)])
            X, _ = triangulate_linear(np.stack([P1, P2]), np.stack([rays_i, rays_j], axis=1))
            z1 = X[:, 2]
            z2 = (X @ R.T + tc)[:, 2]
            count = int(((z1 > 0) & (z2 > 0)).sum())
            if count > best_count:
                best, best_count = (R, tc.copy()), count
    if best is None or best_count <= 0:
        return None
    return best


# ---------------------------------------------------------------------------
# Triangulation
# ---------------------------------------------------------------------------

def projection_matrix(K: np.ndarray, R: np.ndarray, c: np.ndarray) -> np.ndarray:
    """3x4 camera matrices K [R | -Rc] of world-to-camera rotations R and
    camera centers c: K and R (..., 3, 3), c (..., 3) -> (..., 3, 4)."""
    return K @ np.concatenate([R, -R @ c[..., None]], axis=-1)


def triangulate_linear(Ps: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """DLT triangulation of n points, each seen in the same number k >= 2
    of views (Hartley & Sturm's homogeneous method).

    Ps are the 3x4 cameras, (k, 3, 4) shared by every point or (n, k, 3, 4)
    per point; xs (n, k, 2) are inhomogeneous 2D coordinates in the frame
    the Ps expect. Returns the (n, 3) points and an (n,) mask that is False
    for a point at infinity (its homogeneous scale is clamped to 1e-15).
    """
    n, k = xs.shape[:2]
    A = np.empty((n, 2 * k, 4))
    A[:, 0::2] = xs[:, :, 0, None] * Ps[..., 2, :] - Ps[..., 0, :]
    A[:, 1::2] = xs[:, :, 1, None] * Ps[..., 2, :] - Ps[..., 1, :]
    _, _, Vt = np.linalg.svd(A)
    X = Vt[:, -1, :]
    w = X[:, 3]
    finite = np.abs(w) >= 1e-15
    w = np.where(finite, w, 1e-15)
    return X[:, :3] / w[:, None], finite


def reprojection_offsets(Ps: np.ndarray, xs: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project each of n points through its k views: Ps (k, 3, 4) or
    (n, k, 3, 4), xs (n, k, 2), X (n, 3).

    Returns the (n, k, 2) offsets of the projections from xs and an (n, k)
    mask of the views the point lies behind (depth <= MIN_DEPTH), whose
    offsets are meaningless.
    """
    Xh = np.column_stack([X, np.ones(len(X))])
    uvw = np.matmul(Ps, Xh[:, None, :, None])[..., 0]
    behind = uvw[..., 2] <= MIN_DEPTH
    offsets = uvw[..., :2] / np.where(behind, 1.0, uvw[..., 2])[..., None] - xs
    return offsets, behind


def triangulation_status(Ps: np.ndarray, xs: np.ndarray, X: np.ndarray, finite: np.ndarray) -> np.ndarray:
    """The acceptance gate of triangulated points: "active" when a point
    lies in front of every view and reprojects within MAX_REPROJECTION_PX
    of each observation. Otherwise the first failing view, in view order,
    names the reason: "cheirality" (behind the view; a point at infinity
    fails in its first view) or "reprojection". Arguments as for
    reprojection_offsets, plus the finite mask of triangulate_linear."""
    offsets, behind = reprojection_offsets(Ps, xs, X)
    behind |= ~finite[:, None]
    failed = behind | (np.hypot(offsets[..., 0], offsets[..., 1]) > MAX_REPROJECTION_PX)
    first = np.argmax(failed, axis=1)
    status = np.where(behind[np.arange(len(X)), first], "cheirality", "reprojection")
    return np.where(failed.any(axis=1), status, "active")


# ---------------------------------------------------------------------------
# Resection (absolute camera pose from 2D-3D)
# ---------------------------------------------------------------------------

def resect_linear(points3d: np.ndarray, rays: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Linear 6-point resection on normalized image coordinates.

    Returns (R, t) with x_cam = R X + t, or None if degenerate.
    """
    n = len(points3d)
    if n < 6:
        return None
    Xc = points3d.mean(axis=0)
    scale = np.linalg.norm(points3d - Xc, axis=1).mean()
    if scale < 1e-12:
        return None
    Xn = (points3d - Xc) / scale
    A = np.zeros((2 * n, 12))
    A[0::2, 0:3] = Xn
    A[0::2, 3] = 1.0
    A[0::2, 8:11] = -rays[:, 0, None] * Xn
    A[0::2, 11] = -rays[:, 0]
    A[1::2, 4:7] = Xn
    A[1::2, 7] = 1.0
    A[1::2, 8:11] = -rays[:, 1, None] * Xn
    A[1::2, 11] = -rays[:, 1]
    try:
        _, _, Vt = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError:
        return None
    P = Vt[-1].reshape(3, 4)
    # undo the 3D normalization: x ~ M X + p4 in original coordinates
    M = P[:, :3] / scale
    p4 = P[:, 3] - M @ Xc
    U, S, Vt2 = np.linalg.svd(M)
    if S[2] < 1e-10 * max(S[0], 1e-300):
        return None
    R = U @ Vt2
    lam = S.mean()
    if np.linalg.det(R) < 0:
        R = -R
        lam = -lam
    t = p4 / lam
    depths = (points3d @ R.T + t)[:, 2]
    if np.median(depths) < 0:
        return None
    return R, t


def reprojection_residuals_pixels(
    R: np.ndarray, t: np.ndarray, K: np.ndarray, points3d: np.ndarray, pixels: np.ndarray
) -> np.ndarray:
    """Per-point pixel reprojection error for x_cam = R X + t; behind-camera
    points get +inf."""
    xc = points3d @ R.T + t
    z = xc[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = K[0, 0] * xc[:, 0] / z + K[0, 2]
        v = K[1, 1] * xc[:, 1] / z + K[1, 2]
    err = np.sqrt((u - pixels[:, 0]) ** 2 + (v - pixels[:, 1]) ** 2)
    err[z <= 0] = np.inf
    err[~np.isfinite(err)] = np.inf
    return err
