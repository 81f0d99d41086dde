"""Accuracy metrics against ground truth: similarity alignment, mean/median
position error, relative rotation/translation errors, epipolar error, and
connectivity counts."""

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .averaging import GlobalMotion
from .errors import DataError, NumericalError
from .geometry import angle_between, rotation_angle, skew
from .scene import CameraTable, MatchTable

ALIGN_RANK_TOL = 1e-9


@dataclass
class ErrorReport:
    mean_position_error: float
    median_position_error: float
    mean_rel_rotation_error_deg: float
    mean_rel_translation_error_deg: float
    median_epipolar_error_px: float | None
    num_registered: int
    num_connected_pairs: int
    num_points: int
    num_clusters: int
    alignment: tuple  # (s, R, t)

    def to_dict(self) -> dict:
        s, R, t = self.alignment
        return {
            "meanPositionError": self.mean_position_error,
            "medianPositionError": self.median_position_error,
            "meanRelRotationErrorDeg": self.mean_rel_rotation_error_deg,
            "meanRelTranslationErrorDeg": self.mean_rel_translation_error_deg,
            "medianEpipolarErrorPx": self.median_epipolar_error_px,
            "numRegistered": self.num_registered,
            "numConnectedPairs": self.num_connected_pairs,
            "numPoints": self.num_points,
            "numClusters": self.num_clusters,
            "alignment": {"scale": s, "rotation": np.asarray(R).ravel().tolist(),
                          "translation": np.asarray(t).tolist()},
        }

    def table(self) -> str:
        rows = [
            ("x_mean", f"{self.mean_position_error:.6g}"),
            ("x_median", f"{self.median_position_error:.6g}"),
            ("dR_mean [deg]", f"{self.mean_rel_rotation_error_deg:.6g}"),
            ("dt_mean [deg]", f"{self.mean_rel_translation_error_deg:.6g}"),
            ("epipolar_median [px]",
             "n/a" if self.median_epipolar_error_px is None else f"{self.median_epipolar_error_px:.6g}"),
            ("N_cameras", str(self.num_registered)),
            ("N_connected_pairs", str(self.num_connected_pairs)),
            ("N_points", str(self.num_points)),
            ("N_clusters", str(self.num_clusters)),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


def align_similarity(estimated: np.ndarray, reference: np.ndarray):
    """Closed-form least-squares similarity (s, R, t) minimizing
    sum ||s R x + t - y||^2 over point correspondences.

    Rotation from the SVD of the cross-covariance with reflection
    correction, scale from the variance ratio, translation from centroids.
    Collinear or too-few configurations raise.
    """
    est = np.asarray(estimated, dtype=float).reshape(-1, 3)
    ref = np.asarray(reference, dtype=float).reshape(-1, 3)
    if len(est) != len(ref):
        raise DataError("alignment needs matched point sets")
    if len(est) < 3:
        raise NumericalError("alignment needs at least 3 correspondences")
    mu_e, mu_r = est.mean(axis=0), ref.mean(axis=0)
    E0, R0 = est - mu_e, ref - mu_r
    cov = R0.T @ E0 / len(est)
    U, S, Vt = np.linalg.svd(cov)
    if S[1] < ALIGN_RANK_TOL * max(S[0], 1e-300):
        raise NumericalError("degenerate (collinear) alignment configuration")
    D = np.eye(3)
    if np.linalg.det(U) * np.linalg.det(Vt) < 0:
        D[2, 2] = -1.0
    R = U @ D @ Vt
    var_e = (E0**2).sum() / len(est)
    s = float(np.trace(np.diag(S) @ D) / var_e)
    if s <= 0:
        raise NumericalError("alignment produced a non-positive scale")
    t = mu_r - s * (R @ mu_e)
    return s, R, t


def _relative_translation(R_j, c_i, c_j):
    return R_j @ (c_i - c_j)


def pose_error_report(
    motion: GlobalMotion,
    gt_rotation: np.ndarray,
    gt_center: np.ndarray,
    measured_pairs,
    num_points: int = 0,
    num_connected_pairs: int = 0,
    num_clusters: int = 0,
    epipolar_median: float | None = None,
) -> ErrorReport:
    """Errors of an estimated reconstruction against the true rotations
    (n, 3, 3) and centers (n, 3), indexed by camera id.

    Position errors are computed after similarity alignment of the camera
    centers; relative rotation/translation errors need no alignment (they
    are similarity invariant). measured_pairs lists the (i, j) camera pairs
    to evaluate, typically the pairs carrying relative motions; a pair with
    a camera the motion does not pose is skipped.
    """
    with_gt = (motion.cameras >= 0) & (motion.cameras < len(gt_rotation))
    common = motion.cameras[with_gt]
    if len(common) < 3:
        raise DataError("need at least 3 cameras with ground truth")
    est_c = motion.center[with_gt]
    gt_c = gt_center[common]
    s, R, t = align_similarity(est_c, gt_c)
    aligned = (s * (est_c @ R.T)) + t
    residuals = np.linalg.norm(aligned - gt_c, axis=1)

    pairs = np.unique(np.sort(np.asarray(measured_pairs, dtype=np.int64).reshape(-1, 2), axis=1), axis=0)
    pairs = pairs[np.isin(pairs, motion.cameras).all(axis=1)]
    rot, cen = motion.rotation, motion.center
    rel_errs, dir_errs = [], []
    for (i, j), (a, b) in zip(pairs.tolist(), np.searchsorted(motion.cameras, pairs).tolist()):
        Rij_est = rot[b] @ rot[a].T
        Rij_gt = gt_rotation[j] @ gt_rotation[i].T
        rel_errs.append(Rij_est @ Rij_gt.T)
        t_est = _relative_translation(rot[b], cen[a], cen[b])
        t_gt = _relative_translation(gt_rotation[j], gt_center[i], gt_center[j])
        if np.linalg.norm(t_est) > 1e-12 and np.linalg.norm(t_gt) > 1e-12:
            dir_errs.append(np.degrees(angle_between(t_est, t_gt)))
    rot_errs = np.degrees(rotation_angle(np.reshape(rel_errs, (-1, 3, 3))))
    return ErrorReport(
        mean_position_error=float(residuals.mean()),
        median_position_error=float(np.median(residuals)),
        mean_rel_rotation_error_deg=float(np.mean(rot_errs)) if len(rot_errs) else 0.0,
        mean_rel_translation_error_deg=float(np.mean(dir_errs)) if dir_errs else 0.0,
        median_epipolar_error_px=epipolar_median,
        num_registered=len(common),
        num_connected_pairs=num_connected_pairs,
        num_points=num_points,
        num_clusters=num_clusters,
        alignment=(s, R, t),
    )


def epipolar_error(
    motion: GlobalMotion,
    cameras: CameraTable,
    matches: MatchTable,
) -> float:
    """Median distance of correspondences to the epipolar lines induced by
    the estimated pair geometry, measured in the second image, over the
    edges with both cameras posed."""
    distances = []
    K_inv = np.linalg.inv(cameras.K())
    posed = np.isin(matches.edges, motion.cameras).all(axis=1)
    rot, cen = motion.rotation, motion.center
    spans = zip(matches.edges[posed].tolist(), np.searchsorted(motion.cameras, matches.edges[posed]).tolist(),
                matches.offsets[:-1][posed].tolist(), matches.offsets[1:][posed].tolist())
    for (i, j), (p, q), a, b in spans:
        R_rel = rot[q] @ rot[p].T
        t_rel = rot[q] @ (cen[p] - cen[q])
        if np.linalg.norm(t_rel) < 1e-15:
            continue
        E = skew(t_rel) @ R_rel
        F = K_inv[j].T @ E @ K_inv[i]
        xi = np.column_stack([matches.xy[a:b, :2], np.ones(b - a)])
        xj = np.column_stack([matches.xy[a:b, 2:], np.ones(b - a)])
        lines = xi @ F.T  # epipolar line of each left feature in image j
        num = np.abs(np.sum(xj * lines, axis=1))
        den = np.hypot(lines[:, 0], lines[:, 1])
        ok = den > 1e-15
        distances.append(num[ok] / den[ok])
    if not distances:
        return float("nan")
    return float(np.median(np.concatenate(distances)))


def connected_pair_count(points) -> int:
    """Number of camera pairs sharing at least one active 3D point."""
    active = [p for p in points if p.active]
    cams = np.concatenate([np.zeros(0, np.int64)] + [p.cameras for p in active])
    point = np.repeat(np.arange(len(active)), [len(p.cameras) for p in active])
    # camera x point incidence; its Gram matrix counts the points each pair shares
    seen = csr_matrix((np.ones(len(cams), dtype=np.int64), (cams, point)),
                      shape=(cams.max(initial=-1) + 1, len(active)))
    return int(np.count_nonzero(np.triu((seen @ seen.T).toarray(), 1)))
