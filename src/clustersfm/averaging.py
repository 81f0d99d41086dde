"""Global motion averaging from per-cluster relative motions, taken as one
MotionTable whose rows are the equations of both solvers.

Rotation averaging: spanning-tree initialization followed by iteratively
reweighted least squares in the SO(3) tangent space with an L1-flavored
weight, one global relinearization per iteration.

Translation averaging: the relative translations of cluster k share one
unknown scale a_k, giving the linear relation a_k R_j^T t_ij = c_i - c_j per
motion. Stacking every such equation over all clusters yields A x_s = B y_c,
built from the arrays of the table and solved jointly for all cluster scales
and camera centers as a robust L1 problem (IRLS) after pinning one center
and one scale. Because the scale of every baseline is encoded explicitly,
collinear camera motion stays well posed.

Both solvers take one connected motion graph, in one gauge, and refuse a
split graph: later stages would take poses in several gauges for one frame.
"""

import logging
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, hstack as sp_hstack
from scipy.sparse.linalg import factorized, spsolve

from .errors import DataError, NumericalError
from .geometry import rotation_angle, so3_exp, so3_log
from .local_sfm import MotionTable
from .utils import component_labels

logger = logging.getLogger(__name__)

ROTATION_IRLS_EPS = 1e-6  # radians
ROTATION_UPDATE_TOL = 1e-8
ROTATION_MAX_ITERATIONS = 100
L1_EPS = 1e-9
L1_RELATIVE_TOL = 1e-4  # stop when an iterate cuts the objective by at most this share
L1_MAX_ITERATIONS = 200
DEGENERATE_SCALE = 1e-12


@dataclass
class RotationEstimate:
    """The camera rotations; the smallest camera, the gauge, is the identity."""

    cameras: np.ndarray  # (n,) int64, strictly ascending
    rotation: np.ndarray  # (n, 3, 3)
    iterations: int
    final_median_residual: float  # radians


@dataclass
class GlobalMotion:
    """The camera poses, and the scale of each cluster's relative translations."""

    cameras: np.ndarray  # (n,) int64, strictly ascending
    rotation: np.ndarray  # (n, 3, 3)
    center: np.ndarray  # (n, 3)
    clusters: np.ndarray  # (k,) int64, strictly ascending
    scale: np.ndarray  # (k,) of each cluster
    residual_norms: np.ndarray  # per-equation L2 norm of a_k R^T t - (c_i - c_j)
    objective: float  # final L1 objective
    iterations: int = 0


def _refuse_split(cameras, rows):
    """Raise NumericalError naming the cameras that the motions, rows (m, 2)
    of indices into `cameras`, do not connect to the gauge camera cameras[0]."""
    labels = component_labels(len(cameras), rows[:, 0], rows[:, 1])
    cut = cameras[labels != labels[0]].tolist()
    if cut:
        raise NumericalError(f"the motion graph is split: cameras {cut} are cut off from camera {cameras[0]}")


# ---------------------------------------------------------------------------
# Rotation averaging
# ---------------------------------------------------------------------------

def _spanning_tree_init(root, motions: MotionTable):
    """Propagate rotations from the root camera through one motion per pair,
    its first of highest support. The pairs are scanned by falling support,
    ties by pair, and each that joins a posed camera to an unposed one poses
    it; the scan repeats until a pass poses nothing. A pair met before either
    of its cameras is posed waits for the next pass, so this is not a
    maximum-support spanning tree: with pairs (1, 2), (0, 1), (2, 3), (0, 2)
    of support 10, 5, 4, 3, camera 2 is posed through (0, 2)."""
    rotations = {root: np.eye(3)}
    rows = np.lexsort((-motions.support, motions.pairs[:, 1], motions.pairs[:, 0]))  # stable
    _, first = np.unique(motions.pairs[rows], axis=0, return_index=True)
    best = rows[first]  # by pair
    edges = best[np.argsort(-motions.support[best], kind="stable")]
    changed = True
    while changed:
        changed = False
        for q, (i, j) in zip(edges.tolist(), motions.pairs[edges].tolist()):
            if (i in rotations) == (j in rotations):
                continue
            if i in rotations:
                rotations[j] = motions.rotation[q] @ rotations[i]
            else:
                rotations[i] = motions.rotation[q].T @ rotations[j]
            changed = True
    return rotations


def rotation_averaging(motions: MotionTable) -> RotationEstimate:
    """Robust global rotation averaging over all relative rotations, the
    smallest camera the identity; a split graph raises NumericalError."""
    if not len(motions):
        raise DataError("no relative motions to average")
    cameras, rows = np.unique(motions.pairs, return_inverse=True)
    rows = rows.reshape(-1, 2)
    _refuse_split(cameras, rows)
    rows_i, rows_j = rows.T
    tree = _spanning_tree_init(int(cameras[0]), motions)
    R = np.stack([tree[c] for c in cameras.tolist()])
    R_ij = motions.rotation

    # +1/-1 incidence of d_i - d_j over the free cameras, all but the root
    cols = rows.ravel() - 1
    keep = cols >= 0
    incidence = coo_matrix(
        (np.tile([1.0, -1.0], len(motions))[keep],
         (np.repeat(np.arange(len(motions)), 2)[keep], cols[keep])),
        shape=(len(motions), len(cameras) - 1),
    ).tocsr()
    entry_rows = np.repeat(np.arange(len(motions)), np.diff(incidence.indptr))

    for iterations in range(1, ROTATION_MAX_ITERATIONS + 1):
        # residual r_e = log(R_j^T R_ij R_i) per measurement
        residuals = so3_log(R[rows_j].transpose(0, 2, 1) @ R_ij @ R[rows_i])
        norms = np.linalg.norm(residuals, axis=1)
        if norms.max() < ROTATION_UPDATE_TOL:
            break  # already consistent; avoid amplifying float noise
        sqrt_w = np.sqrt(1.0 / np.maximum(norms, ROTATION_IRLS_EPS))

        # weighted least squares on d_i - d_j = -r_e (3 decoupled solves)
        Asp = incidence.copy()
        Asp.data *= sqrt_w[entry_rows]
        rhs = -residuals * sqrt_w[:, None]
        H = (Asp.T @ Asp).tocsc()
        g = Asp.T @ rhs
        try:
            solve = factorized(H)
            delta = np.column_stack([solve(g[:, d]) for d in range(3)])
        except RuntimeError as exc:
            raise NumericalError(f"rotation averaging solve failed: {exc}") from exc
        if not np.all(np.isfinite(delta)):
            raise NumericalError("rotation averaging system is singular")
        R[1:] = R[1:] @ so3_exp(delta)
        if np.abs(delta).max() < ROTATION_UPDATE_TOL:
            break
    else:
        logger.warning("rotation averaging stopped at its cap of %d iterations", iterations)

    final_norms = rotation_angle(R[rows_j].transpose(0, 2, 1) @ R_ij @ R[rows_i])
    return RotationEstimate(
        cameras=cameras,
        rotation=R,
        iterations=iterations,
        final_median_residual=float(np.median(final_norms)),
    )


# ---------------------------------------------------------------------------
# Translation averaging
# ---------------------------------------------------------------------------

def _irls_l1(M, d):
    """Minimize ||M z - d||_1 by IRLS from the least-squares start, for at
    most L1_MAX_ITERATIONS iterations. An iterate that raises the objective
    is rejected and ends the loop, and so does one that cuts it by at most
    L1_RELATIVE_TOL of its value. Returns (z, iterations); z is not finite
    where a solve found M rank deficient."""
    weights = np.ones(M.shape[0])
    z = objective = None
    for iterations in range(1, L1_MAX_ITERATIONS + 1):
        Wsqrt = np.sqrt(weights)
        Mw = M.multiply(Wsqrt[:, None]).tocsr()
        H = (Mw.T @ Mw).tocsc()
        g = Mw.T @ (d * Wsqrt)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                z_new = np.atleast_1d(spsolve(H, g))
        except RuntimeError as exc:
            raise NumericalError(f"translation averaging solve failed: {exc}") from exc
        if not np.all(np.isfinite(z_new)):
            return z_new, iterations
        r = M @ z_new - d
        new_objective = float(np.abs(r).sum())
        if objective is not None and new_objective > objective * (1.0 + 1e-12):
            break  # reject non-improving iterate; keep previous solution
        z = z_new
        improved = objective is None or (objective - new_objective) > L1_RELATIVE_TOL * max(objective, 1e-300)
        objective = new_objective
        weights = 1.0 / np.maximum(np.abs(r), L1_EPS)
        if not improved:
            break
    else:
        logger.warning("L1 translation averaging stopped at its cap of %d iterations", iterations)
    return z, iterations


def solve_translation_l1(motions: MotionTable, estimate: RotationEstimate) -> GlobalMotion:
    """Minimize ||A x_s - B y_c||_1 with c_gauge = 0 and alpha_gauge = 1.

    Each motion q gives the 3 rows 3q..3q+2: A holds p = R_j^T t_ij in the
    column of its cluster, and B holds +I at camera i and -I at camera j. A
    pair measured in several clusters gives one block per cluster, each tied
    to its own cluster scale. The rotations are those of `estimate`, or of
    any pose table with ascending `cameras` and their `rotation`.

    The gauge camera is the smallest camera, and the gauge cluster is the
    lowest cluster measured at it. Their columns leave the system, the gauge
    cluster's as the right-hand side, giving M z = d over the other clusters'
    scales, then the other cameras' centers. A split graph raises
    NumericalError.
    """
    cameras, cam = np.unique(motions.pairs, return_inverse=True)
    clusters, cl = np.unique(motions.cluster, return_inverse=True)
    cam = cam.reshape(-1, 2)
    lacking = ~np.isin(motions.pairs, estimate.cameras).all(axis=1)
    if lacking.any():
        i, j = motions.pairs[np.argmax(lacking)].tolist()
        raise DataError(f"motion ({i}, {j}) lacks a rotation estimate")
    _refuse_split(cameras, cam)
    R = estimate.rotation[np.searchsorted(estimate.cameras, cameras)]
    p = (R[cam[:, 1]].transpose(0, 2, 1) @ motions.translation[:, :, None])[:, :, 0]
    m, n_cams = len(motions), len(cameras)
    dim = np.arange(3)
    A = coo_matrix((p.ravel(), (np.arange(3 * m), np.repeat(cl, 3))), shape=(3 * m, len(clusters))).tocsc()
    B = coo_matrix((np.broadcast_to([[1.0], [-1.0]], (m, 2, 3)).ravel(),
                    (np.repeat(3 * np.arange(m), 6) + np.tile(dim, 2 * m), (3 * cam[:, :, None] + dim).ravel())),
                   shape=(3 * m, 3 * n_cams)).tocsc()
    gauge = cl[(cam == 0).any(axis=1)].min()
    free_cls = np.delete(np.arange(len(clusters)), gauge)
    M = sp_hstack([A[:, free_cls], -B[:, 3:]]).tocsr()
    d = -A[:, [gauge]].toarray().ravel()  # alpha_gauge = 1
    z, iterations = _irls_l1(M, d)

    off = len(free_cls)
    v = np.flatnonzero(~np.isfinite(z))
    if len(v):
        bad_cams = np.unique(cameras[1 + (v[v >= off] - off) // 3]).tolist()
        bad_cls = clusters[free_cls[v[v < off]]].tolist()
        raise NumericalError(f"translation system under-constrained: cameras {bad_cams}, clusters {bad_cls}")
    residual = M @ z - d
    scale = np.insert(z[:off], gauge, 1.0)
    bad = clusters[scale <= DEGENERATE_SCALE].tolist()
    if bad:
        raise NumericalError(f"degenerate scale for cluster(s) {bad}")
    return GlobalMotion(
        cameras=cameras,
        rotation=R,
        center=np.vstack([np.zeros((1, 3)), z[off:].reshape(-1, 3)]),  # the gauge camera at the origin
        clusters=clusters,
        scale=scale,
        residual_norms=np.array([np.linalg.norm(r) for r in residual.reshape(-1, 3)]),
        objective=float(np.abs(residual).sum()),
        iterations=iterations,
    )
