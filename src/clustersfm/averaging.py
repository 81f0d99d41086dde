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
    """The camera rotations; each component's root, its smallest camera, is the identity."""

    cameras: np.ndarray  # (n,) int64, strictly ascending
    rotation: np.ndarray  # (n, 3, 3)
    components: np.ndarray  # (n,) the root camera of each camera's component
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


# ---------------------------------------------------------------------------
# Rotation averaging
# ---------------------------------------------------------------------------

def _spanning_tree_init(roots, motions: MotionTable):
    """Propagate rotations from each component root along the
    maximum-support spanning tree (Kruskal, ties by camera pair), each pair
    through its first motion of highest support."""
    rotations = {root: np.eye(3) for root in roots}
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
    """Robust global rotation averaging over all relative rotations.

    Disconnected measurement graphs are solved per connected component, each
    with its own identity-gauge root; the component labels are reported so
    callers can treat them separately.
    """
    if not len(motions):
        raise DataError("no relative motions to average")
    cameras, rows = np.unique(motions.pairs, return_inverse=True)
    rows_i, rows_j = rows.reshape(-1, 2).T
    n = len(cameras)
    labels = component_labels(n, rows_i, rows_j)
    # each component is labelled by its smallest camera id, its gauge root
    _, root_pos = np.unique(labels, return_index=True)
    roots = cameras[root_pos]
    if len(roots) > 1:
        logger.warning("rotation graph has %d connected components", len(roots))

    tree = _spanning_tree_init(roots.tolist(), motions)
    R = np.stack([tree[c] for c in cameras.tolist()])
    R_ij = motions.rotation

    # +1/-1 incidence of d_i - d_j over the free (non-root) cameras
    free = np.setdiff1d(np.arange(n), root_pos)
    free_pos = -np.ones(n, dtype=np.int64)
    free_pos[free] = np.arange(len(free))
    cols = np.column_stack([free_pos[rows_i], free_pos[rows_j]]).ravel()
    keep = cols >= 0
    incidence = coo_matrix(
        (np.tile([1.0, -1.0], len(motions))[keep],
         (np.repeat(np.arange(len(motions)), 2)[keep], cols[keep])),
        shape=(len(motions), len(free)),
    ).tocsr()
    entry_rows = np.repeat(np.arange(len(motions)), np.diff(incidence.indptr))
    iterations = 0

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
        delta = np.zeros((n, 3))
        if len(free):
            H = (Asp.T @ Asp).tocsc()
            g = Asp.T @ rhs
            try:
                solve = factorized(H)
                delta[free] = np.column_stack([solve(g[:, d]) for d in range(3)])
            except RuntimeError as exc:
                raise NumericalError(f"rotation averaging solve failed: {exc}") from exc
            if not np.all(np.isfinite(delta)):
                raise NumericalError("rotation averaging system is singular")
        step = float(np.abs(delta).max()) if len(free) else 0.0
        R[free] = R[free] @ so3_exp(delta[free])
        if step < ROTATION_UPDATE_TOL:
            break
    else:
        logger.warning("rotation averaging stopped at its cap of %d iterations", iterations)

    final_norms = rotation_angle(R[rows_j].transpose(0, 2, 1) @ R_ij @ R[rows_i])
    return RotationEstimate(
        cameras=cameras,
        rotation=R,
        components=roots[labels],
        iterations=iterations,
        final_median_residual=float(np.median(final_norms)),
    )


# ---------------------------------------------------------------------------
# Translation averaging
# ---------------------------------------------------------------------------

class _RankDeficiency(Exception):
    """Internal: carries the non-finite variable indices of a failed solve."""

    def __init__(self, var_indices):
        super().__init__("rank deficient")
        self.var_indices = var_indices


def _solve_component(A, B, gauge_scale_col, max_iterations, relative_tol):
    """IRLS over the combined system [A | -B] z = 0 with the gauge scale
    fixed at 1 and the gauge camera, the first column block of B, at the
    origin (their columns removed; the scale column moves to the right-hand
    side). Returns (z, objective, iterations, residual, capped); capped is
    True when the loop used all max_iterations without meeting its stopping
    test."""
    n_rows = A.shape[0]
    scale_cols = [c for c in range(A.shape[1]) if c != gauge_scale_col]
    cam_cols = list(range(3, B.shape[1]))
    A_csc = A.tocsc()
    B_csc = B.tocsc()
    M = sp_hstack([A_csc[:, scale_cols], -B_csc[:, cam_cols]]).tocsr()
    d = -np.asarray(A_csc[:, [gauge_scale_col]].todense()).ravel()  # alpha_gauge = 1

    n_vars = M.shape[1]
    if n_vars == 0:
        return np.zeros(0), np.abs(d).sum(), 0, d, False
    weights = np.ones(n_rows)
    z = None
    objective = None
    iterations = 0
    capped = False
    for iterations in range(1, max_iterations + 1):
        Wsqrt = np.sqrt(weights)
        Mw = M.multiply(Wsqrt[:, None]).tocsr()
        H = (Mw.T @ Mw).tocsc()
        g = Mw.T @ (d * Wsqrt)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                z_new = spsolve(H, g)
        except RuntimeError as exc:
            raise NumericalError(f"translation averaging solve failed: {exc}") from exc
        z_new = np.atleast_1d(z_new)
        if not np.all(np.isfinite(z_new)):
            raise _RankDeficiency(np.flatnonzero(~np.isfinite(z_new)))
        r = M @ z_new - d
        new_objective = float(np.abs(r).sum())
        if objective is not None and new_objective > objective * (1.0 + 1e-12):
            break  # reject non-improving iterate; keep previous solution
        z = z_new
        improved = objective is None or (objective - new_objective) > relative_tol * max(objective, 1e-300)
        objective = new_objective
        weights = 1.0 / np.maximum(np.abs(r), L1_EPS)
        if not improved:
            break
    else:
        capped = True
    residual = M @ z - d
    return z, objective, iterations, residual, capped


def solve_translation_l1(motions: MotionTable, estimate: RotationEstimate,
                         max_iterations: int = L1_MAX_ITERATIONS,
                         relative_tol: float = L1_RELATIVE_TOL) -> GlobalMotion:
    """Minimize ||A x_s - B y_c||_1 with c_gauge = 0 and alpha_gauge = 1.

    Each motion q gives the 3 rows 3q..3q+2: A holds p = R_j^T t_ij in the
    column of its cluster, and B holds +I at camera i and -I at camera j. A
    pair measured in several clusters gives one block per cluster, each tied
    to its own cluster scale. The rotations are those of `estimate`, or of
    any pose table with ascending `cameras` and their `rotation`.

    The gauge camera is the smallest camera id of each connected component
    of the equation graph, and the gauge cluster is the lowest cluster id
    measured at that camera. Components are solved independently.
    """
    cameras, cam = np.unique(motions.pairs, return_inverse=True)
    clusters, cl = np.unique(motions.cluster, return_inverse=True)
    cam = cam.reshape(-1, 2)
    lacking = ~np.isin(motions.pairs, estimate.cameras).all(axis=1)
    if lacking.any():
        i, j = motions.pairs[np.argmax(lacking)].tolist()
        raise DataError(f"motion ({i}, {j}) lacks a rotation estimate")
    R = estimate.rotation[np.searchsorted(estimate.cameras, cameras)]
    p = (R[cam[:, 1]].transpose(0, 2, 1) @ motions.translation[:, :, None])[:, :, 0]
    m, n_cams = len(motions), len(cameras)
    d = np.arange(3)
    A = coo_matrix((p.ravel(), (np.arange(3 * m), np.repeat(cl, 3))), shape=(3 * m, len(clusters))).tocsr()
    B = coo_matrix((np.broadcast_to([[1.0], [-1.0]], (m, 2, 3)).ravel(),
                    (np.repeat(3 * np.arange(m), 6) + np.tile(d, 2 * m), (3 * cam[:, :, None] + d).ravel())),
                   shape=(3 * m, 3 * n_cams)).tocsr()

    # connected components over cameras + clusters through the equations
    labels = component_labels(n_cams + len(clusters), np.repeat(cam[:, 0], 2),
                              np.column_stack([cam[:, 1], n_cams + cl]).ravel())
    n_groups = int(labels.max(initial=-1)) + 1
    if n_groups > 1:
        logger.warning("translation system has %d connected components", n_groups)

    center = np.zeros((n_cams, 3))  # each gauge camera stays at the origin
    scale = np.ones(len(clusters))  # and each gauge cluster at 1
    all_residuals = np.zeros(m)
    total_objective = 0.0
    total_iterations = 0

    for g in range(n_groups):
        comp_cams = np.flatnonzero(labels[:n_cams] == g)  # ascending: the first is the gauge camera
        comp_cls = np.flatnonzero(labels[n_cams:] == g)
        eq_sel = np.flatnonzero(labels[cam[:, 0]] == g)
        at_gauge = (cam[eq_sel] == comp_cams[0]).any(axis=1)
        gauge = np.searchsorted(comp_cls, cl[eq_sel][at_gauge].min())
        rows = (3 * eq_sel[:, None] + d).ravel()
        free_cls = np.delete(comp_cls, gauge)
        off = len(free_cls)
        try:
            z, objective, iterations, residual, capped = _solve_component(
                A[rows][:, comp_cls].tocoo(), B[rows][:, (3 * comp_cams[:, None] + d).ravel()].tocoo(), gauge,
                max_iterations, relative_tol,
            )
        except _RankDeficiency as exc:
            v = exc.var_indices
            bad_cams = np.unique(cameras[comp_cams[1 + (v[v >= off] - off) // 3]]).tolist()
            bad_cls = clusters[free_cls[v[v < off]]].tolist()
            raise NumericalError(
                f"translation system under-constrained: cameras {bad_cams}, clusters {bad_cls}"
            ) from exc
        if capped:
            logger.warning("L1 translation averaging stopped at its cap of %d iterations", iterations)
        total_objective += objective
        total_iterations = max(total_iterations, iterations)
        scale[free_cls] = z[:off]
        center[comp_cams[1:]] = z[off:].reshape(-1, 3)
        all_residuals[eq_sel] = [np.linalg.norm(r) for r in residual.reshape(-1, 3)]

    bad = clusters[scale <= DEGENERATE_SCALE].tolist()
    if bad:
        raise NumericalError(f"degenerate scale for cluster(s) {bad}")
    return GlobalMotion(
        cameras=cameras,
        rotation=R,
        center=center,
        clusters=clusters,
        scale=scale,
        residual_norms=all_residuals,
        objective=total_objective,
        iterations=total_iterations,
    )
