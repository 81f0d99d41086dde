"""Global motion averaging from per-cluster relative motions.

Rotation averaging: spanning-tree initialization followed by iteratively
reweighted least squares in the SO(3) tangent space with an L1-flavored
weight, one global relinearization per iteration.

Translation averaging: the relative translations of cluster k share one
unknown scale a_k, giving the linear relation a_k R_j^T t_ij = c_i - c_j per
measured pair. Stacking every such equation over all clusters yields
A x_s = B y_c, solved jointly for all cluster scales and camera centers as a
robust L1 problem (IRLS) after pinning one center and one scale. Because the
scale of every baseline is encoded explicitly, collinear camera motion stays
well posed.
"""

import logging
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, hstack as sp_hstack
from scipy.sparse.linalg import factorized, spsolve

from .errors import DataError, NumericalError
from .geometry import rotation_angle, so3_exp, so3_log
from .local_sfm import RelativeMotion
from .utils import component_labels

logger = logging.getLogger(__name__)

ROTATION_IRLS_EPS = 1e-6  # radians
ROTATION_UPDATE_TOL = 1e-8
ROTATION_MAX_ITERATIONS = 100
L1_EPS = 1e-9
L1_RELATIVE_TOL = 1e-10
L1_MAX_ITERATIONS = 200
DEGENERATE_SCALE = 1e-12


@dataclass
class RotationEstimate:
    rotations: dict  # camera id -> (3,3), gauge: component roots = identity
    components: dict  # camera id -> component label
    iterations: int
    final_median_residual: float  # radians


@dataclass
class TranslationSystem:
    """Stacked equations a_k R_j^T t_ij^k = c_i - c_j.

    A holds the p = R_j^T t_ij^k column blocks (3 rows per equation, one per
    cluster column); B holds the +I/-I camera blocks. equations[q] = (i, j,
    k) maps row block q back to its measurement.
    """

    A: "coo_matrix"
    B: "coo_matrix"
    cluster_ids: list[int]  # column order of A
    camera_ids: list[int]  # column-block order of B
    equations: list[tuple]


@dataclass
class GlobalMotion:
    rotations: dict  # camera id -> (3,3)
    centers: dict  # camera id -> (3,)
    scales: dict  # cluster id -> float
    residual_norms: np.ndarray  # per-equation L2 norm of a_k R^T t - (c_i - c_j)
    objective: float  # final L1 objective
    iterations: int = 0


# ---------------------------------------------------------------------------
# Rotation averaging
# ---------------------------------------------------------------------------

def _spanning_tree_init(roots, motions_by_pair):
    """Propagate rotations from each component root along the
    maximum-support spanning tree (Kruskal, ties by camera pair)."""
    rotations = {root: np.eye(3) for root in roots}
    edges = sorted(
        motions_by_pair,
        key=lambda pair: (-max(m.support for m in motions_by_pair[pair]), pair),
    )
    changed = True
    while changed:
        changed = False
        for (i, j) in edges:
            if (i in rotations) == (j in rotations):
                continue
            best = max(motions_by_pair[(i, j)], key=lambda m: m.support)
            if i in rotations:
                rotations[j] = best.rotation @ rotations[i]
            else:
                rotations[i] = best.rotation.T @ rotations[j]
            changed = True
    return rotations


def rotation_averaging(motions: list[RelativeMotion]) -> RotationEstimate:
    """Robust global rotation averaging over all relative rotations.

    Disconnected measurement graphs are solved per connected component, each
    with its own identity-gauge root; the component labels are reported so
    callers can treat them separately.
    """
    if not motions:
        raise DataError("no relative motions to average")
    cameras = sorted({m.i for m in motions} | {m.j for m in motions})
    motions_by_pair: dict[tuple, list] = {}
    for m in motions:
        motions_by_pair.setdefault((m.i, m.j), []).append(m)
    cam_pos = {c: k for k, c in enumerate(cameras)}
    rows_i = np.array([cam_pos[m.i] for m in motions])
    rows_j = np.array([cam_pos[m.j] for m in motions])
    n = len(cameras)
    labels = component_labels(n, rows_i, rows_j)
    # each component is labelled by its smallest camera id, its gauge root
    _, root_pos = np.unique(labels, return_index=True)
    roots = [cameras[k] for k in root_pos]
    components = {c: roots[labels[k]] for k, c in enumerate(cameras)}
    if len(roots) > 1:
        logger.warning("rotation graph has %d connected components", len(roots))

    tree = _spanning_tree_init(roots, motions_by_pair)
    R = np.stack([tree[c] for c in cameras])
    R_ij = np.stack([m.rotation for m in motions])

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
        rotations=dict(zip(cameras, R)),
        components=components,
        iterations=iterations,
        final_median_residual=float(np.median(final_norms)),
    )


# ---------------------------------------------------------------------------
# Translation averaging
# ---------------------------------------------------------------------------

def build_translation_system(
    motions: list[RelativeMotion], rotations: RotationEstimate | dict
) -> TranslationSystem:
    """One 3-row equation block per (pair, cluster) measurement; duplicate
    pairs observed in several clusters keep one block each, tied to their
    own cluster scale column."""
    rot = rotations.rotations if isinstance(rotations, RotationEstimate) else rotations
    cluster_ids = sorted({m.cluster_id for m in motions})
    camera_ids = sorted({m.i for m in motions} | {m.j for m in motions})
    for m in motions:
        if m.i not in rot or m.j not in rot:
            raise DataError(f"motion ({m.i}, {m.j}) lacks a rotation estimate")
    col_of_cluster = {k: c for c, k in enumerate(cluster_ids)}
    col_of_camera = {c: k for k, c in enumerate(camera_ids)}

    a_rows, a_cols, a_vals = [], [], []
    b_rows, b_cols, b_vals = [], [], []
    equations = []
    for q, m in enumerate(motions):
        p = rot[m.j].T @ m.translation
        r0 = 3 * q
        ck = col_of_cluster[m.cluster_id]
        for d in range(3):
            a_rows.append(r0 + d)
            a_cols.append(ck)
            a_vals.append(p[d])
        for cam, sign in ((m.i, 1.0), (m.j, -1.0)):
            c0 = 3 * col_of_camera[cam]
            for d in range(3):
                b_rows.append(r0 + d)
                b_cols.append(c0 + d)
                b_vals.append(sign)
        equations.append((m.i, m.j, m.cluster_id))
    n_rows = 3 * len(motions)
    A = coo_matrix((a_vals, (a_rows, a_cols)), shape=(n_rows, len(cluster_ids)))
    B = coo_matrix((b_vals, (b_rows, b_cols)), shape=(n_rows, 3 * len(camera_ids)))
    return TranslationSystem(
        A=A, B=B, cluster_ids=cluster_ids, camera_ids=camera_ids, equations=equations
    )


class _RankDeficiency(Exception):
    """Internal: carries the non-finite variable indices of a failed solve."""

    def __init__(self, var_indices):
        super().__init__("rank deficient")
        self.var_indices = var_indices


def _solve_component(A, B, gauge_scale_col, gauge_cam_col, max_iterations, relative_tol):
    """IRLS over the combined system [A | -B] z = 0 with the gauge scale
    fixed at 1 and the gauge camera at the origin (their columns removed;
    the scale column moves to the right-hand side). Returns (z, objective,
    iterations, residual, capped); capped is True when the loop used all
    max_iterations without meeting its stopping test."""
    n_rows = A.shape[0]
    scale_cols = [c for c in range(A.shape[1]) if c != gauge_scale_col]
    cam_cols = [c for c in range(B.shape[1]) if c // 3 != gauge_cam_col]
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


def solve_translation_l1(system: TranslationSystem, rotations: RotationEstimate | dict,
                         max_iterations: int = L1_MAX_ITERATIONS,
                         relative_tol: float = L1_RELATIVE_TOL) -> GlobalMotion:
    """Minimize ||A x_s - B y_c||_1 with c_gauge = 0 and alpha_gauge = 1.

    The gauge camera is the smallest camera id of each connected component
    of the equation graph, and the gauge cluster is the lowest cluster id
    measured at that camera. Components are solved independently.
    """
    rot = rotations.rotations if isinstance(rotations, RotationEstimate) else rotations
    # connected components over cameras + clusters through the equations
    cam_pos = {c: k for k, c in enumerate(system.camera_ids)}
    cl_pos = {k: c for c, k in enumerate(system.cluster_ids)}
    n_cams = len(cam_pos)
    eqs = np.array(
        [(cam_pos[i], cam_pos[j], n_cams + cl_pos[k]) for (i, j, k) in system.equations],
        dtype=np.int64,
    ).reshape(-1, 3)
    labels = component_labels(n_cams + len(cl_pos), eqs[:, [0, 0]].ravel(), eqs[:, 1:].ravel())
    n_groups = int(labels.max(initial=-1)) + 1
    if n_groups > 1:
        logger.warning("translation system has %d connected components", n_groups)

    A_csr = system.A.tocsr()
    B_csr = system.B.tocsr()

    centers = {}
    scales = {}
    all_residuals = np.zeros(len(system.equations))
    total_objective = 0.0
    total_iterations = 0

    for g in range(n_groups):
        comp_cams = [c for c, label in zip(system.camera_ids, labels) if label == g]
        comp_cls = [k for k, label in zip(system.cluster_ids, labels[n_cams:]) if label == g]
        if not comp_cams or not comp_cls:
            continue
        eq_sel = np.flatnonzero(labels[eqs[:, 0]] == g)
        row_sel = np.concatenate([[3 * q, 3 * q + 1, 3 * q + 2] for q in eq_sel])
        gauge_cam = comp_cams[0]
        gauge_cluster = min(
            k for (i, j, k) in (system.equations[q] for q in eq_sel) if i == gauge_cam or j == gauge_cam
        )
        sub_A = A_csr[row_sel][:, [cl_pos[k] for k in comp_cls]]
        sub_B = B_csr[row_sel][:, np.concatenate([[3 * cam_pos[c], 3 * cam_pos[c] + 1, 3 * cam_pos[c] + 2] for c in comp_cams])]
        free_cls = [k for k in comp_cls if k != gauge_cluster]
        free_cams_comp = [c for c in comp_cams if c != gauge_cam]
        try:
            z, objective, iterations, residual, capped = _solve_component(
                sub_A.tocoo(),
                sub_B.tocoo(),
                comp_cls.index(gauge_cluster),
                comp_cams.index(gauge_cam),
                max_iterations,
                relative_tol,
            )
        except _RankDeficiency as exc:
            off = len(free_cls)
            bad_cams = sorted(
                {free_cams_comp[(v - off) // 3] for v in exc.var_indices if v >= off}
            )
            bad_cls = sorted({free_cls[v] for v in exc.var_indices if v < off})
            raise NumericalError(
                f"translation system under-constrained: cameras {bad_cams}, clusters {bad_cls}"
            ) from exc
        if capped and max_iterations > 1:
            logger.warning("L1 translation averaging stopped at its cap of %d iterations", iterations)
        total_objective += objective
        total_iterations = max(total_iterations, iterations)
        for pos, k in enumerate(free_cls):
            scales[k] = float(z[pos])
        scales[gauge_cluster] = 1.0
        off = len(free_cls)
        for pos, c in enumerate(free_cams_comp):
            centers[c] = z[off + 3 * pos : off + 3 * pos + 3].copy()
        centers[gauge_cam] = np.zeros(3)
        res3 = residual.reshape(-1, 3)
        for local_q, q in enumerate(eq_sel):
            all_residuals[q] = np.linalg.norm(res3[local_q])

    bad = sorted(k for k, a in scales.items() if a <= DEGENERATE_SCALE)
    if bad:
        raise NumericalError(f"degenerate scale for cluster(s) {bad}")
    return GlobalMotion(
        rotations={c: rot[c] for c in system.camera_ids if c in rot},
        centers=centers,
        scales=scales,
        residual_norms=all_residuals,
        objective=total_objective,
        iterations=total_iterations,
    )


def solve_translation_l2(system: TranslationSystem, rotations: RotationEstimate | dict) -> GlobalMotion:
    """Unweighted least-squares baseline for the same system (comparison
    oracle for the robust solver): the first, unit-weight IRLS iterate."""
    return solve_translation_l1(system, rotations, max_iterations=1)
