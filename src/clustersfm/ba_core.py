"""Levenberg-Marquardt reprojection minimization over poses and points.

One implementation serves local incremental SfM, single-pose refinement and
the partition solves of distributed bundle adjustment.

Each Jacobian is reduced once to its normal-equation blocks (camera blocks
H_cc, g_c; point blocks H_pp, g_p; one 6x3 coupling block W per observation
of a free camera and a free point), which the gradient test and every
damping retry share. A step eliminates the points through the Schur
complement S = H_cc - (W H_pp^-1) W^T. S is dense, 6 x 6 per free camera,
and is accumulated with one GEMM per slab of ASSEMBLY_BLOCK points: the W
and W H_pp^-1 blocks of the slab are scattered into dense (6 Cs, 3 x slab)
arrays, where Cs counts the free cameras that see a point of the slab, and
the product is subtracted from the rows and columns of those cameras. The
temporaries grow with the cameras a slab sees times the slab size, never
with all free cameras or with the number of points. The camera step is one
dense solve of S; the points back-substitute per block.

Parameterization: rotations update multiplicatively, R <- exp([w]x) R;
centers and points additively. Residual of one observation is
project(R (X - c)) - pixel, so the Jacobian blocks are

    A = d(uv)/dY = [[f/z, 0, -f x / z^2], [0, f/z, -f y / z^2]]
    dY/dw = -[Y]x,   dY/dc = -R,   dY/dX = R,      with Y = R (X - c).
"""

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix

from .geometry import MIN_DEPTH, skew, so3_exp

logger = logging.getLogger(__name__)

DEFAULT_MAX_ITERATIONS = 50
DEFAULT_RELATIVE_TOL = 1e-10
GRADIENT_TOL = 1e-12
LAMBDA_INIT = 1e-3
LAMBDA_MAX = 1e12
ASSEMBLY_BLOCK = 128  # free points per dense slab of the Schur assembly


@dataclass
class BAProblem:
    """Dense-array bundle adjustment state.

    intrinsics rows are (focal, cx, cy) per camera. cam_idx/pt_idx/pixels
    describe observations; free masks select which blocks move.
    """

    rotations: np.ndarray  # (C, 3, 3)
    centers: np.ndarray  # (C, 3)
    intrinsics: np.ndarray  # (C, 3)
    points: np.ndarray  # (P, 3)
    cam_idx: np.ndarray  # (M,)
    pt_idx: np.ndarray  # (M,)
    pixels: np.ndarray  # (M, 2)
    free_cams: np.ndarray  # (C,) bool
    free_pts: np.ndarray  # (P,) bool

    def copy_state(self):
        return self.rotations.copy(), self.centers.copy(), self.points.copy()


@dataclass
class BAResult:
    rotations: np.ndarray
    centers: np.ndarray
    points: np.ndarray
    cost: float
    initial_cost: float
    iterations: int
    converged: bool
    residual_norms: np.ndarray  # (M,) pixel error per observation
    cost_trace: list = field(default_factory=list)


def _camera_frame(rotations, centers, points, cam_idx, pt_idx):
    d = points[pt_idx] - centers[cam_idx]
    return np.matmul(rotations[cam_idx], d[:, :, None])[:, :, 0]


def residuals(problem: BAProblem, rotations=None, centers=None, points=None) -> np.ndarray:
    """(M, 2) residual array; observations behind a camera get +inf."""
    rotations = problem.rotations if rotations is None else rotations
    centers = problem.centers if centers is None else centers
    points = problem.points if points is None else points
    Y = _camera_frame(rotations, centers, points, problem.cam_idx, problem.pt_idx)
    K = problem.intrinsics[problem.cam_idx]
    z = Y[:, 2]
    bad = z <= MIN_DEPTH
    zs = np.where(bad, 1.0, z)
    u = K[:, 0] * Y[:, 0] / zs + K[:, 1]
    v = K[:, 0] * Y[:, 1] / zs + K[:, 2]
    r = np.stack([u, v], axis=1) - problem.pixels
    r[bad] = np.inf
    return r


def cost_of(r: np.ndarray) -> float:
    if not np.all(np.isfinite(r)):
        return np.inf
    return float(np.sum(r * r))


def jacobian_blocks(problem: BAProblem, rotations=None, centers=None, points=None):
    """Per-observation Jacobian blocks (J_cam (M,2,6), J_pt (M,2,3))."""
    rotations = problem.rotations if rotations is None else rotations
    centers = problem.centers if centers is None else centers
    points = problem.points if points is None else points
    cam_idx, pt_idx = problem.cam_idx, problem.pt_idx
    R = rotations[cam_idx]
    Y = _camera_frame(rotations, centers, points, cam_idx, pt_idx)
    f = problem.intrinsics[cam_idx][:, 0]
    z = Y[:, 2]
    m = len(cam_idx)
    A = np.zeros((m, 2, 3))
    A[:, 0, 0] = f / z
    A[:, 0, 2] = -f * Y[:, 0] / z**2
    A[:, 1, 1] = f / z
    A[:, 1, 2] = -f * Y[:, 1] / z**2
    AR = np.matmul(A, R)
    J_rot = np.matmul(A, skew(-Y))  # -[Y]x = [-Y]x
    J_cam = np.concatenate([J_rot, -AR], axis=2)
    J_pt = AR
    return J_cam, J_pt


class _SchurStructure:
    """Index arrays for assembling the reduced camera system, built once per
    problem.

    Coupling observations (free camera and free point) are sorted by point
    and cut into slabs of ASSEMBLY_BLOCK points. Each slab keeps the sorted
    free cameras its observations touch, their rows in the reduced system,
    and the flat positions of its 6x3 W blocks inside a compact
    (6 x slab cameras, 3 x slab points) array. Per-block sums over
    observations are products with sparse 0/1 matrices, one per kind of sum.
    """

    def __init__(self, problem: BAProblem):
        cam_map = -np.ones(len(problem.rotations), dtype=np.int64)
        free_cam_ids = np.flatnonzero(problem.free_cams)
        cam_map[free_cam_ids] = np.arange(len(free_cam_ids))
        self.n_free_cams = len(free_cam_ids)
        pt_map = -np.ones(len(problem.points), dtype=np.int64)
        free_pt_ids = np.flatnonzero(problem.free_pts)
        pt_map[free_pt_ids] = np.arange(len(free_pt_ids))
        self.n_free_pts = npnt = len(free_pt_ids)

        obs_cam = cam_map[np.asarray(problem.cam_idx, dtype=np.int64)]  # -1 where fixed
        obs_pt = pt_map[np.asarray(problem.pt_idx, dtype=np.int64)]
        self.cam_obs = np.flatnonzero(obs_cam >= 0)
        self.pt_obs = np.flatnonzero(obs_pt >= 0)
        coupled = np.flatnonzero((obs_cam >= 0) & (obs_pt >= 0))
        self.coupled = coupled[np.argsort(obs_pt[coupled], kind="stable")]
        self.coupled_cam = oc = obs_cam[self.coupled]
        self.coupled_pt = op = obs_pt[self.coupled]
        # sums over observations, in observation order within each block
        self.sum_by_cam = _summing_matrix(obs_cam[self.cam_obs], self.n_free_cams)
        self.sum_by_pt = _summing_matrix(obs_pt[self.pt_obs], npnt)
        self.sum_coupled_by_pt = _summing_matrix(op, npnt)

        self.slabs = []  # (first point, last point + 1, coupled slice, reduced rows, flat W positions)
        starts = np.arange(0, npnt, ASSEMBLY_BLOCK)
        bounds = np.searchsorted(op, np.append(starts, npnt))
        for p0, lo, hi in zip(starts, bounds[:-1], bounds[1:]):
            p1 = min(p0 + ASSEMBLY_BLOCK, npnt)
            cams, local = np.unique(oc[lo:hi], return_inverse=True)
            rows = 6 * local[:, None, None] + np.arange(6)[None, :, None]  # in the compact array
            cols = 3 * (op[lo:hi, None, None] - p0) + np.arange(3)[None, None, :]
            reduced = (6 * cams[:, None] + np.arange(6)).ravel()  # the same rows in S
            self.slabs.append((p0, p1, slice(lo, hi), reduced, (rows * 3 * (p1 - p0) + cols).ravel()))


def _summing_matrix(block_of, n_blocks):
    """(n_blocks, len(block_of)) 0/1 CSR matrix whose product with per-row
    values sums them into their blocks."""
    m = len(block_of)
    return csr_matrix((np.ones(m), (block_of, np.arange(m))), shape=(n_blocks, m))


def _normal_equations(struct, J_cam, J_pt, r):
    """Undamped blocks of J^T J and J^T r at one Jacobian: camera blocks
    H_cc (Cf,6,6) and g_c (Cf,6), point blocks H_pp (Pf,3,3) and g_p (Pf,3),
    and the coupling blocks W (one 6x3 per coupled observation, in
    struct.coupled order)."""
    cam_obs, pt_obs = struct.cam_obs, struct.pt_obs
    J = J_cam[cam_obs].transpose(0, 2, 1)
    H_cc = struct.sum_by_cam @ np.matmul(J, J_cam[cam_obs]).reshape(-1, 36)
    g_c = struct.sum_by_cam @ np.matmul(J, r[cam_obs, :, None]).reshape(-1, 6)
    J = J_pt[pt_obs].transpose(0, 2, 1)
    H_pp = struct.sum_by_pt @ np.matmul(J, J_pt[pt_obs]).reshape(-1, 9)
    g_p = struct.sum_by_pt @ np.matmul(J, r[pt_obs, :, None]).reshape(-1, 3)
    W = np.matmul(J_cam[struct.coupled].transpose(0, 2, 1), J_pt[struct.coupled])
    return H_cc.reshape(-1, 6, 6), g_c, H_pp.reshape(-1, 3, 3), g_p, W


def _damped(H, lam):
    """H + lam diag(H) + 1e-12 I on every diagonal block."""
    idx = np.arange(H.shape[1])
    out = H.copy()
    out[:, idx, idx] += lam * H[:, idx, idx] + 1e-12
    return out


def _solve_lm_step(struct, normal, lam):
    """One damped normal-equation solve; returns (d_cam (Cf,6), d_pt (Pf,3)),
    or (None, None) when the damped system is singular.

    Points are eliminated: S = H_cc - (W H_pp^-1) W^T is accumulated one
    slab of points at a time with a dense GEMM, the camera step solves
    S d_cam = -(g_c - W H_pp^-1 g_p), and the points back-substitute.
    """
    H_cc, g_c, H_pp, g_p, W = normal
    nc = struct.n_free_cams
    try:
        H_pp_inv = np.linalg.inv(_damped(H_pp, lam))
    except np.linalg.LinAlgError:
        return None, None

    S = np.zeros((nc, 6, nc, 6))
    S[np.arange(nc), :, np.arange(nc), :] = _damped(H_cc, lam)
    S = S.reshape(6 * nc, 6 * nc)
    g_red = g_c.ravel().copy()
    for p0, p1, obs, rows, flat in struct.slabs:
        WH = np.matmul(W[obs], H_pp_inv[struct.coupled_pt[obs]])
        shape = (len(rows), 3 * (p1 - p0))
        W_d = np.bincount(flat, weights=W[obs].ravel(), minlength=shape[0] * shape[1]).reshape(shape)
        WH_d = np.bincount(flat, weights=WH.ravel(), minlength=shape[0] * shape[1]).reshape(shape)
        S[np.ix_(rows, rows)] -= WH_d @ W_d.T
        g_red[rows] -= WH_d @ g_p[p0:p1].ravel()
    try:
        d_cam = np.linalg.solve(S, -g_red).reshape(nc, 6)
    except np.linalg.LinAlgError:
        return None, None

    # back-substitute points: d_p = -Hpp^-1 (g_p + W^T d_cam)
    rhs = g_p + struct.sum_coupled_by_pt @ np.matmul(d_cam[struct.coupled_cam, None, :], W)[:, 0, :]
    return d_cam, -np.matmul(H_pp_inv, rhs[:, :, None])[:, :, 0]


def lm_minimize(
    problem: BAProblem,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    relative_tol: float = DEFAULT_RELATIVE_TOL,
    rescale_fn=None,
) -> BAResult:
    """Minimize total squared reprojection error over the free blocks.

    Cost is non-increasing across accepted steps by construction. The
    optional rescale_fn(rotations, centers, points) is applied after each
    accepted step to hold a gauge (it must leave the cost unchanged). A
    call that reaches max_iterations before its stop test logs a warning.
    """
    struct = _SchurStructure(problem)
    rotations, centers, points = problem.copy_state()
    r = residuals(problem, rotations, centers, points)
    cost = cost_of(r)
    initial_cost = cost
    trace = [cost]
    lam = LAMBDA_INIT
    iterations = 0
    converged = False
    cost_floor = 1e-18 * max(len(problem.cam_idx), 1)

    if (struct.n_free_cams == 0 and struct.n_free_pts == 0) or cost <= cost_floor:
        converged = True

    cam_ids = np.flatnonzero(problem.free_cams)
    pt_ids = np.flatnonzero(problem.free_pts)
    while not converged and iterations < max_iterations and np.isfinite(cost):
        normal = _normal_equations(struct, *jacobian_blocks(problem, rotations, centers, points), r)
        _, g_c, _, g_p, _ = normal
        if max(np.abs(g_c).max(initial=0.0), np.abs(g_p).max(initial=0.0)) < GRADIENT_TOL:
            converged = True
            break
        accepted = False
        while iterations < max_iterations and lam <= LAMBDA_MAX:
            d_cam, d_pt = _solve_lm_step(struct, normal, lam)
            iterations += 1
            if d_cam is None:
                lam *= 2.0
                continue
            new_rot, new_cen, new_pts = rotations.copy(), centers.copy(), points.copy()
            new_rot[cam_ids] = so3_exp(d_cam[:, :3]) @ rotations[cam_ids]
            new_cen[cam_ids] = centers[cam_ids] + d_cam[:, 3:]
            if len(pt_ids):
                new_pts[pt_ids] = points[pt_ids] + d_pt
            new_r = residuals(problem, new_rot, new_cen, new_pts)
            new_cost = cost_of(new_r)
            if new_cost < cost:
                decrease = cost - new_cost
                rotations, centers, points, r = new_rot, new_cen, new_pts, new_r
                cost = new_cost
                trace.append(cost)
                lam = max(lam * 0.5, 1e-12)
                accepted = True
                if rescale_fn is not None:
                    rotations, centers, points = rescale_fn(rotations, centers, points)
                    r = residuals(problem, rotations, centers, points)
                    cost = cost_of(r)
                if decrease <= relative_tol * max(cost, 1e-300) or cost <= cost_floor:
                    converged = True
                break
            lam *= 2.0
        if not accepted:
            break
    if not converged and iterations >= max_iterations:
        logger.warning("LM stopped at its cap of %d iterations (cost %.6e from %.6e)",
                       max_iterations, cost, initial_cost)

    norms = np.linalg.norm(residuals(problem, rotations, centers, points), axis=1)
    return BAResult(
        rotations=rotations,
        centers=centers,
        points=points,
        cost=cost,
        initial_cost=initial_cost,
        iterations=iterations,
        converged=converged,
        residual_norms=norms,
        cost_trace=trace,
    )
