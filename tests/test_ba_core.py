import logging

import numpy as np
import pytest

from clustersfm import ba_core
from clustersfm.ba_core import (
    BAProblem,
    _normal_equations,
    _SchurStructure,
    _solve_lm_step,
    jacobian_blocks,
    lm_minimize,
    residuals,
)
from clustersfm.geometry import so3_exp
from clustersfm.synthetic import _look_at


def make_problem(rng, n_cams=4, n_pts=15, pixel_noise=0.0, fix_first=True):
    centers = rng.normal(size=(n_cams, 3)) * 2.0
    target = np.array([0.0, 0.0, 30.0])
    rotations = np.array([_look_at(c, target) for c in centers])
    points = rng.normal(size=(n_pts, 3)) + target
    intr = np.tile(np.array([800.0, 640.0, 480.0]), (n_cams, 1))
    cam_idx, pt_idx = np.meshgrid(np.arange(n_cams), np.arange(n_pts), indexing="ij")
    cam_idx, pt_idx = cam_idx.ravel(), pt_idx.ravel()
    pix = np.zeros((len(cam_idx), 2))
    for m, (c, p) in enumerate(zip(cam_idx, pt_idx)):
        Y = rotations[c] @ (points[p] - centers[c])
        pix[m] = [800 * Y[0] / Y[2] + 640, 800 * Y[1] / Y[2] + 480]
    if pixel_noise:
        pix = pix + rng.normal(0, pixel_noise, pix.shape)
    free_cams = np.ones(n_cams, dtype=bool)
    if fix_first:
        free_cams[0] = False
    return BAProblem(
        rotations=rotations,
        centers=centers,
        intrinsics=intr,
        points=points,
        cam_idx=cam_idx,
        pt_idx=pt_idx,
        pixels=pix,
        free_cams=free_cams,
        free_pts=np.ones(n_pts, dtype=bool),
    ), (rotations.copy(), centers.copy(), points.copy())


def pack_parameters(problem):
    """Parameter vector [w_c, c_c for free cams..., X_p for free points...];
    rotations enter as zero local increments around the current state."""
    cam_ids = np.flatnonzero(problem.free_cams)
    cams = np.column_stack([np.zeros((len(cam_ids), 3)), problem.centers[cam_ids]])
    return np.concatenate([cams.ravel(), problem.points[problem.free_pts].ravel()])


def residual_vector_at(problem, params):
    """Flat residual vector at a pack_parameters vector."""
    rotations, centers, points = problem.copy_state()
    cam_ids = np.flatnonzero(problem.free_cams)
    cam_params = params[: 6 * len(cam_ids)].reshape(-1, 6)
    rotations[cam_ids] = so3_exp(cam_params[:, :3]) @ problem.rotations[cam_ids]
    centers[cam_ids] = cam_params[:, 3:]
    points[problem.free_pts] = params[6 * len(cam_ids) :].reshape(-1, 3)
    return residuals(problem, rotations, centers, points).ravel()


def jacobian_dense(problem):
    """Full analytic Jacobian (2M x (6 Cf + 3 Pf)) in pack_parameters order,
    assembled from ba_core's per-observation blocks."""
    J_cam, J_pt = jacobian_blocks(problem)
    cpos = np.cumsum(problem.free_cams) - 1
    ppos = np.cumsum(problem.free_pts) - 1
    off = 6 * int(problem.free_cams.sum())
    J = np.zeros((2 * len(problem.cam_idx), off + 3 * int(problem.free_pts.sum())))
    for o, (c, p) in enumerate(zip(problem.cam_idx, problem.pt_idx)):
        if problem.free_cams[c]:
            J[2 * o : 2 * o + 2, 6 * cpos[c] : 6 * cpos[c] + 6] = J_cam[o]
        if problem.free_pts[p]:
            J[2 * o : 2 * o + 2, off + 3 * ppos[p] : off + 3 * ppos[p] + 3] = J_pt[o]
    return J


def finite_difference_jacobian(problem, h=1e-6):
    params = pack_parameters(problem)
    J = np.zeros((2 * len(problem.cam_idx), len(params)))
    for k in range(len(params)):
        up, dn = params.copy(), params.copy()
        up[k] += h
        dn[k] -= h
        J[:, k] = (residual_vector_at(problem, up) - residual_vector_at(problem, dn)) / (2 * h)
    return J


def max_relative_error(Ja, Jfd):
    denom = np.maximum.reduce([np.abs(Ja), np.abs(Jfd), np.ones_like(Ja)])
    return float((np.abs(Ja - Jfd) / denom).max())


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(0)
    problem, _ = make_problem(rng, pixel_noise=2.0)
    assert max_relative_error(jacobian_dense(problem), finite_difference_jacobian(problem)) < 1e-4


def test_ground_truth_is_fixed_point():
    rng = np.random.default_rng(1)
    problem, _ = make_problem(rng)
    result = lm_minimize(problem)
    assert result.converged
    assert result.iterations <= 1
    assert result.cost < 1e-15


def test_perturbed_state_recovers():
    rng = np.random.default_rng(2)
    problem, (rot, cen, pts) = make_problem(rng)
    problem.rotations = problem.rotations.copy()
    problem.centers = problem.centers.copy()
    problem.points = problem.points.copy()
    for c in range(1, len(rot)):
        problem.rotations[c] = so3_exp(rng.normal(size=3) * 0.01) @ problem.rotations[c]
        problem.centers[c] = problem.centers[c] + rng.normal(size=3) * 0.03
    problem.points = problem.points + rng.normal(size=pts.shape) * 0.03
    result = lm_minimize(problem, max_iterations=100)
    assert result.cost < 1e-16 * len(problem.cam_idx) or result.cost < result.initial_cost * 1e-12


def test_cost_trace_monotone():
    rng = np.random.default_rng(3)
    problem, _ = make_problem(rng, pixel_noise=1.0)
    problem.rotations = problem.rotations.copy()
    for c in range(1, 4):
        problem.rotations[c] = so3_exp(rng.normal(size=3) * 0.02) @ problem.rotations[c]
    result = lm_minimize(problem, max_iterations=60)
    trace = result.cost_trace
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


def test_fixed_blocks_do_not_move():
    rng = np.random.default_rng(4)
    problem, (rot, cen, pts) = make_problem(rng, pixel_noise=1.0)
    problem.free_pts = np.zeros(len(pts), dtype=bool)
    problem.free_pts[:5] = True
    result = lm_minimize(problem, max_iterations=20)
    assert np.array_equal(result.rotations[0], rot[0])
    assert np.array_equal(result.centers[0], cen[0])
    assert np.array_equal(result.points[5:], pts[5:])


def test_rescale_hook_is_cost_invariant():
    rng = np.random.default_rng(5)
    problem, _ = make_problem(rng, pixel_noise=0.5)

    def rescale(rotations, centers, points):
        origin = centers[0]
        s = 1.0 / max(np.linalg.norm(centers[1] - origin), 1e-12)
        return rotations, origin + (centers - origin) * s, origin + (points - origin) * s

    result = lm_minimize(problem, max_iterations=40, rescale_fn=rescale)
    assert abs(np.linalg.norm(result.centers[1] - result.centers[0]) - 1.0) < 1e-9
    r = residuals(problem, result.rotations, result.centers, result.points)
    assert np.isfinite(r).all()


def reference_step(problem, lam):
    """Direct solve of the full damped normal equations
    (J^T J + lam diag(J^T J) + 1e-12 I) delta = -J^T r."""
    J = jacobian_dense(problem)
    r = residuals(problem).ravel()
    H = J.T @ J
    H_d = H + lam * np.diag(np.diag(H)) + 1e-12 * np.eye(len(H))
    return np.linalg.solve(H_d, -J.T @ r)


def schur_step(problem, lam):
    struct = _SchurStructure(problem)
    normal = _normal_equations(struct, *jacobian_blocks(problem), residuals(problem))
    d_cam, d_pt = _solve_lm_step(struct, normal, lam)
    return np.concatenate([d_cam.ravel(), d_pt.ravel()])


def perturbed_problem(seed, n_cams, n_pts):
    """Noisy problem in the partition layout of the distributed BA: some
    cameras and some points fixed, the state moved off the optimum."""
    rng = np.random.default_rng(seed)
    problem, _ = make_problem(rng, n_cams=n_cams, n_pts=n_pts, pixel_noise=1.0)
    problem.free_cams[: n_cams // 3] = False
    problem.free_pts = rng.random(n_pts) < 0.7
    problem.centers = problem.centers + rng.normal(size=problem.centers.shape) * 0.05
    problem.points = problem.points + rng.normal(size=problem.points.shape) * 0.05
    # a camera may see a point twice (a track with two features in one view)
    dup = rng.choice(len(problem.cam_idx), size=5, replace=False)
    problem.cam_idx = np.append(problem.cam_idx, problem.cam_idx[dup])
    problem.pt_idx = np.append(problem.pt_idx, problem.pt_idx[dup])
    problem.pixels = np.vstack([problem.pixels, problem.pixels[dup] + 0.5])
    return problem


@pytest.mark.parametrize("lam", [1e-3, 1.0])
def test_schur_step_matches_dense_normal_equations(lam):
    problem = perturbed_problem(6, n_cams=7, n_pts=40)
    assert problem.free_cams.sum() and (~problem.free_cams).sum()
    assert problem.free_pts.sum() and (~problem.free_pts).sum()
    ref = reference_step(problem, lam)
    assert np.allclose(schur_step(problem, lam), ref, rtol=1e-7, atol=1e-9 * np.abs(ref).max())


def test_schur_step_without_free_cameras_or_points():
    problem = perturbed_problem(7, n_cams=5, n_pts=20)
    problem.free_cams[:] = False
    ref = reference_step(problem, 1e-3)
    assert np.allclose(schur_step(problem, 1e-3), ref, rtol=1e-7, atol=1e-9 * np.abs(ref).max())

    problem = perturbed_problem(8, n_cams=5, n_pts=20)
    problem.free_pts[:] = False
    ref = reference_step(problem, 1e-3)
    assert np.allclose(schur_step(problem, 1e-3), ref, rtol=1e-7, atol=1e-9 * np.abs(ref).max())


def test_schur_step_across_assembly_blocks(monkeypatch):
    # more free points than one assembly block, with a partial last block
    problem = perturbed_problem(9, n_cams=4, n_pts=ba_core.ASSEMBLY_BLOCK * 2)
    assert problem.free_pts.sum() > ba_core.ASSEMBLY_BLOCK
    assert problem.free_pts.sum() % ba_core.ASSEMBLY_BLOCK
    ref = reference_step(problem, 1e-3)
    assert np.allclose(schur_step(problem, 1e-3), ref, rtol=1e-7, atol=1e-9 * np.abs(ref).max())
    # many small blocks give the same step
    monkeypatch.setattr(ba_core, "ASSEMBLY_BLOCK", 7)
    assert np.allclose(schur_step(problem, 1e-3), ref, rtol=1e-7, atol=1e-9 * np.abs(ref).max())


def banded_problem(seed, n_cams=8, n_pts=60):
    """Noisy problem where each point is seen by a window of 3 consecutive
    cameras, points ordered along the band: camera 0 is fixed, and the last
    camera is free but sees only fixed points."""
    rng = np.random.default_rng(seed)
    problem, _ = make_problem(rng, n_cams=n_cams, n_pts=n_pts, pixel_noise=1.0)
    first = np.arange(n_pts) * (n_cams - 2) // n_pts
    keep = np.flatnonzero((problem.cam_idx >= first[problem.pt_idx]) & (problem.cam_idx < first[problem.pt_idx] + 3))
    keep = rng.permutation(keep)
    problem.cam_idx, problem.pt_idx, problem.pixels = problem.cam_idx[keep], problem.pt_idx[keep], problem.pixels[keep]
    problem.free_pts = np.ones(n_pts, dtype=bool)
    problem.free_pts[np.unique(problem.pt_idx[problem.cam_idx == n_cams - 1])] = False
    problem.centers = problem.centers + rng.normal(size=problem.centers.shape) * 0.05
    problem.points = problem.points + rng.normal(size=problem.points.shape) * 0.05
    return problem


def test_schur_step_with_slabs_that_see_some_cameras(monkeypatch):
    monkeypatch.setattr(ba_core, "ASSEMBLY_BLOCK", 8)
    problem = banded_problem(10)
    struct = _SchurStructure(problem)
    assert len(struct.slabs) > 1
    slab_rows = [rows for *_, rows, _ in struct.slabs]
    assert all(len(rows) < 6 * struct.n_free_cams for rows in slab_rows)
    # the last free camera sees no free point, so no slab touches its rows
    last = 6 * (struct.n_free_cams - 1)
    assert not np.isin(np.concatenate(slab_rows), np.arange(last, last + 6)).any()
    for lam in (1e-3, 1.0):
        ref = reference_step(problem, lam)
        assert np.allclose(schur_step(problem, lam), ref, rtol=1e-7, atol=1e-9 * np.abs(ref).max())


def test_lm_warns_when_it_stops_at_its_cap(caplog):
    problem = perturbed_problem(11, n_cams=5, n_pts=20)
    with caplog.at_level(logging.WARNING, logger="clustersfm.ba_core"):
        result = lm_minimize(problem, max_iterations=1)
    assert not result.converged and result.iterations == 1
    assert [r.getMessage().split(" (")[0] for r in caplog.records] == ["LM stopped at its cap of 1 iterations"]


def test_lm_that_converges_does_not_warn(caplog):
    problem = perturbed_problem(11, n_cams=5, n_pts=20)
    with caplog.at_level(logging.WARNING, logger="clustersfm.ba_core"):
        result = lm_minimize(problem, max_iterations=100)
    assert result.converged
    assert not caplog.records
