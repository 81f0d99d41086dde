import numpy as np
import pytest

from scipy.sparse import coo_matrix
from scipy.sparse.linalg import factorized

from clustersfm.averaging import (
    L1_MAX_ITERATIONS,
    ROTATION_IRLS_EPS,
    ROTATION_MAX_ITERATIONS,
    ROTATION_UPDATE_TOL,
    _spanning_tree_init,
    build_translation_system,
    rotation_averaging,
    solve_translation_l1,
)
from clustersfm.errors import NumericalError
from clustersfm.evaluation import align_similarity
from clustersfm.geometry import random_rotation, rotation_angle, so3_exp, so3_log
from clustersfm.local_sfm import RelativeMotion
from clustersfm.utils import component_labels


def motion(i, j, R, t, k=0, support=10):
    return RelativeMotion(i=i, j=j, cluster_id=k, rotation=R, translation=t, support=support)


def random_pair_graph(rng, n, m):
    pairs = set((i, i + 1) for i in range(n - 1))
    while len(pairs) < m:
        i, j = sorted(rng.choice(n, 2, replace=False).tolist())
        if i != j:
            pairs.add((i, j))
    return sorted(pairs)


def gauge_rotation_errors(est, gt):
    """Per-camera angular error after aligning the rotation gauge."""
    cams = sorted(est)
    Q = gt[cams[0]].T @ est[cams[0]]
    return [rotation_angle(est[c].T @ (gt[c] @ Q)) for c in cams]


def test_identity_fixed_point():
    motions = [motion(i, i + 1, np.eye(3), np.array([1.0, 0, 0])) for i in range(5)]
    est = rotation_averaging(motions)
    assert max(rotation_angle(R) for R in est.rotations.values()) == 0.0
    assert est.final_median_residual < 1e-12


def test_rotation_noise_free_exact():
    rng = np.random.default_rng(4)
    n = 50
    gt = {c: random_rotation(rng) for c in range(n)}
    pairs = random_pair_graph(rng, n, 200)
    motions = [motion(i, j, gt[j] @ gt[i].T, np.zeros(3), support=int(rng.integers(5, 50)))
               for (i, j) in pairs]
    est = rotation_averaging(motions)
    assert max(gauge_rotation_errors(est.rotations, gt)) < 1e-6


def test_rotation_gauge_invariance_of_residuals():
    # pre-rotating every ground-truth rotation leaves relative residuals unchanged
    rng = np.random.default_rng(5)
    n = 12
    gt = {c: random_rotation(rng) for c in range(n)}
    pairs = random_pair_graph(rng, n, 30)
    motions = [motion(i, j, random_rotation(rng), np.zeros(3)) for (i, j) in pairs]
    Q = random_rotation(rng)
    r0 = [rotation_angle(gt[j].T @ m.rotation @ gt[i]) for m, (i, j) in zip(motions, pairs)]
    # R -> R Q (global gauge change)
    r1 = [rotation_angle((gt[j] @ Q).T @ m.rotation @ (gt[i] @ Q)) for m, (i, j) in zip(motions, pairs)]
    assert np.abs(np.array(r0) - np.array(r1)).max() < 1e-9


def test_rotation_robustness_quick():
    rng = np.random.default_rng(6)
    n = 50
    pairs = random_pair_graph(rng, n, 200)
    wins = 0
    for trial in range(5):
        r = np.random.default_rng(trial)
        gt = {c: random_rotation(r) for c in range(n)}
        motions = [
            motion(i, j, random_rotation(r) if r.uniform() < 0.3 else gt[j] @ gt[i].T, np.zeros(3))
            for (i, j) in pairs
        ]
        est = rotation_averaging(motions)
        med = np.degrees(np.median(gauge_rotation_errors(est.rotations, gt)))
        wins += med < 2.0
    assert wins >= 4


def test_rotation_disconnected_components_reported():
    # union by rank roots {3, 4, 5} at camera 4; the label must still be 3
    motions = [
        motion(0, 1, np.eye(3), np.zeros(3)),
        motion(4, 5, np.eye(3), np.zeros(3)),
        motion(3, 5, np.eye(3), np.zeros(3)),
    ]
    est = rotation_averaging(motions)
    assert len(set(est.components.values())) == 2
    # each component is labelled by its smallest camera id, the gauge root
    assert est.components == {0: 0, 1: 0, 3: 3, 4: 3, 5: 3}
    assert rotation_angle(est.rotations[0]) < 1e-12
    assert rotation_angle(est.rotations[3]) < 1e-12


def _rotation_averaging_reference(motions):
    """The IRLS of rotation_averaging one motion at a time: a dict of camera
    rotations, one 3x3 product and one so3_log per motion, one so3_exp per
    camera. Returns (rotations, iterations, final residuals)."""
    cameras = sorted({m.i for m in motions} | {m.j for m in motions})
    motions_by_pair = {}
    for m in motions:
        motions_by_pair.setdefault((m.i, m.j), []).append(m)
    cam_pos = {c: k for k, c in enumerate(cameras)}
    rows_i = np.array([cam_pos[m.i] for m in motions])
    rows_j = np.array([cam_pos[m.j] for m in motions])
    n = len(cameras)
    _, root_pos = np.unique(component_labels(n, rows_i, rows_j), return_index=True)
    rotations = _spanning_tree_init([cameras[k] for k in root_pos], motions_by_pair)
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
    for iterations in range(1, ROTATION_MAX_ITERATIONS + 1):
        residuals = np.empty((len(motions), 3))
        for q, m in enumerate(motions):
            residuals[q] = so3_log(rotations[m.j].T @ m.rotation @ rotations[m.i])
        norms = np.linalg.norm(residuals, axis=1)
        if norms.max() < ROTATION_UPDATE_TOL:
            break
        sqrt_w = np.sqrt(1.0 / np.maximum(norms, ROTATION_IRLS_EPS))
        Asp = incidence.copy()
        Asp.data *= sqrt_w[entry_rows]
        rhs = -residuals * sqrt_w[:, None]
        solve = factorized((Asp.T @ Asp).tocsc())
        g = Asp.T @ rhs
        delta = np.zeros((n, 3))
        delta[free] = np.column_stack([solve(g[:, d]) for d in range(3)])
        for k in free:
            rotations[cameras[k]] = rotations[cameras[k]] @ so3_exp(delta[k])
        if np.abs(delta).max() < ROTATION_UPDATE_TOL:
            break
    final = [rotation_angle(rotations[m.j].T @ m.rotation @ rotations[m.i]) for m in motions]
    return rotations, iterations, final


def test_rotation_averaging_matches_per_motion_reference_exactly():
    rng = np.random.default_rng(12)
    gt = {c: random_rotation(rng) for c in range(20)}
    pairs = random_pair_graph(rng, 9, 24) + [(9 + i, 9 + j) for i, j in random_pair_graph(rng, 11, 30)]
    motions = [motion(i, j, so3_exp(rng.normal(scale=0.02, size=3)) @ gt[j] @ gt[i].T, np.zeros(3),
                      k=q % 3, support=int(rng.integers(5, 50)))
               for q, (i, j) in enumerate(pairs)]
    # a repeated pair from another cluster, and an outlier half a turn off
    motions.append(motion(*pairs[3], random_rotation(rng), np.zeros(3), k=3))
    i, j = pairs[-1]
    motions.append(motion(i, j, so3_exp(np.array([0.0, 0.0, np.pi - 1e-3])) @ gt[j] @ gt[i].T, np.zeros(3)))
    est = rotation_averaging(motions)
    rotations, iterations, final = _rotation_averaging_reference(motions)
    assert len(set(est.components.values())) == 2
    assert 1 < est.iterations == iterations
    assert sorted(est.rotations) == sorted(rotations)
    for c, R in rotations.items():
        assert np.array_equal(est.rotations[c], R)
    assert est.final_median_residual == float(np.median(final))


def test_translation_system_single_block():
    rot = {0: np.eye(3), 1: np.eye(3)}
    system = build_translation_system([motion(0, 1, np.eye(3), np.array([1.0, 0, 0]))], rot)
    A = system.A.toarray()
    B = system.B.toarray()
    assert A.shape == (3, 1)
    assert np.allclose(A[:, 0], [1.0, 0.0, 0.0])
    assert np.allclose(B[:, :3], np.eye(3))
    assert np.allclose(B[:, 3:], -np.eye(3))


def test_translation_system_duplicate_pair_two_blocks():
    rot = {0: np.eye(3), 1: np.eye(3)}
    motions = [
        motion(0, 1, np.eye(3), np.array([1.0, 0, 0]), k=0),
        motion(0, 1, np.eye(3), np.array([2.0, 0, 0]), k=1),
    ]
    system = build_translation_system(motions, rot)
    A = system.A.toarray()
    assert A.shape == (6, 2)
    assert np.allclose(A[:3, 0], [1, 0, 0]) and np.allclose(A[:3, 1], 0)
    assert np.allclose(A[3:, 1], [2, 0, 0]) and np.allclose(A[3:, 0], 0)


def test_translation_system_structural_counts():
    rng = np.random.default_rng(7)
    n = 20
    rot = {c: random_rotation(rng) for c in range(n)}
    pairs = random_pair_graph(rng, n, 60)
    motions = [motion(i, j, rot[j] @ rot[i].T, rng.normal(size=3), k=int(rng.integers(0, 3)))
               for (i, j) in pairs]
    system = build_translation_system(motions, rot)
    assert system.A.shape[0] == 3 * len(motions)
    assert system.A.nnz == 3 * len(motions)
    assert system.B.nnz == 6 * len(motions)


def test_translation_two_camera_identity():
    rot = {0: np.eye(3), 1: np.eye(3)}
    system = build_translation_system([motion(0, 1, np.eye(3), np.array([1.0, 0, 0]))], rot)
    sol = solve_translation_l1(system, rot)
    assert np.allclose(sol.centers[0], 0)
    assert np.allclose(sol.centers[1], [-1.0, 0.0, 0.0], atol=1e-12)
    assert sol.scales == {0: 1.0}


@pytest.fixture(scope="module")
def five_cluster_problem():
    rng = np.random.default_rng(8)
    n = 200
    gt_R = {c: random_rotation(rng) for c in range(n)}
    gt_c = rng.uniform(-10, 10, size=(n, 3))
    windows = [(0, 56), (36, 96), (76, 136), (116, 176), (156, 200)]
    gt_scales = [1.0, 2.0, 0.5, 3.0, 1.5]
    motions = []
    for k, (lo, hi) in enumerate(windows):
        cams = list(range(lo, hi))
        pairs = set((i, i + 1) for i in cams[:-1])
        while len(pairs) < 4 * (hi - lo):
            i, j = sorted(rng.choice(cams, 2, replace=False).tolist())
            if i != j:
                pairs.add((i, j))
        for (i, j) in sorted(pairs):
            motions.append(
                motion(i, j, gt_R[j] @ gt_R[i].T, gt_scales[k] * (gt_R[j] @ (gt_c[i] - gt_c[j])), k=k)
            )
    return gt_R, gt_c, gt_scales, motions


def test_translation_noise_free_scale_recovery(five_cluster_problem):
    gt_R, gt_c, gt_scales, motions = five_cluster_problem
    est = rotation_averaging(motions)
    system = build_translation_system(motions, est)
    sol = solve_translation_l1(system, est)
    expect = np.array([1.0 / s for s in gt_scales])
    expect /= expect[0]
    got = np.array([sol.scales[k] for k in range(5)])
    assert np.abs(got - expect).max() < 1e-8
    # centers match the ground truth after similarity alignment
    cams = sorted(sol.centers)
    est_c = np.array([sol.centers[c] for c in cams])
    s, R, t = align_similarity(est_c, gt_c[cams])
    rmse = np.sqrt(((s * est_c @ R.T + t - gt_c[cams]) ** 2).sum(axis=1).mean())
    diam = np.linalg.norm(gt_c[:, None] - gt_c[None], axis=-1).max()
    assert rmse < 1e-8 * diam
    # Eq. residual identity on noise-free input
    assert sol.residual_norms.max() < 1e-8
    # gauge contract
    assert np.allclose(sol.centers[0], 0.0)
    assert sol.scales[0] == 1.0
    assert all(a > 0 for a in sol.scales.values())


def test_l1_beats_l2_with_outliers():
    rng = np.random.default_rng(2)
    n = 60
    gt_R = {c: random_rotation(rng) for c in range(n)}
    gt_c = rng.uniform(-10, 10, size=(n, 3))
    pairs = random_pair_graph(rng, n, 4 * n)
    wins = 0
    for trial in range(5):
        r = np.random.default_rng(1000 + trial)
        motions = []
        for (i, j) in pairs:
            t = gt_R[j] @ (gt_c[i] - gt_c[j])
            if r.uniform() < 0.2:
                bad = r.normal(size=3)
                t = bad / np.linalg.norm(bad) * np.linalg.norm(t)
            motions.append(motion(i, j, gt_R[j] @ gt_R[i].T, t))
        system = build_translation_system(motions, gt_R)

        def med(sol):
            est = np.array([sol.centers[c] for c in range(n)])
            s, R, tt = align_similarity(est, gt_c)
            return np.median(np.linalg.norm(s * est @ R.T + tt - gt_c, axis=1))

        wins += med(solve_translation_l1(system, gt_R)) < med(solve_translation_l1(system, gt_R, max_iterations=1))
    assert wins == 5


def test_collinear_motion_well_posed():
    # direction-only formulations cannot solve a straight line; the cluster
    # scale formulation can
    n = 10
    gt_c = np.zeros((n, 3))
    gt_c[:, 0] = np.arange(n, dtype=float)
    rot = {c: np.eye(3) for c in range(n)}
    motions = []
    for k, (lo, hi, s) in enumerate([(0, 6, 1.0), (4, 10, 2.5)]):
        for i in range(lo, hi - 1):
            for j in range(i + 1, hi):
                motions.append(motion(i, j, np.eye(3), s * (gt_c[i] - gt_c[j]), k=k))
    system = build_translation_system(motions, rot)
    sol = solve_translation_l1(system, rot)
    est = np.array([sol.centers[c] for c in range(n)])
    scale = gt_c[-1, 0] / est[-1, 0]
    assert np.abs(scale * est - gt_c).max() < 1e-8


def test_degenerate_scale_raises():
    # one cluster whose cameras appear nowhere else and whose equations are
    # colocated (zero baselines) cannot fix its scale
    rot = {c: np.eye(3) for c in range(4)}
    motions = [
        motion(0, 1, np.eye(3), np.array([1.0, 0, 0]), k=0),
        motion(2, 3, np.eye(3), np.array([0.0, 0, 0]), k=1),  # zero translation
        motion(1, 2, np.eye(3), np.array([1.0, 0, 0]), k=0),
    ]
    system = build_translation_system(motions, rot)
    with pytest.raises(NumericalError):
        solve_translation_l1(system, rot)


def test_objective_monotone_under_irls(five_cluster_problem):
    gt_R, gt_c, gt_scales, motions = five_cluster_problem
    rng = np.random.default_rng(3)
    noisy = []
    for m in motions:
        t = m.translation + rng.normal(0, 0.02, 3)
        noisy.append(motion(m.i, m.j, m.rotation, t, k=m.cluster_id))
    est = rotation_averaging(noisy)
    system = build_translation_system(noisy, est)
    sol = solve_translation_l1(system, est)
    # the L2 start (the first, unit-weight iterate) can only improve under
    # accepted IRLS iterations
    l2 = solve_translation_l1(system, est, max_iterations=1)
    assert sol.objective <= l2.objective + 1e-9


def test_translation_cap_warning(five_cluster_problem, caplog):
    gt_R, gt_c, gt_scales, motions = five_cluster_problem
    rng = np.random.default_rng(4)
    noisy = [motion(m.i, m.j, m.rotation, m.translation + rng.normal(0, 0.02, 3), k=m.cluster_id)
             for m in motions]
    system = build_translation_system(noisy, gt_R)
    with caplog.at_level("WARNING", logger="clustersfm.averaging"):
        l2 = solve_translation_l1(system, gt_R, max_iterations=1)
    assert l2.iterations == 1 and "stopped at its cap of 1 iterations" in caplog.text
    caplog.clear()
    with caplog.at_level("WARNING", logger="clustersfm.averaging"):
        l1 = solve_translation_l1(system, gt_R, max_iterations=2)
    assert l1.iterations == 2 and "stopped at its cap of 2 iterations" in caplog.text
    assert l1.objective < l2.objective


def noisy_loop_system(seed, n=60, clusters=4, overlap=6, sigma=0.02):
    """Translation equations of a closed camera loop covered by overlapping
    clusters of unknown scale, each pair up to three cameras apart."""
    rng = np.random.default_rng(seed)
    theta = 2 * np.pi * np.arange(n) / n
    gt_c = np.column_stack([10 * np.cos(theta), 10 * np.sin(theta), rng.normal(0, 0.5, n)])
    gt_R = {c: random_rotation(rng) for c in range(n)}
    motions = []
    step = n // clusters
    for k in range(clusters):
        cams = [(k * step + d) % n for d in range(step + overlap)]
        scale = rng.uniform(0.5, 2.0)
        for a in range(len(cams)):
            for b in range(a + 1, min(a + 4, len(cams))):
                i, j = sorted((cams[a], cams[b]))
                t = scale * (gt_R[j] @ (gt_c[i] - gt_c[j])) + rng.normal(0, sigma, 3)
                motions.append(motion(i, j, gt_R[j] @ gt_R[i].T, t, k=k))
    return build_translation_system(motions, gt_R), gt_R


def test_translation_l1_stops_near_its_converged_objective(caplog):
    for seed in range(3):
        system, gt_R = noisy_loop_system(seed)
        caplog.clear()
        sol = solve_translation_l1(system, gt_R)
        assert sol.iterations < L1_MAX_ITERATIONS // 4 and "cap" not in caplog.text, seed
        # no relative stop: the IRLS runs until an iterate fails to improve, or to its cap
        converged = solve_translation_l1(system, gt_R, relative_tol=0.0)
        assert sol.objective - converged.objective <= 1e-3 * converged.objective, seed
