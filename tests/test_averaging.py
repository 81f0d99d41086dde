import numpy as np
import pytest

from scipy.sparse import coo_matrix, hstack as sp_hstack
from scipy.sparse.linalg import factorized

from clustersfm import averaging
from clustersfm.averaging import (
    L1_MAX_ITERATIONS,
    ROTATION_IRLS_EPS,
    ROTATION_MAX_ITERATIONS,
    ROTATION_UPDATE_TOL,
    rotation_averaging,
    solve_translation_l1,
)
from clustersfm.errors import DataError, NumericalError
from clustersfm.evaluation import align_similarity
from clustersfm.geometry import rotation_angle, so3_exp, so3_log
from conftest import Motion, global_motion, motion_table, random_rotation, solve_translation_with


def motion(i, j, R, t, k=0, support=10):
    return Motion(i, j, k, R, t, support)


def averaged(motions):
    return rotation_averaging(motion_table(motions))


def random_pair_graph(rng, n, m):
    pairs = set((i, i + 1) for i in range(n - 1))
    while len(pairs) < m:
        i, j = sorted(rng.choice(n, 2, replace=False).tolist())
        if i != j:
            pairs.add((i, j))
    return sorted(pairs)


def gauge_rotation_errors(est, gt):
    """Per-camera angular error of a pose table after aligning the rotation gauge."""
    Q = gt[est.cameras[0]].T @ est.rotation[0]
    return [rotation_angle(R.T @ (gt[c] @ Q)) for c, R in zip(est.cameras.tolist(), est.rotation)]


def test_identity_fixed_point():
    motions = [motion(i, i + 1, np.eye(3), np.array([1.0, 0, 0])) for i in range(5)]
    est = averaged(motions)
    assert rotation_angle(est.rotation).max() == 0.0
    assert est.final_median_residual < 1e-12


def test_rotation_noise_free_exact():
    rng = np.random.default_rng(4)
    n = 50
    gt = {c: random_rotation(rng) for c in range(n)}
    pairs = random_pair_graph(rng, n, 200)
    motions = [motion(i, j, gt[j] @ gt[i].T, np.zeros(3), support=int(rng.integers(5, 50)))
               for (i, j) in pairs]
    est = averaged(motions)
    assert max(gauge_rotation_errors(est, gt)) < 1e-6


def test_rotation_gauge_invariance_of_residuals():
    # pre-rotating every ground-truth rotation leaves relative residuals unchanged
    rng = np.random.default_rng(5)
    n = 12
    gt = {c: random_rotation(rng) for c in range(n)}
    pairs = random_pair_graph(rng, n, 30)
    motions = [motion(i, j, random_rotation(rng), np.zeros(3)) for (i, j) in pairs]
    Q = random_rotation(rng)
    r0 = [rotation_angle(gt[j].T @ m.R @ gt[i]) for m, (i, j) in zip(motions, pairs)]
    # R -> R Q (global gauge change)
    r1 = [rotation_angle((gt[j] @ Q).T @ m.R @ (gt[i] @ Q)) for m, (i, j) in zip(motions, pairs)]
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
        est = averaged(motions)
        med = np.degrees(np.median(gauge_rotation_errors(est, gt)))
        wins += med < 2.0
    assert wins >= 4


def test_split_motion_graph_refused():
    # cameras 3, 4 and 5 share no motion with camera 0, so no one gauge poses them all
    motions = [
        motion(0, 1, np.eye(3), np.array([1.0, 0, 0])),
        motion(4, 5, np.eye(3), np.array([1.0, 0, 0]), k=1),
        motion(3, 5, np.eye(3), np.array([1.0, 0, 0]), k=1),
    ]
    message = r"^the motion graph is split: cameras \[3, 4, 5\] are cut off from camera 0$"
    with pytest.raises(NumericalError, match=message):
        averaged(motions)
    with pytest.raises(NumericalError, match=message):
        solve_translation_l1(motion_table(motions), global_motion({c: np.eye(3) for c in (0, 1, 3, 4, 5)}))


def _spanning_tree_reference(root, motions):
    """The spanning-tree start one motion at a time: the motions of each
    pair in a dict of lists, the pairs by falling best support, then by pair."""
    motions_by_pair = {}
    for m in motions:
        motions_by_pair.setdefault((m.i, m.j), []).append(m)
    rotations = {root: np.eye(3)}
    edges = sorted(motions_by_pair, key=lambda pair: (-max(m.support for m in motions_by_pair[pair]), pair))
    changed = True
    while changed:
        changed = False
        for (i, j) in edges:
            if (i in rotations) == (j in rotations):
                continue
            best = max(motions_by_pair[(i, j)], key=lambda m: m.support)
            if i in rotations:
                rotations[j] = best.R @ rotations[i]
            else:
                rotations[i] = best.R.T @ rotations[j]
            changed = True
    return rotations


def _rotation_averaging_reference(motions):
    """The IRLS of rotation_averaging one motion at a time: a dict of camera
    rotations, one 3x3 product and one so3_log per motion, one so3_exp per
    camera. Returns (rotations, iterations, final residuals)."""
    cameras = sorted({m.i for m in motions} | {m.j for m in motions})
    cam_pos = {c: k for k, c in enumerate(cameras)}
    rows_i = np.array([cam_pos[m.i] for m in motions])
    rows_j = np.array([cam_pos[m.j] for m in motions])
    n = len(cameras)
    rotations = _spanning_tree_reference(cameras[0], motions)
    free = np.arange(1, n)  # all but the root, the smallest camera
    cols = np.column_stack([rows_i - 1, rows_j - 1]).ravel()
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
            residuals[q] = so3_log(rotations[m.j].T @ m.R @ rotations[m.i])
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
    final = [rotation_angle(rotations[m.j].T @ m.R @ rotations[m.i]) for m in motions]
    return rotations, iterations, final


def test_rotation_averaging_matches_per_motion_reference_exactly():
    rng = np.random.default_rng(12)
    gt = {c: random_rotation(rng) for c in range(20)}
    pairs = random_pair_graph(rng, 20, 54)
    motions = [motion(i, j, so3_exp(rng.normal(scale=0.02, size=3)) @ gt[j] @ gt[i].T, np.zeros(3),
                      k=q % 3, support=int(rng.integers(5, 50)))
               for q, (i, j) in enumerate(pairs)]
    # a pair repeated by another cluster at equal support, whose first motion
    # starts the tree, and an outlier half a turn off
    motions.append(motion(*pairs[3], random_rotation(rng), np.zeros(3), k=3, support=motions[3].support))  # a tie
    i, j = pairs[-1]
    motions.append(motion(i, j, so3_exp(np.array([0.0, 0.0, np.pi - 1e-3])) @ gt[j] @ gt[i].T, np.zeros(3)))
    est = averaged(motions)
    rotations, iterations, final = _rotation_averaging_reference(motions)
    assert 1 < est.iterations == iterations
    assert est.cameras.tolist() == sorted(rotations)
    for c, R in zip(est.cameras.tolist(), est.rotation):
        assert np.array_equal(R, rotations[c])
    assert est.final_median_residual == float(np.median(final))


def test_translation_system_single_block():
    # one motion is the one block a R_j^T t_ij = c_i - c_j: camera j sits at -R_j^T t_ij
    rng = np.random.default_rng(1)
    rot = {0: random_rotation(rng), 1: random_rotation(rng)}
    t = np.array([1.0, 2.0, -0.5])
    sol = solve_translation_l1(motion_table([motion(0, 1, rot[1] @ rot[0].T, t)]), global_motion(rot))
    assert sol.clusters.tolist() == [0] and sol.scale.tolist() == [1.0] and sol.residual_norms.shape == (1,)
    assert np.array_equal(sol.center[0], np.zeros(3))
    assert np.allclose(sol.center[1], -rot[1].T @ t, atol=1e-12)


def test_translation_system_duplicate_pair_two_blocks():
    # a pair measured in two clusters gives two blocks, each on its own scale
    rot = {0: np.eye(3), 1: np.eye(3)}
    motions = [
        motion(0, 1, np.eye(3), np.array([1.0, 0, 0]), k=0),
        motion(0, 1, np.eye(3), np.array([2.0, 0, 0]), k=1),
    ]
    sol = solve_translation_l1(motion_table(motions), global_motion(rot))
    assert sol.residual_norms.shape == (2,) and sol.residual_norms.max() < 1e-12
    assert sol.clusters.tolist() == [0, 1] and sol.scale[0] == 1.0 and abs(sol.scale[1] - 0.5) < 1e-12


def test_translation_system_structural_counts():
    rng = np.random.default_rng(7)
    n = 20
    rot = {c: random_rotation(rng) for c in range(n)}
    centers = rng.normal(size=(n, 3))
    pairs = random_pair_graph(rng, n, 60)
    motions = [motion(i, j, rot[j] @ rot[i].T, (k + 1) * rot[j] @ (centers[i] - centers[j]), k=k)
               for (i, j), k in zip(pairs, rng.integers(0, 3, len(pairs)).tolist())]
    sol = solve_translation_l1(motion_table(motions), global_motion(rot))
    assert sol.residual_norms.shape == (len(motions),)
    assert sol.clusters.tolist() == sorted({m.k for m in motions}) and sol.scale.shape == sol.clusters.shape
    assert sol.cameras.tolist() == list(range(n)) and sol.rotation.shape == (n, 3, 3) and sol.center.shape == (n, 3)
    i, j = pairs[5]
    with pytest.raises(DataError, match=f"^motion \\({i}, {j}\\) lacks a rotation estimate$"):
        solve_translation_l1(motion_table(motions), global_motion({c: R for c, R in rot.items() if c != j}))


def _translation_reference(motions, rot):
    """solve_translation_l1 one motion at a time: the per-motion A/B builder
    (3 rows per motion; A holds R_j^T t in its cluster's column, B holds +I
    at camera i, then -I at camera j), reduced to [A | -B] z = 0 without the
    columns of the gauge camera and of the gauge cluster, whose column moves
    to the right-hand side. Returns (scales, centers, residual norms,
    objective, iterations)."""
    cluster_ids = sorted({m.k for m in motions})
    camera_ids = sorted({m.i for m in motions} | {m.j for m in motions})
    col_of_cluster = {k: c for c, k in enumerate(cluster_ids)}
    col_of_camera = {c: k for k, c in enumerate(camera_ids)}
    a_rows, a_cols, a_vals, b_rows, b_cols, b_vals = [], [], [], [], [], []
    for q, m in enumerate(motions):
        p = rot[m.j].T @ m.t
        for d in range(3):
            a_rows.append(3 * q + d)
            a_cols.append(col_of_cluster[m.k])
            a_vals.append(p[d])
        for cam, sign in ((m.i, 1.0), (m.j, -1.0)):
            for d in range(3):
                b_rows.append(3 * q + d)
                b_cols.append(3 * col_of_camera[cam] + d)
                b_vals.append(sign)
    A = coo_matrix((a_vals, (a_rows, a_cols)), shape=(3 * len(motions), len(cluster_ids))).tocsc()
    B = coo_matrix((b_vals, (b_rows, b_cols)), shape=(3 * len(motions), 3 * len(camera_ids))).tocsc()
    gauge_camera = camera_ids[0]
    gauge_cluster = min(m.k for m in motions if gauge_camera in (m.i, m.j))
    free_cls = [k for k in cluster_ids if k != gauge_cluster]
    M = sp_hstack([A[:, [col_of_cluster[k] for k in free_cls]], -B[:, 3:]]).tocsr()
    d = -A[:, [col_of_cluster[gauge_cluster]]].toarray().ravel()
    z, iterations = averaging._irls_l1(M, d)
    residual = M @ z - d
    scales = {gauge_cluster: 1.0} | {k: float(z[pos]) for pos, k in enumerate(free_cls)}
    centers = {gauge_camera: np.zeros(3)}
    for pos, c in enumerate(camera_ids[1:]):
        centers[c] = z[len(free_cls) + 3 * pos : len(free_cls) + 3 * pos + 3]
    norms = np.array([np.linalg.norm(residual[3 * q : 3 * q + 3]) for q in range(len(motions))])
    return scales, centers, norms, float(np.abs(residual).sum()), iterations


def test_translation_matches_per_motion_reference_exactly():
    # four clusters in a chain, each sharing cameras with the next; the
    # cameras two clusters share give pairs measured in both, and the motions
    # come in shuffled order
    rng = np.random.default_rng(13)
    gt_R = {c: random_rotation(rng) for c in range(14)}
    gt_c = rng.normal(scale=5.0, size=(14, 3))
    motions = []
    for k, cams in ((5, range(0, 5)), (2, range(3, 8)), (9, range(6, 12)), (7, range(10, 14))):
        scale = rng.uniform(0.5, 2.0)
        motions += [motion(i, j, gt_R[j] @ gt_R[i].T,
                           scale * gt_R[j] @ (gt_c[i] - gt_c[j]) + rng.normal(scale=0.05, size=3), k=k)
                    for i in cams for j in cams if i < j]
    motions = [motions[q] for q in rng.permutation(len(motions))]
    rot = {c: so3_exp(rng.normal(scale=0.01, size=3)) @ R for c, R in gt_R.items()}
    sol = solve_translation_l1(motion_table(motions), global_motion(rot))
    scales, centers, norms, objective, iterations = _translation_reference(motions, rot)
    assert dict(zip(sol.clusters.tolist(), sol.scale.tolist())) == scales and len(scales) == 4
    assert sol.cameras.tolist() == sorted(centers) == list(range(14))
    for c, center in centers.items():
        assert np.array_equal(sol.center[c], center)
    assert np.array_equal(sol.residual_norms, norms) and norms.max() > 0
    assert sol.objective == objective and sol.iterations == iterations > 1
    assert np.array_equal(sol.rotation, [rot[c] for c in range(14)])


def test_translation_two_camera_identity():
    rot = {0: np.eye(3), 1: np.eye(3)}
    table = motion_table([motion(0, 1, np.eye(3), np.array([1.0, 0, 0]))])
    sol = solve_translation_l1(table, global_motion(rot))
    assert np.allclose(sol.center[0], 0)
    assert np.allclose(sol.center[1], [-1.0, 0.0, 0.0], atol=1e-12)
    assert sol.clusters.tolist() == [0] and sol.scale.tolist() == [1.0]


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
    table = motion_table(motions)
    sol = solve_translation_l1(table, rotation_averaging(table))
    expect = np.array([1.0 / s for s in gt_scales])
    expect /= expect[0]
    assert sol.clusters.tolist() == list(range(5))
    assert np.abs(sol.scale - expect).max() < 1e-8
    # centers match the ground truth after similarity alignment
    cams = sol.cameras
    est_c = sol.center
    s, R, t = align_similarity(est_c, gt_c[cams])
    rmse = np.sqrt(((s * est_c @ R.T + t - gt_c[cams]) ** 2).sum(axis=1).mean())
    diam = np.linalg.norm(gt_c[:, None] - gt_c[None], axis=-1).max()
    assert rmse < 1e-8 * diam
    # Eq. residual identity on noise-free input
    assert sol.residual_norms.max() < 1e-8
    # gauge contract
    assert sol.cameras[0] == 0 and np.allclose(sol.center[0], 0.0)
    assert sol.scale[0] == 1.0
    assert (sol.scale > 0).all()


def test_l1_beats_l2_with_outliers(monkeypatch):
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
        table = motion_table(motions)

        def med(sol):
            assert sol.cameras.tolist() == list(range(n))
            s, R, tt = align_similarity(sol.center, gt_c)
            return np.median(np.linalg.norm(s * sol.center @ R.T + tt - gt_c, axis=1))

        rot = global_motion(gt_R)
        l2 = solve_translation_with(monkeypatch, table, rot, L1_MAX_ITERATIONS=1)
        wins += med(solve_translation_l1(table, rot)) < med(l2)
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
    table = motion_table(motions)
    sol = solve_translation_l1(table, global_motion(rot))
    est = sol.center
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
    table = motion_table(motions)
    with pytest.raises(NumericalError, match=r"^translation system under-constrained: cameras \[1, 2, 3\], "
                                             r"clusters \[1\]$"):
        solve_translation_l1(table, global_motion(rot))
    # cluster 1 sees the pair of cluster 0 the other way round: its scale is -1
    flipped = [motion(0, 1, np.eye(3), np.array([s, 0, 0]), k=k) for k, s in ((0, 1.0), (1, -1.0))]
    with pytest.raises(NumericalError, match=r"^degenerate scale for cluster\(s\) \[1\]$"):
        solve_translation_l1(motion_table(flipped), global_motion(rot))


def test_objective_monotone_under_irls(five_cluster_problem, monkeypatch):
    gt_R, gt_c, gt_scales, motions = five_cluster_problem
    rng = np.random.default_rng(3)
    noisy = []
    for m in motions:
        t = m.t + rng.normal(0, 0.02, 3)
        noisy.append(motion(m.i, m.j, m.R, t, k=m.k))
    table = motion_table(noisy)
    est = rotation_averaging(table)
    sol = solve_translation_l1(table, est)
    # the L2 start (the first, unit-weight iterate) can only improve under
    # accepted IRLS iterations
    l2 = solve_translation_with(monkeypatch, table, est, L1_MAX_ITERATIONS=1)
    assert sol.objective <= l2.objective + 1e-9


def test_translation_cap_warning(five_cluster_problem, caplog, monkeypatch):
    gt_R, gt_c, gt_scales, motions = five_cluster_problem
    rng = np.random.default_rng(4)
    noisy = [motion(m.i, m.j, m.R, m.t + rng.normal(0, 0.02, 3), k=m.k)
             for m in motions]
    table = motion_table(noisy)
    with caplog.at_level("WARNING", logger="clustersfm.averaging"):
        l2 = solve_translation_with(monkeypatch, table, global_motion(gt_R), L1_MAX_ITERATIONS=1)
    assert l2.iterations == 1 and "stopped at its cap of 1 iterations" in caplog.text
    caplog.clear()
    with caplog.at_level("WARNING", logger="clustersfm.averaging"):
        l1 = solve_translation_with(monkeypatch, table, global_motion(gt_R), L1_MAX_ITERATIONS=2)
    assert l1.iterations == 2 and "stopped at its cap of 2 iterations" in caplog.text
    assert l1.objective < l2.objective


def noisy_loop_motions(seed, n=60, clusters=4, overlap=6, sigma=0.02):
    """Relative motions of a closed camera loop covered by overlapping
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
    return motion_table(motions), global_motion(gt_R)


def test_translation_l1_stops_near_its_converged_objective(caplog, monkeypatch):
    for seed in range(3):
        table, rot = noisy_loop_motions(seed)
        caplog.clear()
        sol = solve_translation_l1(table, rot)
        assert sol.iterations < L1_MAX_ITERATIONS // 4 and "cap" not in caplog.text, seed
        # no relative stop: the IRLS runs until an iterate fails to improve, or to its cap
        converged = solve_translation_with(monkeypatch, table, rot, L1_RELATIVE_TOL=0.0)
        assert sol.objective - converged.objective <= 1e-3 * converged.objective, seed
