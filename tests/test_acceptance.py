"""Acceptance suite: one test per criterion, each printing a PASS line when
its assertions hold. Run with `pytest tests/test_acceptance.py -v -s`."""

import csv
import time

import numpy as np
import pytest

from clustersfm.averaging import rotation_averaging, solve_translation_l1
from clustersfm.clustering import cluster_cameras
from clustersfm.evaluation import align_similarity, epipolar_error
from clustersfm.geometry import rotation_angle
from clustersfm.io import file_hash, load_global_motion, load_global_points, load_ground_truth
from clustersfm.local_sfm import run_local_sfm
from clustersfm.pipeline import PipelineConfig, run_pipeline
from clustersfm.scene import build_camera_graph
from clustersfm.synthetic import generate_synthetic_scene
from clustersfm.tracks import generate_tracks
from clustersfm.utils import parallel_map
from conftest import (geometric_graph, global_motion, joint_bundle_adjust, motion_table, random_rotation,
                      solve_translation_with)
from similarity_merge import merge_by_similarity
from test_tracks import canonical, flat_union_find_oracle, random_instance


def report(criterion: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} {status}: {description}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {criterion}: {description} {detail}"


def connected_geometric_graph(n, seed):
    from scipy.sparse.csgraph import connected_components

    radius = np.sqrt(16.0 / (np.pi * n))
    for attempt in range(6):
        g = geometric_graph(n, radius * (1.25**attempt), seed + 1000 * attempt)
        ncomp, _ = connected_components(g.adjacency(), directed=False)
        if ncomp == 1:
            return g
    raise RuntimeError("could not build a connected test graph")


def test_criterion_1_clustering_constraints():
    rng = np.random.default_rng(100)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(100, 1001))
        graph = connected_geometric_graph(n, seed=trial)
        t0 = time.time()
        cs = cluster_cameras(graph, max_cluster_size=100, completeness_ratio=0.7, seed=9)
        elapsed = time.time() - t0
        worst = max(worst, elapsed)
        assert elapsed < 10.0, f"graph {trial} ({n} nodes) took {elapsed:.1f}s"
        for cluster, ratio in zip(cs.interdependent, cs.achieved_ratios):
            assert cluster.size <= 100
            if not cs.exhausted:
                assert ratio >= 0.7 - 1e-12
    report(1, "size and completeness constraints on 50 random graphs", True,
           f"max runtime {worst:.2f}s")


def test_criterion_2_clustering_trends():
    graph = geometric_graph(1000, 0.08, 7)
    duplication, discarded = [], []
    for dc in (0.0, 0.3, 0.5, 0.7):
        cs = cluster_cameras(graph, max_cluster_size=100, completeness_ratio=dc, seed=1)
        duplication.append(sum(c.size for c in cs.interdependent) / 1000.0)
        discarded.append(sum(w for (_, _, w) in cs.discarded_edges) / int(graph.weights.sum()))
    ok = duplication == sorted(duplication) and discarded == sorted(discarded, reverse=True)
    ok = ok and discarded[0] > discarded[-1]
    report(2, "duplication/discard ratios monotone in completeness threshold", ok,
           f"dup {['%.2f' % d for d in duplication]}, disc {['%.3f' % d for d in discarded]}")


def test_criterion_3_track_oracle_equivalence():
    rng = np.random.default_rng(42)
    from clustersfm.clustering import divide

    checked = 0
    for _ in range(100):
        ncams = int(rng.integers(6, 51))
        matches = random_instance(rng, ncams, int(rng.integers(10, 2001)))
        if not len(matches):
            continue
        graph = build_camera_graph(matches, ncams)
        _, tree = divide(graph, max(2, ncams // 3))
        hier = canonical(generate_tracks(tree, matches))
        flat = flat_union_find_oracle(matches)
        assert hier == flat
        checked += 1
    report(3, "hierarchical tracks equal flat union-find", checked >= 95,
           f"{checked} instances, zero tolerance")


def test_criterion_4_noise_free_motion_averaging():
    t0 = time.time()
    rng = np.random.default_rng(8)
    n = 200
    gt_R = {c: random_rotation(rng) for c in range(n)}
    gt_c = rng.uniform(-10, 10, size=(n, 3))
    windows = [(0, 56), (36, 96), (76, 136), (116, 176), (156, 200)]
    gt_scales = [1.0, 2.0, 0.5, 3.0, 1.5]
    motions = []
    for k, (lo, hi) in enumerate(windows):
        cams = list(range(lo, hi))
        s_k, Q_k, d_k = gt_scales[k], random_rotation(rng), rng.normal(size=3)
        local_R = {c: gt_R[c] @ Q_k.T for c in cams}
        local_c = {c: s_k * (Q_k @ gt_c[c]) + d_k for c in cams}
        pairs = set((i, i + 1) for i in cams[:-1])
        while len(pairs) < 4 * (hi - lo):
            i, j = sorted(rng.choice(cams, 2, replace=False).tolist())
            if i != j:
                pairs.add((i, j))
        for (i, j) in sorted(pairs):
            motions.append((i, j, k, local_R[j] @ local_R[i].T, local_R[j] @ (local_c[i] - local_c[j]), 10))
    motions = motion_table(motions)
    estimate = rotation_averaging(motions)
    Q = gt_R[estimate.cameras[0]].T @ estimate.rotation[0]
    rot_err = max(rotation_angle(R.T @ (gt_R[c] @ Q)) for c, R in zip(estimate.cameras.tolist(), estimate.rotation))

    sol = solve_translation_l1(motions, estimate)
    assert sol.cameras.tolist() == list(range(n)) and sol.clusters.tolist() == list(range(5))
    est_c = sol.center
    s, R, t = align_similarity(est_c, gt_c)
    rmse = np.sqrt(((s * est_c @ R.T + t - gt_c) ** 2).sum(axis=1).mean())
    diam = np.linalg.norm(gt_c[:, None] - gt_c[None], axis=-1).max()

    expected = np.array([1.0 / s_k for s_k in gt_scales])
    expected /= expected[0]
    alpha_err = np.abs(sol.scale - expected).max()
    elapsed = time.time() - t0
    ok = rot_err < 1e-6 and rmse < 1e-6 * diam and alpha_err < 1e-8 and elapsed < 60
    report(4, "noise-free 200-camera/5-cluster motion averaging exact", ok,
           f"rot {rot_err:.1e} rad, rmse/diam {rmse / diam:.1e}, alpha {alpha_err:.1e}, {elapsed:.1f}s")


def test_criterion_5_l1_robustness(monkeypatch):
    n = 60
    rng = np.random.default_rng(2)
    gt_R = {c: random_rotation(rng) for c in range(n)}
    gt_c = rng.uniform(-10, 10, size=(n, 3))
    pairs = set((i, i + 1) for i in range(n - 1))
    while len(pairs) < 4 * n:
        i, j = sorted(rng.choice(n, 2, replace=False).tolist())
        if i != j:
            pairs.add((i, j))
    pairs = sorted(pairs)
    gt_estimate = global_motion(gt_R)
    wins = 0
    for trial in range(50):
        r = np.random.default_rng(1000 + trial)
        motions = []
        for (i, j) in pairs:
            t = gt_R[j] @ (gt_c[i] - gt_c[j])
            if r.uniform() < 0.2:
                bad = r.normal(size=3)
                t = bad / np.linalg.norm(bad) * np.linalg.norm(t)
            motions.append((i, j, 0, gt_R[j] @ gt_R[i].T, t, 10))
        motions = motion_table(motions)

        def median_error(sol):
            assert sol.cameras.tolist() == list(range(n))
            s, R, t0 = align_similarity(sol.center, gt_c)
            return np.median(np.linalg.norm(s * sol.center @ R.T + t0 - gt_c, axis=1))

        wins += median_error(solve_translation_l1(motions, gt_estimate)) < median_error(
            solve_translation_with(monkeypatch, motions, gt_estimate, L1_MAX_ITERATIONS=1)  # the L2 solution
        )
    report(5, "L1 beats L2 under 20% outlier equations in >= 95% of trials",
           wins >= 48, f"{wins}/50 trials")


def test_criterion_6_rotation_robustness():
    n = 50
    rng = np.random.default_rng(4)
    pairs = set((i, i + 1) for i in range(n - 1))
    while len(pairs) < 200:
        i, j = sorted(rng.choice(n, 2, replace=False).tolist())
        if i != j:
            pairs.add((i, j))
    pairs = sorted(pairs)
    wins = 0
    for trial in range(50):
        r = np.random.default_rng(trial)
        gt = {c: random_rotation(r) for c in range(n)}
        motions = [(i, j, 0, random_rotation(r) if r.uniform() < 0.3 else gt[j] @ gt[i].T, np.zeros(3), 10)
                   for (i, j) in pairs]
        est = rotation_averaging(motion_table(motions))
        assert est.cameras.tolist() == list(range(n))
        Q = gt[0].T @ est.rotation[0]
        med = np.degrees(np.median([rotation_angle(est.rotation[c].T @ (gt[c] @ Q)) for c in range(n)]))
        wins += med < 2.0
    report(6, "rotation averaging with 30% outliers: median < 2 deg in >= 90% of trials",
           wins >= 45, f"{wins}/50 trials")


LOOP_SETTINGS = dict(
    layout="loop",
    num_cameras=120,
    num_points=2000,
    pixel_sigma=0.5,
    seed=7,
    max_cluster_size=62,
    completeness_ratio=0.7,
)


@pytest.fixture(scope="module")
def loop_pipeline(tmp_path_factory):
    out = tmp_path_factory.mktemp("loop120")
    config = PipelineConfig(output_dir=str(out), **LOOP_SETTINGS)
    run_pipeline(config)
    return out, config


def mean_reprojection(points, motion, cameras):
    errors = []
    for p in points:
        if not p.active:
            continue
        for c, k, xy in zip(p.cameras.tolist(), np.searchsorted(motion.cameras, p.cameras), p.xy):
            R, cen = motion.rotation[k], motion.center[k]
            Y = R @ (p.position - cen)
            if Y[2] <= 0:
                errors.append(np.inf)
                continue
            focal, cx, cy = cameras.intrinsics[c]
            u = focal * Y[0] / Y[2] + cx
            v = focal * Y[1] / Y[2] + cy
            errors.append(np.hypot(u - xy[0], v - xy[1]))
    return float(np.mean(errors))


def test_criterion_7_loop_closure(loop_pipeline):
    out, config = loop_pipeline
    from clustersfm.io import load_cluster_set, load_match_graph

    cameras, matches = load_match_graph(out / "matches.json")
    cs = load_cluster_set(out / "clusters.json", len(cameras))
    assert len(cs.interdependent) == 4, "expected 4 interdependent clusters"
    _, gt_centers = load_ground_truth(out / "ground_truth.npz", len(cameras))
    final = load_global_motion(out / "final_motion.npz", len(cameras))
    points = load_global_points(out / "final_points.npz", len(cameras))

    cams = final.cameras.tolist()
    est = final.center
    ref = gt_centers[final.cameras]
    s, R, t = align_similarity(est, ref)
    rmse = np.sqrt(((s * est @ R.T + t - ref) ** 2).sum(axis=1).mean())
    diam = np.linalg.norm(gt_centers[:, None] - gt_centers[None], axis=-1).max()
    reproj = mean_reprojection(points, final, cameras)
    full_epipolar = epipolar_error(final, cameras, matches)

    # ablation: disjoint clusters merged by chained similarities
    graph = build_camera_graph(matches, len(cameras))
    cs0 = cluster_cameras(graph, config.max_cluster_size, 0.0, config.seed)
    tracks = generate_tracks(cs0.tree, matches)
    recs = parallel_map(
        lambda cl: run_local_sfm(graph, cl, tracks, cameras, config.seed), cs0.interdependent
    )
    merged_epipolar = epipolar_error(merge_by_similarity(recs), cameras, matches)

    ok = (
        len(cams) == 120
        and rmse < 0.01 * diam
        and reproj < 1.0
        and merged_epipolar > full_epipolar
    )
    report(7, "120-camera loop closes; disjoint-merge ablation is worse", ok,
           f"rmse/diam {rmse / diam:.2e}, reproj {reproj:.3f}px, "
           f"epipolar full {full_epipolar:.3f} vs merged {merged_epipolar:.3f}")


def test_criterion_8_ba_correctness(loop_pipeline, monkeypatch):
    from test_ba_core import finite_difference_jacobian, jacobian_dense, make_problem, max_relative_error

    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(20):
        problem, _ = make_problem(
            rng,
            n_cams=int(rng.integers(3, 6)),
            n_pts=int(rng.integers(8, 16)),
            pixel_noise=float(rng.uniform(0.0, 2.0)),
        )
        worst = max(worst, max_relative_error(jacobian_dense(problem), finite_difference_jacobian(problem)))
    jac_ok = worst < 1e-4

    out, _ = loop_pipeline
    with open(out / "ba_rounds.csv") as fh:
        rows = list(csv.DictReader(fh))
    costs = [float(r["cost"]) for r in rows]
    monotone = all(b <= a + 1e-9 * max(a, 1.0) for a, b in zip(costs, costs[1:]))

    # single-partition distributed BA equals monolithic LM (see unit test for
    # the construction; re-assert here at the required tolerance)
    from test_global_ba import gt_motion, tracks_from_scene
    from clustersfm import global_ba
    from clustersfm.global_ba import build_partitions, distributed_bundle_adjust, triangulate_global

    scene, matches = generate_synthetic_scene("orbit", 8, 150, pixel_sigma=0.4, seed=9)
    graph = build_camera_graph(matches, 8)
    cs = cluster_cameras(graph, max_cluster_size=100, completeness_ratio=0.0, seed=1)
    motion = gt_motion(scene)
    r2 = np.random.default_rng(2)
    for k in range(1, len(motion.cameras)):
        motion.center[k] = motion.center[k] + r2.normal(size=3) * 0.01
    points = triangulate_global(tracks_from_scene(scene, noise=0.4, seed=1), motion, scene.cameras)
    partitions = build_partitions(points, cs, motion)
    monkeypatch.setattr(global_ba, "MAX_ROUNDS", 3)
    monkeypatch.setattr(global_ba, "PARTITION_MAX_ITERATIONS", 80)
    _, _, log = distributed_bundle_adjust(partitions, motion, points, scene.cameras)
    reference = joint_bundle_adjust(motion, points, scene.cameras, max_iterations=240)
    single_ok = abs(log[-1].cost - reference.cost) <= 1e-10 * max(reference.cost, 1e-12)

    ok = jac_ok and monotone and single_ok
    report(8, "BA: analytic Jacobian, monotone consensus cost, single-partition equivalence",
           ok, f"max FD error {worst:.2e}, rounds monotone={monotone}, single={single_ok}")


def test_criterion_9_determinism(tmp_path):
    settings = dict(layout="orbit", num_cameras=18, num_points=250, pixel_sigma=0.3,
                    seed=5, max_cluster_size=8, completeness_ratio=0.7)
    tracked = ("matches.json", "clusters.json", "tracks.json", "relative_motions.npz",
               "global_motion.npz", "points.npz", "final_motion.npz",
               "final_points.npz", "report.json")
    hashes = []
    for workers in (1, 4, 8):
        out = tmp_path / f"w{workers}"
        run_pipeline(PipelineConfig(output_dir=str(out), workers=workers, **settings))
        hashes.append({name: file_hash(out / name) for name in tracked})
    ok = hashes[0] == hashes[1] == hashes[2]
    report(9, "identical artifact hashes for workerCount in {1, 4, 8}", ok)
