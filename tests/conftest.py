from collections import namedtuple

import numpy as np
import pytest

from clustersfm import averaging, ba_core
from clustersfm.averaging import GlobalMotion
from clustersfm.geometry import so3_exp
from clustersfm.local_sfm import MotionTable
from clustersfm.scene import CameraTable, MatchTable, build_camera_graph
from clustersfm.tracks import TrackTable


def camera_table(n, focal=800.0, cx=640.0, cy=480.0, width=1280, height=960):
    """The CameraTable of n cameras that share one calibration."""
    return CameraTable(np.tile(np.array([focal, cx, cy], dtype=float), (n, 1)),
                       np.tile(np.array([width, height], dtype=np.int64), (n, 1)))


class BehindCameraError(ValueError):
    """A 3D point has non-positive depth in the camera frame."""


def project_point(R, c, intrinsics, X) -> np.ndarray:
    """The pixel of one world point X in the camera with pose (R, c) and
    intrinsics (focal, cx, cy); BehindCameraError if its depth is not
    positive."""
    x_cam = R @ (np.asarray(X, dtype=float).reshape(3) - c)
    if x_cam[2] <= 0.0:
        raise BehindCameraError(f"point has depth {x_cam[2]:.6g}")
    focal, cx, cy = intrinsics
    return np.array([focal * x_cam[0] / x_cam[2] + cx, focal * x_cam[1] / x_cam[2] + cy])


def tree_leaves(node) -> list[dict]:
    """The leaf objects of a clusters.json tree in depth-first order, leaf k
    independent cluster k."""
    return [node] if "children" not in node else tree_leaves(node["children"][0]) + tree_leaves(node["children"][1])


def match_table(edges):
    """The MatchTable of edges (i, j, feat (n, 2), xy (n, 4)), in the order given."""
    return MatchTable(
        edges=np.array([e[:2] for e in edges], dtype=np.int64).reshape(-1, 2),
        offsets=np.cumsum([0] + [len(e[2]) for e in edges], dtype=np.int64),
        feat=np.concatenate([np.zeros((0, 2), np.int64)] + [np.reshape(e[2], (-1, 2)).astype(np.int64) for e in edges]),
        xy=np.concatenate([np.zeros((0, 4))] + [np.reshape(e[3], (-1, 4)).astype(float) for e in edges]),
    )


def track_table(tracks):
    """The TrackTable of tracks (id, cameras, features, xy), in the order given."""
    return TrackTable(
        ids=np.array([t[0] for t in tracks], dtype=np.int64),
        offsets=np.cumsum([0] + [len(t[1]) for t in tracks], dtype=np.int64),
        cameras=np.concatenate([np.zeros(0, np.int64)] + [np.asarray(t[1], dtype=np.int64) for t in tracks]),
        features=np.concatenate([np.zeros(0, np.int64)] + [np.asarray(t[2], dtype=np.int64) for t in tracks]),
        xy=np.concatenate([np.zeros((0, 2))] + [np.reshape(t[3], (-1, 2)).astype(float) for t in tracks]),
    )


Motion = namedtuple("Motion", "i j k R t support")


def motion_table(motions):
    """The MotionTable of motions (i, j, k, R, t, support), in the order given."""
    return MotionTable(
        pairs=np.array([m[:2] for m in motions], dtype=np.int64).reshape(-1, 2),
        cluster=np.array([m[2] for m in motions], dtype=np.int64),
        rotation=np.array([m[3] for m in motions], dtype=float).reshape(-1, 3, 3),
        translation=np.array([m[4] for m in motions], dtype=float).reshape(-1, 3),
        support=np.array([m[5] for m in motions], dtype=np.int64),
    )


def motion_rows(motions):
    """The Motion (i, j, k, R, t, support) of each row of a MotionTable."""
    return [Motion(i, j, k, R, t, support) for (i, j), k, R, t, support in zip(
        motions.pairs.tolist(), motions.cluster.tolist(), motions.rotation, motions.translation,
        motions.support.tolist())]


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """exp of a random rotation vector: a normal draw scaled by an angle uniform in [0, pi), over sqrt(3)."""
    return so3_exp(rng.normal(size=3) * rng.uniform(0.0, np.pi) / np.sqrt(3.0))


def global_motion(rotations, centers=None, scales=None, residual_norms=(), objective=0.0):
    """The GlobalMotion of {camera: R} and {camera: c} (every center at the
    origin when centers is None) with {cluster: scale}, cameras and clusters
    ascending. solve_translation_l1 reads only its cameras and rotations, so
    it also stands in for a RotationEstimate."""
    cameras = sorted(rotations)
    centers = {c: np.zeros(3) for c in cameras} if centers is None else centers
    assert sorted(centers) == cameras
    scales = scales or {}
    return GlobalMotion(
        cameras=np.array(cameras, dtype=np.int64),
        rotation=np.array([rotations[c] for c in cameras], dtype=float).reshape(-1, 3, 3),
        center=np.array([centers[c] for c in cameras], dtype=float).reshape(-1, 3),
        clusters=np.array(sorted(scales), dtype=np.int64),
        scale=np.array([scales[k] for k in sorted(scales)], dtype=float),
        residual_norms=np.asarray(residual_norms, dtype=float),
        objective=objective,
    )


def joint_bundle_adjust(motion, points, cameras, max_iterations):
    """The oracle of the distributed bundle adjustment: one LM over every
    posed camera and every active point together, from the same start."""
    active = [p for p in points if p.active]
    return ba_core.lm_minimize(ba_core.BAProblem(
        rotations=motion.rotation.copy(),
        centers=motion.center.copy(),
        intrinsics=cameras.intrinsics[motion.cameras],
        points=np.array([p.position for p in active]),
        cam_idx=np.searchsorted(motion.cameras, np.concatenate([p.cameras for p in active])),
        pt_idx=np.repeat(np.arange(len(active)), [len(p.cameras) for p in active]),
        pixels=np.concatenate([p.xy for p in active]),
        free_cams=np.ones(len(motion.cameras), dtype=bool),
        free_pts=np.ones(len(active), dtype=bool),
    ), max_iterations=max_iterations)


def solve_translation_with(monkeypatch, motions, estimate, **constants):
    """averaging.solve_translation_l1 with the given module constants, such
    as L1_MAX_ITERATIONS=1 for the least-squares start, in place for this
    one call."""
    with monkeypatch.context() as m:
        for name, value in constants.items():
            m.setattr(averaging, name, value)
        return averaging.solve_translation_l1(motions, estimate)


def track_rows(tracks):
    """The (id, cameras, features, xy) of each track of a TrackTable."""
    bounds = tracks.offsets[1:-1]
    return list(zip(tracks.ids.tolist(), np.split(tracks.cameras, bounds), np.split(tracks.features, bounds),
                    np.split(tracks.xy, bounds)))


def weighted_edge(i, j, w):
    """Edge (i, j, feat, xy) with w synthetic correspondences (structure-only tests)."""
    f = np.arange(w)
    xy = np.column_stack([np.arange(w, dtype=float), np.zeros(w)])
    return i, j, np.column_stack([f, f]), np.hstack([xy, xy])


def geometric_graph(n, radius, seed, weight_hi=100):
    """Random geometric camera graph with integer weights."""
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 1, size=(n, 2))
    pairs = sorted(cKDTree(pts).query_pairs(radius))
    edges = [weighted_edge(i, j, int(rng.integers(1, weight_hi))) for i, j in pairs]
    return build_camera_graph(match_table(edges), n)


SMALL = dict(
    layout="orbit",
    num_cameras=18,
    num_points=250,
    pixel_sigma=0.3,
    seed=5,
    max_cluster_size=8,
    completeness_ratio=0.7,
)


@pytest.fixture(scope="session")
def small_run(tmp_path_factory):
    """A full pipeline run of the SMALL scene: (out dir, config, report)."""
    from clustersfm.pipeline import PipelineConfig, run_pipeline

    out = tmp_path_factory.mktemp("run")
    config = PipelineConfig(output_dir=str(out), **SMALL)
    report = run_pipeline(config)
    return out, config, report


@pytest.fixture(scope="session")
def loop_scene_noisefree():
    from clustersfm.synthetic import generate_synthetic_scene

    scene, matches = generate_synthetic_scene("loop", 12, 200, pixel_sigma=0.0, seed=7)
    return scene, matches


@pytest.fixture(scope="session")
def orbit_scene_small():
    """Noise-free 20-camera orbit used by several local SfM tests."""
    from clustersfm.synthetic import generate_synthetic_scene

    scene, matches = generate_synthetic_scene("orbit", 20, 500, pixel_sigma=0.0, seed=3)
    return scene, matches
