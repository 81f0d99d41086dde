"""Global point triangulation and cluster-partitioned bundle adjustment.

The independent (disjoint) clusters define the sub-problems: each partition
refines its own cameras and the points seen only by them, with points whose
observations span partitions held fixed at the shared consensus value.
Between rounds, one LM over the boundary points' observations, every camera
fixed, moves the boundary points; its normal equations are one 3x3 block
per point, so the consensus step stays separable by point.
"""

import logging
from dataclasses import dataclass, replace

import numpy as np

from . import ba_core
from .averaging import GlobalMotion
from .clustering import ClusterSet
from .errors import DataError, NumericalError
from .geometry import projection_matrix, triangulate_linear, triangulation_status
from .scene import CameraTable
from .tracks import TrackTable
from .utils import parallel_map

logger = logging.getLogger(__name__)

MIN_GLOBAL_VIEWS = 3
MAX_ROUNDS = 10
PARTITION_MAX_ITERATIONS = 50  # LM iterations of one partition solve
ROUND_RELATIVE_TOL = 1e-4  # stop when a round cuts the global cost by at most this share
STATUSES = ("active", "too_few_views", "cheirality", "reprojection")


@dataclass
class GlobalPoint:
    track_id: int
    position: np.ndarray | None
    cameras: np.ndarray  # observing cameras (posed ones)
    xy: np.ndarray  # (n, 2)
    status: str  # one of STATUSES

    @property
    def active(self) -> bool:
        return self.status == "active"


@dataclass
class BAPartition:
    cameras: tuple
    interior_points: list  # indices into the active point list of the points only its cameras see


@dataclass
class RoundLog:
    round: int
    cost: float
    rms_px: float


def triangulate_global(tracks: TrackTable, motion: GlobalMotion, cameras: CameraTable) -> list[GlobalPoint]:
    """Triangulate every track against the averaged global poses.

    Tracks failing the view-count, cheirality, or reprojection gates are
    kept with a reason code, never silently dropped. Each point keeps its
    posed views, which alone fix the partition that may move it (see
    build_partitions).
    """
    posed = motion.cameras
    rows = np.flatnonzero(np.isin(tracks.cameras, posed))  # the posed views, by track
    cams, xy, track = tracks.cameras[rows], tracks.xy[rows], tracks.owner()[rows]
    views = np.bincount(track, minlength=len(tracks))
    offsets = np.append(0, np.cumsum(views))
    out = [
        GlobalPoint(t, None, cams[a:b], xy[a:b], "too_few_views")
        for t, a, b in zip(tracks.ids.tolist(), offsets[:-1].tolist(), offsets[1:].tolist())
    ]
    P = projection_matrix(cameras.K(posed), motion.rotation, motion.center)
    at = np.searchsorted(posed, cams)
    # one DLT and one gate per posed-view count
    for n in np.unique(views[views >= MIN_GLOBAL_VIEWS]).tolist():
        group = np.flatnonzero(views == n)
        group_rows = offsets[group, None] + np.arange(n)
        Ps, group_xy = P[at[group_rows]], xy[group_rows]
        X, finite = triangulate_linear(Ps, group_xy)
        for p, X_p, s in zip([out[g] for g in group.tolist()], X, triangulation_status(Ps, group_xy, X, finite)):
            p.status = str(s)
            p.position = X_p if p.active else None
    logger.info("triangulated %d/%d tracks", sum(p.active for p in out), len(out))
    return out


def build_partitions(points: list[GlobalPoint], cluster_set: ClusterSet, motion: GlobalMotion) -> list[BAPartition]:
    """Assemble disjoint per-independent-cluster sub-problems.

    Every observation lands in exactly one partition (its camera's
    cluster). An active point is interior to a partition when every one of
    its views is of one of the partition's posed cameras; an active point
    interior to none, because its views span clusters or include a camera
    in no independent cluster, is a boundary point.
    """
    posed = set(motion.cameras.tolist())
    active = [p for p in points if p.active]
    partitions = []
    for cl in cluster_set.independent:
        cams = tuple(sorted(c for c in cl.cameras if c in posed))
        if not cams:
            continue
        cam_set = set(cams)
        interior = [pi for pi, p in enumerate(active) if cam_set.issuperset(p.cameras.tolist())]
        partitions.append(BAPartition(cameras=cams, interior_points=interior))
    return partitions


def distributed_bundle_adjust(
    partitions: list[BAPartition],
    motion: GlobalMotion,
    points: list[GlobalPoint],
    cameras: CameraTable,
):
    """Block-coordinate consensus bundle adjustment over the partitions.

    Each round solves the partitions one after another, each from the
    state at the start of the round (their sub-problems share no mutable
    state, so the order does not matter), then refines the boundary points
    by one LM over their observations with every camera held at its new
    pose. Neither step can raise its own cost (LM takes only a step that
    lowers it), so each partition's result is taken as it is and the global
    reprojection cost never increases between rounds; a round that raises
    it anyway is a NumericalError. The rounds stop when one cuts the
    global cost by at most ROUND_RELATIVE_TOL of its value before the
    round, or at the cap of MAX_ROUNDS rounds; each partition solve and
    each consensus solve runs at most PARTITION_MAX_ITERATIONS LM
    iterations. Returns (motion, points, round_log).
    """
    active = [p for p in points if p.active]
    cam_ids = motion.cameras
    rotations = motion.rotation.copy()
    centers = motion.center.copy()
    intrinsics = cameras.intrinsics[cam_ids]
    positions = np.array([p.position for p in active]) if active else np.zeros((0, 3))

    # the observation table: one row per view of an active point
    obs_ids = np.concatenate([np.zeros(0, np.int64)] + [p.cameras for p in active])
    unposed = np.setdiff1d(obs_ids, cam_ids)
    if len(unposed):
        raise DataError(f"point camera {unposed[0]} is not posed by the global motion")
    obs_cam = np.searchsorted(cam_ids, obs_ids)
    obs_pt = np.repeat(np.arange(len(active)), [len(p.cameras) for p in active])
    obs_xy = np.concatenate([np.zeros((0, 2))] + [p.xy for p in active])

    def subproblem(rows, free_cams, free_pts, state):
        """The problem over the observations rows, at state (rotations, centers, positions)."""
        rot, cen, pos = state
        return ba_core.BAProblem(rotations=rot, centers=cen, intrinsics=intrinsics, points=pos,
                                 cam_idx=obs_cam[rows], pt_idx=obs_pt[rows], pixels=obs_xy[rows],
                                 free_cams=free_cams, free_pts=free_pts)

    fixed_cams = np.zeros(len(cam_ids), dtype=bool)

    def global_cost():
        problem = subproblem(slice(None), fixed_cams, np.zeros(len(active), dtype=bool),
                             (rotations, centers, positions))
        r = ba_core.residuals(problem)
        bad = int((~np.isfinite(r).all(axis=1)).sum())
        if bad:
            raise NumericalError(f"{bad} observations have non-finite residuals (point behind its camera)")
        cost = float(np.sum(r**2))
        rms = float(np.sqrt(cost / max(len(r), 1)))
        return cost, rms

    # the boundary points: active points interior to no partition, and the
    # observations of the consensus solve
    boundary = np.ones(len(active), dtype=bool)
    boundary[[pi for part in partitions for pi in part.interior_points]] = False
    boundary_obs = np.flatnonzero(boundary[obs_pt])

    log: list[RoundLog] = []
    cost, rms = global_cost()
    log.append(RoundLog(round=0, cost=cost, rms_px=rms))

    for rnd in range(1, MAX_ROUNDS + 1):
        state = (rotations.copy(), centers.copy(), positions.copy())

        def solve_partition(part: BAPartition):
            free_cams = fixed_cams.copy()
            free_cams[np.searchsorted(cam_ids, part.cameras)] = True
            free_pts = np.zeros(len(active), dtype=bool)
            free_pts[part.interior_points] = True
            problem = subproblem(np.flatnonzero(np.isin(obs_ids, part.cameras)), free_cams, free_pts, state)
            return part, ba_core.lm_minimize(problem, max_iterations=PARTITION_MAX_ITERATIONS)

        for part, result in parallel_map(solve_partition, partitions):
            sel = np.searchsorted(cam_ids, part.cameras)
            rotations[sel] = result.rotations[sel]
            centers[sel] = result.centers[sel]
            if part.interior_points:
                positions[part.interior_points] = result.points[part.interior_points]

        if len(boundary_obs):
            consensus = subproblem(boundary_obs, fixed_cams, boundary, (rotations, centers, positions))
            positions = ba_core.lm_minimize(consensus, max_iterations=PARTITION_MAX_ITERATIONS).points

        cost_new, rms_new = global_cost()
        if cost_new > cost + 1e-9 * max(cost, 1.0):
            raise NumericalError(
                f"global cost increased in round {rnd}: {cost:.6e} -> {cost_new:.6e}"
            )
        prev_cost, cost = cost, cost_new
        log.append(RoundLog(round=rnd, cost=cost, rms_px=rms_new))
        if prev_cost - cost <= ROUND_RELATIVE_TOL * prev_cost:
            break
    else:
        logger.warning("distributed bundle adjustment stopped at its cap of %d rounds", MAX_ROUNDS)

    out_motion = replace(motion, rotation=rotations, center=centers, residual_norms=np.zeros(0), objective=cost)
    new_positions = iter(positions)
    out_points = [replace(p, position=next(new_positions)) if p.active else p for p in points]
    return out_motion, out_points, log

