"""Global point triangulation and cluster-partitioned bundle adjustment.

The independent (disjoint) clusters define the sub-problems: each partition
refines its own cameras and the points it owns, with points whose
observations span partitions held fixed at the shared consensus value.
Between rounds, boundary points are re-estimated from all current cameras
with a guard that never lets the global cost increase.
"""

import logging
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import ba_core
from .clustering import ClusterSet
from .errors import DataError, NumericalError
from .geometry import projection_matrix, reprojection_offsets, triangulate_linear, triangulation_status
from .scene import Camera
from .tracks import Track
from .utils import parallel_map

logger = logging.getLogger(__name__)

MIN_GLOBAL_VIEWS = 3
DEFAULT_ROUNDS = 10
ROUND_RELATIVE_TOL = 1e-4  # stop when a round cuts the global cost by at most this share
STATUSES = ("active", "too_few_views", "cheirality", "reprojection")


@dataclass
class GlobalPoint:
    track_id: int
    position: np.ndarray | None
    cluster_id: int  # owning independent cluster
    cameras: np.ndarray  # observing cameras (posed ones)
    xy: np.ndarray  # (n, 2)
    status: str  # one of STATUSES

    @property
    def active(self) -> bool:
        return self.status == "active"


@dataclass
class BAPartition:
    cluster_id: int
    cameras: tuple
    owned_points: list  # indices into the active point list
    interior_points: list  # owned points seen only by this partition


@dataclass
class RoundLog:
    round: int
    cost: float
    rms_px: float


def triangulate_global(
    tracks: list[Track],
    motion,
    cluster_set: ClusterSet,
    cameras: list[Camera],
) -> list[GlobalPoint]:
    """Triangulate every track against the averaged global poses.

    Tracks failing the view-count, cheirality, or reprojection gates are
    kept with a reason code, never silently dropped. Each accepted point is
    owned by the independent cluster holding the plurality of its
    observations (ties to the lowest cluster id).
    """
    posed = set(motion.centers)
    owner_of_camera = cluster_set.independent_cluster_of()
    P_of = {c: projection_matrix(cameras[c].K, motion.rotations[c], motion.centers[c]) for c in posed}
    out = []
    by_views: dict[int, list] = {}
    for t in tracks:
        sel = [k for k, c in enumerate(t.cameras) if int(c) in posed]
        cams = np.array([int(t.cameras[k]) for k in sel])
        xy = t.xy[sel] if sel else np.zeros((0, 2))
        counts = Counter(owner_of_camera[c] for c in cams if c in owner_of_camera)
        cluster_id = min(counts, key=lambda o: (-counts[o], o)) if counts else -1
        out.append(GlobalPoint(t.id, None, cluster_id, cams, xy, "too_few_views"))
        if len(sel) >= MIN_GLOBAL_VIEWS:
            by_views.setdefault(len(sel), []).append(out[-1])
    # one DLT and one gate per posed-view count
    for group in by_views.values():
        Ps = np.array([[P_of[int(c)] for c in p.cameras] for p in group])
        xy = np.array([p.xy for p in group])
        X, finite = triangulate_linear(Ps, xy)
        status = triangulation_status(Ps, xy, X, finite)
        for p, X_p, s in zip(group, X, status):
            p.status = str(s)
            p.position = X_p if p.active else None
    n_active = sum(p.active for p in out)
    logger.info("triangulated %d/%d tracks", n_active, len(out))
    return out


def build_partitions(points: list[GlobalPoint], cluster_set: ClusterSet, motion) -> list[BAPartition]:
    """Assemble disjoint per-independent-cluster sub-problems.

    Every observation lands in exactly one partition (its camera's
    cluster); a point is interior when all its observations stay inside its
    owner.
    """
    posed = set(motion.centers)
    owner_of_camera = cluster_set.independent_cluster_of()
    active = [p for p in points if p.active]
    cluster_ids = sorted({cl.id for cl in cluster_set.independent})
    partitions = []
    seen_cameras: set = set()
    for cid in cluster_ids:
        cams = tuple(sorted(c for c in cluster_set.independent[cid].cameras if c in posed))
        if not cams:
            continue
        overlap = seen_cameras.intersection(cams)
        if overlap:
            raise DataError(f"independent clusters share cameras {sorted(overlap)}")
        seen_cameras.update(cams)
        cam_set = set(cams)
        owned = [pi for pi, p in enumerate(active) if p.cluster_id == cid]
        interior = [
            pi for pi in owned if all(int(c) in cam_set for c in active[pi].cameras)
        ]
        partitions.append(BAPartition(cluster_id=cid, cameras=cams, owned_points=owned, interior_points=interior))
    return partitions


def distributed_bundle_adjust(
    partitions: list[BAPartition],
    motion,
    points: list[GlobalPoint],
    cameras: list[Camera],
    rounds: int = DEFAULT_ROUNDS,
    inner_max_iterations: int = 50,
    workers: int | None = None,
):
    """Block-coordinate consensus bundle adjustment over the partitions.

    Each round runs the partition solves in parallel (their sub-problems
    share no mutable state), then re-triangulates boundary points from all
    partitions' cameras with a per-point no-worsening guard, so the global
    reprojection cost never increases between rounds. The rounds stop when
    one cuts the global cost by at most ROUND_RELATIVE_TOL of its value
    before the round, or at the `rounds` cap. Returns (motion, points,
    round_log).
    """
    active = [p for p in points if p.active]
    cam_ids = sorted(motion.centers)
    cam_pos = {c: k for k, c in enumerate(cam_ids)}
    rotations = np.array([motion.rotations[c] for c in cam_ids])
    centers = np.array([motion.centers[c] for c in cam_ids])
    intrinsics = np.array([[cameras[c].focal, cameras[c].cx, cameras[c].cy] for c in cam_ids])
    positions = np.array([p.position for p in active]) if active else np.zeros((0, 3))

    # the observation table: one row per view of an active point
    obs_ids = np.concatenate([np.zeros(0, np.int64)] + [p.cameras for p in active])
    unposed = np.setdiff1d(obs_ids, cam_ids)
    if len(unposed):
        raise DataError(f"point camera {unposed[0]} is not posed by the global motion")
    obs_cam = np.searchsorted(cam_ids, obs_ids)
    obs_pt = np.repeat(np.arange(len(active)), [len(p.cameras) for p in active])
    obs_xy = np.concatenate([np.zeros((0, 2))] + [p.xy for p in active])

    def global_cost():
        problem = ba_core.BAProblem(
            rotations=rotations,
            centers=centers,
            intrinsics=intrinsics,
            points=positions,
            cam_idx=obs_cam,
            pt_idx=obs_pt,
            pixels=obs_xy,
            free_cams=np.zeros(len(cam_ids), dtype=bool),
            free_pts=np.zeros(len(active), dtype=bool),
        )
        r = ba_core.residuals(problem)
        bad = int((~np.isfinite(r).all(axis=1)).sum())
        if bad:
            raise NumericalError(f"{bad} observations have non-finite residuals (point behind its camera)")
        cost = float(np.sum(r**2))
        rms = float(np.sqrt(cost / max(len(r), 1)))
        return cost, rms

    # boundary points grouped by their number of posed views, for the
    # batched consensus re-triangulation
    interior = {pi for part in partitions for pi in part.interior_points}
    by_views: dict[int, list] = {}
    for pi, p in enumerate(active):
        if pi not in interior and len(p.cameras) >= 2:
            views = [cam_pos[int(c)] for c in p.cameras]
            by_views.setdefault(len(views), []).append((pi, views, p.xy))
    boundary_groups = [
        tuple(np.array(column) for column in zip(*group)) for _, group in sorted(by_views.items())
    ]

    log: list[RoundLog] = []
    cost, rms = global_cost()
    log.append(RoundLog(round=0, cost=cost, rms_px=rms))

    for rnd in range(1, rounds + 1):
        state = (rotations.copy(), centers.copy(), positions.copy())

        def solve_partition(part: BAPartition):
            rot_s, cen_s, pos_s = state
            sub_obs = np.flatnonzero(np.isin(obs_ids, part.cameras))
            free_cams = np.zeros(len(cam_ids), dtype=bool)
            free_cams[[cam_pos[c] for c in part.cameras]] = True
            free_pts = np.zeros(len(active), dtype=bool)
            free_pts[part.interior_points] = True
            problem = ba_core.BAProblem(
                rotations=rot_s,
                centers=cen_s,
                intrinsics=intrinsics,
                points=pos_s,
                cam_idx=obs_cam[sub_obs],
                pt_idx=obs_pt[sub_obs],
                pixels=obs_xy[sub_obs],
                free_cams=free_cams,
                free_pts=free_pts,
            )
            result = ba_core.lm_minimize(problem, max_iterations=inner_max_iterations)
            return part, result

        results = parallel_map(solve_partition, partitions, workers=workers)
        for part, result in results:
            if result.cost > result.initial_cost + 1e-12:
                logger.warning(
                    "partition %d diverged (cost %.3e -> %.3e); rolled back",
                    part.cluster_id,
                    result.initial_cost,
                    result.cost,
                )
                continue
            sel = [cam_pos[c] for c in part.cameras]
            rotations[sel] = result.rotations[sel]
            centers[sel] = result.centers[sel]
            if part.interior_points:
                positions[part.interior_points] = result.points[part.interior_points]

        # consensus: re-triangulate boundary points, guarded per point
        Ps = np.array([
            projection_matrix(cameras[c].K, rotations[s], centers[s]) for s, c in enumerate(cam_ids)
        ])
        for pts, views, xy in boundary_groups:
            P = Ps[views]
            X_new, finite = triangulate_linear(P, xy)
            take = finite & (_point_costs(P, xy, X_new) <= _point_costs(P, xy, positions[pts]))
            positions[pts[take]] = X_new[take]

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
        logger.warning("distributed bundle adjustment stopped at its cap of %d rounds", rounds)

    out_motion = type(motion)(
        rotations={c: rotations[cam_pos[c]] for c in cam_ids},
        centers={c: centers[cam_pos[c]] for c in cam_ids},
        scales=dict(getattr(motion, "scales", {})),
        residual_norms=np.zeros(0),
        objective=cost,
    )
    out_points = []
    idx = 0
    for p in points:
        if p.active:
            out_points.append(
                GlobalPoint(p.track_id, positions[idx].copy(), p.cluster_id, p.cameras, p.xy, "active")
            )
            idx += 1
        else:
            out_points.append(p)
    return out_motion, out_points, log


def _point_costs(Ps, xy, X):
    """Summed squared reprojection error of each point over its views: Ps
    (n, k, 3, 4), xy (n, k, 2), X (n, 3); +inf for a point behind a view."""
    offsets, behind = reprojection_offsets(Ps, xy, X)
    return np.where(behind.any(axis=1), np.inf, (offsets**2).sum(axis=2).sum(axis=1))
