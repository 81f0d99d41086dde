"""Per-cluster incremental structure from motion.

Each interdependent cluster is reconstructed independently in its own frame
and scale: seed-pair initialization from the essential matrix, next-best-view
resection, multi-view triangulation, and repeated local bundle adjustment
with outlier pruning. The cluster's relative motions are then extracted for
global motion averaging.
"""

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix

from . import ba_core
from .clustering import Cluster
from .errors import NumericalError
from .geometry import (
    MAX_REPROJECTION_PX,
    decompose_essential,
    eight_point_essential,
    projection_matrix,
    ransac,
    reprojection_residuals_pixels,
    resect_linear,
    sampson_distance,
    triangulate_linear,
    triangulation_status,
)
from .scene import Camera, CameraGraph
from .tracks import Track
from .utils import seeded_rng

logger = logging.getLogger(__name__)


# Fixed settings of the per-cluster reconstruction. Triangulated points,
# the observations of a new camera and those kept after each bundle
# adjustment all pass the one reprojection gate, geometry.MAX_REPROJECTION_PX.
MIN_SEED_CORRESPONDENCES = 16
SEED_MEDIAN_ANGLE_DEG = 2.0
ESSENTIAL_THRESHOLD_PX = 2.0  # Sampson distance
RESECTION_THRESHOLD_PX = 4.0
RESECTION_MIN_INLIERS = 12  # also the active points a view needs in sight
RESECTION_MIN_INLIER_RATIO = 0.3
TRIANGULATION_MIN_ANGLE_DEG = 1.0
BA_EVERY = 5  # registrations between intermediate bundle adjustments
INTERMEDIATE_BA_MAX_ITERATIONS = 25
# an intermediate BA only has to steady the model for the next resections;
# the final BA runs to ba_core.DEFAULT_RELATIVE_TOL
INTERMEDIATE_BA_RELATIVE_TOL = 1e-3


class SeedFailure(NumericalError):
    """No camera pair in the cluster yields a usable two-view geometry."""


@dataclass
class LocalReconstruction:
    """One cluster's reconstruction in an arbitrary local frame and scale.

    Its points are track ids and positions; its inlier rows say camera
    obs_cameras[r] sees track obs_tracks[r] at pixel obs_xy[r]. The rows are
    grouped by track in point order, cameras ascending inside each track.
    """

    cluster_id: int
    rotations: dict = field(default_factory=dict)  # camera id -> (3,3)
    centers: dict = field(default_factory=dict)  # camera id -> (3,)
    point_tracks: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))  # (p,)
    positions: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))  # (p, 3)
    obs_tracks: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))  # (r,)
    obs_cameras: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))  # (r,)
    obs_xy: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))  # (r, 2)
    seed_pair: tuple | None = None
    failed: bool = False
    mean_reprojection: float = float("nan")

    @property
    def registered(self) -> list[int]:
        return sorted(self.rotations)


@dataclass(frozen=True, eq=False)
class RelativeMotion:
    """Relative pose of pair (i, j) measured inside cluster k; the
    translation carries the cluster's arbitrary scale."""

    i: int
    j: int
    cluster_id: int
    rotation: np.ndarray  # R_ij = R_j R_i^T
    translation: np.ndarray  # t_ij = R_j (c_i - c_j), cluster scale
    support: int


# ---------------------------------------------------------------------------
# Cluster-restricted track view
# ---------------------------------------------------------------------------

class ClusterTracks:
    """The tracks seen by >= 2 cluster cameras as one observation table.

    Row r says camera cam[r] sees track track[r] (an index into track_ids)
    at pixel xy[r]. Rows are grouped by track in input order, with cameras
    ascending inside each track, so a camera has at most one row per track.
    """

    def __init__(self, cluster_cameras, tracks: list[Track]):
        owner = np.repeat(np.arange(len(tracks)), [len(t) for t in tracks])
        cams = np.concatenate([t.cameras for t in tracks] + [np.empty(0, np.int64)]).astype(np.int64)
        xy = np.concatenate([t.xy for t in tracks] + [np.empty((0, 2))])
        inside = np.isin(cams, np.asarray(cluster_cameras, dtype=np.int64))
        kept = np.bincount(owner[inside], minlength=len(tracks)) >= 2
        rows = inside & kept[owner]
        self.track_ids = np.array([t.id for t in tracks], dtype=np.int64)[kept]
        self.track = np.cumsum(kept)[owner[rows]] - 1
        self.cam = cams[rows]
        self.xy = xy[rows]
        order = np.argsort(self.cam, kind="stable")
        seen, starts = np.unique(self.cam[order], return_index=True)
        self.rows_of = dict(zip(seen.tolist(), np.split(order, starts[1:])))  # camera -> rows

    def __len__(self) -> int:
        return len(self.track_ids)

    def rows(self, cam: int) -> np.ndarray:
        """The rows of one camera, in track order."""
        return self.rows_of.get(cam, np.empty(0, dtype=np.int64))

    def shared_rows(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """The rows of cameras i and j on the tracks both see, in track order."""
        rows_i, rows_j = self.rows(i), self.rows(j)
        _, a, b = np.intersect1d(self.track[rows_i], self.track[rows_j], assume_unique=True, return_indices=True)
        return rows_i[a], rows_j[b]


# ---------------------------------------------------------------------------
# Two-view seed
# ---------------------------------------------------------------------------

def _pixels_to_rays(K: np.ndarray, xy: np.ndarray) -> np.ndarray:
    return np.column_stack([(xy[:, 0] - K[0, 2]) / K[0, 0], (xy[:, 1] - K[1, 2]) / K[1, 1]])


def estimate_relative_pose(
    K_i: np.ndarray,
    K_j: np.ndarray,
    xy_i: np.ndarray,
    xy_j: np.ndarray,
    rng: np.random.Generator,
):
    """Essential-matrix relative pose with RANSAC on the Sampson distance.

    Returns (R, t, inlier_mask) with x_j ~ R x_i + t and |t| = 1, or None.
    """
    rays_i = _pixels_to_rays(K_i, xy_i)
    rays_j = _pixels_to_rays(K_j, xy_j)
    Ki_inv = np.linalg.inv(K_i)
    Kj_inv = np.linalg.inv(K_j)

    def fit(idx):
        return eight_point_essential(rays_i[idx], rays_j[idx])

    def residual(E):
        F = Kj_inv.T @ E @ Ki_inv
        return sampson_distance(F, xy_i, xy_j)

    E, mask = ransac(
        len(xy_i),
        8,
        fit,
        residual,
        ESSENTIAL_THRESHOLD_PX,
        rng,
        sample_size=12,
    )
    if E is None or mask.sum() < 8:
        return None
    # refit on the full inlier set
    E_ref = eight_point_essential(rays_i[mask], rays_j[mask])
    if E_ref is not None:
        F = Kj_inv.T @ E_ref @ Ki_inv
        mask_ref = sampson_distance(F, xy_i, xy_j) < ESSENTIAL_THRESHOLD_PX
        if mask_ref.sum() >= mask.sum():
            E, mask = E_ref, mask_ref
    pose = decompose_essential(E, rays_i[mask], rays_j[mask])
    if pose is None:
        return None
    R, t = pose
    return R, t, mask


def estimate_seed_pair(
    graph: CameraGraph,
    cluster: Cluster,
    tracks: ClusterTracks,
    cameras: list[Camera],
    rng: np.random.Generator,
):
    """Pick the strongest edge whose two-view geometry has enough parallax.

    Candidates are visited by descending edge weight; the first pair whose
    RANSAC-inlier triangulations reach the median-angle threshold wins.
    Returns (pair, poses dict, (n, 2) table rows of the pair's views of the
    n seed points, (n, 3) seed points).
    """
    candidates = sorted(
        ((i, j) for (i, j) in graph.induced_edges(cluster.cameras)),
        key=lambda e: (-graph.weight(*e), e),
    )
    for (i, j) in candidates:
        rows = np.column_stack(tracks.shared_rows(i, j))
        if len(rows) < MIN_SEED_CORRESPONDENCES:
            continue
        xy_i, xy_j = tracks.xy[rows[:, 0]], tracks.xy[rows[:, 1]]
        est = estimate_relative_pose(cameras[i].K, cameras[j].K, xy_i, xy_j, rng)
        if est is None:
            continue
        R, t, mask = est
        if mask.sum() < MIN_SEED_CORRESPONDENCES:
            continue
        # gauge: camera i at the origin, unit baseline
        c_i, c_j = np.zeros(3), -R.T @ t
        poses = {i: (np.eye(3), c_i), j: (R, c_j)}
        Ps = np.array([projection_matrix(cameras[c].K, *poses[c]) for c in (i, j)])
        X, ok, parallax = _triangulate(Ps, np.array([c_i, c_j]), tracks.xy[rows[mask]])
        if ok.sum() >= 8 and np.median(parallax[ok]) >= SEED_MEDIAN_ANGLE_DEG:
            return (i, j), poses, rows[mask][ok], X[ok]
    raise SeedFailure("no seed pair with sufficient parallax")


# ---------------------------------------------------------------------------
# Triangulation and resection against a partial reconstruction
# ---------------------------------------------------------------------------

def _triangulate(Ps, centers, xys):
    """Triangulate n tracks seen in the same k views: Ps (k, 3, 4) and
    camera centers (k, 3) shared by every track, or (n, k, 3, 4) and
    (n, k, 3) per track; xys (n, k, 2) pixels.

    Returns the (n, 3) points, the mask of points that pass the shared
    cheirality/reprojection gate and the parallax test, and each point's
    largest pairwise parallax angle in degrees.
    """
    X, finite = triangulate_linear(Ps, xys)
    ok = triangulation_status(Ps, xys, X, finite) == "active"
    rays = centers - X[:, None, :]
    norms = np.linalg.norm(rays, axis=2)
    cosines = np.matmul(rays, np.swapaxes(rays, 1, 2)) / np.maximum(norms[:, :, None] * norms[:, None, :], 1e-300)
    parallax = np.degrees(np.arccos(np.clip(cosines, -1.0, 1.0))).max(axis=(1, 2))
    return X, ok & (parallax >= TRIANGULATION_MIN_ANGLE_DEG), parallax


def register_next_view(
    camera: Camera,
    points3d: np.ndarray,
    pixels: np.ndarray,
    rng: np.random.Generator,
):
    """Absolute pose from 2D-3D correspondences: linear 6-point resection
    inside RANSAC, then single-pose refinement on the inliers.

    Returns (R, c, inlier_mask) or None if the view cannot be registered.
    """
    n = len(points3d)
    if n < RESECTION_MIN_INLIERS:
        return None
    K = camera.K
    rays = _pixels_to_rays(K, pixels)

    def fit(idx):
        return resect_linear(points3d[idx], rays[idx])

    def residual(model):
        R, t = model
        return reprojection_residuals_pixels(R, t, K, points3d, pixels)

    model, mask = ransac(
        n,
        6,
        fit,
        residual,
        RESECTION_THRESHOLD_PX,
        rng,
        max_iterations=1000,
    )
    if model is None:
        return None
    refit = resect_linear(points3d[mask], rays[mask])
    if refit is not None:
        mask_ref = residual(refit) < RESECTION_THRESHOLD_PX
        if mask_ref.sum() >= mask.sum():
            model, mask = refit, mask_ref
    count = int(mask.sum())
    if count < RESECTION_MIN_INLIERS or count / n < RESECTION_MIN_INLIER_RATIO:
        return None
    R, t = model
    c = -R.T @ t
    R, c = _refine_single_pose(camera, R, c, points3d[mask], pixels[mask])
    final_err = reprojection_residuals_pixels(R, -R @ c, K, points3d, pixels)
    mask = final_err < RESECTION_THRESHOLD_PX
    count = int(mask.sum())
    if count < RESECTION_MIN_INLIERS or count / n < RESECTION_MIN_INLIER_RATIO:
        return None
    return R, c, mask


def _refine_single_pose(camera: Camera, R, c, points3d, pixels):
    problem = ba_core.BAProblem(
        rotations=R[None, :, :].copy(),
        centers=c[None, :].copy(),
        intrinsics=np.array([[camera.focal, camera.cx, camera.cy]]),
        points=points3d.copy(),
        cam_idx=np.zeros(len(points3d), dtype=np.int64),
        pt_idx=np.arange(len(points3d), dtype=np.int64),
        pixels=pixels.copy(),
        free_cams=np.array([True]),
        free_pts=np.zeros(len(points3d), dtype=bool),
    )
    result = ba_core.lm_minimize(problem, max_iterations=30)
    return result.rotations[0], result.centers[0]


# ---------------------------------------------------------------------------
# Local bundle adjustment with gauge fixing and pruning
# ---------------------------------------------------------------------------

# track status in _SfMState
NEW, ACTIVE, DEAD = 0, 1, 2


class _SfMState:
    """Mutable reconstruction state during the incremental loop.

    Per track: its point X and its status. A new track has no point yet; an
    active one has a point and >= 2 inlier rows; a dead one lost its point
    in pruning and is never triangulated again. Per table row: joined, the
    registration index (seed pair 0 and 1) of the camera whose registration
    made the row an inlier, or -1 when it is not one.
    """

    def __init__(self, cluster_id, tracks: ClusterTracks, cameras):
        self.cluster_id = cluster_id
        self.tracks = tracks
        self.cameras = cameras
        self.rotations: dict[int, np.ndarray] = {}
        self.centers: dict[int, np.ndarray] = {}
        self.X = np.zeros((len(tracks), 3))
        self.status = np.full(len(tracks), NEW, dtype=np.int8)
        self.joined = np.full(len(tracks.cam), -1, dtype=np.int64)
        self.seed_pair = None

    def registered(self):
        return sorted(self.rotations)

    def pose_of(self, cam):
        return self.rotations[cam], self.centers[cam]

    def active_count(self) -> int:
        return int(np.count_nonzero(self.status == ACTIVE))

    def active_rows(self, cam: int) -> np.ndarray:
        """The camera's rows on active tracks, in track order."""
        rows = self.tracks.rows(cam)
        return rows[self.status[self.tracks.track[rows]] == ACTIVE]

    def add_camera_observations(self, cam: int):
        """Attach the freshly registered camera to existing active points."""
        rows = self.active_rows(cam)
        if not len(rows):
            return
        R, c = self.pose_of(cam)
        err = reprojection_residuals_pixels(
            R, -R @ c, self.cameras[cam].K, self.X[self.tracks.track[rows]], self.tracks.xy[rows]
        )
        self.joined[rows[err <= MAX_REPROJECTION_PX]] = len(self.rotations) - 1

    def triangulate_new_tracks(self, cam: int):
        """Triangulate the new tracks through the freshly registered camera
        that now have >= 2 registered views: one batch per view count."""
        tr = self.tracks
        through = np.zeros(len(tr), dtype=bool)
        through[tr.track[tr.rows(cam)]] = True
        rows = np.flatnonzero((through & (self.status == NEW))[tr.track] & np.isin(tr.cam, self.registered()))
        views = np.bincount(tr.track[rows], minlength=len(tr))[tr.track[rows]]
        rows, views = rows[views >= 2], views[views >= 2]
        if not len(rows):
            return
        used = np.unique(tr.cam[rows])
        Ps = np.array([projection_matrix(self.cameras[c].K, *self.pose_of(c)) for c in used])
        centers = np.array([self.centers[c] for c in used])
        at = np.searchsorted(used, tr.cam[rows])
        for k in np.unique(views):
            group = rows[views == k].reshape(-1, k)  # one track per line, cameras ascending
            views_k = at[views == k].reshape(-1, k)
            X, ok, _ = _triangulate(Ps[views_k], centers[views_k], tr.xy[group])
            t = tr.track[group[ok, 0]]
            self.X[t] = X[ok]
            self.status[t] = ACTIVE
            self.joined[group[ok]] = len(self.rotations) - 1

    def bundle_adjust(
        self, max_iterations=ba_core.DEFAULT_MAX_ITERATIONS, relative_tol=ba_core.DEFAULT_RELATIVE_TOL
    ) -> ba_core.BAResult:
        """Local BA over all registered cameras and active points; the seed
        camera is pinned and the seed baseline renormalized to hold the
        gauge. Afterwards observations beyond the reprojection threshold are
        dropped and starved points retired."""
        tr = self.tracks
        cams = self.registered()
        # each point's observations in the order they joined
        rows = np.flatnonzero(self.joined >= 0)
        rows = rows[np.lexsort((self.joined[rows], tr.track[rows]))]
        pts, pt_idx = np.unique(tr.track[rows], return_inverse=True)
        if len(pts) < 4 or len(cams) < 2:
            raise NumericalError("bundle adjustment needs >= 2 cameras and >= 4 points")
        free_cams = np.ones(len(cams), dtype=bool)
        anchor_pos, base_pos = np.searchsorted(cams, self.seed_pair)
        free_cams[anchor_pos] = False

        def rescale(rotations, centers, points):
            # cost-invariant similarity: unit seed baseline about the anchor
            d = np.linalg.norm(centers[base_pos] - centers[anchor_pos])
            if d < 1e-12:
                return rotations, centers, points
            s = 1.0 / d
            origin = centers[anchor_pos]
            centers = origin + (centers - origin) * s
            points = origin + (points - origin) * s
            return rotations, centers, points

        problem = ba_core.BAProblem(
            rotations=np.array([self.rotations[c] for c in cams]),
            centers=np.array([self.centers[c] for c in cams]),
            intrinsics=np.array([[self.cameras[c].focal, self.cameras[c].cx, self.cameras[c].cy] for c in cams]),
            points=self.X[pts],
            cam_idx=np.searchsorted(cams, tr.cam[rows]),
            pt_idx=pt_idx,
            pixels=tr.xy[rows],
            free_cams=free_cams,
            free_pts=np.ones(len(pts), dtype=bool),
        )
        result = ba_core.lm_minimize(
            problem,
            max_iterations=max_iterations,
            relative_tol=relative_tol,
            rescale_fn=rescale,
        )
        if any(b > a + 1e-9 * max(a, 1.0) for a, b in zip(result.cost_trace, result.cost_trace[1:])):
            raise NumericalError(f"cluster {self.cluster_id}: local BA cost increased across accepted LM steps")
        for k, c in enumerate(cams):
            self.rotations[c] = result.rotations[k]
            self.centers[c] = result.centers[k]
        self.X[pts] = result.points
        # prune observations beyond the threshold (or non-finite), then
        # retire the points left with fewer than two
        self.joined[rows[~(result.residual_norms <= MAX_REPROJECTION_PX)]] = -1
        starved = np.bincount(tr.track[self.joined >= 0], minlength=len(tr)) < 2
        self.status[starved & (self.status == ACTIVE)] = DEAD
        self.joined[(self.status == DEAD)[tr.track]] = -1
        return result


def run_local_sfm(
    graph: CameraGraph,
    cluster: Cluster,
    tracks: list[Track],
    cameras: list[Camera],
    seed: int,
) -> LocalReconstruction:
    """Incremental SfM over one interdependent cluster.

    Deterministic for a fixed seed: the cluster RNG is derived from it by
    stable hashing, so worker scheduling cannot change results. A cluster
    whose seed pair cannot be established is returned marked failed.
    """
    ct = ClusterTracks(cluster.cameras, tracks)
    rng = seeded_rng(seed, "local_sfm", cluster.id)
    rec = LocalReconstruction(cluster_id=cluster.id)
    state = _SfMState(cluster.id, ct, cameras)

    try:
        pair, poses, seed_rows, seed_points = estimate_seed_pair(graph, cluster, ct, cameras, rng)
    except SeedFailure as exc:
        logger.warning("cluster %d: %s", cluster.id, exc)
        rec.failed = True
        return rec
    state.seed_pair = pair
    for cam, (R, c) in poses.items():
        state.rotations[cam] = R
        state.centers[cam] = c
    state.X[ct.track[seed_rows[:, 0]]] = seed_points
    state.status[ct.track[seed_rows[:, 0]]] = ACTIVE
    state.joined[seed_rows] = [0, 1]
    if state.active_count() >= 4:
        state.bundle_adjust()

    registrations = 0
    unregistered = [c for c in cluster.cameras if c not in state.rotations]
    while unregistered:
        # next-best-view: most visible active points, ties by camera id
        visible = {}
        for cam in unregistered:
            rows = state.active_rows(cam)
            if len(rows) >= RESECTION_MIN_INLIERS:
                visible[cam] = rows
        if not visible:
            break
        order = sorted(visible, key=lambda c: (-len(visible[c]), c))
        registered_one = False
        for cam in order:
            rows = visible[cam]
            result = register_next_view(cameras[cam], state.X[ct.track[rows]], ct.xy[rows], rng)
            if result is None:
                continue
            R, c, mask = result
            state.rotations[cam] = R
            state.centers[cam] = c
            state.add_camera_observations(cam)
            registrations += 1
            registered_one = True
            unregistered.remove(cam)
            state.triangulate_new_tracks(cam)
            if registrations % BA_EVERY == 0 and state.active_count() >= 4:
                state.bundle_adjust(INTERMEDIATE_BA_MAX_ITERATIONS, INTERMEDIATE_BA_RELATIVE_TOL)
            break
        if not registered_one:
            break

    if state.active_count() >= 4 and len(state.registered()) >= 2:
        final = state.bundle_adjust()
        rec.mean_reprojection = float(np.mean(final.residual_norms)) if len(final.residual_norms) else float("nan")

    rec.seed_pair = state.seed_pair
    rec.rotations = dict(state.rotations)
    rec.centers = dict(state.centers)
    # an active track is exactly one with inlier rows
    active = np.flatnonzero(state.status == ACTIVE)
    rec.point_tracks, rec.positions = ct.track_ids[active], state.X[active]
    rows = np.flatnonzero(state.joined >= 0)  # by track, cameras ascending
    rec.obs_tracks, rec.obs_cameras, rec.obs_xy = ct.track_ids[ct.track[rows]], ct.cam[rows], ct.xy[rows]
    if len(rec.rotations) < 2:
        rec.failed = True
    return rec


def extract_relative_motions(rec: LocalReconstruction, graph: CameraGraph) -> list[RelativeMotion]:
    """Relative motions for every graph edge with both endpoints registered
    in the cluster: R_ij = R_j R_i^T and t_ij = R_j (c_i - c_j), with the
    support count equal to the tracks with inlier rows in both cameras."""
    if rec.failed or len(rec.rotations) < 2:
        return []
    registered = rec.registered
    # camera x track incidence of the inlier rows; its Gram matrix counts
    # the tracks each pair of cameras shares
    _, track = np.unique(rec.obs_tracks, return_inverse=True)
    seen = csr_matrix((np.ones(len(track), dtype=np.int64), (np.searchsorted(registered, rec.obs_cameras), track)),
                      shape=(len(registered), track.max(initial=-1) + 1))
    shared = (seen @ seen.T).toarray()
    edges = graph.induced_edges(registered)
    at = np.searchsorted(registered, np.reshape(edges, (-1, 2)))
    motions = []
    for (i, j), support in zip(edges, shared[at[:, 0], at[:, 1]].tolist()):
        R_i, c_i = rec.rotations[i], rec.centers[i]
        R_j, c_j = rec.rotations[j], rec.centers[j]
        motions.append(
            RelativeMotion(
                i=i,
                j=j,
                cluster_id=rec.cluster_id,
                rotation=R_j @ R_i.T,
                translation=R_j @ (c_i - c_j),
                support=support,
            )
        )
    return motions
