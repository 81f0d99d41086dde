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
from .errors import DataError, NumericalError
from .geometry import (
    MAX_REPROJECTION_PX,
    check_poses,
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
from .scene import CameraGraph, CameraTable
from .tracks import TrackTable
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

    Its registered cameras have the poses rotation and center; its points
    are the tracks of inliers, positions[p] that of track inliers.ids[p],
    and the elements of a track are its inlier rows, cameras ascending. A
    cluster with fewer than two registered cameras failed.
    """

    cluster_id: int
    registered: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))  # (n,) strictly ascending
    rotation: np.ndarray = field(default_factory=lambda: np.zeros((0, 3, 3)))  # (n, 3, 3)
    center: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))  # (n, 3)
    positions: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))  # (p, 3)
    inliers: TrackTable = field(default_factory=TrackTable.empty)
    seed_pair: tuple | None = None
    mean_reprojection: float = float("nan")

    @property
    def failed(self) -> bool:
        return len(self.registered) < 2


@dataclass(frozen=True, eq=False)
class MotionTable:
    """Every relative motion as one table: row q is the pose of the camera
    pair pairs[q] = (i, j), i < j, measured inside cluster cluster[q], with
    R_ij = R_j R_i^T, t_ij = R_j (c_i - c_j) in that cluster's arbitrary
    scale, and the count of tracks both cameras keep. `check` verifies it."""

    pairs: np.ndarray  # (m, 2) int64
    cluster: np.ndarray  # (m,) int64
    rotation: np.ndarray  # (m, 3, 3)
    translation: np.ndarray  # (m, 3)
    support: np.ndarray  # (m,) int64

    def __len__(self) -> int:
        return len(self.pairs)

    def check(self, num_cameras: int) -> None:
        """Raise a DataError naming the first motion whose pair is not
        0 <= i < j, else the first whose camera j is outside the match
        graph's 0..num_cameras-1, whose support is negative, whose R or t
        is not finite, whose R is not a rotation, or that repeats a pair its
        cluster has already measured. The ids are integers."""
        i, j = self.pairs.T
        self._fail((i < 0) | (i >= j), "the pair is not 0 <= i < j")
        self._fail(j >= num_cameras, f"a camera is not in the match graph's 0..{num_cameras - 1}")
        self._fail(self.support < 0, "the support is negative")
        check_poses(self.rotation, self.translation, self._name, "t")
        first = np.unique(np.column_stack([self.pairs, self.cluster]), axis=0, return_index=True)[1]
        repeated = np.ones(len(self), dtype=bool)
        repeated[first] = False  # all but each first (i, j, k)
        self._fail(repeated, "its cluster measures this pair twice")

    def _name(self, q: int) -> str:
        (i, j), k = self.pairs[q].tolist(), self.cluster[q].item()
        return f"motion {q} ({i}, {j}) in cluster {k}"

    def _fail(self, bad: np.ndarray, what: str) -> None:
        if bad.any():
            raise DataError(f"{self._name(int(np.argmax(bad)))}: {what}")


# ---------------------------------------------------------------------------
# Cluster-restricted track view
# ---------------------------------------------------------------------------

class ClusterTracks:
    """The tracks seen by >= 2 cluster cameras as one observation table.

    The cluster's cameras, ascending, give each camera its index k. Row r
    says the camera of index pos[r] sees track track[r] (an index into
    track_ids) at pixel xy[r]. Rows are grouped by track in input order,
    with cameras ascending inside each track, so a camera has at most one
    row per track; features[r] is its feature index.
    """

    def __init__(self, cluster_cameras, tracks: TrackTable):
        self.cameras = np.asarray(cluster_cameras, dtype=np.int64)
        owner = tracks.owner()
        inside = np.isin(tracks.cameras, self.cameras)
        kept = np.bincount(owner[inside], minlength=len(tracks)) >= 2
        rows = inside & kept[owner]
        self.track_ids = tracks.ids[kept]
        self.track = np.cumsum(kept)[owner[rows]] - 1
        self.pos = np.searchsorted(self.cameras, tracks.cameras[rows])
        self.features, self.xy = tracks.features[rows], tracks.xy[rows]
        self._by_camera = np.argsort(self.pos, kind="stable")
        self._offsets = np.append(0, np.cumsum(np.bincount(self.pos, minlength=len(self.cameras))))

    def __len__(self) -> int:
        return len(self.track_ids)

    def rows(self, k: int) -> np.ndarray:
        """The rows of the camera of index k, in track order."""
        return self._by_camera[self._offsets[k]:self._offsets[k + 1]]

    def shared_rows(self, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        """The rows of the cameras of indices a and b on the tracks both
        see, in track order."""
        rows_a, rows_b = self.rows(a), self.rows(b)
        _, i, j = np.intersect1d(self.track[rows_a], self.track[rows_b], assume_unique=True, return_indices=True)
        return rows_a[i], rows_b[j]


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
    pose = decompose_essential(E, rays_i[mask], rays_j[mask])
    if pose is None:
        return None
    R, t = pose
    return R, t, mask


def estimate_seed_pair(graph: CameraGraph, tracks: ClusterTracks, K: np.ndarray, rng: np.random.Generator):
    """Pick the strongest edge whose two-view geometry has enough parallax;
    K (n, 3, 3) are the calibrations of the cluster's n cameras.

    Candidates are visited by descending edge weight; the first pair whose
    RANSAC-inlier triangulations reach the median-angle threshold wins.
    Returns (the pair's camera indices, its (2, 3, 3) rotations and (2, 3)
    centers, (m, 2) table rows of the pair's views of the m seed points,
    (m, 3) seed points).
    """
    inside = np.isin(graph.pairs, tracks.cameras).all(axis=1)
    edges, weights = graph.pairs[inside], graph.weights[inside]
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0], -weights))]
    for pair in np.searchsorted(tracks.cameras, edges).tolist():
        rows = np.column_stack(tracks.shared_rows(*pair))
        if len(rows) < MIN_SEED_CORRESPONDENCES:
            continue
        est = estimate_relative_pose(*K[pair], tracks.xy[rows[:, 0]], tracks.xy[rows[:, 1]], rng)
        if est is None:
            continue
        R, t, mask = est
        if mask.sum() < MIN_SEED_CORRESPONDENCES:
            continue
        # gauge: the first camera at the origin, unit baseline
        rotation, center = np.array([np.eye(3), R]), np.array([np.zeros(3), -R.T @ t])
        X, ok, parallax = _triangulate(projection_matrix(K[pair], rotation, center), center, tracks.xy[rows[mask]])
        if ok.sum() >= 8 and np.median(parallax[ok]) >= SEED_MEDIAN_ANGLE_DEG:
            return tuple(pair), rotation, center, rows[mask][ok], X[ok]
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
    K: np.ndarray,
    points3d: np.ndarray,
    pixels: np.ndarray,
    rng: np.random.Generator,
):
    """Absolute pose of the camera with calibration K from 2D-3D
    correspondences: linear 6-point resection inside RANSAC, then
    single-pose refinement on the inliers.

    Returns (R, c, inlier_mask) or None if the view cannot be registered.
    """
    n = len(points3d)
    if n < RESECTION_MIN_INLIERS:
        return None
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
    count = int(mask.sum())
    if count < RESECTION_MIN_INLIERS or count / n < RESECTION_MIN_INLIER_RATIO:
        return None
    R, t = model
    c = -R.T @ t
    R, c = _refine_single_pose(K, R, c, points3d[mask], pixels[mask])
    final_err = reprojection_residuals_pixels(R, -R @ c, K, points3d, pixels)
    mask = final_err < RESECTION_THRESHOLD_PX
    count = int(mask.sum())
    if count < RESECTION_MIN_INLIERS or count / n < RESECTION_MIN_INLIER_RATIO:
        return None
    return R, c, mask


def _refine_single_pose(K: np.ndarray, R, c, points3d, pixels):
    problem = ba_core.BAProblem(
        rotations=R[None, :, :].copy(),
        centers=c[None, :].copy(),
        intrinsics=np.array([[K[0, 0], K[0, 2], K[1, 2]]]),  # focal, cx, cy
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

    Per cluster camera, by its index k: its calibration, its pose and
    whether it is registered. Per track: its point X and its status. A new
    track has no point yet; an active one has a point and >= 2 inlier rows;
    a dead one lost its point in pruning and is never triangulated again.
    Per table row: joined, the registration index (seed pair 0 and 1) of
    the camera whose registration made the row an inlier, or -1 when it is
    not one.
    """

    def __init__(self, cluster_id, tracks: ClusterTracks, cameras: CameraTable):
        n = len(tracks.cameras)
        self.cluster_id = cluster_id
        self.tracks = tracks
        self.K = cameras.K(tracks.cameras)
        self.intrinsics = cameras.intrinsics[tracks.cameras]
        self.rotation = np.zeros((n, 3, 3))
        self.center = np.zeros((n, 3))
        self.registered = np.zeros(n, dtype=bool)
        self.X = np.zeros((len(tracks), 3))
        self.status = np.full(len(tracks), NEW, dtype=np.int8)
        self.joined = np.full(len(tracks.pos), -1, dtype=np.int64)
        self.seed_pair = None  # camera indices

    def register(self, k: int, R: np.ndarray, c: np.ndarray) -> int:
        """Give camera k its pose; returns its registration index."""
        self.rotation[k], self.center[k], self.registered[k] = R, c, True
        return int(np.count_nonzero(self.registered)) - 1

    def active_count(self) -> int:
        return int(np.count_nonzero(self.status == ACTIVE))

    def active_rows(self, k: int) -> np.ndarray:
        """Camera k's rows on active tracks, in track order."""
        rows = self.tracks.rows(k)
        return rows[self.status[self.tracks.track[rows]] == ACTIVE]

    def add_camera_observations(self, k: int, index: int):
        """Attach camera k, registered as the index-th, to existing active
        points."""
        rows = self.active_rows(k)
        if not len(rows):
            return
        R, c = self.rotation[k], self.center[k]
        err = reprojection_residuals_pixels(R, -R @ c, self.K[k], self.X[self.tracks.track[rows]], self.tracks.xy[rows])
        self.joined[rows[err <= MAX_REPROJECTION_PX]] = index

    def triangulate_new_tracks(self, k: int, index: int):
        """Triangulate the new tracks through camera k, registered as the
        index-th, that now have >= 2 registered views: one batch per view
        count."""
        tr = self.tracks
        through = np.zeros(len(tr), dtype=bool)
        through[tr.track[tr.rows(k)]] = True
        rows = np.flatnonzero((through & (self.status == NEW))[tr.track] & self.registered[tr.pos])
        views = np.bincount(tr.track[rows], minlength=len(tr))[tr.track[rows]]
        rows, views = rows[views >= 2], views[views >= 2]
        if not len(rows):
            return
        Ps = projection_matrix(self.K, self.rotation, self.center)
        for m in np.unique(views):
            group = rows[views == m].reshape(-1, m)  # one track per line, cameras ascending
            X, ok, _ = _triangulate(Ps[tr.pos[group]], self.center[tr.pos[group]], tr.xy[group])
            t = tr.track[group[ok, 0]]
            self.X[t] = X[ok]
            self.status[t] = ACTIVE
            self.joined[group[ok]] = index

    def bundle_adjust(
        self, max_iterations=ba_core.DEFAULT_MAX_ITERATIONS, relative_tol=ba_core.DEFAULT_RELATIVE_TOL
    ) -> ba_core.BAResult:
        """Local BA over all registered cameras and active points; the seed
        camera is pinned and the seed baseline renormalized to hold the
        gauge. Afterwards observations beyond the reprojection threshold are
        dropped and starved points retired."""
        tr = self.tracks
        cams = np.flatnonzero(self.registered)
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
            rotations=self.rotation[cams],
            centers=self.center[cams],
            intrinsics=self.intrinsics[cams],
            points=self.X[pts],
            cam_idx=np.searchsorted(cams, tr.pos[rows]),
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
        self.rotation[cams], self.center[cams] = result.rotations, result.centers
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
    tracks: TrackTable,
    cameras: CameraTable,
    seed: int,
) -> LocalReconstruction:
    """Incremental SfM over one interdependent cluster.

    Deterministic for a fixed seed: the cluster RNG is derived from it by
    stable hashing, so worker scheduling cannot change results. A cluster
    whose seed pair cannot be established is returned with no camera
    registered, so failed.
    """
    ct = ClusterTracks(cluster.cameras, tracks)
    rng = seeded_rng(seed, "local_sfm", cluster.id)
    rec = LocalReconstruction(cluster_id=cluster.id)
    state = _SfMState(cluster.id, ct, cameras)

    try:
        pair, rotation, center, seed_rows, seed_points = estimate_seed_pair(graph, ct, state.K, rng)
    except SeedFailure as exc:
        logger.warning("cluster %d: %s", cluster.id, exc)
        return rec
    state.seed_pair = pair
    for k, R, c in zip(pair, rotation, center):
        state.register(k, R, c)
    state.X[ct.track[seed_rows[:, 0]]] = seed_points
    state.status[ct.track[seed_rows[:, 0]]] = ACTIVE
    state.joined[seed_rows] = [0, 1]
    if state.active_count() >= 4:
        state.bundle_adjust()

    while True:
        # next-best-view: most visible active points, ties by camera id
        visible = np.bincount(ct.pos[state.status[ct.track] == ACTIVE], minlength=len(ct.cameras))
        visible[state.registered] = 0
        order = np.argsort(-visible, kind="stable")
        for k in order[visible[order] >= RESECTION_MIN_INLIERS].tolist():
            rows = state.active_rows(k)
            result = register_next_view(state.K[k], state.X[ct.track[rows]], ct.xy[rows], rng)
            if result is None:
                continue
            R, c, _ = result
            index = state.register(k, R, c)
            state.add_camera_observations(k, index)
            state.triangulate_new_tracks(k, index)
            if (index - 1) % BA_EVERY == 0 and state.active_count() >= 4:
                state.bundle_adjust(INTERMEDIATE_BA_MAX_ITERATIONS, INTERMEDIATE_BA_RELATIVE_TOL)
            break
        else:
            break

    if state.active_count() >= 4 and np.count_nonzero(state.registered) >= 2:
        final = state.bundle_adjust()
        rec.mean_reprojection = float(np.mean(final.residual_norms)) if len(final.residual_norms) else float("nan")

    rec.seed_pair = tuple(ct.cameras[list(pair)].tolist())
    rec.registered = ct.cameras[state.registered]
    rec.rotation, rec.center = state.rotation[state.registered], state.center[state.registered]
    rows = np.flatnonzero(state.joined >= 0)  # by track, cameras ascending
    # an active track is exactly one with inlier rows
    active, views = np.unique(ct.track[rows], return_counts=True)
    rec.inliers = TrackTable(ct.track_ids[active], np.append(0, np.cumsum(views)), ct.cameras[ct.pos[rows]],
                             ct.features[rows], ct.xy[rows])
    rec.positions = state.X[active]
    return rec


def extract_relative_motions(recs: list[LocalReconstruction], graph: CameraGraph) -> MotionTable:
    """The motions of every cluster, in the order of recs, for every graph
    edge with both endpoints registered in the cluster: R_ij = R_j R_i^T and
    t_ij = R_j (c_i - c_j), with the support count equal to the tracks with
    inlier rows in both cameras. A failed cluster has none."""
    parts = [(np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros((0, 3, 3)), np.zeros((0, 3)),
              np.zeros(0, dtype=np.int64))]  # the empty table, which fixes the dtypes
    for rec in recs:
        if rec.failed:
            continue
        registered, inliers = rec.registered, rec.inliers
        # camera x track incidence of the inlier rows; its Gram matrix counts
        # the tracks each pair of cameras shares
        seen = csr_matrix((np.ones(len(inliers.cameras), dtype=np.int64),
                           (np.searchsorted(registered, inliers.cameras), inliers.owner())),
                          shape=(len(registered), len(inliers)))
        shared = (seen @ seen.T).toarray()
        pairs = graph.pairs[np.isin(graph.pairs, registered).all(axis=1)]
        i, j = np.searchsorted(registered, pairs).T
        R, c = rec.rotation, rec.center
        parts.append((pairs, np.full(len(pairs), rec.cluster_id, dtype=np.int64), R[j] @ R[i].transpose(0, 2, 1),
                      (R[j] @ (c[i] - c[j])[:, :, None])[:, :, 0], shared[i, j]))
    return MotionTable(*(np.concatenate(column) for column in zip(*parts)))
