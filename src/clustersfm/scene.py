"""Core data model: cameras, poses, the match table, and the weighted camera graph.

Conventions used everywhere: rotations are world-to-camera, camera positions
are stored as centers c in world units, and the projection of a world point X
is K [R | -Rc] X.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BehindCameraError, DataError, DuplicateEdgeError

ROTATION_ORTHONORMALITY_TOL = 1e-9


@dataclass(frozen=True)
class Camera:
    """Calibrated pinhole camera; intrinsics are known and never optimized."""

    id: int
    focal: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.focal <= 0:
            raise DataError(f"camera {self.id}: focal must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise DataError(f"camera {self.id}: principal point outside image")

    @property
    def K(self) -> np.ndarray:
        return np.array(
            [[self.focal, 0.0, self.cx], [0.0, self.focal, self.cy], [0.0, 0.0, 1.0]]
        )

    def contains(self, xy: np.ndarray) -> np.ndarray:
        """Boolean mask of pixel coordinates inside the image bounds."""
        xy = np.atleast_2d(xy)
        return (
            (xy[:, 0] >= 0.0)
            & (xy[:, 0] <= self.width - 1)
            & (xy[:, 1] >= 0.0)
            & (xy[:, 1] <= self.height - 1)
        )


@dataclass(frozen=True, eq=False)
class Pose:
    """World-to-camera rotation R plus camera center c (world units)."""

    R: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.R, dtype=float).reshape(3, 3)
        c = np.asarray(self.c, dtype=float).reshape(3)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "c", c)
        err = np.abs(R.T @ R - np.eye(3)).max()
        if err >= ROTATION_ORTHONORMALITY_TOL:
            raise DataError(f"rotation not orthonormal (|R^T R - I| = {err:.2e})")
        if abs(np.linalg.det(R) - 1.0) >= ROTATION_ORTHONORMALITY_TOL:
            raise DataError("rotation determinant must be +1")

    def world_to_camera(self, X: np.ndarray) -> np.ndarray:
        """Map world points (..., 3) into the camera frame."""
        return (np.asarray(X) - self.c) @ self.R.T


def project_point(pose: Pose, camera: Camera, X: np.ndarray) -> np.ndarray:
    """Project one world point to pixel coordinates.

    Raises BehindCameraError if the point has non-positive depth.
    """
    x_cam = pose.R @ (np.asarray(X, dtype=float).reshape(3) - pose.c)
    if x_cam[2] <= 0.0:
        raise BehindCameraError(f"point has depth {x_cam[2]:.6g}")
    u = camera.focal * x_cam[0] / x_cam[2] + camera.cx
    v = camera.focal * x_cam[1] / x_cam[2] + camera.cy
    return np.array([u, v])


def project_points(pose: Pose, camera: Camera, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized projection of (N, 3) points; returns (pixels, depths).

    Points behind the camera get NaN pixels instead of raising.
    """
    x_cam = pose.world_to_camera(np.asarray(X, dtype=float))
    depths = x_cam[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        uv = camera.focal * x_cam[:, :2] / depths[:, None]
    uv = uv + np.array([camera.cx, camera.cy])
    uv[depths <= 0.0] = np.nan
    return uv, depths


@dataclass(frozen=True, eq=False)
class MatchTable:
    """The feature correspondences of every matched camera pair, as one flat
    table: edge e joins cameras edges[e] = (i, j) through rows
    offsets[e]:offsets[e + 1] of feat, the feature index in i and in j, and
    xy, the pixel in i and then in j. `check` verifies it."""

    edges: np.ndarray  # (E, 2) int64
    offsets: np.ndarray  # (E + 1,) int64
    feat: np.ndarray  # (P, 2) int64
    xy: np.ndarray  # (P, 4) float

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def weights(self) -> np.ndarray:
        """The correspondence count of each edge."""
        return np.diff(self.offsets)

    def row_cameras(self) -> np.ndarray:
        """The cameras (i, j) of each row, (P, 2)."""
        return np.repeat(self.edges, self.weights, axis=0)

    def take(self, edges) -> "MatchTable":
        """The table of the selected edges (indices, or a mask over the
        edges), in the order given."""
        counts = self.weights[edges]
        offsets = np.append(0, np.cumsum(counts))
        rows = np.repeat(self.offsets[:-1][edges] - offsets[:-1], counts) + np.arange(offsets[-1])
        return MatchTable(self.edges[edges], offsets, self.feat[rows], self.xy[rows])

    def check(self, num_cameras: int) -> None:
        """Raise a DataError naming the first faulty edge: a camera outside
        0..num_cameras-1, i >= j, no correspondence, a feature index twice on
        one side, or an (i, j) pair that an earlier edge already has
        (DuplicateEdgeError)."""
        i, j = self.edges.T
        owner = np.repeat(np.arange(len(self)), self.weights)
        repeats = np.zeros(len(self), dtype=bool)
        for column in self.feat.T:  # sorted by edge, then feature, a repeat sits next to its twin
            order = np.lexsort((column, owner))
            twin = (np.diff(owner[order]) == 0) & (np.diff(column[order]) == 0)
            repeats[owner[order[1:][twin]]] = True
        duplicates = np.zeros(len(self), dtype=bool)
        order = np.lexsort((j, i))  # stable, so the later edge of a pair is flagged
        duplicates[order[1:][(np.diff(i[order]) == 0) & (np.diff(j[order]) == 0)]] = True
        checks = (
            (((self.edges < 0) | (self.edges >= num_cameras)).any(axis=1),
             "edge ({i}, {j}): an edge camera is not in 0..{last}"),
            (i == j, "self match edge on camera {i}"),
            (i > j, "match edge ({i}, {j}) must have i < j"),
            (self.weights == 0, "edge ({i}, {j}) has no correspondences"),
            (repeats, "edge ({i}, {j}) repeats a feature index"),
            (duplicates, "duplicate match edge ({i}, {j})"),
        )
        faulty = np.any([mask for mask, _ in checks], axis=0)
        if faulty.any():
            e = int(np.argmax(faulty))
            k = next(k for k, (mask, _) in enumerate(checks) if mask[e])
            i, j = self.edges[e].tolist()
            message = checks[k][1].format(i=i, j=j, last=num_cameras - 1)
            raise (DuplicateEdgeError if k == len(checks) - 1 else DataError)(message)


class CameraGraph:
    """Undirected camera graph with edge weight = correspondence count."""

    def __init__(self, num_cameras: int, edges: dict[tuple[int, int], int]):
        self.num_cameras = num_cameras
        self.edges = edges  # (i, j) -> weight, i < j
        self._adjacency = None

    def weight(self, i: int, j: int) -> int:
        return self.edges[(i, j) if i < j else (j, i)]

    def adjacency(self):
        """Sparse symmetric weight matrix (CSR), built lazily."""
        if self._adjacency is None:
            from scipy.sparse import coo_matrix

            n = self.num_cameras
            if self.edges:
                pairs = np.array(list(self.edges.keys()), dtype=np.int64)
                w = np.array(list(self.edges.values()), dtype=float)
                rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
                cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
                data = np.concatenate([w, w])
            else:
                rows = cols = np.zeros(0, dtype=np.int64)
                data = np.zeros(0)
            self._adjacency = coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
        return self._adjacency

    def induced_edges(self, cameras) -> list[tuple[int, int]]:
        """All graph edges with both endpoints in the given camera set."""
        inside = set(cameras)
        return sorted((i, j) for (i, j) in self.edges if i in inside and j in inside)


def build_camera_graph(matches: MatchTable, num_cameras: int) -> CameraGraph:
    """The weighted camera graph of a checked match table; isolated cameras
    are retained as nodes."""
    if num_cameras < 2:
        raise DataError("camera graph needs at least 2 cameras")
    pairs = map(tuple, matches.edges.tolist())
    return CameraGraph(num_cameras, dict(sorted(zip(pairs, matches.weights.tolist()))))
