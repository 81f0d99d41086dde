"""Core data model: cameras, poses, match edges, and the weighted camera graph.

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
class MatchEdge:
    """Verified feature correspondences between cameras i < j."""

    i: int
    j: int
    feat_i: np.ndarray  # (n,) feature indices in camera i
    xy_i: np.ndarray  # (n, 2) pixels in camera i
    feat_j: np.ndarray
    xy_j: np.ndarray

    def __post_init__(self):
        if self.i == self.j:
            raise DataError(f"self match edge on camera {self.i}")
        if self.i > self.j:
            raise DataError(f"match edge ({self.i}, {self.j}) must have i < j")
        for name in ("feat_i", "feat_j"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            object.__setattr__(self, name, arr)
        for name in ("xy_i", "xy_j"):
            arr = np.asarray(getattr(self, name), dtype=float).reshape(-1, 2)
            object.__setattr__(self, name, arr)
        n = len(self.feat_i)
        if n < 1:
            raise DataError(f"edge ({self.i}, {self.j}) has no correspondences")
        if not (len(self.feat_j) == len(self.xy_i) == len(self.xy_j) == n):
            raise DataError(f"edge ({self.i}, {self.j}) has ragged correspondence arrays")
        if len(np.unique(self.feat_i)) != n or len(np.unique(self.feat_j)) != n:
            raise DataError(f"edge ({self.i}, {self.j}) repeats a feature index")

    @classmethod
    def from_table(cls, edges, offsets, feat, xy) -> list["MatchEdge"]:
        """Edges of one flat table: edge e = (i, j) is edges[e], with rows
        offsets[e]:offsets[e + 1] of feat (P, 2) int64 and xy (P, 4) float.

        The checks of __post_init__ run once over the whole table, and the
        edges are built without repeating them: i < j, at least one
        correspondence, and no feature index twice in one edge (sorted by
        edge, then feature, a repeat sits next to its twin)."""
        owner = np.repeat(np.arange(len(edges)), np.diff(offsets))
        faulty = (edges[:, 0] >= edges[:, 1]) | (offsets[1:] == offsets[:-1])
        for column in feat.T:
            order = np.lexsort((column, owner))
            twin = (np.diff(owner[order]) == 0) & (np.diff(column[order]) == 0)
            faulty[owner[order[1:][twin]]] = True
        spans = list(zip(edges.tolist(), offsets[:-1].tolist(), offsets[1:].tolist()))

        def fields(e):
            (i, j), a, b = spans[e]
            return dict(i=i, j=j, feat_i=feat[a:b, 0], xy_i=xy[a:b, :2], feat_j=feat[a:b, 1], xy_j=xy[a:b, 2:])

        if faulty.any():
            e = int(np.argmax(faulty))
            cls(**fields(e))  # raises the DataError of __post_init__ naming the edge
            raise DataError(f"edge {tuple(spans[e][0])} fails the match-table checks")

        def unchecked(e):
            edge = object.__new__(cls)
            edge.__dict__.update(fields(e))
            return edge

        return [unchecked(e) for e in range(len(spans))]

    @property
    def weight(self) -> int:
        return len(self.feat_i)


class CameraGraph:
    """Undirected camera graph with edge weight = correspondence count."""

    def __init__(self, num_cameras: int, edges: dict[tuple[int, int], MatchEdge]):
        self.num_cameras = num_cameras
        self.edges = edges
        self._adjacency = None

    def weight(self, i: int, j: int) -> int:
        key = (i, j) if i < j else (j, i)
        return self.edges[key].weight

    @property
    def total_weight(self) -> int:
        return sum(e.weight for e in self.edges.values())

    def adjacency(self):
        """Sparse symmetric weight matrix (CSR), built lazily."""
        if self._adjacency is None:
            from scipy.sparse import coo_matrix

            n = self.num_cameras
            if self.edges:
                pairs = np.array(list(self.edges.keys()), dtype=np.int64)
                w = np.array([e.weight for e in self.edges.values()], dtype=float)
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


def build_camera_graph(matches: list[MatchEdge], num_cameras: int) -> CameraGraph:
    """Assemble the weighted camera graph from verified match edges.

    Isolated cameras are retained as nodes; a repeated unordered pair is
    rejected rather than merged.
    """
    if num_cameras < 2:
        raise DataError("camera graph needs at least 2 cameras")
    edges: dict[tuple[int, int], MatchEdge] = {}
    for edge in matches:
        if not (0 <= edge.i < num_cameras and 0 <= edge.j < num_cameras):
            raise DataError(f"edge ({edge.i}, {edge.j}) references an unknown camera")
        key = (edge.i, edge.j)
        if key in edges:
            raise DuplicateEdgeError(f"duplicate match edge {key}")
        edges[key] = edge
    return CameraGraph(num_cameras, dict(sorted(edges.items())))
