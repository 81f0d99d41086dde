"""Core data model: the camera table, the match table, and the weighted
camera graph, whose edges are the match table's as arrays in (i, j) order.

Conventions used everywhere: rotations are world-to-camera, camera positions
are stored as centers c in world units, and the projection of a world point X
is K [R | -Rc] X.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DuplicateEdgeError


@dataclass(frozen=True, eq=False)
class CameraTable:
    """The calibrated pinhole cameras, whose intrinsics are known and never
    optimized: camera k has intrinsics[k] = (focal, cx, cy) and an image of
    size[k] = (width, height) pixels. `check` verifies them."""

    intrinsics: np.ndarray  # (n, 3) float
    size: np.ndarray  # (n, 2) int64

    def __len__(self) -> int:
        return len(self.intrinsics)

    def K(self, cameras=slice(None)) -> np.ndarray:
        """The (m, 3, 3) calibration matrices of the cameras (an index
        array or a mask), all by default."""
        focal, cx, cy = self.intrinsics[cameras].T
        K = np.zeros((len(focal), 3, 3))
        K[:, 0, 0] = K[:, 1, 1] = focal
        K[:, 0, 2], K[:, 1, 2], K[:, 2, 2] = cx, cy, 1.0
        return K

    def check(self) -> None:
        """Raise a DataError naming the first camera whose focal, cx or cy is
        not finite, whose focal is not positive, whose image is smaller than
        one pixel or whose principal point lies outside its image."""
        focal, cx, cy = self.intrinsics.T
        width, height = self.size.T
        checks = (
            (~np.isfinite(self.intrinsics).all(axis=1), "focal, cx or cy is not finite"),
            (~(focal > 0), "focal must be positive"),
            ((width < 1) | (height < 1), "image must be at least 1 x 1 pixels"),
            (~((0 <= cx) & (cx < width) & (0 <= cy) & (cy < height)), "principal point outside image"),
        )
        faulty = np.any([bad for bad, _ in checks], axis=0)
        if faulty.any():
            k = int(np.argmax(faulty))
            raise DataError(f"camera {k}: {next(what for bad, what in checks if bad[k])}")


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
        one side, a pixel that is not finite, or an (i, j) pair that an
        earlier edge already has (DuplicateEdgeError)."""
        i, j = self.edges.T
        owner = np.repeat(np.arange(len(self)), self.weights)
        repeats = np.zeros(len(self), dtype=bool)
        for column in self.feat.T:  # sorted by edge, then feature, a repeat sits next to its twin
            order = np.lexsort((column, owner))
            twin = (np.diff(owner[order]) == 0) & (np.diff(column[order]) == 0)
            repeats[owner[order[1:][twin]]] = True
        non_finite = np.zeros(len(self), dtype=bool)
        non_finite[owner[~np.isfinite(self.xy).all(axis=1)]] = True
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
            (non_finite, "edge ({i}, {j}) has a pixel that is not finite"),
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
    """Undirected camera graph: edge e joins cameras pairs[e] = (i, j), i < j,
    with weight weights[e], its correspondence count; the edges ascend by
    (i, j)."""

    def __init__(self, num_cameras: int, pairs: np.ndarray, weights: np.ndarray):
        self.num_cameras = num_cameras
        self.pairs = pairs  # (E, 2) int64
        self.weights = weights  # (E,) int64
        self._adjacency = None

    def adjacency(self):
        """Sparse symmetric weight matrix (CSR), built lazily."""
        if self._adjacency is None:
            from scipy.sparse import coo_matrix

            n = self.num_cameras
            rows = np.concatenate([self.pairs[:, 0], self.pairs[:, 1]])
            cols = np.concatenate([self.pairs[:, 1], self.pairs[:, 0]])
            data = np.concatenate([self.weights, self.weights]).astype(float)
            self._adjacency = coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
        return self._adjacency


def build_camera_graph(matches: MatchTable, num_cameras: int) -> CameraGraph:
    """The weighted camera graph of a checked match table; isolated cameras
    are retained as nodes."""
    if num_cameras < 2:
        raise DataError("camera graph needs at least 2 cameras")
    order = np.lexsort((matches.edges[:, 1], matches.edges[:, 0]))
    return CameraGraph(num_cameras, matches.edges[order], matches.weights[order])
