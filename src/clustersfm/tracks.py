"""Track generation: connected components of the feature correspondences,
found hierarchically over the cluster tree so each merge step only touches
the matches scoped to that tree node.

A track is the connected component of the correspondence relation. A
component containing two features of one camera is inconsistent; it is
discarded whole rather than split. To keep the hierarchical result exactly
equal to one flat pass over all matches, inconsistent components are carried
up the tree and dropped only at the root. A component only grows as it moves
up, so one that holds two features of a camera at an inner node still holds
them at the root.
"""

from dataclasses import dataclass

import numpy as np

from .clustering import ClusterTree
from .errors import DataError
from .scene import MatchTable
from .utils import component_labels

MIN_TRACK_LENGTH = 2
_FEATURE_SHIFT = 32


@dataclass(frozen=True, eq=False)
class TrackTable:
    """Every track as one flat table: track k has id ids[k] and the elements
    offsets[k]:offsets[k + 1] of cameras (ascending within a track, so at
    most one element per camera), features and xy. `check` verifies it."""

    ids: np.ndarray  # (T,) int64
    offsets: np.ndarray  # (T + 1,) int64
    cameras: np.ndarray  # (R,) int64
    features: np.ndarray  # (R,) int64
    xy: np.ndarray  # (R, 2) float

    @classmethod
    def empty(cls) -> "TrackTable":
        ints = np.zeros(0, dtype=np.int64)
        return cls(ints, np.zeros(1, dtype=np.int64), ints, ints, np.zeros((0, 2)))

    def __len__(self) -> int:
        return len(self.ids)

    def owner(self) -> np.ndarray:
        """The track index of each element, (R,)."""
        return np.repeat(np.arange(len(self)), np.diff(self.offsets))

    def check(self, num_cameras: int) -> None:
        """Raise a DataError naming the first track whose cameras do not
        rise strictly, else the first with a camera outside
        0..num_cameras-1, else the first with a pixel that is not finite."""
        check_ascending(self.cameras, self.offsets, self.ids, num_cameras)
        bad = np.flatnonzero(~np.isfinite(self.xy).all(axis=1))
        if len(bad):
            raise DataError(f"track {self.ids[self.owner()[bad[0]]]}: a pixel is not finite")


def check_ascending(cameras: np.ndarray, offsets: np.ndarray, ids: np.ndarray, num_cameras: int | None = None) -> None:
    """Each item's cameras must rise strictly: a track sees a camera once.
    Given num_cameras, they must also lie in the match graph's
    0..num_cameras-1."""
    owner = np.repeat(np.arange(len(ids)), np.diff(offsets))
    bad = np.flatnonzero((np.diff(cameras) <= 0) & (owner[1:] == owner[:-1]))
    if len(bad):
        raise DataError(f"track {ids[owner[bad[0]]]}: cameras are not strictly ascending")
    if num_cameras is None:
        return
    bad = np.flatnonzero((cameras < 0) | (cameras >= num_cameras))
    if len(bad):
        raise DataError(f"track {ids[owner[bad[0]]]}: camera {cameras[bad[0]]} is not in the "
                        f"match graph's 0..{num_cameras - 1}")


@dataclass
class _NodeTracks:
    """Intermediate track set flowing up the tree: feature keys grouped by
    component (ascending within each, components ordered by their smallest
    key), with each key's pixel and component label."""

    keys: np.ndarray  # (n,) feature keys
    xy: np.ndarray  # (n, 2)
    labels: np.ndarray  # (n,) component labels, 0, 1, ... non-decreasing


def _connect(keys: np.ndarray, xy: np.ndarray, pairs: np.ndarray) -> _NodeTracks:
    """Components of the feature keys joined by pairs of positions in keys;
    a key that occurs more than once keeps the pixel of its first position."""
    unique, first, node = np.unique(keys, return_index=True, return_inverse=True)
    labels = component_labels(len(unique), node[pairs[:, 0]], node[pairs[:, 1]])
    order = np.argsort(labels, kind="stable")
    return _NodeTracks(keys=unique[order], xy=xy[first[order]], labels=labels[order])


def _match_arrays(matches: MatchTable):
    """Feature keys and pixels of the match pairs in first-seen order
    a_0, b_0, a_1, b_1, ..., and the position pairs that join them."""
    keys = ((matches.row_cameras() << _FEATURE_SHIFT) | matches.feat).ravel()
    return keys, matches.xy.reshape(-1, 2), np.arange(len(keys)).reshape(-1, 2)


def _chain(labels: np.ndarray) -> np.ndarray:
    """Position pairs (p, p + 1) linking each run of equal labels."""
    p = np.flatnonzero(labels[1:] == labels[:-1])
    return np.column_stack([p, p + 1])


def _merge_node_tracks(left: _NodeTracks, right: _NodeTracks, cross: MatchTable) -> _NodeTracks:
    """Join left and right components through the cross matches.

    The children's keys come first, so a child's pixel beats a cross pixel;
    a feature seen only in cross matches keeps its first-seen pixel.
    """
    keys, xy, pairs = _match_arrays(cross)
    n_left, n_child = len(left.keys), len(left.keys) + len(right.keys)
    return _connect(
        np.concatenate([left.keys, right.keys, keys]),
        np.concatenate([left.xy, right.xy, xy]),
        np.concatenate([_chain(left.labels), _chain(right.labels) + n_left, pairs + n_child]),
    )


def _emit(node: _NodeTracks) -> TrackTable:
    """The consistent components with at least MIN_TRACK_LENGTH features,
    as tracks 0, 1, ... in component order."""
    cams, labels = node.keys >> _FEATURE_SHIFT, node.labels
    sizes = np.bincount(labels)
    # keys ascend within a component, so a repeated camera is adjacent
    twice = (cams[1:] == cams[:-1]) & (labels[1:] == labels[:-1])
    kept = (sizes >= MIN_TRACK_LENGTH) & (np.bincount(labels[1:][twice], minlength=len(sizes)) == 0)
    rows = kept[labels]
    return TrackTable(ids=np.arange(kept.sum()), offsets=np.append(0, np.cumsum(sizes[kept])), cameras=cams[rows],
                      features=node.keys[rows] & ((1 << _FEATURE_SHIFT) - 1), xy=node.xy[rows])


def generate_tracks(tree: ClusterTree, matches: MatchTable) -> TrackTable:
    """Globally consistent tracks via bottom-up merging over the cluster tree.

    Each leaf consumes the matches inside its camera set; each inner node
    consumes its cross matches, those with one camera in each child, in
    (i, j) order. So every match is processed exactly once and the result
    equals the connected components of all matches at once.
    """
    outside = ~np.isin(matches.edges, tree.root.cameras).all(axis=1)
    if outside.any():
        i, j = matches.edges[np.argmax(outside)].tolist()
        raise DataError(f"match edge ({i}, {j}) references a camera outside the tree")

    def walk(node, scoped: MatchTable) -> _NodeTracks:
        if node.is_leaf:
            return _connect(*_match_arrays(scoped))
        side = np.isin(scoped.edges, node.left.cameras).sum(axis=1)  # 2 left, 0 right, 1 cross
        cross = np.flatnonzero(side == 1)
        i, j = scoped.edges[cross].T
        left, right = walk(node.left, scoped.take(side == 2)), walk(node.right, scoped.take(side == 0))
        return _merge_node_tracks(left, right, scoped.take(cross[np.lexsort((j, i))]))

    return _emit(walk(tree.root, matches))
