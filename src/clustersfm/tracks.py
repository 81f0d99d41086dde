"""Track generation: union-find over feature correspondences, performed
hierarchically over the cluster tree so each merge step only touches the
matches scoped to that tree node.

A track is the connected component of the correspondence relation. A
component containing two features of one camera is inconsistent; it is
discarded whole rather than split. To keep the hierarchical result exactly
equal to a flat union-find over all matches, inconsistent components are not
dropped at intermediate nodes but carried with a poisoned flag; anything a
later cross match attaches to a poisoned component becomes poisoned too, and
poisoned components are dropped at the root.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .clustering import ClusterTree
from .errors import DataError
from .scene import MatchEdge
from .utils import UnionFind

MIN_TRACK_LENGTH = 2
_FEATURE_SHIFT = 32


def _key(camera: int, feature: int) -> int:
    return (camera << _FEATURE_SHIFT) | feature


@dataclass(frozen=True, eq=False)
class Track:
    """One 3D point's observations: (camera, feature, pixel) per element,
    sorted by camera id, at most one element per camera."""

    id: int
    cameras: np.ndarray  # (n,) sorted camera ids
    features: np.ndarray  # (n,)
    xy: np.ndarray  # (n, 2)

    def __len__(self) -> int:
        return len(self.cameras)

    def canonical(self) -> tuple:
        return tuple(
            (int(c), int(f), float(x), float(y))
            for c, f, (x, y) in zip(self.cameras, self.features, self.xy)
        )


@dataclass
class _NodeTracks:
    """Intermediate track sets flowing up the tree: per component, element
    keys plus pixel positions, with a poisoned flag for inconsistency."""

    components: list[list[int]]  # feature keys
    xy: dict[int, tuple[float, float]]
    poisoned: list[bool]


def _components_from_matches(matches: list[MatchEdge], allowed=None) -> _NodeTracks:
    for edge in matches:
        if allowed is not None and (edge.i not in allowed or edge.j not in allowed):
            raise DataError(f"match edge ({edge.i}, {edge.j}) outside its tree node")
    if not matches:
        return _NodeTracks(components=[], xy={}, poisoned=[])
    # feature keys and pixels in first-seen order: a_0, b_0, a_1, b_1, ...
    keys = np.concatenate([
        np.column_stack([_key(e.i, e.feat_i), _key(e.j, e.feat_j)]).ravel() for e in matches
    ])
    pixels = np.concatenate([np.stack([e.xy_i, e.xy_j], axis=1).reshape(-1, 2) for e in matches])
    unique, first, node = np.unique(keys, return_index=True, return_inverse=True)
    pairs = node.reshape(-1, 2)
    graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(len(unique),) * 2)
    _, labels = connected_components(graph, directed=False)
    order = np.argsort(labels, kind="stable")
    bounds = np.flatnonzero(np.diff(labels[order])) + 1
    components = sorted(group.tolist() for group in np.split(unique[order], bounds))
    xy = dict(zip(unique.tolist(), map(tuple, pixels[first].tolist())))
    poisoned = [_inconsistent(comp) for comp in components]
    return _NodeTracks(components=components, xy=xy, poisoned=poisoned)


def _inconsistent(component: list[int]) -> bool:
    cams = [k >> _FEATURE_SHIFT for k in component]
    return len(cams) != len(set(cams))


def _merge_node_tracks(
    left: _NodeTracks, right: _NodeTracks, cross: list[MatchEdge]
) -> _NodeTracks:
    """Union left and right track sets through the cross matches.

    Features seen only in a cross match enter as fresh singletons. Poison
    propagates to every component a poisoned component touches.
    """
    components = left.components + right.components
    poisoned = left.poisoned + right.poisoned
    xy = dict(left.xy)
    xy.update(right.xy)

    owner: dict[int, int] = {}
    for idx, comp in enumerate(components):
        for k in comp:
            owner[k] = idx

    links: list[tuple[int, int]] = []
    for edge in cross:
        for fi, (xi, yi), fj, (xj, yj) in zip(edge.feat_i, edge.xy_i, edge.feat_j, edge.xy_j):
            ka, kb = _key(edge.i, int(fi)), _key(edge.j, int(fj))
            xy.setdefault(ka, (float(xi), float(yi)))
            xy.setdefault(kb, (float(xj), float(yj)))
            for k in (ka, kb):
                if k not in owner:
                    owner[k] = len(components)
                    components.append([k])
                    poisoned.append(False)
            links.append((owner[ka], owner[kb]))

    uf = UnionFind(len(components))
    for a, b in links:
        uf.union(a, b)
    merged = sorted(
        (sorted(k for idx in group for k in components[idx]), any(poisoned[idx] for idx in group))
        for group in uf.groups()
    )
    out_components = [comp for comp, _ in merged]
    out_poison = [bad or _inconsistent(comp) for comp, bad in merged]
    return _NodeTracks(components=out_components, xy=xy, poisoned=out_poison)


def _emit(node: _NodeTracks, drop_short: bool = True) -> list[Track]:
    tracks = []
    for comp, bad in zip(node.components, node.poisoned):
        if bad:
            continue
        if drop_short and len(comp) < MIN_TRACK_LENGTH:
            continue
        cams = np.array([k >> _FEATURE_SHIFT for k in comp], dtype=np.int64)
        feats = np.array([k & ((1 << _FEATURE_SHIFT) - 1) for k in comp], dtype=np.int64)
        xy = np.array([node.xy[k] for k in comp], dtype=float).reshape(-1, 2)
        tracks.append(Track(id=len(tracks), cameras=cams, features=feats, xy=xy))
    return tracks


def generate_tracks_leaf(cameras, matches: list[MatchEdge]) -> list[Track]:
    """Tracks of one leaf-pair sub-problem: connected components of the
    matches restricted to the given cameras, inconsistent components
    discarded whole."""
    node = _components_from_matches(matches, allowed=set(cameras))
    return _emit(node)


def _tracks_to_node(tracks: list[Track]) -> _NodeTracks:
    components, xy = [], {}
    for t in tracks:
        comp = []
        for c, f, (x, y) in zip(t.cameras, t.features, t.xy):
            k = _key(int(c), int(f))
            comp.append(k)
            xy[k] = (float(x), float(y))
        components.append(sorted(comp))
    components.sort()
    return _NodeTracks(components=components, xy=xy, poisoned=[False] * len(components))


def merge_tracks(left: list[Track], right: list[Track], cross: list[MatchEdge]) -> list[Track]:
    """Merge two sibling nodes' track lists through their cross matches."""
    node = _merge_node_tracks(_tracks_to_node(left), _tracks_to_node(right), cross)
    return _emit(node)


def generate_tracks(tree: ClusterTree, matches: list[MatchEdge]) -> list[Track]:
    """Globally consistent tracks via bottom-up merging over the cluster tree.

    Leaf nodes consume the matches interior to their camera set; each
    internal node consumes the cut edges recorded at its split, so every
    match is processed exactly once and the result equals a flat union-find
    over all matches.
    """
    in_tree = set(tree.root.cameras)
    leaf_matches: dict[int, list[MatchEdge]] = {}
    leaf_of = {}
    tree.assign_leaf_ids()
    for leaf in tree.leaves():
        for c in leaf.cameras:
            leaf_of[c] = leaf.leaf_id
    cut_index: dict[tuple[int, int], MatchEdge] = {}
    for edge in matches:
        if edge.i not in in_tree or edge.j not in in_tree:
            raise DataError(f"match edge ({edge.i}, {edge.j}) references a camera outside the tree")
        li, lj = leaf_of[edge.i], leaf_of[edge.j]
        if li == lj:
            leaf_matches.setdefault(li, []).append(edge)
        else:
            cut_index[(edge.i, edge.j)] = edge

    consumed = set()

    def walk(node) -> _NodeTracks:
        if node.is_leaf:
            return _components_from_matches(
                leaf_matches.get(node.leaf_id, []), allowed=set(node.cameras)
            )
        left = walk(node.left)
        right = walk(node.right)
        cross = []
        for pair in sorted(node.cut_edges):
            if pair in cut_index:
                cross.append(cut_index[pair])
                consumed.add(pair)
        return _merge_node_tracks(left, right, cross)

    root = walk(tree.root)
    missing = set(cut_index) - consumed
    if missing:
        raise DataError(f"{len(missing)} cross-leaf match edges not scoped by the tree")
    return _emit(root)

