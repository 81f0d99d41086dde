"""The camera clustering written over Python sets and an (i, j) -> weight
dict: the reference that `clustersfm.clustering.cluster_cameras` must
reproduce exactly, field for field and tree for tree, wherever this one
settles.

It keeps the normalized-cut sweep one camera at a time and shares the
Fiedler vector and the split of a disconnected graph with the package, so
any difference in the outputs is a difference in how the sweep, the
division and the expansion rounds are computed. Where a divided state
repeats, this one cycles until its round cap and raises ClusteringError.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import connected_components

from clustersfm import clustering
from clustersfm.clustering import (BALANCE_FLOOR, OBJECTIVE_TIE_TOL, Cluster, ClusteringError, ClusterSet,
                                   _fiedler_vector, _split_components)
from clustersfm.errors import ConfigurationError
from clustersfm.utils import stable_seed


class DictGraph:
    """A package CameraGraph seen as num_cameras, the (i, j) -> weight dict
    `edges` in ascending (i, j) order and its adjacency matrix."""

    def __init__(self, graph):
        self.num_cameras = graph.num_cameras
        self.edges = dict(zip(map(tuple, graph.pairs.tolist()), graph.weights.tolist()))
        self.adjacency = graph.adjacency


def bisect_normalized_cut(graph: DictGraph, cameras=None) -> tuple[tuple, tuple]:
    """Bipartition a (sub)graph minimizing the normalized-cut objective
    cut(A,B) * (1/vol(A) + 1/vol(B)) over a Fiedler-vector sweep.

    Disconnected inputs split along component boundaries. Among tying sweep
    candidates the more balanced split wins, then the lexicographically
    smallest camera set. The side containing the smallest camera id is
    returned first.
    """
    nodes = np.array(sorted(cameras) if cameras is not None else range(graph.num_cameras))
    n = len(nodes)
    if n < 2:
        raise ConfigurationError("bisection needs at least 2 cameras")
    W = graph.adjacency()[np.ix_(nodes, nodes)].tocsr()
    n_comp, labels = connected_components(W, directed=False)
    if n_comp > 1:
        return _split_components(nodes, labels)

    y = _fiedler_vector(W)
    order = np.lexsort((nodes, y))
    deg = np.asarray(W.sum(axis=1)).ravel()
    vol_total = float(deg.sum())

    min_side = max(1, int(np.ceil(BALANCE_FLOOR * n)))
    lo, hi = min_side, n - min_side
    if lo > hi:
        lo, hi = 1, n - 1

    in_a = np.zeros(n, dtype=bool)
    cut = 0.0
    vol_a = 0.0
    best = None  # (objective, -min_side_size, lex_key, m)
    Wd = W.tocsr()
    for m in range(1, n):
        v = order[m - 1]
        row = Wd.getrow(v)
        w_to_a = float(row.data[in_a[row.indices]].sum())
        cut += deg[v] - 2.0 * w_to_a
        vol_a += deg[v]
        in_a[v] = True
        if not (lo <= m <= hi):
            continue
        vol_b = vol_total - vol_a
        obj = cut * (1.0 / max(vol_a, 1e-300) + 1.0 / max(vol_b, 1e-300))
        side_a = tuple(sorted(nodes[order[:m]].tolist()))
        side_b = tuple(sorted(nodes[order[m:]].tolist()))
        lex = side_a if side_a[0] < side_b[0] else side_b
        cand = (obj, -min(m, n - m), lex)
        if best is None or _candidate_better(cand, best):
            best = cand
            best_sides = (side_a, side_b)
    side_a, side_b = best_sides
    if side_a[0] > side_b[0]:
        side_a, side_b = side_b, side_a
    return side_a, side_b


def _candidate_better(cand, best) -> bool:
    if cand[0] < best[0] - OBJECTIVE_TIE_TOL:
        return True
    if cand[0] > best[0] + OBJECTIVE_TIE_TOL:
        return False
    if cand[1] != best[1]:
        return cand[1] < best[1]
    return cand[2] < best[2]


@dataclass
class ClusterTreeNode:
    cameras: tuple
    left: "ClusterTreeNode | None" = None
    right: "ClusterTreeNode | None" = None
    leaf_id: int | None = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None


@dataclass
class ClusterTree:
    root: ClusterTreeNode

    def leaves(self) -> list[ClusterTreeNode]:
        out = []

        def walk(node):
            if node.is_leaf:
                out.append(node)
            else:
                walk(node.left)
                walk(node.right)

        walk(self.root)
        return out

    def assign_leaf_ids(self) -> None:
        for k, leaf in enumerate(self.leaves()):
            leaf.leaf_id = k


def _split_tree(graph: DictGraph, cams: tuple, limit: int) -> ClusterTreeNode:
    """Division tree of cams, bisected in pre-order until every leaf has at
    most limit cameras."""
    if len(cams) <= limit:
        return ClusterTreeNode(cameras=cams)
    a, b = bisect_normalized_cut(graph, cams)
    return ClusterTreeNode(
        cameras=cams, left=_split_tree(graph, a, limit), right=_split_tree(graph, b, limit)
    )


def _prune_tree(node: ClusterTreeNode, keep: set) -> ClusterTreeNode | None:
    """Copy of the subtree restricted to the cameras in keep; nodes left
    empty vanish and a node with one surviving child is replaced by it."""
    cams = tuple(c for c in node.cameras if c in keep)
    if not cams:
        return None
    if node.is_leaf:
        return ClusterTreeNode(cameras=cams)
    left, right = _prune_tree(node.left, keep), _prune_tree(node.right, keep)
    if left is None or right is None:
        return right if left is None else left
    return ClusterTreeNode(cameras=cams, left=left, right=right)


def divide(
    graph: DictGraph, max_cluster_size: int, cameras=None
) -> tuple[list[Cluster], ClusterTree, list]:
    """Recursively bisect until every leaf has at most max_cluster_size
    cameras. Returns (leaf clusters, division tree, discarded edges with
    weights)."""
    if max_cluster_size < 2:
        raise ConfigurationError("max_cluster_size must be >= 2")
    cams = tuple(sorted(cameras) if cameras is not None else range(graph.num_cameras))
    tree = ClusterTree(root=_split_tree(graph, cams, max_cluster_size))
    tree.assign_leaf_ids()
    leaves = [Cluster(id=k, cameras=leaf.cameras) for k, leaf in enumerate(tree.leaves())]
    leaf_of = {}
    for leaf in leaves:
        for c in leaf.cameras:
            leaf_of[c] = leaf.id
    inside = set(cams)
    discarded = [
        (i, j, w)
        for (i, j), w in sorted(graph.edges.items())
        if i in inside and j in inside and leaf_of[i] != leaf_of[j]
    ]
    return leaves, tree, discarded


def completeness_ratio(cluster: Cluster, clusters: list[Cluster]) -> float:
    """Sum of camera overlaps with every other cluster, divided by size."""
    mine = set(cluster.cameras)
    total = 0
    for other in clusters:
        if other is cluster or other.id == cluster.id:
            continue
        total += len(mine.intersection(other.cameras))
    return total / len(cluster.cameras)


class _Membership:
    """Incremental completeness bookkeeping over a family of camera sets."""

    def __init__(self, families: list[set]):
        self.families = families
        self.holders: dict[int, set[int]] = {}
        for k, fam in enumerate(families):
            for c in fam:
                self.holders.setdefault(c, set()).add(k)
        self.overlap = [sum(len(self.holders[c]) - 1 for c in fam) for fam in families]

    def ratio(self, k: int) -> float:
        return self.overlap[k] / len(self.families[k])

    def add(self, k: int, camera: int) -> None:
        holders = self.holders.setdefault(camera, set())
        for other in holders:
            self.overlap[other] += 1
        self.overlap[k] += len(holders)
        holders.add(k)
        self.families[k].add(camera)


def _contained(edge_i, edge_j, families: list[set]) -> bool:
    return any(edge_i in fam and edge_j in fam for fam in families)


def _expand_in_place(
    home_of: dict,
    families: list[set],
    discarded: list,
    completeness_threshold: float,
    seed: int,
) -> None:
    """The expansion loop of cluster_cameras; mutates the family sets until
    no discarded edge can add another camera.

    Edges are visited by descending weight (ties by ascending camera pair),
    repeatedly, so a needy cluster keeps absorbing boundary cameras until it
    meets the threshold or its boundary is used up. The receiving side is a
    seeded per-edge coin flip when both homes are below the threshold, which
    keeps the outcome independent of pass structure and worker scheduling.
    """
    members = _Membership(families)
    order = sorted(discarded, key=lambda e: (-e[2], e[0], e[1]))
    while True:
        changed = False
        for (i, j, _w) in order:
            if i not in home_of or j not in home_of:
                continue
            ki, kj = home_of[i], home_of[j]
            if ki == kj:
                continue
            candidates = [k for k in (ki, kj) if members.ratio(k) < completeness_threshold]
            if not candidates:
                continue
            if len(candidates) == 2 and stable_seed(seed, i, j) % 2 == 1:
                candidates = candidates[::-1]
            # the coin decides precedence; a no-op pick (vertex already
            # present) falls through to the other needy side so the loop
            # truly stops only when nothing can be added
            for pick in candidates:
                foreign = j if pick == ki else i
                if foreign not in families[pick]:
                    members.add(pick, foreign)
                    changed = True
                    break
        if not changed:
            break


def cluster_cameras(package_graph, max_cluster_size, completeness_ratio, seed) -> ClusterSet:
    """Iterate graph division and expansion until every interdependent
    cluster satisfies the size cap and (unless the discarded edges run out)
    the completeness threshold."""
    graph = DictGraph(package_graph)
    adj = graph.adjacency()
    n_comp, labels = connected_components(adj, directed=False)
    comp_sizes = np.bincount(labels, minlength=n_comp)
    dropped = sorted(int(c) for c in range(graph.num_cameras) if comp_sizes[labels[c]] < 2)
    kept = tuple(c for c in range(graph.num_cameras) if c not in set(dropped))
    if dropped:
        logger.warning("dropping %d isolated camera(s): %s", len(dropped), dropped[:10])
    if len(kept) < 2:
        raise ConfigurationError("camera graph has no component with >= 2 cameras")

    leaves, tree, _ = divide(graph, max_cluster_size, kept)
    # working state: per leaf, (home set, full set)
    homes = [set(leaf.cameras) for leaf in leaves]
    fulls = [set(leaf.cameras) for leaf in leaves]

    settled = False
    for _outer in range(clustering.MAX_OUTER_ITERATIONS):
        # --- expansion over the cross-home (division-discarded) edges
        home_of = {}
        for k, home in enumerate(homes):
            for c in home:
                home_of[c] = k
        cross = [
            (i, j, w)
            for (i, j), w in sorted(graph.edges.items())
            if i in home_of and j in home_of and home_of[i] != home_of[j]
        ]
        _expand_in_place(home_of, fulls, cross, completeness_ratio, seed)

        # --- size check; re-divide oversize clusters (duplicates ride along)
        oversize = [k for k in range(len(fulls)) if len(fulls[k]) > max_cluster_size]
        if not oversize:
            settled = True
            break
        new_homes, new_fulls = [], []
        replacements: dict[frozenset, ClusterTreeNode] = {}
        for k in range(len(fulls)):
            if k not in oversize:
                new_homes.append(homes[k])
                new_fulls.append(fulls[k])
                continue
            split = _split_tree(graph, tuple(sorted(fulls[k])), max_cluster_size)
            subtree = _prune_tree(split, homes[k])
            if subtree is None:
                # all home cameras vanished (cannot happen: homes are subsets)
                raise ClusteringError("re-division lost a cluster's home cameras")
            replacements[frozenset(homes[k])] = subtree
            for part in ClusterTree(root=split).leaves():
                home_part = set(part.cameras) & homes[k]
                if not home_part:
                    continue  # duplicate-only fragment: drop it from this family
                new_homes.append(home_part)
                new_fulls.append(set(part.cameras))
        homes, fulls = new_homes, new_fulls
        _replace_leaves(tree, replacements)

    if not settled:
        last = _assemble(graph, tree, homes, fulls, completeness_ratio, dropped)
        raise ClusteringError(
            f"clustering did not settle within {clustering.MAX_OUTER_ITERATIONS} iterations",
            last_state=last,
        )
    return _assemble(graph, tree, homes, fulls, completeness_ratio, dropped)


def _replace_leaves(tree: ClusterTree, replacements: dict) -> None:
    def walk(node):
        if node.is_leaf:
            return replacements.get(frozenset(node.cameras), node)
        node.left = walk(node.left)
        node.right = walk(node.right)
        return node

    tree.root = walk(tree.root)


def _assemble(graph, tree, homes, fulls, threshold, dropped) -> ClusterSet:
    tree.assign_leaf_ids()
    leaf_nodes = tree.leaves()
    by_home = {frozenset(h): set(f) for h, f in zip(homes, fulls)}
    interdependent = []
    for k, leaf in enumerate(leaf_nodes):
        home = frozenset(leaf.cameras)
        full = by_home.get(home)
        if full is None:
            raise ClusteringError("tree leaves out of sync with working clusters")
        interdependent.append(Cluster(id=k, cameras=tuple(sorted(full))))
    kept = {c for h in homes for c in h}
    uncovered = [
        (i, j, w)
        for (i, j), w in sorted(graph.edges.items())
        if i in kept and j in kept and not _contained(i, j, fulls)
    ]
    ratios = [completeness_ratio(cl, interdependent) for cl in interdependent]
    exhausted = any(r < threshold for r in ratios)
    return ClusterSet(
        interdependent=interdependent,
        tree=tree,
        discarded_edges=uncovered,
        achieved_ratios=ratios,
        exhausted=exhausted,
        dropped_cameras=dropped,
    )
