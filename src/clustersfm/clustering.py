"""Clustering the cameras: iterative graph division and expansion.

Division recursively bisects the camera graph with a spectral normalized cut
until every piece respects the size cap. Expansion then walks the edges
between the pieces in descending weight and duplicates boundary cameras into
neighboring clusters until each cluster's completeness ratio reaches the
threshold. The two phases alternate because expansion can push a cluster back
over the size cap: the oversize cluster is divided again, and the division
of its home cameras replaces its leaf of the division tree. A divided state
seen before would only repeat the rounds that followed it, so that round's
expansion grows no cluster past the cap; it settles, possibly below the
threshold.

The graph is read as its edge arrays: each round's cross edges and the
result's uncovered edges are masks over them, and the normalized cut is a
prefix sum over the edges in sweep order.

The fully exclusive clusters before expansion are the "independent" clusters
(leaves of the division tree, used later for triangulation and partitioned
bundle adjustment); the overlapping clusters after expansion are the
"interdependent" clusters fed to local incremental SfM.
"""

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, eigsh

from .errors import ConfigurationError, NumericalError
from .scene import CameraGraph
from .utils import stable_seed

logger = logging.getLogger(__name__)

DENSE_EIG_LIMIT = 64
EIG_TOL = 1e-8
EIG_MAX_ITER = 500
BALANCE_FLOOR = 0.2
OBJECTIVE_TIE_TOL = 1e-12
MAX_OUTER_ITERATIONS = 16  # division/expansion rounds before ClusteringError


@dataclass
class Cluster:
    id: int
    cameras: tuple

    def __post_init__(self):
        self.cameras = tuple(sorted(self.cameras))

    @property
    def size(self) -> int:
        return len(self.cameras)


@dataclass
class ClusterTreeNode:
    cameras: tuple  # cameras covered by this node (home sets, no duplicates)
    left: "ClusterTreeNode | None" = None
    right: "ClusterTreeNode | None" = None

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


@dataclass
class ClusterSet:
    """The interdependent clusters and the division tree; independent
    cluster k is the tree's depth-first leaf k, and interdependent cluster k
    its expansion."""

    interdependent: list[Cluster]
    tree: ClusterTree
    discarded_edges: list  # (i, j, weight) not covered by any interdependent cluster
    achieved_ratios: list[float]
    exhausted: bool
    dropped_cameras: list = field(default_factory=list)

    @property
    def independent(self) -> list[Cluster]:
        return [Cluster(id=k, cameras=leaf.cameras) for k, leaf in enumerate(self.tree.leaves())]


class ClusteringError(NumericalError):
    """Outer division/expansion loop failed to settle; carries the last
    expanded state, whose clusters break the size cap."""

    def __init__(self, message, last_state=None):
        super().__init__(message)
        self.last_state = last_state


# ---------------------------------------------------------------------------
# Normalized-cut bisection
# ---------------------------------------------------------------------------

def _fiedler_vector(W: csr_matrix) -> np.ndarray:
    """Sweep vector for the normalized cut: D^-1/2 times the second
    eigenvector of the normalized adjacency."""
    n = W.shape[0]
    deg = np.asarray(W.sum(axis=1)).ravel()
    dinv = 1.0 / np.sqrt(np.maximum(deg, 1e-300))
    Wn = csr_matrix(W.multiply(dinv[:, None]).multiply(dinv[None, :]))
    if n <= DENSE_EIG_LIMIT:
        vals, vecs = np.linalg.eigh(Wn.toarray())
        u2 = vecs[:, -2]
    else:
        # deterministic non-trivial start vector
        v0 = np.linspace(1.0, 2.0, n)
        v0 /= np.linalg.norm(v0)
        try:
            vals, vecs = eigsh(Wn, k=2, which="LA", v0=v0, tol=EIG_TOL, maxiter=EIG_MAX_ITER)
            u2 = vecs[:, np.argsort(vals)[0]]
        except (ArpackError, ArpackNoConvergence):
            logger.warning("sparse eigensolver failed on %d cameras; falling back to the dense one", n)
            vals, vecs = np.linalg.eigh(Wn.toarray())
            u2 = vecs[:, -2]
    y = dinv * u2
    # deterministic sign: first entry of meaningful magnitude is positive
    for v in y:
        if abs(v) > 1e-12:
            if v < 0:
                y = -y
            break
    return y


def _split_components(nodes: np.ndarray, labels: np.ndarray) -> tuple[tuple, tuple]:
    """Zero-cut split of a disconnected subgraph: pack whole components into
    two sides, balancing sizes greedily (largest first)."""
    comp_ids, counts = np.unique(labels, return_counts=True)
    order = sorted(range(len(comp_ids)), key=lambda k: (-counts[k], comp_ids[k]))
    side_a, side_b = [], []
    size_a = size_b = 0
    for k in order:
        members = nodes[labels == comp_ids[k]]
        if size_a <= size_b:
            side_a.extend(members.tolist())
            size_a += len(members)
        else:
            side_b.extend(members.tolist())
            size_b += len(members)
    a, b = sorted(side_a), sorted(side_b)
    if min(a) > min(b):
        a, b = b, a
    return tuple(a), tuple(b)


def bisect_normalized_cut(graph: CameraGraph, cameras=None) -> tuple[tuple, tuple]:
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

    # The sweep moves the cameras to side A in Fiedler order, rank[v] being
    # v's turn. After m moves an edge is cut when exactly one end has moved;
    # the weights are integers, so these prefix sums are exact.
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((nodes, _fiedler_vector(W)))] = np.arange(n)
    inside = np.isin(graph.pairs, nodes).all(axis=1)
    ends = np.sort(rank[np.searchsorted(nodes, graph.pairs[inside])], axis=1)
    w = graph.weights[inside]
    cut = np.cumsum(np.bincount(ends[:, 0] + 1, weights=w, minlength=n + 1)
                    - np.bincount(ends[:, 1] + 1, weights=w, minlength=n + 1))
    vol = np.cumsum(np.bincount(ends.ravel(), weights=np.repeat(w, 2), minlength=n))  # vol[m - 1]: vol(A)

    min_side = max(1, int(np.ceil(BALANCE_FLOOR * n)))
    lo, hi = min_side, n - min_side
    if lo > hi:
        lo, hi = 1, n - 1
    vol_a = vol[lo - 1:hi]
    vol_b = vol[-1] - vol_a
    objective = (cut[lo:hi + 1] * (1.0 / np.maximum(vol_a, 1e-300) + 1.0 / np.maximum(vol_b, 1e-300))).tolist()

    def first_side(m):  # the side of the smallest camera after m moves
        moved = rank < m
        return moved == moved[0]

    best = lo
    for m in range(lo + 1, hi + 1):
        obj, best_obj = objective[m - lo], objective[best - lo]
        if obj > best_obj + OBJECTIVE_TIE_TOL:
            continue
        balance, best_balance = min(m, n - m), min(best, n - best)
        if (obj < best_obj - OBJECTIVE_TIE_TOL or balance > best_balance
                or (balance == best_balance and nodes[first_side(m)].tolist() < nodes[first_side(best)].tolist())):
            best = m
    side = first_side(best)
    return tuple(nodes[side].tolist()), tuple(nodes[~side].tolist())


# ---------------------------------------------------------------------------
# Graph division
# ---------------------------------------------------------------------------

def _split_tree(graph: CameraGraph, cams: tuple, limit: int) -> ClusterTreeNode:
    """Division tree of cams, bisected in pre-order until every leaf has at
    most limit cameras."""
    if len(cams) <= limit:
        return ClusterTreeNode(cameras=cams)
    a, b = bisect_normalized_cut(graph, cams)
    return ClusterTreeNode(
        cameras=cams, left=_split_tree(graph, a, limit), right=_split_tree(graph, b, limit)
    )


def divide(graph: CameraGraph, max_cluster_size: int, cameras=None) -> tuple[list[Cluster], ClusterTree]:
    """Recursively bisect until every leaf has at most max_cluster_size
    cameras. Returns (leaf clusters, division tree)."""
    if max_cluster_size < 2:
        raise ConfigurationError("max_cluster_size must be >= 2")
    cams = tuple(sorted(cameras) if cameras is not None else range(graph.num_cameras))
    tree = ClusterTree(root=_split_tree(graph, cams, max_cluster_size))
    return [Cluster(id=k, cameras=leaf.cameras) for k, leaf in enumerate(tree.leaves())], tree


def _prune_tree(node: ClusterTreeNode, keep: set, pairs: list) -> ClusterTreeNode | None:
    """Copy of the subtree restricted to the cameras in keep; nodes left
    empty vanish and a node with one surviving child is replaced by it.
    Appends (copied leaf, original leaf cameras) to pairs per surviving
    leaf, in depth-first order."""
    cams = tuple(c for c in node.cameras if c in keep)
    if not cams:
        return None
    if node.is_leaf:
        pairs.append((ClusterTreeNode(cameras=cams), node.cameras))
        return pairs[-1][0]
    left, right = _prune_tree(node.left, keep, pairs), _prune_tree(node.right, keep, pairs)
    if left is None or right is None:
        return right if left is None else left
    return ClusterTreeNode(cameras=cams, left=left, right=right)


def _redivide(graph: CameraGraph, leaf: ClusterTreeNode, full: tuple, limit: int) -> list[tuple]:
    """Divide an oversize cluster's full camera set again. The division,
    restricted to the cluster's home cameras (its leaf's), replaces the leaf
    in place. Returns a (tree leaf, full set) pair per part that holds a home
    camera, in depth-first order; a part of duplicates only is dropped."""
    pairs = []
    sub = _prune_tree(_split_tree(graph, full, limit), set(leaf.cameras), pairs)
    if sub.is_leaf:
        return [(leaf, pairs[0][1])]
    leaf.left, leaf.right = sub.left, sub.right
    return pairs


# ---------------------------------------------------------------------------
# Graph expansion
# ---------------------------------------------------------------------------

def _expand(home: list, member: np.ndarray, pairs: np.ndarray, threshold: float, seed: int, limit) -> np.ndarray:
    """Grow the clusters over the cross edges `pairs`, in visiting order,
    until none adds a camera; member[c, k], whether cluster k holds camera
    c, grows in place, home[c] is the cluster of camera c's home. A cluster
    of limit cameras takes no more. Returns each cluster's overlap: the
    copies of its cameras that the other clusters hold, summed, so its
    completeness ratio is its overlap over its size.

    Edges are visited by descending weight (ties by ascending camera pair),
    repeatedly, so a needy cluster keeps absorbing boundary cameras until it
    meets the threshold or its boundary is used up. The receiving side is a
    seeded per-edge coin flip when both homes are below the threshold, which
    keeps the outcome independent of pass structure and worker scheduling.
    """
    holders = member.sum(axis=1)
    size = member.sum(axis=0)
    overlap = member.T @ (holders - 1)
    edges = pairs.tolist()
    changed = True
    while changed:
        changed = False
        for i, j in edges:
            ki, kj = home[i], home[j]
            needy = [k for k in (ki, kj) if overlap[k] / size[k] < threshold and size[k] < limit]
            if len(needy) == 2 and stable_seed(seed, i, j) % 2 == 1:
                needy.reverse()
            # the coin decides precedence; a no-op pick (camera already
            # present) falls through to the other needy side so the loop
            # truly stops only when nothing can be added
            for k in needy:
                c = j if k == ki else i
                if not member[c, k]:
                    overlap[member[c]] += 1
                    overlap[k] += holders[c]
                    holders[c] += 1
                    size[k] += 1
                    member[c, k] = True
                    changed = True
                    break
    return overlap


# ---------------------------------------------------------------------------
# Full clustering loop
# ---------------------------------------------------------------------------

def cluster_cameras(graph: CameraGraph, max_cluster_size: int, completeness_ratio: float, seed: int) -> ClusterSet:
    """Iterate graph division and expansion until every interdependent
    cluster holds at most max_cluster_size cameras and (unless the cross
    edges run out) reaches completeness_ratio. When a divided state
    repeats, that round's expansion grows no cluster past the cap, and the
    round settles; MAX_OUTER_ITERATIONS rounds without settling raise
    ClusteringError."""
    n_comp, labels = connected_components(graph.adjacency(), directed=False)
    alone = np.bincount(labels, minlength=n_comp)[labels] < 2  # a camera without edges
    dropped, kept = np.flatnonzero(alone).tolist(), np.flatnonzero(~alone).tolist()
    if dropped:
        logger.warning("dropping %d isolated camera(s): %s", len(dropped), dropped[:10])
    if len(kept) < 2:
        raise ConfigurationError("camera graph has no component with >= 2 cameras")

    cap = max_cluster_size
    _, tree = divide(graph, cap, kept)
    state = [(leaf, leaf.cameras) for leaf in tree.leaves()]  # (tree leaf, full camera set)
    seen = set()
    for round_ in range(MAX_OUTER_ITERATIONS):
        if round_:
            state = [pair for leaf, full in state
                     for pair in (_redivide(graph, leaf, full, cap) if len(full) > cap else [(leaf, full)])]
        key = tuple((leaf.cameras, full) for leaf, full in state)
        limit = cap if key in seen else np.inf
        seen.add(key)
        home = np.full(graph.num_cameras, -1)
        member = np.zeros((graph.num_cameras, len(state)), dtype=bool)
        for k, (leaf, full) in enumerate(state):
            home[list(leaf.cameras)] = k
            member[list(full), k] = True
        # every edge joins two kept cameras: a dropped camera has none
        i, j = graph.pairs.T
        cross = home[i] != home[j]
        order = np.lexsort((j[cross], i[cross], -graph.weights[cross]))
        overlap = _expand(home.tolist(), member, graph.pairs[cross][order], completeness_ratio, seed, limit)
        state = [(leaf, tuple(np.flatnonzero(column).tolist())) for (leaf, _), column in zip(state, member.T)]
        if all(len(full) <= cap for _, full in state):
            return _assemble(graph, tree, state, member, overlap, completeness_ratio, dropped)
    raise ClusteringError(
        f"clustering did not settle within {MAX_OUTER_ITERATIONS} iterations",
        last_state=_assemble(graph, tree, state, member, overlap, completeness_ratio, dropped),
    )


def _assemble(graph, tree, state, member, overlap, threshold, dropped) -> ClusterSet:
    """The cluster set of the (tree leaf, full set) pairs, in the tree's
    depth-first leaf order, and of member and overlap as _expand left them."""
    incidence = csr_matrix(member)
    i, j = graph.pairs.T
    covered = np.asarray(incidence[i].multiply(incidence[j]).sum(axis=1)).ravel() > 0
    ratios = (overlap / member.sum(axis=0)).tolist()
    return ClusterSet(
        interdependent=[Cluster(id=k, cameras=full) for k, (_, full) in enumerate(state)],
        tree=tree,
        discarded_edges=[tuple(e) for e in np.column_stack((graph.pairs, graph.weights))[~covered].tolist()],
        achieved_ratios=ratios,
        exhausted=any(r < threshold for r in ratios),
        dropped_cameras=dropped,
    )
