import itertools

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

import clustering_reference
from clustersfm import clustering
from clustersfm.clustering import (
    Cluster,
    ClusteringError,
    _expand,
    bisect_normalized_cut,
    cluster_cameras,
    divide,
)
from clustersfm.scene import build_camera_graph
from clustersfm.synthetic import generate_synthetic_scene
from conftest import geometric_graph, match_table, weighted_edge


def depth(node) -> int:
    """Edges on the longest path from a cluster tree node down to a leaf."""
    return 0 if node.is_leaf else 1 + max(depth(node.left), depth(node.right))


def cross_edges(graph, leaves) -> list[tuple[int, int]]:
    """The (i, j) graph edges whose cameras lie in two different leaves."""
    leaf_of = {c: leaf.id for leaf in leaves for c in leaf.cameras}
    return [(i, j) for i, j in graph.pairs.tolist() if leaf_of[i] != leaf_of[j]]


def ratios(clusters: list[Cluster], num_cameras: int = 10) -> list[float]:
    """The completeness ratios of the clusters, from the overlap counts of
    an expansion over no edges."""
    member = np.zeros((num_cameras, len(clusters)), dtype=bool)
    for k, cl in enumerate(clusters):
        member[list(cl.cameras), k] = True
    overlap = _expand([-1] * num_cameras, member, np.zeros((0, 2), dtype=np.int64), 0.0, 0, np.inf)
    return (overlap / member.sum(axis=0)).tolist()


def test_bisect_weighted_path_exhaustive_minimum():
    # exhaustive check over all 7 bipartitions of {0,1,2,3} says {0,1}|{2,3}
    g = build_camera_graph(
        match_table([weighted_edge(0, 1, 10), weighted_edge(1, 2, 1), weighted_edge(2, 3, 10)]), 4
    )
    a, b = bisect_normalized_cut(g)
    assert (a, b) == ((0, 1), (2, 3))


def test_bisect_disconnected_components_first():
    edges = [weighted_edge(0, 1, 1), weighted_edge(1, 2, 1), weighted_edge(0, 2, 1),
             weighted_edge(3, 4, 1), weighted_edge(4, 5, 1), weighted_edge(3, 5, 1)]
    a, b = bisect_normalized_cut(build_camera_graph(match_table(edges), 6))
    assert set(a) == {0, 1, 2} and set(b) == {3, 4, 5}


def test_bisect_k4_balanced_tie_break():
    edges = [weighted_edge(i, j, 5) for i in range(4) for j in range(i + 1, 4)]
    a, b = bisect_normalized_cut(build_camera_graph(match_table(edges), 4))
    assert len(a) == 2 and len(b) == 2
    assert 0 in a


def test_divide_single_leaf():
    g = build_camera_graph(match_table([weighted_edge(0, 1, 3), weighted_edge(1, 2, 3), weighted_edge(2, 3, 3)]), 4)
    leaves, tree = divide(g, 100)
    assert len(leaves) == 1 and cross_edges(g, leaves) == [] and depth(tree.root) == 0


def test_divide_path_of_eight():
    g = build_camera_graph(match_table([weighted_edge(i, i + 1, 1) for i in range(7)]), 8)
    leaves, tree = divide(g, 2)
    assert [l.cameras for l in leaves] == [(0, 1), (2, 3), (4, 5), (6, 7)]
    discarded = cross_edges(g, leaves)
    assert len(discarded) == 3
    assert set(discarded) == {(1, 2), (3, 4), (5, 6)}


def test_divide_respects_cap_and_covers():
    g = geometric_graph(300, 0.09, 42)
    leaves, tree = divide(g, 100)
    assert all(l.size <= 100 for l in leaves)
    covered = sorted(c for l in leaves for c in l.cameras)
    assert covered == list(range(300))
    seen = set()
    for l in leaves:
        assert not seen.intersection(l.cameras)
        seen.update(l.cameras)


def test_sparse_eigensolver_failure_warns_and_splits_as_dense(monkeypatch, caplog):
    g = geometric_graph(150, 0.2, 3)  # connected, so the bisection runs the eigensolver
    assert g.num_cameras > clustering.DENSE_EIG_LIMIT

    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("ARPACK error -1: No convergence", np.zeros(0), np.zeros((g.num_cameras, 0)))

    with monkeypatch.context() as m, caplog.at_level("WARNING", logger="clustersfm.clustering"):
        m.setattr(clustering, "eigsh", no_convergence)
        fallback = bisect_normalized_cut(g)
    assert caplog.text.count("sparse eigensolver failed") == 1
    assert "sparse eigensolver failed on 150 cameras; falling back to the dense one" in caplog.text
    monkeypatch.setattr(clustering, "DENSE_EIG_LIMIT", g.num_cameras)
    assert bisect_normalized_cut(g) == fallback


def test_completeness_ratio_examples():
    a = Cluster(id=0, cameras=(1, 2, 3, 4))
    b = Cluster(id=1, cameras=(3, 4, 5, 6))
    assert ratios([a, b])[0] == 0.5
    assert ratios([a]) == [0.0]
    c = Cluster(id=0, cameras=(1, 2))
    d = Cluster(id=1, cameras=(1, 2))
    assert ratios([c, d])[0] == 1.0


def expand(leaves, discarded, completeness_threshold, seed):
    """Grow disjoint leaf clusters by re-attaching discarded (i, j, weight)
    edges, through the expansion loop that cluster_cameras runs."""
    num_cameras = 1 + max(c for leaf in leaves for c in leaf.cameras)
    home = [-1] * num_cameras
    member = np.zeros((num_cameras, len(leaves)), dtype=bool)
    for k, leaf in enumerate(leaves):
        for c in leaf.cameras:
            home[c] = k
        member[list(leaf.cameras), k] = True
    order = sorted(discarded, key=lambda e: (-e[2], e[0], e[1]))
    _expand(home, member, np.array([(i, j) for i, j, _ in order]).reshape(-1, 2), completeness_threshold, seed,
            np.inf)
    return [Cluster(id=leaf.id, cameras=np.flatnonzero(member[:, k]).tolist()) for k, leaf in enumerate(leaves)]


def test_expand_zero_threshold_is_identity():
    leaves = [Cluster(id=0, cameras=(0, 1)), Cluster(id=1, cameras=(2, 3))]
    out = expand(leaves, [(1, 2, 5)], 0.0, seed=1)
    assert [c.cameras for c in out] == [(0, 1), (2, 3)]


def test_expand_adds_foreign_vertex():
    leaves = [Cluster(id=0, cameras=(0, 1)), Cluster(id=1, cameras=(2, 3))]
    out = expand(leaves, [(1, 2, 5)], 0.4, seed=1)
    sizes = sorted(c.size for c in out)
    # one side absorbed the foreign endpoint; the other may follow via the
    # same edge on a later pass until both reach the threshold or stall
    assert sizes in ([2, 3], [3, 3])
    for c, ratio in zip(out, ratios(out)):
        if c.size == 3:
            assert ratio > 0


def test_expand_seed_changes_receiver_only():
    leaves = [Cluster(id=0, cameras=(0, 1)), Cluster(id=1, cameras=(2, 3))]
    outs = {tuple(tuple(c.cameras) for c in expand(leaves, [(1, 2, 5)], 0.3, seed=s)) for s in range(8)}
    # all outcomes satisfy the postconditions even if receivers differ
    for variant in outs:
        assert all(len(c) >= 2 for c in variant)


def test_cluster_cameras_single_cluster_reports_zero_ratio():
    g = build_camera_graph(match_table([weighted_edge(0, 1, 4), weighted_edge(1, 2, 4)]), 3)
    cs = cluster_cameras(g, max_cluster_size=100, completeness_ratio=0.7, seed=0)
    assert len(cs.interdependent) == 1
    assert cs.achieved_ratios == [0.0]
    assert cs.exhausted  # no discarded edges can ever raise the ratio


def test_cluster_cameras_properties_on_random_graph():
    g = geometric_graph(150, 0.12, 3)
    cs = cluster_cameras(g, max_cluster_size=100, completeness_ratio=0.1, seed=5)
    assert len(cs.interdependent) >= 2
    for c, ratio in zip(cs.interdependent, cs.achieved_ratios):
        assert c.size <= 100
        if not cs.exhausted:
            assert ratio >= 0.1
    # coverage: every non-dropped camera in exactly one independent cluster
    covered = sorted(c for cl in cs.independent for c in cl.cameras)
    expected = sorted(set(range(150)) - set(cs.dropped_cameras))
    assert covered == expected
    # pairing: interdependent[k] contains independent[k]
    for ind, inter in zip(cs.independent, cs.interdependent):
        assert set(ind.cameras) <= set(inter.cameras)
    # tree leaves match independent clusters
    leaves = cs.tree.leaves()
    assert [l.cameras for l in leaves] == [c.cameras for c in cs.independent]


def test_cluster_cameras_deterministic():
    g = geometric_graph(200, 0.1, 11)
    a = cluster_cameras(g, max_cluster_size=60, completeness_ratio=0.5, seed=21)
    b = cluster_cameras(g, max_cluster_size=60, completeness_ratio=0.5, seed=21)
    assert [c.cameras for c in a.interdependent] == [c.cameras for c in b.interdependent]
    assert a.discarded_edges == b.discarded_edges
    assert a.achieved_ratios == b.achieved_ratios


def test_cluster_cameras_monotone_in_completeness():
    g = geometric_graph(400, 0.08, 17)
    dup, disc = [], []
    for dc in (0.0, 0.3, 0.5, 0.7):
        cs = cluster_cameras(g, max_cluster_size=100, completeness_ratio=dc, seed=2)
        dup.append(sum(c.size for c in cs.interdependent))
        disc.append(sum(w for (_, _, w) in cs.discarded_edges))
    assert dup == sorted(dup)
    assert disc == sorted(disc, reverse=True)


def test_cluster_config_validation():
    from clustersfm.errors import ConfigurationError
    from clustersfm.pipeline import PipelineConfig

    # the two clustering settings are checked once, by PipelineConfig
    with pytest.raises(ConfigurationError, match="max_cluster_size"):
        PipelineConfig(max_cluster_size=1)
    with pytest.raises(ConfigurationError, match="completeness_ratio"):
        PipelineConfig(completeness_ratio=1.5)
    # a direct call still cannot divide below two cameras a cluster
    with pytest.raises(ConfigurationError, match="max_cluster_size"):
        cluster_cameras(geometric_graph(20, 0.4, 3), max_cluster_size=1, completeness_ratio=0.5, seed=0)


def test_non_termination_guard_carries_state(monkeypatch):
    from clustersfm import clustering
    from clustersfm.clustering import ClusteringError
    from clustersfm.scene import build_camera_graph
    from clustersfm.synthetic import generate_synthetic_scene

    scene, matches = generate_synthetic_scene("loop", 120, 2000, pixel_sigma=0.0, seed=7)
    g = build_camera_graph(matches, 120)
    # cap 55 forces a re-division round; one outer iteration cannot settle
    monkeypatch.setattr(clustering, "MAX_OUTER_ITERATIONS", 1)
    with pytest.raises(ClusteringError) as info:
        cluster_cameras(g, max_cluster_size=55, completeness_ratio=0.7, seed=7)
    last = info.value.last_state
    assert last is not None
    assert len(last.interdependent) >= 2


def tree_shape(node):
    """The cameras of every node of a cluster tree, nested as the tree is."""
    return node.cameras if node.is_leaf else (node.cameras, tree_shape(node.left), tree_shape(node.right))


def fields(cs) -> dict:
    return dict(independent=[(c.id, c.cameras) for c in cs.independent],
                interdependent=[(c.id, c.cameras) for c in cs.interdependent], tree=tree_shape(cs.tree.root),
                discarded_edges=cs.discarded_edges, achieved_ratios=cs.achieved_ratios, exhausted=cs.exhausted,
                dropped_cameras=cs.dropped_cameras)


@pytest.mark.parametrize("layout,num_cameras,num_points", [
    ("grid", 25, 300), ("orbit", 30, 300), ("loop", 48, 400), ("cityBlocks", 36, 300),
])
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_cluster_cameras_equals_the_reference(layout, num_cameras, num_points, seed):
    """Every field and the tree equal the set-based reference's wherever it
    settles; where it cycles, the clustering settles within the cap."""
    _, matches = generate_synthetic_scene(layout, num_cameras, num_points, pixel_sigma=0.5, seed=seed)
    g = build_camera_graph(matches, num_cameras)
    caps = (num_cameras // 4 + 1, num_cameras // 2 + 2, num_cameras - 3)
    for cap, ratio in itertools.product(caps, (0.0, 0.5, 0.7)):
        cs = cluster_cameras(g, cap, ratio, seed)
        try:
            expected = clustering_reference.cluster_cameras(g, cap, ratio, seed)
        except ClusteringError as exc:
            assert "did not settle" in str(exc)
            assert all(c.size <= cap for c in cs.interdependent), (cap, ratio)
            continue
        assert fields(cs) == fields(expected), (cap, ratio)


def test_repeated_division_settles_within_the_cap():
    """On the CI scene at seed 1 the re-division of an oversize cluster keeps
    its home, so the next expansion re-adds the same cameras: a cycle that
    used to end in ClusteringError."""
    _, matches = generate_synthetic_scene("grid", 25, 300, pixel_sigma=0.5, seed=1)
    g = build_camera_graph(matches, 25)
    with pytest.raises(ClusteringError, match="did not settle within 16 iterations"):
        clustering_reference.cluster_cameras(g, 14, 0.7, 1)
    cs = cluster_cameras(g, 14, 0.7, 1)
    assert max(c.size for c in cs.interdependent) <= 14
    assert sorted(c for cl in cs.independent for c in cl.cameras) == list(range(25))
    for ind, inter in zip(cs.independent, cs.interdependent):
        assert set(ind.cameras) <= set(inter.cameras)
    assert [leaf.cameras for leaf in cs.tree.leaves()] == [c.cameras for c in cs.independent]
