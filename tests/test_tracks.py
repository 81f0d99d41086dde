import numpy as np
import pytest

from clustersfm.clustering import ClusterTree, ClusterTreeNode, divide
from clustersfm.errors import DataError
from clustersfm.scene import build_camera_graph
from clustersfm.tracks import generate_tracks
from clustersfm.utils import component_labels
from conftest import match_table


def medge(i, j, pairs):
    """Edge (i, j, feat, xy) of (feature in i, pixel in i, feature in j, pixel in j) pairs."""
    return i, j, [(p[0], p[2]) for p in pairs], [(*p[1], *p[3]) for p in pairs]


def leaf(cameras):
    """A one-leaf tree over the cameras."""
    return ClusterTree(root=ClusterTreeNode(cameras=tuple(cameras), leaf_id=0))


def two_leaves(left, right):
    """A root over two leaves with the given cameras."""
    tree = ClusterTree(root=ClusterTreeNode(
        cameras=tuple(sorted(left + right)), left=ClusterTreeNode(cameras=left), right=ClusterTreeNode(cameras=right)
    ))
    tree.assign_leaf_ids()
    return tree


def flat_union_find_oracle(matches):
    """Independent reference: plain dict-based union-find over all matches
    of a match table, whole-component consistency filter, min length 2."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    xy = {}
    for (i, j), (fi, fj), (xi, yi, xj, yj) in zip(matches.row_cameras().tolist(), matches.feat.tolist(),
                                                  matches.xy.tolist()):
        a, b = (i, fi), (j, fj)
        xy.setdefault(a, (xi, yi))
        xy.setdefault(b, (xj, yj))
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    groups = {}
    for key in parent:
        groups.setdefault(find(key), []).append(key)
    out = set()
    for comp in groups.values():
        cams = [c for c, _ in comp]
        if len(cams) != len(set(cams)) or len(comp) < 2:
            continue
        out.add(tuple(sorted((c, f, xy[(c, f)][0], xy[(c, f)][1]) for c, f in comp)))
    return out


def as_tuple(track):
    """A track as ((camera, feature, x, y), ...), comparable by value."""
    return tuple(
        (int(c), int(f), float(x), float(y)) for c, f, (x, y) in zip(track.cameras, track.features, track.xy)
    )


def canonical(tracks):
    return {as_tuple(t) for t in tracks}


def test_leaf_transitive_closure():
    m1 = medge(0, 1, [(1, (0, 0), 3, (1, 1))])
    m2 = medge(1, 2, [(3, (1, 1), 7, (2, 2))])
    tracks = generate_tracks(leaf([0, 1, 2]), match_table([m1, m2]))
    assert len(tracks) == 1
    assert as_tuple(tracks[0]) == ((0, 1, 0.0, 0.0), (1, 3, 1.0, 1.0), (2, 7, 2.0, 2.0))


def test_leaf_first_seen_pixel_wins():
    # camera 1 feature 3 appears in two edges with different pixels; the
    # pixel of its first appearance in match order is kept
    m1 = medge(0, 1, [(1, (0, 0), 3, (1, 1)), (2, (4, 4), 5, (6, 6))])
    m2 = medge(1, 2, [(3, (9, 9), 7, (2, 2))])
    m3 = medge(0, 2, [(2, (8, 8), 8, (3, 3))])
    tracks = generate_tracks(leaf([0, 1, 2]), match_table([m1, m2, m3]))
    assert [as_tuple(t) for t in tracks] == [
        ((0, 1, 0.0, 0.0), (1, 3, 1.0, 1.0), (2, 7, 2.0, 2.0)),
        ((0, 2, 4.0, 4.0), (1, 5, 6.0, 6.0), (2, 8, 3.0, 3.0)),
    ]


def test_leaf_inconsistent_component_discarded():
    # cycle putting two features of camera 0 into one component
    e01 = medge(0, 1, [(1, (0, 0), 3, (1, 1))])
    e02 = medge(0, 2, [(2, (5, 5), 9, (2, 2))])
    e12 = medge(1, 2, [(3, (1, 1), 9, (2, 2))])
    assert generate_tracks(leaf([0, 1, 2]), match_table([e01, e02, e12])) == []


def test_leaf_rejects_out_of_scope_matches():
    with pytest.raises(DataError, match=r"^match edge \(1, 2\) references a camera outside the tree$"):
        generate_tracks(leaf([0, 1]), match_table([medge(1, 2, [(0, (0, 0), 0, (1, 1))])]))


def test_merge_no_cross_is_union():
    left, right = medge(0, 1, [(1, (0, 0), 3, (1, 1))]), medge(2, 3, [(7, (2, 2), 1, (3, 3))])
    merged = generate_tracks(two_leaves((0, 1), (2, 3)), match_table([left, right]))
    assert canonical(merged) == (canonical(generate_tracks(leaf([0, 1]), match_table([left])))
                                 | canonical(generate_tracks(leaf([2, 3]), match_table([right]))))
    assert len(merged) == 2


def test_merge_single_cross_match_joins():
    matches = match_table([
        medge(0, 1, [(1, (0, 0), 3, (1, 1))]),
        medge(1, 2, [(3, (1, 1), 7, (2, 2))]),
        medge(2, 3, [(7, (2, 2), 1, (3, 3))]),
    ])
    merged = generate_tracks(two_leaves((0, 1), (2, 3)), matches)
    assert len(merged) == 1
    assert len(merged[0]) == 4


def test_merge_chain_equals_flat_oracle():
    all_matches = match_table([
        medge(0, 1, [(1, (0, 0), 3, (1, 1))]),
        medge(2, 3, [(7, (2, 2), 1, (3, 3))]),
        medge(1, 2, [(3, (1, 1), 7, (2, 2))]),
        medge(3, 4, [(1, (3, 3), 0, (4, 4))]),
    ])
    merged = generate_tracks(two_leaves((0, 1), (2, 3, 4)), all_matches)
    assert canonical(merged) == flat_union_find_oracle(all_matches)
    assert len(merged) == 1


def random_instance(rng, ncams, nmatches):
    edges = {}
    for _ in range(nmatches):
        i, j = sorted(rng.choice(ncams, 2, replace=False).tolist())
        fi, fj = int(rng.integers(0, 12)), int(rng.integers(0, 12))
        used = edges.setdefault((i, j), {"i": set(), "j": set(), "pairs": []})
        if fi in used["i"] or fj in used["j"]:
            continue
        used["i"].add(fi)
        used["j"].add(fj)
        used["pairs"].append((fi, (float(fi), float(i)), fj, (float(fj), float(j))))
    return match_table([medge(i, j, d["pairs"]) for (i, j), d in sorted(edges.items()) if d["pairs"]])


def test_hierarchical_equals_flat_on_random_instances():
    rng = np.random.default_rng(3)
    for _ in range(25):
        ncams = int(rng.integers(6, 40))
        matches = random_instance(rng, ncams, int(rng.integers(5, 400)))
        if not len(matches):
            continue
        g = build_camera_graph(matches, ncams)
        _, tree, _ = divide(g, max(2, ncams // 3))
        assert canonical(generate_tracks(tree, matches)) == flat_union_find_oracle(matches)


def test_tree_shape_does_not_matter():
    rng = np.random.default_rng(8)
    matches = random_instance(rng, 12, 150)
    g = build_camera_graph(matches, 12)
    results = []
    for cap in (2, 3, 5, 12):
        _, tree, _ = divide(g, cap)
        results.append(canonical(generate_tracks(tree, matches)))
    assert all(r == results[0] for r in results)


def test_single_leaf_tree_equals_flat_oracle():
    rng = np.random.default_rng(5)
    matches = random_instance(rng, 8, 60)
    assert canonical(generate_tracks(leaf(range(8)), matches)) == flat_union_find_oracle(matches)


def test_zero_matches_empty_tracks():
    assert generate_tracks(leaf([0, 1, 2]), match_table([])) == []


def test_track_invariants():
    rng = np.random.default_rng(6)
    matches = random_instance(rng, 20, 400)
    g = build_camera_graph(matches, 20)
    _, tree, _ = divide(g, 5)
    for t in generate_tracks(tree, matches):
        assert len(t) >= 2
        cams = t.cameras.tolist()
        assert cams == sorted(cams)
        assert len(set(cams)) == len(cams)


def test_idempotent_through_serialization(tmp_path):
    from clustersfm.io import load_tracks, save_tracks

    rng = np.random.default_rng(9)
    matches = random_instance(rng, 10, 100)
    g = build_camera_graph(matches, 10)
    _, tree, _ = divide(g, 4)
    tracks = generate_tracks(tree, matches)
    save_tracks(tmp_path / "t.json", tracks)
    again = load_tracks(tmp_path / "t.json", 10)
    assert canonical(tracks) == canonical(again)


def test_merge_pixel_precedence():
    # a child's pixel beats a cross pixel; of two cross pixels the first in
    # (i, j) order wins
    matches = match_table([
        medge(0, 1, [(1, (0, 0), 3, (1, 1))]),
        medge(1, 3, [(8, (7, 7), 6, (60, 60))]),
        medge(1, 2, [(3, (9, 9), 7, (8, 8))]),
        medge(0, 3, [(5, (5, 5), 6, (6, 6))]),
        medge(2, 3, [(7, (2, 2), 1, (3, 3))]),
    ])
    assert [as_tuple(t) for t in generate_tracks(two_leaves((0, 1), (2, 3)), matches)] == [
        ((0, 1, 0.0, 0.0), (1, 3, 1.0, 1.0), (2, 7, 2.0, 2.0), (3, 1, 3.0, 3.0)),
        ((0, 5, 5.0, 5.0), (1, 8, 7.0, 7.0), (3, 6, 6.0, 6.0)),
    ]


def test_component_inconsistent_at_inner_node_dropped_at_root():
    # the inner node {0, 1, 2} joins two features of camera 2; the root then
    # grows that component by camera 3, which alone would look consistent
    matches = match_table([
        medge(0, 1, [(1, (0, 0), 1, (1, 1))]),
        medge(0, 2, [(1, (0, 0), 1, (2, 2))]),
        medge(1, 2, [(1, (1, 1), 2, (2, 3))]),
        medge(0, 3, [(5, (5, 5), 5, (3, 5))]),
        medge(2, 3, [(2, (2, 3), 1, (3, 3))]),
    ])
    inner = ClusterTreeNode(
        cameras=(0, 1, 2),
        left=ClusterTreeNode(cameras=(0, 1)),
        right=ClusterTreeNode(cameras=(2,)),
    )
    tree = ClusterTree(root=ClusterTreeNode(
        cameras=(0, 1, 2, 3), left=inner, right=ClusterTreeNode(cameras=(3,))
    ))
    tree.assign_leaf_ids()
    tracks = generate_tracks(tree, matches)
    assert [as_tuple(t) for t in tracks] == [((0, 5, 5.0, 5.0), (3, 5, 3.0, 5.0))]
    assert canonical(tracks) == flat_union_find_oracle(matches)


def test_component_labels():
    # isolated nodes keep their own label; labels follow each component's
    # smallest node whatever the edge order
    assert component_labels(6, [5, 3], [4, 1]).tolist() == [0, 1, 2, 1, 3, 3]
    assert component_labels(5, [4, 0], [3, 4]).tolist() == [0, 1, 2, 0, 0]
    assert component_labels(3, [], []).tolist() == [0, 1, 2]
    assert component_labels(0, [], []).tolist() == []
