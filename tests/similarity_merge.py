"""Baseline that glues disjoint cluster reconstructions with chained
similarity transforms estimated from their shared 3D tracks; the ablation of
acceptance criterion 7.

This is the exclusive-cluster merging strategy the interdependent-cluster
pipeline is measured against: without overlap cameras, adjacent clusters
only agree through independently triangulated copies of the same tracks, so
alignment errors accumulate around the scene instead of being averaged out.
"""

import logging

import numpy as np

from clustersfm.errors import NumericalError
from clustersfm.evaluation import align_similarity
from clustersfm.local_sfm import LocalReconstruction
from conftest import global_motion

logger = logging.getLogger(__name__)

MIN_COMMON_TRACKS = 4


def merge_by_similarity(reconstructions: list[LocalReconstruction]):
    """Chain per-cluster similarities over a maximum-common-track spanning
    tree rooted at the lowest cluster id.

    Returns the merged poses as a GlobalMotion in the root cluster's frame;
    clusters without enough common tracks to reach the root are dropped
    with a warning.
    """
    recs = [r for r in reconstructions if not r.failed]
    if not recs:
        raise NumericalError("no usable cluster reconstructions to merge")
    recs = sorted(recs, key=lambda r: r.cluster_id)

    # pairwise similarities from common track points
    edges = []
    for a in range(len(recs)):
        for b in range(a + 1, len(recs)):
            common, in_a, in_b = np.intersect1d(recs[a].inliers.ids, recs[b].inliers.ids, return_indices=True)
            if len(common) < MIN_COMMON_TRACKS:
                continue
            pts_a, pts_b = recs[a].positions[in_a], recs[b].positions[in_b]
            try:
                sim_ab = align_similarity(pts_b, pts_a)  # maps b frame -> a frame
                sim_ba = align_similarity(pts_a, pts_b)
            except NumericalError:
                continue
            edges.append((len(common), a, b, sim_ab, sim_ba))
    edges.sort(key=lambda e: (-e[0], e[1], e[2]))

    # maximum spanning tree by common-track count, rooted at recs[0]
    transform = {0: (1.0, np.eye(3), np.zeros(3))}
    pending = True
    while pending:
        pending = False
        for count, a, b, sim_ab, sim_ba in edges:
            if a in transform and b not in transform:
                transform[b] = _compose(transform[a], sim_ab)
                pending = True
            elif b in transform and a not in transform:
                transform[a] = _compose(transform[b], sim_ba)
                pending = True
    dropped = [recs[k].cluster_id for k in range(len(recs)) if k not in transform]
    if dropped:
        logger.warning("similarity merge dropped clusters %s (no common tracks)", dropped)

    rotations, centers = {}, {}
    for k, rec in enumerate(recs):
        if k not in transform:
            continue
        s, Q, d = transform[k]
        for cam, R, c in zip(rec.registered.tolist(), rec.rotation, rec.center):
            if cam in rotations:
                continue  # first (lowest-id) cluster wins on duplicates
            rotations[cam] = R @ Q.T
            centers[cam] = s * (Q @ c) + d
    return global_motion(rotations, centers)


def _compose(outer, inner):
    """outer o inner as similarity transforms x -> s Q x + d."""
    s1, Q1, d1 = outer
    s2, Q2, d2 = inner
    return s1 * s2, Q1 @ Q2, s1 * (Q1 @ d2) + d1
