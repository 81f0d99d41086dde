"""The synthetic-scene generator written with per-point dicts and per-pair
lists: the reference that `clustersfm.synthetic.generate_synthetic_scene`
must reproduce exactly, array for array.

It shares the layouts and the point regions with the package and draws the
same random numbers in the same order, so any difference in the outputs is
a difference in how the scene is assembled.
"""

import numpy as np

from clustersfm.errors import ConfigurationError
from clustersfm.scene import CameraTable, MatchTable
from clustersfm.synthetic import (DEFAULT_FOCAL, DEFAULT_HEIGHT, DEFAULT_WIDTH, SyntheticScene, _layout_poses,
                                  _sample_region)


def reference_scene(layout, num_cameras, num_points, pixel_sigma=0.0, outlier_fraction=0.0, seed=0):
    """(SyntheticScene, MatchTable) of the given settings, built one point and one pair at a time."""
    focal, width, height = DEFAULT_FOCAL, DEFAULT_WIDTH, DEFAULT_HEIGHT
    rotation, center, region = _layout_poses(layout, num_cameras)
    principal, last_pixel = np.array([width / 2.0, height / 2.0]), np.array([width - 1, height - 1])
    cameras = CameraTable(np.tile([focal, *principal], (num_cameras, 1)),
                          np.tile(np.array([width, height], dtype=np.int64), (num_cameras, 1)))
    rng = np.random.default_rng(seed)

    # Rejection-sample points until num_points land in >= 2 views.
    points_list, vis_list, exact_uv = [], [], []
    for _ in range(40):
        need = num_points - len(points_list)
        if need <= 0:
            break
        cand = _sample_region(region, max(need * 2, 64), rng)
        uv_all = np.empty((num_cameras, len(cand), 2))
        vis_all = np.empty((num_cameras, len(cand)), dtype=bool)
        for ci in range(num_cameras):
            x_cam = (cand - center[ci]) @ rotation[ci].T
            with np.errstate(divide="ignore", invalid="ignore"):
                uv_all[ci] = focal * x_cam[:, :2] / x_cam[:, 2:] + principal
                inside = ((uv_all[ci] >= 0.0) & (uv_all[ci] <= last_pixel)).all(axis=1)
            vis_all[ci] = (x_cam[:, 2] > 0.1) & inside
        good = vis_all.sum(axis=0) >= 2
        for idx in np.flatnonzero(good):
            if len(points_list) >= num_points:
                break
            points_list.append(cand[idx])
            vis_list.append(np.flatnonzero(vis_all[:, idx]))
            exact_uv.append({int(ci): uv_all[ci, idx].copy() for ci in vis_list[-1]})
    if len(points_list) < num_points:
        raise ConfigurationError(f"layout {layout!r} with {num_cameras} cameras cannot host {num_points} points")
    points = np.array(points_list)

    # Per-camera feature tables; noise drawn in (camera, point-id) order.
    cam_point_ids: list[list[int]] = [[] for _ in range(num_cameras)]
    for pid, vis in enumerate(vis_list):
        for ci in vis:
            cam_point_ids[ci].append(pid)
    feature_points, feature_xy, feat_index = [], [], []
    for ci in range(num_cameras):
        pids = np.array(sorted(cam_point_ids[ci]), dtype=np.int64)
        xy = np.array([exact_uv[p][ci] for p in pids]).reshape(-1, 2)
        if pixel_sigma > 0 and len(xy):
            xy = xy + rng.normal(0.0, pixel_sigma, size=xy.shape)
        feature_points.append(pids)
        feature_xy.append(xy)
        feat_index.append({int(p): f for f, p in enumerate(pids)})

    # Shared-point matches per camera pair, then per-edge outlier injection.
    pair_points: dict[tuple[int, int], list[int]] = {}
    for pid, vis in enumerate(vis_list):
        for a in range(len(vis)):
            for b in range(a + 1, len(vis)):
                pair_points.setdefault((int(vis[a]), int(vis[b])), []).append(pid)
    next_extra = [len(fp) for fp in feature_points]
    pair_feat, pair_xy = [], []
    for (i, j) in sorted(pair_points):
        pids = pair_points[(i, j)]
        fi = np.array([feat_index[i][p] for p in pids], dtype=np.int64)
        fj = np.array([feat_index[j][p] for p in pids], dtype=np.int64)
        xi = feature_xy[i][fi]
        xj = feature_xy[j][fj]
        n = len(pids)
        n_out = int(round(outlier_fraction * n))
        if n_out > 0:
            drop = rng.choice(n, size=n_out, replace=False)
            keep = np.setdiff1d(np.arange(n), drop)
            fi, fj, xi, xj = fi[keep], fj[keep], xi[keep], xj[keep]
            fi = np.concatenate([fi, next_extra[i] + np.arange(n_out)])
            fj = np.concatenate([fj, next_extra[j] + np.arange(n_out)])
            next_extra[i] += n_out
            next_extra[j] += n_out
            xi = np.vstack([xi, rng.uniform([0, 0], [width - 1, height - 1], size=(n_out, 2))])
            xj = np.vstack([xj, rng.uniform([0, 0], [width - 1, height - 1], size=(n_out, 2))])
        pair_feat.append(np.column_stack([fi, fj]))
        pair_xy.append(np.hstack([xi, xj]))
    matches = MatchTable(
        edges=np.array(sorted(pair_points), dtype=np.int64).reshape(-1, 2),
        offsets=np.cumsum([0] + [len(f) for f in pair_feat], dtype=np.int64),
        feat=np.concatenate([np.zeros((0, 2), np.int64), *pair_feat]),
        xy=np.concatenate([np.zeros((0, 4)), *pair_xy]),
    )
    scene = SyntheticScene(cameras=cameras, rotation=rotation, center=center, points=points, visibility=vis_list,
                           feature_points=feature_points, feature_xy=feature_xy)
    return scene, matches
