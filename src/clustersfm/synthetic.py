"""Synthetic ground-truth scenes standing in for real capture sessions.

The camera layouts are deterministic functions of the layout name and camera
count; point placement, pixel noise, and outlier injection all come from the
seed, so two seeds share the exact same camera geometry.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .scene import CameraTable, MatchTable

LAYOUTS = ("grid", "orbit", "loop", "cityBlocks")

DEFAULT_FOCAL = 800.0
DEFAULT_WIDTH = 1280
DEFAULT_HEIGHT = 960


@dataclass
class SyntheticScene:
    """Ground-truth oracle for a generated scene.

    The pose of camera k is rotation[k] (world-to-camera) and center[k].
    feature_points[c][f] is the 3D point id behind feature f of camera c;
    feature_xy[c][f] is its (noisy) pixel observation. Outlier features
    injected into the match table use indices >= len(feature_points[c]).
    """

    cameras: CameraTable
    rotation: np.ndarray  # (n, 3, 3)
    center: np.ndarray  # (n, 3) world units
    points: np.ndarray  # (P, 3) world units
    visibility: list[np.ndarray]  # per point: sorted camera ids
    feature_points: list[np.ndarray]  # per camera: point id per feature
    feature_xy: list[np.ndarray]  # per camera: (F, 2) noisy pixels
    pixel_sigma: float
    outlier_fraction: float
    seed: int

    @property
    def num_cameras(self) -> int:
        return len(self.cameras)


def _look_at(center: np.ndarray, target: np.ndarray, up=(0.0, 0.0, 1.0)) -> np.ndarray:
    """The world-to-camera rotation of a camera at center looking at target."""
    z = np.asarray(target, dtype=float) - center
    z = z / np.linalg.norm(z)
    up = np.asarray(up, dtype=float)
    x = np.cross(z, up)
    nx = np.linalg.norm(x)
    if nx < 1e-9:  # looking along the up axis
        x = np.cross(z, np.array([0.0, 1.0, 0.0]))
        nx = np.linalg.norm(x)
    x = x / nx
    y = np.cross(z, x)
    return np.vstack([x, y, z])


def _layout_orbit(n: int) -> tuple[np.ndarray, np.ndarray, dict]:
    theta = 2.0 * np.pi * np.arange(n) / n
    radius = 10.0
    centers = np.stack(
        [radius * np.cos(theta), radius * np.sin(theta), 1.5 * np.sin(3.0 * theta)], axis=1
    )
    rotation = np.array([_look_at(c, np.zeros(3)) for c in centers])
    region = {"kind": "ball", "center": np.zeros(3), "radius": 3.0}
    return rotation, centers, region


def _layout_loop(n: int) -> tuple[np.ndarray, np.ndarray, dict]:
    theta = 2.0 * np.pi * np.arange(n) / n
    radius = 10.0
    centers = np.stack(
        [radius * np.cos(theta), radius * np.sin(theta), 0.5 * np.sin(2.0 * theta)], axis=1
    )
    outward = np.stack([np.cos(theta), np.sin(theta), np.zeros(n)], axis=1)
    rotation = np.array([_look_at(c, c + 5.0 * d) for c, d in zip(centers, outward)])
    region = {"kind": "cylinder", "r_min": 16.0, "r_max": 22.0, "z_min": -4.0, "z_max": 5.0}
    return rotation, centers, region


def _layout_grid(n: int) -> tuple[np.ndarray, np.ndarray, dict]:
    if n < 4:
        raise ConfigurationError("grid layout needs at least 4 cameras")
    cols = int(np.ceil(np.sqrt(n)))
    spacing = 2.0
    centers = []
    for k in range(n):
        r, c = divmod(k, cols)
        centers.append([spacing * c, spacing * r, 8.0 + 0.3 * ((r + c) % 3)])
    centers = np.array(centers)
    rotation = np.array([_look_at(c, c + np.array([0.0, 0.0, -5.0]), up=(0.0, 1.0, 0.0)) for c in centers])
    lo = centers[:, :2].min(axis=0) - 3.0
    hi = centers[:, :2].max(axis=0) + 3.0
    region = {"kind": "slab", "lo": lo, "hi": hi, "z_min": 0.0, "z_max": 1.5}
    return rotation, centers, region


def _layout_city_blocks(n: int) -> tuple[np.ndarray, np.ndarray, dict]:
    if n < 4:
        raise ConfigurationError("cityBlocks layout needs at least 4 cameras")
    blocks_per_side = max(2, int(round(np.sqrt(n / 12.0))))
    pitch = 10.0
    # Serpentine walk along the horizontal streets; cameras look sideways
    # at the nearest row of buildings, alternating sides.
    street_ys = [pitch * k for k in range(blocks_per_side + 1)]
    span = pitch * blocks_per_side
    total = span * len(street_ys)
    step = total / n
    centers, targets = [], []
    for k in range(n):
        s = k * step
        row = min(int(s // span), len(street_ys) - 1)
        along = s - row * span
        if row % 2 == 1:
            along = span - along
        x, y = along, street_ys[row]
        side = 1.0 if k % 2 == 0 else -1.0
        if row == 0:
            side = 1.0
        elif row == len(street_ys) - 1:
            side = -1.0
        centers.append([x, y, 2.0])
        targets.append([x, y + side * 5.0, 1.5])
    centers = np.array(centers)
    rotation = np.array([_look_at(c, np.array(t)) for c, t in zip(centers, targets)])
    region = {"kind": "blocks", "blocks_per_side": blocks_per_side, "pitch": pitch}
    return rotation, centers, region


def _sample_region(region: dict, count: int, rng: np.random.Generator) -> np.ndarray:
    kind = region["kind"]
    if kind == "ball":
        pts = rng.normal(size=(count, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        r = region["radius"] * rng.uniform(0.0, 1.0, size=count) ** (1.0 / 3.0)
        return region["center"] + pts * r[:, None]
    if kind == "cylinder":
        phi = rng.uniform(0.0, 2.0 * np.pi, size=count)
        rho = rng.uniform(region["r_min"], region["r_max"], size=count)
        z = rng.uniform(region["z_min"], region["z_max"], size=count)
        return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
    if kind == "slab":
        xy = rng.uniform(region["lo"], region["hi"], size=(count, 2))
        z = rng.uniform(region["z_min"], region["z_max"], size=count)
        return np.column_stack([xy, z])
    if kind == "blocks":
        b, pitch = region["blocks_per_side"], region["pitch"]
        block = rng.integers(0, b * b, size=count)
        bx, by = block % b, block // b
        local = rng.uniform(2.0, 8.0, size=(count, 2))
        z = rng.uniform(0.0, 6.0, size=count)
        return np.column_stack([bx * pitch + local[:, 0], by * pitch + local[:, 1], z])
    raise ConfigurationError(f"unknown point region kind {kind!r}")


def _layout_poses(layout: str, num_cameras: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """The (n, 3, 3) rotations, the (n, 3) centers and the point region of a layout."""
    if layout == "orbit":
        return _layout_orbit(num_cameras)
    if layout == "loop":
        return _layout_loop(num_cameras)
    if layout == "grid":
        return _layout_grid(num_cameras)
    if layout == "cityBlocks":
        return _layout_city_blocks(num_cameras)
    raise ConfigurationError(f"unknown layout {layout!r}; expected one of {LAYOUTS}")


def generate_synthetic_scene(
    layout: str,
    num_cameras: int,
    num_points: int,
    pixel_sigma: float = 0.0,
    outlier_fraction: float = 0.0,
    seed: int = 0,
    focal: float = DEFAULT_FOCAL,
    width: int = DEFAULT_WIDTH,
    height: int = DEFAULT_HEIGHT,
) -> tuple[SyntheticScene, MatchTable]:
    """Generate a ground-truth scene plus its pairwise match table.

    Matches are projections of shared 3D points with isotropic Gaussian
    pixel noise; outlier_fraction of each edge's correspondences are
    replaced by fresh uniform-random image points (new feature indices on
    both sides, so real feature tracks stay uncorrupted).
    """
    if num_cameras < 2:
        raise ConfigurationError("need at least 2 cameras")
    if num_points < 1:
        raise ConfigurationError("need at least 1 point")
    if pixel_sigma < 0:
        raise ConfigurationError("pixelSigma must be >= 0")
    if not (0.0 <= outlier_fraction < 1.0):
        raise ConfigurationError("outlierFraction must be in [0, 1)")

    rotation, center, region = _layout_poses(layout, num_cameras)
    principal, last_pixel = np.array([width / 2.0, height / 2.0]), np.array([width - 1, height - 1])
    cameras = CameraTable(np.tile([focal, *principal], (num_cameras, 1)),
                          np.tile(np.array([width, height], dtype=np.int64), (num_cameras, 1)))
    cameras.check()
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
        for ci in range(num_cameras):  # visible: in front of the camera and inside its image
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
        raise ConfigurationError(
            f"layout {layout!r} with {num_cameras} cameras cannot host {num_points} points"
        )
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

    scene = SyntheticScene(
        cameras=cameras,
        rotation=rotation,
        center=center,
        points=points,
        visibility=vis_list,
        feature_points=feature_points,
        feature_xy=feature_xy,
        pixel_sigma=pixel_sigma,
        outlier_fraction=outlier_fraction,
        seed=seed,
    )
    return scene, matches
