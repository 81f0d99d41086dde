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


def _sample_points(region: dict, rotation: np.ndarray, center: np.ndarray, num_points: int,
                   rng: np.random.Generator):
    """Rejection-sample points until num_points land in >= 2 views: each
    round draws max(2 * need, 64) candidates and keeps the first `need` that
    two cameras see. Returns the points (P, 3), the camera x point
    visibility matrix (n, P) and the exact pixel of every visible (camera,
    point) in that order; fewer than num_points points if 40 rounds do not
    find them."""
    n = len(rotation)
    principal = np.array([DEFAULT_WIDTH / 2.0, DEFAULT_HEIGHT / 2.0])
    last_pixel = np.array([DEFAULT_WIDTH - 1, DEFAULT_HEIGHT - 1])
    points, visible, cams, pixels = [], [], [], []
    need = num_points
    for _ in range(40):
        if need <= 0:
            break
        cand = _sample_region(region, max(need * 2, 64), rng)
        vis = np.empty((n, len(cand)), dtype=bool)
        seen = []  # per camera, the pixels of the candidates it sees
        for ci in range(n):  # visible: in front of the camera and inside its image
            x_cam = (cand - center[ci]) @ rotation[ci].T
            with np.errstate(divide="ignore", invalid="ignore"):
                uv = DEFAULT_FOCAL * x_cam[:, :2] / x_cam[:, 2:] + principal
                inside = ((uv >= 0.0) & (uv <= last_pixel)).all(axis=1)
            vis[ci] = (x_cam[:, 2] > 0.1) & inside
            seen.append(uv[vis[ci]])
        kept = np.zeros(len(cand), dtype=bool)
        kept[np.flatnonzero(vis.sum(axis=0) >= 2)[:need]] = True
        points.append(cand[kept])
        visible.append(vis[:, kept])
        cams.append(np.nonzero(visible[-1])[0])
        pixels.append(np.concatenate(seen)[kept[np.nonzero(vis)[1]]])
        need -= len(points[-1])
    order = np.argsort(np.concatenate(cams), kind="stable")  # (round, camera, point) to (camera, point)
    return np.concatenate(points), np.hstack(visible), np.concatenate(pixels)[order]


def _shared_points(visible: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cameras i < j and the point of each (i, j, point) that both
    cameras see, sorted by i, j and point; built per view count."""
    n, num_points = visible.shape
    views = visible.sum(axis=0)
    point_cams = np.nonzero(visible.T)[1]  # each point's cameras, ascending
    first = np.cumsum(views) - views
    keys = []
    for m in np.unique(views).tolist():
        pts = np.flatnonzero(views == m)
        cams = point_cams[first[pts, None] + np.arange(m)]
        a, b = np.triu_indices(m, 1)
        keys.append(((cams[:, a] * n + cams[:, b]) * num_points + pts[:, None]).ravel())
    key = np.concatenate(keys)
    key.sort()
    pair, p = np.divmod(key, num_points)
    return pair // n, pair % n, p


def _inject_outliers(edges: np.ndarray, offsets: np.ndarray, feat: np.ndarray, pixels: np.ndarray,
                     features: np.ndarray, outlier_fraction: float, rng: np.random.Generator) -> None:
    """Replace round(outlier_fraction * rows) rows of each edge, in place.

    Each edge, in (i, j) order, draws the rows it drops and then, for each,
    a uniform pixel in i and one in j. Its kept rows move up, and the last
    rows get the new pixels under new feature indices, which each camera
    numbers on from its `features` real ones, edge after edge."""
    rows = np.diff(offsets)
    n_out = np.rint(outlier_fraction * rows).astype(np.int64)
    if not n_out.any():
        return
    keep = np.ones(len(feat), dtype=bool)
    new_xy = []
    low, high = [0, 0], [DEFAULT_WIDTH - 1, DEFAULT_HEIGHT - 1]
    for e, k in zip(np.flatnonzero(n_out).tolist(), n_out[n_out > 0].tolist()):
        keep[offsets[e] + rng.choice(int(rows[e]), size=k, replace=False)] = False
        xi = rng.uniform(low, high, size=(k, 2))
        xj = rng.uniform(low, high, size=(k, 2))
        new_xy.append(np.hstack([xi, xj]))
    cams = np.repeat(edges, n_out, axis=0).ravel()  # of the new features, row after row, i then j
    order = np.argsort(cams, kind="stable")
    new_feat = np.empty_like(cams)
    new_feat[order] = features[cams[order]] + np.arange(len(cams)) - np.searchsorted(cams[order], cams[order])
    new = np.arange(len(feat)) >= np.repeat(offsets[1:] - n_out, rows)
    feat[~new], pixels[~new] = feat[keep], pixels[keep]
    feat[new], pixels[new] = new_feat.reshape(-1, 2), np.concatenate(new_xy)


def _match_table(visible: np.ndarray, xy: np.ndarray, outlier_fraction: float,
                 rng: np.random.Generator) -> MatchTable:
    """The matches of every camera pair that shares points, given the
    visibility matrix and the features' pixels in (camera, point) order:
    one row per shared point, then the outliers of each edge."""
    i, j, p = _shared_points(visible)
    offsets = np.append(np.flatnonzero(np.diff(i * len(visible) + j, prepend=-1)), len(p))
    edges = np.column_stack([i[offsets[:-1]], j[offsets[:-1]]])
    rank = np.cumsum(visible, axis=1, dtype=np.int32) - 1  # feature index of point p in camera c, where visible
    feat = np.empty((len(p), 2), dtype=np.int64)
    feat[:, 0] = rank[i, p]
    feat[:, 1] = rank[j, p]
    del rank, p  # freed as soon as they are used: the triples and tables set synth's peak memory
    features = visible.sum(axis=1)
    start = np.cumsum(features) - features
    pixels = np.empty((len(feat), 4))
    pixels[:, :2] = xy[start[i] + feat[:, 0]]
    pixels[:, 2:] = xy[start[j] + feat[:, 1]]
    del i, j
    _inject_outliers(edges, offsets, feat, pixels, features, outlier_fraction, rng)
    return MatchTable(edges=edges, offsets=offsets, feat=feat, xy=pixels)


def generate_synthetic_scene(
    layout: str,
    num_cameras: int,
    num_points: int,
    pixel_sigma: float = 0.0,
    outlier_fraction: float = 0.0,
    seed: int = 0,
) -> tuple[SyntheticScene, MatchTable]:
    """Generate a ground-truth scene plus its pairwise match table.

    Matches are projections of shared 3D points with isotropic Gaussian
    pixel noise; outlier_fraction of each edge's correspondences are
    replaced by fresh uniform-random image points (new feature indices on
    both sides, so real feature tracks stay uncorrupted).

    The random draws come in a fixed order, which keeps the scene of a seed
    the same bytes: one region sample per rejection round, then the pixel
    noise of every feature in (camera, point id) order, then per edge in
    (i, j) order the rows it drops and the pixels of its outliers.
    """
    if num_cameras < 2:
        raise ConfigurationError("need at least 2 cameras")
    if num_points < 1:
        raise ConfigurationError("need at least 1 point")
    if not 0.0 <= pixel_sigma < np.inf:
        raise ConfigurationError("pixel_sigma must be >= 0 and finite")
    if not (0.0 <= outlier_fraction < 1.0):
        raise ConfigurationError("outlier_fraction must be in [0, 1)")

    rotation, center, region = _layout_poses(layout, num_cameras)
    cameras = CameraTable(np.tile([DEFAULT_FOCAL, DEFAULT_WIDTH / 2.0, DEFAULT_HEIGHT / 2.0], (num_cameras, 1)),
                          np.tile(np.array([DEFAULT_WIDTH, DEFAULT_HEIGHT], dtype=np.int64), (num_cameras, 1)))
    rng = np.random.default_rng(seed)

    points, visible, xy = _sample_points(region, rotation, center, num_points, rng)
    if len(points) < num_points:
        raise ConfigurationError(
            f"layout {layout!r} with {num_cameras} cameras cannot host {num_points} points"
        )
    # Camera c's features are the points it sees, in id order.
    if pixel_sigma > 0:
        xy += rng.normal(0.0, pixel_sigma, size=xy.shape)
    matches = _match_table(visible, xy, outlier_fraction, rng)

    per_camera = np.cumsum(visible.sum(axis=1))[:-1]
    scene = SyntheticScene(
        cameras=cameras,
        rotation=rotation,
        center=center,
        points=points,
        visibility=np.split(np.nonzero(visible.T)[1], np.cumsum(visible.sum(axis=0))[:-1]),
        feature_points=np.split(np.nonzero(visible)[1], per_camera),
        feature_xy=np.split(xy, per_camera),
    )
    return scene, matches
