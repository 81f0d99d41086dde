"""File formats for every pipeline stage: the match graph, tracks and local
reconstructions as ragged tables (versioned JSON with their bulk arrays in
base64; the match graph and the tracks load as the MatchTable and TrackTable
of the arrays they store, checked once); the relative motions, the global
motion, the ground truth and the global points as `.npz` archives of the
arrays their tables hold (the points flat, plus offsets), each checked once
as it loads; cluster sets as JSON; PLY exports and the per-round cost log."""

import base64
import contextlib
import csv
import functools
import hashlib
import itertools
import json
import os
import zipfile
from pathlib import Path

import numpy as np

from .averaging import DEGENERATE_SCALE, GlobalMotion
from .clustering import Cluster, ClusterSet, ClusterTree, ClusterTreeNode
from .errors import DataError
from .geometry import check_poses
from .global_ba import STATUSES, GlobalPoint
from .local_sfm import LocalReconstruction, MotionTable
from .scene import CameraTable, MatchTable
from .tracks import TrackTable, check_ascending

TABLE_VERSION = 2  # of matches.json, tracks.json and local_reconstructions.json


@contextlib.contextmanager
def _temp_file(path, mode: str = "w"):
    """An open temp file in the directory of path, moved onto path when the
    block ends, so a crash never leaves a half-written file under the final
    name. A failed block removes the temp file; a failed write raises a
    DataError naming the path. Text is UTF-8, its newlines written as they
    are."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        if isinstance(exc, OSError):
            raise DataError(f"{path}: cannot write ({exc.strerror})") from exc
        raise


def _dump(path, payload) -> None:
    with _temp_file(path) as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _load(path):
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc.strerror})") from exc
    except ValueError as exc:  # not JSON, or not UTF-8
        raise DataError(f"{path}: invalid JSON ({exc})") from exc


def _save_npz(path, **arrays) -> None:
    # numpy writes fixed zip timestamps, so equal arrays give equal bytes
    with _temp_file(path, "wb") as fh:
        np.savez(fh, **arrays)


def _load_npz(path) -> dict:
    """Every array of an `.npz` archive, read in full so that a damaged
    member fails its CRC check here; object arrays are refused."""
    try:
        with np.load(path, allow_pickle=False) as archive:
            return dict(archive)
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc.strerror})") from exc


def _is_id(value) -> bool:
    """A JSON integer: an int, but not true or false, which load as bools."""
    return isinstance(value, int) and not isinstance(value, bool)


def _array(data: dict, key: str, dtype, *shape) -> np.ndarray:
    """data[key], an array or a JSON list, cast to dtype within its kind (no
    float to int, and no bool to int; an empty list has no kind) and
    reshaped; a wrong kind is a TypeError and a wrong size a ValueError."""
    a = np.asarray(data[key])
    if a.dtype == bool and np.dtype(dtype).kind in "iu":
        raise TypeError(f"{key}: true or false where integers are expected")
    return a.astype(dtype, casting="same_kind" if a.size else "unsafe", copy=False).reshape(shape)


def _check_rising(ids: np.ndarray, name: str, before: str) -> None:
    """A DataError '{name} b follows {before} a' at the first id b <= a."""
    falling = np.flatnonzero(np.diff(ids) <= 0)
    if len(falling):
        a, b = ids[falling[0]:falling[0] + 2].tolist()
        raise DataError(f"{name} {b} follows {before} {a}: the ids must rise strictly")


def _flat(parts: list, empty: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated rows of `parts` and the (len(parts) + 1,) offsets of
    each part's rows; `empty`, the zero-row result, fixes the dtype."""
    return np.concatenate([empty, *parts]), np.cumsum([0] + [len(p) for p in parts], dtype=np.int64)


def _rising(offsets: np.ndarray, total: int) -> np.ndarray:
    if offsets[0] != 0 or offsets[-1] != total or np.any(np.diff(offsets) < 0):
        raise DataError(f"offsets do not rise from 0 to {total}")
    return offsets


def _offsets(data: dict, count: int, total: int) -> np.ndarray:
    """The (count + 1,) offsets of `count` items, which must rise from 0 to
    `total` rows."""
    return _rising(_array(data, "offsets", np.int64, count + 1), total)


def _spans(offsets: np.ndarray):
    """The (start, stop) rows of each item."""
    return zip(offsets[:-1].tolist(), offsets[1:].tolist())


def _save_table(path, offsets: np.ndarray, arrays: dict, **fields) -> None:
    """Write a ragged table: a versioned JSON object of `fields` as they are,
    the offsets of its items' rows and each of `arrays` as a base64 string
    of its little-endian int64 or float64 values."""
    encoded = {k: base64.b64encode(a.astype("<i8" if a.dtype.kind in "iu" else "<f8").tobytes()).decode()
               for k, a in arrays.items()}
    _dump(path, {"version": TABLE_VERSION, "offsets": offsets.tolist(), **fields, **encoded})


def _load_table(path, name: str) -> dict:
    """A ragged table written by _save_table; an older format of `name`, a
    bare list or an object of another version, is refused."""
    data = _load(path)
    if not isinstance(data, dict):
        raise DataError(f"malformed artifact: not a version-{TABLE_VERSION} {name} object")
    if data.get("version") != TABLE_VERSION:
        raise DataError(f"unsupported {name} version {data.get('version')}")
    return data


def _decoded(data: dict, key: str, dtype, *shape) -> np.ndarray:
    """data[key], the base64 of little-endian values of dtype, as a
    read-only view of the given shape; a character outside the base64
    alphabet or a byte count that does not fit is a ValueError."""
    return np.frombuffer(base64.b64decode(data[key], validate=True), np.dtype(dtype).newbyteorder("<")).reshape(shape)


def _checked(load):
    """Report a missing or mistyped field of a loaded artifact, a damaged
    archive or any other DataError as a DataError naming the file."""

    @functools.wraps(load)
    def checked_load(path, *args):
        try:
            return load(path, *args)
        except DataError as exc:
            if str(exc).startswith(f"{path}:"):
                raise
            raise DataError(f"{path}: {exc}") from exc
        except (AttributeError, IndexError, KeyError, TypeError, ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise DataError(f"{path}: malformed artifact ({type(exc).__name__}: {exc})") from exc

    return checked_load


def file_hash(path) -> str:
    """The sha256 of a file, read in 1 MiB blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Match graph and ground truth
# ---------------------------------------------------------------------------

def save_match_graph(path, cameras: CameraTable, matches: MatchTable) -> None:
    _save_table(path, matches.offsets, {"feat": matches.feat, "xy": matches.xy},
                intrinsics=cameras.intrinsics.tolist(), size=cameras.size.tolist(), edges=matches.edges.tolist())


def _cameras(data: dict) -> CameraTable:
    intrinsics = _array(data, "intrinsics", float, -1, 3)
    cameras = CameraTable(intrinsics, _array(data, "size", np.int64, len(intrinsics), 2))
    cameras.check()
    return cameras


@_checked
def load_cameras(path) -> CameraTable:
    """The checked camera table of a match graph, without building its edges."""
    return _cameras(_load_table(path, "match-graph"))


@_checked
def load_match_graph(path) -> tuple[CameraTable, MatchTable]:
    """The checked camera table, and the match table checked against its
    camera count."""
    data = _load_table(path, "match-graph")
    cameras = _cameras(data)
    edges = _array(data, "edges", np.int64, -1, 2)
    feat = _decoded(data, "feat", np.int64, -1, 2)
    xy = _decoded(data, "xy", float, len(feat), 4)
    matches = MatchTable(edges, _offsets(data, len(edges), len(feat)), feat, xy)
    matches.check(len(cameras))
    return cameras, matches


def save_ground_truth(path, rotation: np.ndarray, center: np.ndarray) -> None:
    _save_npz(path, rotation=rotation, center=center)


@_checked
def load_ground_truth(path, num_cameras: int) -> tuple[np.ndarray, np.ndarray]:
    """The true rotations (n, 3, 3) and centers (n, 3), row k camera k's,
    checked against the match graph's camera count and by check_poses."""
    data = _load_npz(path)
    rotation = _array(data, "rotation", float, -1, 3, 3)
    center = _array(data, "center", float, len(rotation), 3)
    if len(rotation) != num_cameras:
        raise DataError(f"the ground truth holds {len(rotation)} cameras, not the match graph's {num_cameras}")
    check_poses(rotation, center, lambda k: f"ground-truth camera {k}", "c")
    return rotation, center


# ---------------------------------------------------------------------------
# Cluster set
# ---------------------------------------------------------------------------

def _tree_to_json(node: ClusterTreeNode):
    if node.is_leaf:
        return {"cameras": list(node.cameras)}
    return {"children": [_tree_to_json(node.left), _tree_to_json(node.right)]}


def _tree_from_json(data) -> ClusterTreeNode:
    if "children" not in data:
        return ClusterTreeNode(cameras=tuple(data["cameras"]))
    left, right = _tree_from_json(data["children"][0]), _tree_from_json(data["children"][1])
    return ClusterTreeNode(cameras=tuple(sorted(left.cameras + right.cameras)), left=left, right=right)


def save_cluster_set(path, cs: ClusterSet) -> None:
    payload = {
        "interdependent": [list(c.cameras) for c in cs.interdependent],
        "tree": _tree_to_json(cs.tree.root),
        "discardedEdges": [[int(i), int(j), int(w)] for (i, j, w) in cs.discarded_edges],
        "achievedRatios": cs.achieved_ratios,
        "exhausted": cs.exhausted,
        "droppedCameras": list(cs.dropped_cameras),
    }
    _dump(path, payload)


@_checked
def load_cluster_set(path, num_cameras: int) -> ClusterSet:
    """The cluster set; independent cluster k is the tree's depth-first
    leaf k. A DataError names the first independent or interdependent
    cluster, or droppedCameras, with a camera outside the match graph's
    0..num_cameras-1 or with cameras that do not rise strictly, else two
    independent clusters that share a camera, else the first camera that
    is in neither a tree leaf nor droppedCameras or in both, else the first
    interdependent cluster k that does not hold every camera of independent
    cluster k or has no such partner."""
    data = _load(path)
    tree = ClusterTree(root=_tree_from_json(data["tree"]))
    leaves = [list(leaf.cameras) for leaf in tree.leaves()]
    dropped = list(data.get("droppedCameras", []))
    named = [(f"{kind} cluster {k}", list(c)) for kind, clusters in (("independent", leaves),
                                                                      ("interdependent", data["interdependent"]))
             for k, c in enumerate(clusters)] + [("droppedCameras", dropped)]
    for name, cameras in named:
        if not all(_is_id(c) and 0 <= c < num_cameras for c in cameras):
            raise DataError(f"a cluster camera is not in the match graph's 0..{num_cameras - 1}: {name}")
        if any(b <= a for a, b in zip(cameras, cameras[1:])):
            raise DataError(f"{name}: cameras are not strictly ascending")
    owner = {}
    for k, cameras in enumerate(leaves):
        for c in cameras:
            if owner.setdefault(c, k) != k:
                raise DataError(f"independent clusters {owner[c]} and {k} share camera {c}")
    for c in range(num_cameras):
        if (c in owner) == (c in dropped):
            raise DataError(f"camera {c} is {'in both a tree leaf and' if c in owner else 'in neither a tree leaf nor'}"
                            " droppedCameras")
    for k, (cameras, expanded) in enumerate(itertools.zip_longest(leaves, data["interdependent"])):
        if cameras is None or expanded is None or not set(cameras) <= set(expanded):
            raise DataError(f"interdependent cluster {k} does not hold independent cluster {k}")
    return ClusterSet(
        interdependent=[Cluster(id=k, cameras=tuple(c)) for k, c in enumerate(data["interdependent"])],
        tree=tree,
        discarded_edges=[tuple(e) for e in data["discardedEdges"]],
        achieved_ratios=list(data["achievedRatios"]),
        exhausted=bool(data["exhausted"]),
        dropped_cameras=dropped,
    )


# ---------------------------------------------------------------------------
# Tracks
# ---------------------------------------------------------------------------

def save_tracks(path, tracks: TrackTable) -> None:
    _save_table(path, tracks.offsets,
                {"track": tracks.ids, "cameras": tracks.cameras, "features": tracks.features, "xy": tracks.xy})


@_checked
def load_tracks(path, num_cameras: int) -> TrackTable:
    """The track table as stored, checked against the camera count."""
    data = _load_table(path, "tracks")
    ids = _decoded(data, "track", np.int64, -1)
    cameras = _decoded(data, "cameras", np.int64, -1)
    features = _decoded(data, "features", np.int64, len(cameras))
    xy = _decoded(data, "xy", float, len(cameras), 2)
    tracks = TrackTable(ids, _offsets(data, len(ids), len(cameras)), cameras, features, xy)
    tracks.check(num_cameras)
    return tracks


# ---------------------------------------------------------------------------
# Local reconstructions and relative motions
# ---------------------------------------------------------------------------

def save_local_reconstructions(path, recs: list[LocalReconstruction]) -> None:
    """One ragged table of every cluster's points, in cluster order, with
    each point's inlier rows; the clusters' poses are flat arrays too."""
    ints = np.zeros(0, np.int64)
    tables = [r.inliers for r in recs]
    arrays = {
        "rotation": _flat([r.rotation for r in recs], np.zeros((0, 3, 3)))[0],
        "center": _flat([r.center for r in recs], np.zeros((0, 3)))[0],
        "track": _flat([t.ids for t in tables], ints)[0],
        "position": _flat([r.positions for r in recs], np.zeros((0, 3)))[0],
        "cameras": _flat([t.cameras for t in tables], ints)[0],
        "features": _flat([t.features for t in tables], ints)[0],
        "xy": _flat([t.xy for t in tables], np.zeros((0, 2)))[0],
    }
    clusters = [
        {"clusterId": int(r.cluster_id), "seedPair": [int(c) for c in r.seed_pair] if r.seed_pair else None,
         "meanReprojection": r.mean_reprojection if np.isfinite(r.mean_reprojection) else None,
         "registered": r.registered.tolist(), "points": len(r.inliers)}
        for r in recs
    ]
    views = _flat([np.diff(t.offsets) for t in tables], ints)[0]
    _save_table(path, np.append(0, np.cumsum(views)), arrays, clusters=clusters)


@_checked
def load_local_reconstructions(path, num_cameras: int | None = None) -> list[LocalReconstruction]:
    """Every interdependent cluster's reconstruction, entry k cluster k's. A
    DataError names the first entry whose clusterId, registered cameras,
    seedPair or point count holds a non-integer (JSON true or false
    included) or whose clusterId is not k, a cluster whose registered
    cameras do not rise strictly, and a point whose cameras do not or,
    given num_cameras, one that lies outside the match graph's
    0..num_cameras-1."""
    data = _load_table(path, "local-reconstruction")
    rotation = _decoded(data, "rotation", float, -1, 3, 3)
    center = _decoded(data, "center", float, len(rotation), 3)
    track = _decoded(data, "track", np.int64, -1)
    position = _decoded(data, "position", float, len(track), 3)
    cameras = _decoded(data, "cameras", np.int64, -1)
    features = _decoded(data, "features", np.int64, len(cameras))
    xy = _decoded(data, "xy", float, len(cameras), 2)
    offsets = _offsets(data, len(track), len(cameras))
    check_ascending(cameras, offsets, track, num_cameras)
    clusters = data["clusters"]
    for k, c in enumerate(clusters):
        for key, ids in (("clusterId", [c["clusterId"]]), ("registered", c["registered"]),
                         ("seedPair", c["seedPair"] or []), ("points", [c["points"]])):
            bad = [v for v in ids if not _is_id(v)]
            if bad:
                raise DataError(f"cluster entry {k}: {key} holds {json.dumps(bad[0])}, not an integer")
        if c["clusterId"] != k:
            raise DataError(f"cluster entry {k} has the clusterId {c['clusterId']}, not its index {k}")
    registered = [_array(c, "registered", np.int64, -1) for c in clusters]
    for c, cams in zip(clusters, registered):
        if np.any(np.diff(cams) <= 0):
            raise DataError(f"cluster {c['clusterId']}: the registered cameras do not rise strictly")
    poses = _rising(np.cumsum([0] + [len(cams) for cams in registered]), len(rotation))
    points = _rising(np.cumsum([0] + [c["points"] for c in clusters]), len(track))
    out = []
    for c, cams, (a, b), (p, q) in zip(clusters, registered, _spans(poses), _spans(points)):
        rows = slice(offsets[p], offsets[q])
        inliers = TrackTable(track[p:q], offsets[p:q + 1] - offsets[p], cameras[rows], features[rows], xy[rows])
        out.append(LocalReconstruction(
            cluster_id=c["clusterId"], registered=cams, rotation=rotation[a:b], center=center[a:b],
            positions=position[p:q], inliers=inliers, seed_pair=tuple(c["seedPair"]) if c["seedPair"] else None,
            mean_reprojection=float("nan") if c["meanReprojection"] is None else c["meanReprojection"]))
    return out


def save_relative_motions(path, motions: MotionTable) -> None:
    _save_npz(path, pairs=motions.pairs, cluster=motions.cluster, rotation=motions.rotation,
              translation=motions.translation, support=motions.support)


@_checked
def load_relative_motions(path, num_cameras: int) -> MotionTable:
    """The motion table, checked against the match graph's camera count."""
    data = _load_npz(path)
    pairs = _array(data, "pairs", np.int64, -1, 2)
    m = len(pairs)
    motions = MotionTable(pairs, _array(data, "cluster", np.int64, m), _array(data, "rotation", float, m, 3, 3),
                          _array(data, "translation", float, m, 3), _array(data, "support", np.int64, m))
    motions.check(num_cameras)
    return motions


# ---------------------------------------------------------------------------
# Global motion and points
# ---------------------------------------------------------------------------

def save_global_motion(path, motion: GlobalMotion) -> None:
    _save_npz(path, cameras=motion.cameras, rotation=motion.rotation, center=motion.center, clusters=motion.clusters,
              scale=motion.scale, residual_norms=motion.residual_norms, objective=motion.objective)


@_checked
def load_global_motion(path, num_cameras: int) -> GlobalMotion:
    """The global motion, its scales by ascending cluster. A DataError names
    the first camera outside the match graph's 0..num_cameras-1, else one
    that does not rise strictly or fails check_poses, else a repeated
    cluster or one whose scale is not a finite value above DEGENERATE_SCALE."""
    data = _load_npz(path)
    cameras = _array(data, "cameras", np.int64, -1)
    rotation = _array(data, "rotation", float, len(cameras), 3, 3)
    center = _array(data, "center", float, len(cameras), 3)
    outside = (cameras < 0) | (cameras >= num_cameras)
    if outside.any():
        raise DataError(f"motion camera {cameras[np.argmax(outside)]} is not in the match graph's 0..{num_cameras - 1}")
    _check_rising(cameras, "motion camera", "camera")
    check_poses(rotation, center, lambda k: f"motion camera {cameras[k]}", "c")
    cluster_ids = _array(data, "clusters", np.int64, -1)
    clusters, first = np.unique(cluster_ids, return_index=True)
    if len(clusters) < len(cluster_ids):
        raise DataError(f"the scales repeat cluster {np.delete(cluster_ids, first)[0]}")
    scale = _array(data, "scale", float, len(cluster_ids))[first]
    bad = ~(np.isfinite(scale) & (scale > DEGENERATE_SCALE))
    if bad.any():
        k = int(np.argmax(bad))
        raise DataError(f"cluster {clusters[k]}: the scale {scale[k]} is not a finite value above {DEGENERATE_SCALE}")
    return GlobalMotion(cameras=cameras, rotation=rotation, center=center, clusters=clusters, scale=scale,
                        residual_norms=_array(data, "residual_norms", float, -1), objective=float(data["objective"]))


def save_global_points(path, points) -> None:
    cameras, offsets = _flat([p.cameras for p in points], np.zeros(0, np.int64))
    xy, _ = _flat([p.xy for p in points], np.zeros((0, 2)))
    _save_npz(path, offsets=offsets, cameras=cameras, xy=xy,
              track=np.array([p.track_id for p in points], dtype=np.int64),
              status=np.array([STATUSES.index(p.status) for p in points], dtype=np.int64),
              position=np.array([np.zeros(3) if p.position is None else p.position for p in points], dtype=float))


@_checked
def load_global_points(path, num_cameras: int) -> list[GlobalPoint]:
    """The points, an active one with its position. A DataError names a
    status code outside STATUSES, else a track id that is negative or does
    not rise strictly, else a point whose cameras do not rise strictly in
    the match graph's 0..num_cameras-1."""
    data = _load_npz(path)
    track = _array(data, "track", np.int64, -1)
    status = _array(data, "status", np.int64, len(track))
    position = _array(data, "position", float, len(track), 3)
    cameras = _array(data, "cameras", np.int64, -1)
    xy = _array(data, "xy", float, len(cameras), 2)
    if np.any((status < 0) | (status >= len(STATUSES))):
        raise DataError(f"a status code is not in 0..{len(STATUSES) - 1}")
    if len(track) and track[0] < 0:
        raise DataError(f"point track {track[0]} is negative")
    _check_rising(track, "point track", "track")
    offsets = _offsets(data, len(track), len(cameras))
    check_ascending(cameras, offsets, track, num_cameras)
    return [
        GlobalPoint(track_id=t, position=X if STATUSES[s] == "active" else None, cameras=cameras[a:b],
                    xy=xy[a:b], status=STATUSES[s])
        for t, s, X, (a, b) in zip(track.tolist(), status.tolist(), position, _spans(offsets))
    ]


# ---------------------------------------------------------------------------
# PLY and cost log
# ---------------------------------------------------------------------------

def save_ply_points(path, positions: np.ndarray, colors: np.ndarray | None = None) -> None:
    positions = np.asarray(positions).reshape(-1, 3)
    lines = ["ply", "format ascii 1.0", f"element vertex {len(positions)}"]
    lines += ["property float x", "property float y", "property float z"]
    if colors is not None:
        lines += ["property uchar red", "property uchar green", "property uchar blue"]
    lines.append("end_header")
    with _temp_file(path) as fh:
        fh.writelines(line + "\n" for line in lines)
        for k, p in enumerate(positions):
            line = f"{p[0]:.8g} {p[1]:.8g} {p[2]:.8g}"
            if colors is not None:
                c = colors[k]
                line += f" {int(c[0])} {int(c[1])} {int(c[2])}"
            fh.write(line + "\n")


def save_ply_cameras(path, centers: np.ndarray, color=(255, 64, 64)) -> None:
    centers = np.asarray(centers).reshape(-1, 3)
    colors = np.tile(np.asarray(color, dtype=int), (len(centers), 1))
    save_ply_points(path, centers, colors)


def save_round_log(path, log) -> None:
    with _temp_file(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "cost", "rms_px"])
        for entry in log:
            writer.writerow([entry.round, f"{entry.cost:.12g}", f"{entry.rms_px:.12g}"])
