"""File formats for every pipeline stage: the match graph, tracks and local
reconstructions as ragged tables (versioned JSON with their bulk arrays in
base64), the global points as `.npz` archives of flat arrays plus offsets;
ground truth, cluster sets, relative motions and global motion as JSON; PLY
exports and the per-round cost log."""

import base64
import contextlib
import csv
import functools
import hashlib
import io
import json
import os
import zipfile
from pathlib import Path

import numpy as np

from .averaging import GlobalMotion
from .clustering import Cluster, ClusterSet, ClusterTree, ClusterTreeNode
from .errors import DataError
from .global_ba import STATUSES, GlobalPoint
from .local_sfm import LocalReconstruction, RelativeMotion
from .scene import Camera, MatchTable, Pose
from .tracks import Track

TABLE_VERSION = 2  # of matches.json, tracks.json and local_reconstructions.json


def _write(path, data: bytes) -> None:
    """Write bytes through a temp file in the same directory, so a crash
    never leaves a half-written file under the final name. A failed write
    removes the temp file and raises a DataError naming the path."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise DataError(f"{path}: cannot write ({exc.strerror})") from exc


def _dump(path, payload) -> None:
    _write(path, (json.dumps(payload, sort_keys=True, indent=1) + "\n").encode())


def _load(path):
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc.strerror})") from exc
    except ValueError as exc:  # not JSON, or not UTF-8
        raise DataError(f"{path}: invalid JSON ({exc})") from exc


def _save_npz(path, **arrays) -> None:
    # numpy writes fixed zip timestamps, so equal arrays give equal bytes
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    _write(path, buf.getvalue())


def _load_npz(path) -> dict:
    """Every array of an `.npz` archive, read in full so that a damaged
    member fails its CRC check here; object arrays are refused."""
    try:
        with np.load(path, allow_pickle=False) as archive:
            return dict(archive)
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc.strerror})") from exc


def _array(data: dict, key: str, dtype, *shape) -> np.ndarray:
    """data[key], an array or a JSON list, cast to dtype within its kind (no
    float to int; an empty list has no kind) and reshaped; a wrong kind is a
    TypeError and a wrong size a ValueError."""
    a = np.asarray(data[key])
    return a.astype(dtype, casting="same_kind" if a.size else "unsafe", copy=False).reshape(shape)


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


def _check_ascending(cameras: np.ndarray, offsets: np.ndarray, track_ids: np.ndarray) -> None:
    """Each item's cameras must rise strictly: a track sees a camera once."""
    owner = np.repeat(np.arange(len(track_ids)), np.diff(offsets))
    bad = np.flatnonzero((np.diff(cameras) <= 0) & (owner[1:] == owner[:-1]))
    if len(bad):
        raise DataError(f"track {track_ids[owner[bad[0]]]}: cameras are not strictly ascending")


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
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Match graph and ground truth
# ---------------------------------------------------------------------------

def save_match_graph(path, cameras: list[Camera], matches: MatchTable) -> None:
    _save_table(path, matches.offsets, {"feat": matches.feat, "xy": matches.xy},
                intrinsics=[[c.focal, c.cx, c.cy] for c in cameras], size=[[c.width, c.height] for c in cameras],
                edges=matches.edges.tolist())


def _cameras(data: dict) -> list[Camera]:
    intrinsics = _array(data, "intrinsics", float, -1, 3)
    size = _array(data, "size", np.int64, len(intrinsics), 2)
    return [
        Camera(id=k, focal=f, cx=cx, cy=cy, width=w, height=h)
        for k, ((f, cx, cy), (w, h)) in enumerate(zip(intrinsics.tolist(), size.tolist()))
    ]


@_checked
def load_cameras(path) -> list[Camera]:
    """The cameras of a match graph, without building its edges."""
    return _cameras(_load_table(path, "match-graph"))


@_checked
def load_match_graph(path) -> tuple[list[Camera], MatchTable]:
    """The cameras and the match table, checked against the camera count."""
    data = _load_table(path, "match-graph")
    cameras = _cameras(data)
    edges = _array(data, "edges", np.int64, -1, 2)
    feat = _decoded(data, "feat", np.int64, -1, 2)
    xy = _decoded(data, "xy", float, len(feat), 4)
    matches = MatchTable(edges, _offsets(data, len(edges), len(feat)), feat, xy)
    matches.check(len(cameras))
    return cameras, matches


def save_ground_truth(path, poses: list[Pose]) -> None:
    payload = [
        {
            "cameraId": k,
            "rotation": np.asarray(p.R).ravel().tolist(),
            "center": np.asarray(p.c).tolist(),
        }
        for k, p in enumerate(poses)
    ]
    _dump(path, payload)


@_checked
def load_ground_truth(path) -> list[Pose]:
    data = _load(path)
    poses = [None] * len(data)
    for rec in data:
        if not 0 <= rec["cameraId"] < len(poses):
            raise DataError(f"camera id {rec['cameraId']} is not in 0..{len(poses) - 1}")
        poses[rec["cameraId"]] = Pose(
            R=np.asarray(rec["rotation"], dtype=float).reshape(3, 3),
            c=np.asarray(rec["center"], dtype=float),
        )
    if any(p is None for p in poses):
        raise DataError(f"camera ids are not 0..{len(poses) - 1}")
    return poses


# ---------------------------------------------------------------------------
# Cluster set
# ---------------------------------------------------------------------------

def _tree_to_json(node: ClusterTreeNode):
    if node.is_leaf:
        return {"leaf": node.leaf_id, "cameras": list(node.cameras)}
    return {"children": [_tree_to_json(node.left), _tree_to_json(node.right)]}


def _tree_from_json(data) -> ClusterTreeNode:
    if "leaf" in data:
        return ClusterTreeNode(cameras=tuple(data["cameras"]), leaf_id=data["leaf"])
    left = _tree_from_json(data["children"][0])
    right = _tree_from_json(data["children"][1])
    return ClusterTreeNode(
        cameras=tuple(sorted(left.cameras + right.cameras)),
        left=left,
        right=right,
    )


def save_cluster_set(path, cs: ClusterSet) -> None:
    payload = {
        "independent": [list(c.cameras) for c in cs.independent],
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
    """The cluster set; a cluster or tree camera outside the match graph's
    0..num_cameras-1 is a DataError."""
    data = _load(path)
    tree = ClusterTree(root=_tree_from_json(data["tree"]))
    tree.assign_leaf_ids()
    independent = [Cluster(id=k, cameras=tuple(c)) for k, c in enumerate(data["independent"])]
    interdependent = [Cluster(id=k, cameras=tuple(c)) for k, c in enumerate(data["interdependent"])]
    for c in [tree.root.cameras] + [c.cameras for c in independent + interdependent]:
        if not all(isinstance(k, int) and 0 <= k < num_cameras for k in c):
            raise DataError(f"a cluster camera is not in the match graph's 0..{num_cameras - 1}")
    return ClusterSet(
        independent=independent,
        interdependent=interdependent,
        tree=tree,
        discarded_edges=[tuple(e) for e in data["discardedEdges"]],
        achieved_ratios=list(data["achievedRatios"]),
        exhausted=bool(data["exhausted"]),
        dropped_cameras=list(data.get("droppedCameras", [])),
    )


# ---------------------------------------------------------------------------
# Tracks
# ---------------------------------------------------------------------------

def save_tracks(path, tracks: list[Track]) -> None:
    cameras, offsets = _flat([t.cameras for t in tracks], np.zeros(0, np.int64))
    features, _ = _flat([t.features for t in tracks], np.zeros(0, np.int64))
    xy, _ = _flat([t.xy for t in tracks], np.zeros((0, 2)))
    track = np.array([t.id for t in tracks], dtype=np.int64)
    _save_table(path, offsets, {"track": track, "cameras": cameras, "features": features, "xy": xy})


@_checked
def load_tracks(path, num_cameras: int) -> list[Track]:
    """The tracks; a track camera outside the match graph's
    0..num_cameras-1 is a DataError."""
    data = _load_table(path, "tracks")
    track = _decoded(data, "track", np.int64, -1)
    cameras = _decoded(data, "cameras", np.int64, -1)
    features = _decoded(data, "features", np.int64, len(cameras))
    xy = _decoded(data, "xy", float, len(cameras), 2)
    offsets = _offsets(data, len(track), len(cameras))
    _check_ascending(cameras, offsets, track)
    bad = np.flatnonzero((cameras < 0) | (cameras >= num_cameras))
    if len(bad):
        owner = np.searchsorted(offsets, bad[0], side="right") - 1
        raise DataError(f"track {track[owner]}: camera {cameras[bad[0]]} is not in the match graph's "
                        f"0..{num_cameras - 1}")
    return [
        Track(id=t, cameras=cameras[a:b], features=features[a:b], xy=xy[a:b])
        for t, (a, b) in zip(track.tolist(), _spans(offsets))
    ]


# ---------------------------------------------------------------------------
# Local reconstructions and relative motions
# ---------------------------------------------------------------------------

def _rows_per_point(rec: LocalReconstruction) -> np.ndarray:
    """The inlier row count of each point; the rows must come grouped by
    track in point order, so that offsets over the points describe them."""
    tracks = rec.obs_tracks
    first = np.flatnonzero(np.diff(tracks, prepend=tracks[:1] - 1))
    if not np.array_equal(tracks[first], rec.point_tracks):
        raise ValueError(f"cluster {rec.cluster_id}: the inlier rows are not grouped by the points' tracks")
    return np.diff(np.append(first, len(tracks)))


def save_local_reconstructions(path, recs: list[LocalReconstruction]) -> None:
    """One ragged table of every cluster's points, in cluster order, with
    each point's inlier rows; the clusters' poses are flat arrays too."""
    ints = np.zeros(0, np.int64)
    counts, _ = _flat([_rows_per_point(r) for r in recs], ints)
    arrays = {
        "rotation": _flat([np.reshape([r.rotations[c] for c in r.registered], (-1, 3, 3)) for r in recs],
                          np.zeros((0, 3, 3)))[0],
        "center": _flat([np.reshape([r.centers[c] for c in r.registered], (-1, 3)) for r in recs], np.zeros((0, 3)))[0],
        "track": _flat([r.point_tracks for r in recs], ints)[0],
        "position": _flat([r.positions for r in recs], np.zeros((0, 3)))[0],
        "cameras": _flat([r.obs_cameras for r in recs], ints)[0],
        "xy": _flat([r.obs_xy for r in recs], np.zeros((0, 2)))[0],
    }
    clusters = [
        {"clusterId": int(r.cluster_id), "failed": bool(r.failed),
         "seedPair": [int(c) for c in r.seed_pair] if r.seed_pair else None,
         "meanReprojection": r.mean_reprojection if np.isfinite(r.mean_reprojection) else None,
         "registered": [int(c) for c in r.registered], "points": len(r.point_tracks)}
        for r in recs
    ]
    _save_table(path, np.cumsum(np.append(0, counts)), arrays, clusters=clusters)


@_checked
def load_local_reconstructions(path) -> list[LocalReconstruction]:
    data = _load_table(path, "local-reconstruction")
    rotation = _decoded(data, "rotation", float, -1, 3, 3)
    center = _decoded(data, "center", float, len(rotation), 3)
    track = _decoded(data, "track", np.int64, -1)
    position = _decoded(data, "position", float, len(track), 3)
    cameras = _decoded(data, "cameras", np.int64, -1)
    xy = _decoded(data, "xy", float, len(cameras), 2)
    offsets = _offsets(data, len(track), len(cameras))
    _check_ascending(cameras, offsets, track)
    obs_tracks = np.repeat(track, np.diff(offsets))
    clusters = data["clusters"]
    poses = _rising(np.cumsum([0] + [len(c["registered"]) for c in clusters]), len(rotation))
    points = _rising(np.cumsum([0] + [c["points"] for c in clusters]), len(track))
    out = []
    for c, (a, b), (p, q) in zip(clusters, _spans(poses), _spans(points)):
        rows = slice(offsets[p], offsets[q])
        out.append(LocalReconstruction(
            cluster_id=c["clusterId"], rotations=dict(zip(c["registered"], rotation[a:b])),
            centers=dict(zip(c["registered"], center[a:b])), point_tracks=track[p:q], positions=position[p:q],
            obs_tracks=obs_tracks[rows], obs_cameras=cameras[rows], obs_xy=xy[rows],
            seed_pair=tuple(c["seedPair"]) if c["seedPair"] else None, failed=c["failed"],
            mean_reprojection=float("nan") if c["meanReprojection"] is None else c["meanReprojection"]))
    return out


def save_relative_motions(path, motions: list[RelativeMotion]) -> None:
    payload = [
        {
            "i": int(m.i),
            "j": int(m.j),
            "k": int(m.cluster_id),
            "R": np.asarray(m.rotation).ravel().tolist(),
            "t": np.asarray(m.translation).tolist(),
            "support": int(m.support),
        }
        for m in motions
    ]
    _dump(path, payload)


@_checked
def load_relative_motions(path) -> list[RelativeMotion]:
    data = _load(path)
    return [
        RelativeMotion(
            i=int(m["i"]),
            j=int(m["j"]),
            cluster_id=int(m["k"]),
            rotation=np.asarray(m["R"], dtype=float).reshape(3, 3),
            translation=np.asarray(m["t"], dtype=float),
            support=int(m["support"]),
        )
        for m in data
    ]


# ---------------------------------------------------------------------------
# Global motion and points
# ---------------------------------------------------------------------------

def save_global_motion(path, motion) -> None:
    payload = {
        "cameras": [
            {
                "id": int(c),
                "R": np.asarray(motion.rotations[c]).ravel().tolist(),
                "c": np.asarray(motion.centers[c]).tolist(),
            }
            for c in sorted(motion.centers)
        ],
        "scales": [
            {"clusterId": int(k), "alpha": float(motion.scales[k])} for k in sorted(motion.scales)
        ],
        "residuals": np.asarray(motion.residual_norms).tolist(),
        "objective": float(motion.objective),
    }
    _dump(path, payload)


@_checked
def load_global_motion(path, num_cameras: int):
    """The global motion; a camera outside the match graph's
    0..num_cameras-1 is a DataError."""
    data = _load(path)
    for k in (c["id"] for c in data["cameras"]):
        if not (isinstance(k, int) and 0 <= k < num_cameras):
            raise DataError(f"motion camera {k} is not in the match graph's 0..{num_cameras - 1}")
    rotations = {c["id"]: np.asarray(c["R"], dtype=float).reshape(3, 3) for c in data["cameras"]}
    centers = {c["id"]: np.asarray(c["c"], dtype=float) for c in data["cameras"]}
    scales = {s["clusterId"]: s["alpha"] for s in data["scales"]}
    return GlobalMotion(
        rotations=rotations,
        centers=centers,
        scales=scales,
        residual_norms=np.asarray(data["residuals"], dtype=float),
        objective=float(data["objective"]),
    )


def save_global_points(path, points) -> None:
    cameras, offsets = _flat([p.cameras for p in points], np.zeros(0, np.int64))
    xy, _ = _flat([p.xy for p in points], np.zeros((0, 2)))
    _save_npz(path, offsets=offsets, cameras=cameras, xy=xy,
              track=np.array([p.track_id for p in points], dtype=np.int64),
              cluster=np.array([p.cluster_id for p in points], dtype=np.int64),
              status=np.array([STATUSES.index(p.status) for p in points], dtype=np.int64),
              has_position=np.array([p.position is not None for p in points], dtype=bool),
              position=np.array([np.zeros(3) if p.position is None else p.position for p in points], dtype=float))


@_checked
def load_global_points(path) -> list[GlobalPoint]:
    data = _load_npz(path)
    track = _array(data, "track", np.int64, -1)
    cluster = _array(data, "cluster", np.int64, len(track))
    status = _array(data, "status", np.int64, len(track))
    has_position = _array(data, "has_position", bool, len(track))
    position = _array(data, "position", float, len(track), 3)
    cameras = _array(data, "cameras", np.int64, -1)
    xy = _array(data, "xy", float, len(cameras), 2)
    if np.any((status < 0) | (status >= len(STATUSES))):
        raise DataError(f"a status code is not in 0..{len(STATUSES) - 1}")
    return [
        GlobalPoint(track_id=t, position=X if h else None, cluster_id=c, cameras=cameras[a:b], xy=xy[a:b],
                    status=STATUSES[s])
        for t, c, s, h, X, (a, b) in zip(track.tolist(), cluster.tolist(), status.tolist(), has_position.tolist(),
                                         position, _spans(_offsets(data, len(track), len(cameras))))
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
    for k, p in enumerate(positions):
        line = f"{p[0]:.8g} {p[1]:.8g} {p[2]:.8g}"
        if colors is not None:
            c = colors[k]
            line += f" {int(c[0])} {int(c[1])} {int(c[2])}"
        lines.append(line)
    _write(path, ("\n".join(lines) + "\n").encode())


def save_ply_cameras(path, centers: np.ndarray, color=(255, 64, 64)) -> None:
    centers = np.asarray(centers).reshape(-1, 3)
    colors = np.tile(np.asarray(color, dtype=int), (len(centers), 1))
    save_ply_points(path, centers, colors)


def save_round_log(path, log) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["round", "cost", "rms_px"])
    for entry in log:
        writer.writerow([entry.round, f"{entry.cost:.12g}", f"{entry.rms_px:.12g}"])
    _write(path, buf.getvalue().encode())
