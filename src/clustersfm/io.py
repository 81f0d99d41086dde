"""File formats for every pipeline stage: versioned match-graph JSON, ground
truth, cluster sets, tracks, relative motions, global motion, PLY exports,
and the per-round cost log."""

import contextlib
import csv
import functools
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np

from .clustering import Cluster, ClusterSet, ClusterTree, ClusterTreeNode
from .errors import DataError
from .local_sfm import LocalReconstruction, RelativeMotion
from .scene import Camera, MatchEdge, Pose
from .tracks import Track

MATCH_GRAPH_VERSION = 1


def _write(path, text: str) -> None:
    """Write text through a temp file in the same directory, so a crash
    never leaves a half-written file under the final name. A failed write
    removes the temp file and raises a DataError naming the path."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise DataError(f"{path}: cannot write ({exc.strerror})") from exc


def _dump(path, payload) -> None:
    _write(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _load(path):
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc.strerror})") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from exc


def _checked(load):
    """Report a missing or mistyped field of a loaded artifact as a
    DataError naming the file."""

    @functools.wraps(load)
    def checked_load(path):
        try:
            return load(path)
        except DataError:
            raise
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: malformed artifact ({type(exc).__name__}: {exc})") from exc

    return checked_load


def file_hash(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Match graph and ground truth
# ---------------------------------------------------------------------------

def save_match_graph(path, cameras: list[Camera], matches: list[MatchEdge]) -> None:
    payload = {
        "version": MATCH_GRAPH_VERSION,
        "numCameras": len(cameras),
        "intrinsics": [
            {"focal": c.focal, "cx": c.cx, "cy": c.cy, "width": c.width, "height": c.height}
            for c in cameras
        ],
        "edges": [
            {
                "i": int(e.i),
                "j": int(e.j),
                "pairs": [
                    [int(fi), float(xi), float(yi), int(fj), float(xj), float(yj)]
                    for fi, (xi, yi), fj, (xj, yj) in zip(e.feat_i, e.xy_i, e.feat_j, e.xy_j)
                ],
            }
            for e in matches
        ],
    }
    _dump(path, payload)


@_checked
def load_match_graph(path):
    data = _load(path)
    if data.get("version") != MATCH_GRAPH_VERSION:
        raise DataError(f"{path}: unsupported match-graph version {data.get('version')}")
    cameras = [
        Camera(id=k, focal=c["focal"], cx=c["cx"], cy=c["cy"], width=c["width"], height=c["height"])
        for k, c in enumerate(data["intrinsics"])
    ]
    if int(data["numCameras"]) != len(cameras):
        raise DataError(f"{path}: numCameras is {data['numCameras']} but {len(cameras)} intrinsics are given")
    matches = []
    for e in data["edges"]:
        pairs = np.asarray(e["pairs"], dtype=float).reshape(-1, 6)
        matches.append(
            MatchEdge(
                i=int(e["i"]),
                j=int(e["j"]),
                feat_i=pairs[:, 0].astype(np.int64),
                xy_i=pairs[:, 1:3],
                feat_j=pairs[:, 3].astype(np.int64),
                xy_j=pairs[:, 4:6],
            )
        )
    return cameras, matches, int(data["numCameras"])


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
            raise DataError(f"{path}: camera id {rec['cameraId']} is not in 0..{len(poses) - 1}")
        poses[rec["cameraId"]] = Pose(
            R=np.asarray(rec["rotation"], dtype=float).reshape(3, 3),
            c=np.asarray(rec["center"], dtype=float),
        )
    if any(p is None for p in poses):
        raise DataError(f"{path}: camera ids are not 0..{len(poses) - 1}")
    return poses


# ---------------------------------------------------------------------------
# Cluster set
# ---------------------------------------------------------------------------

def _tree_to_json(node: ClusterTreeNode):
    if node.is_leaf:
        return {"leaf": node.leaf_id, "cameras": list(node.cameras)}
    return {
        "cutEdges": [[int(i), int(j)] for (i, j) in sorted(node.cut_edges)],
        "children": [_tree_to_json(node.left), _tree_to_json(node.right)],
    }


def _tree_from_json(data) -> ClusterTreeNode:
    if "leaf" in data:
        return ClusterTreeNode(cameras=tuple(data["cameras"]), leaf_id=data["leaf"])
    left = _tree_from_json(data["children"][0])
    right = _tree_from_json(data["children"][1])
    return ClusterTreeNode(
        cameras=tuple(sorted(left.cameras + right.cameras)),
        left=left,
        right=right,
        cut_edges=[tuple(e) for e in data["cutEdges"]],
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
def load_cluster_set(path) -> ClusterSet:
    data = _load(path)
    tree = ClusterTree(root=_tree_from_json(data["tree"]))
    tree.assign_leaf_ids()
    independent = [Cluster(id=k, cameras=tuple(c)) for k, c in enumerate(data["independent"])]
    interdependent = [Cluster(id=k, cameras=tuple(c)) for k, c in enumerate(data["interdependent"])]
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
    payload = [
        {
            "id": int(t.id),
            "elements": [
                [int(c), int(f), float(x), float(y)]
                for c, f, (x, y) in zip(t.cameras, t.features, t.xy)
            ],
        }
        for t in tracks
    ]
    _dump(path, payload)


@_checked
def load_tracks(path) -> list[Track]:
    data = _load(path)
    tracks = []
    for rec in data:
        el = np.asarray(rec["elements"], dtype=float).reshape(-1, 4)
        if np.any(np.diff(el[:, 0]) <= 0):
            raise DataError(f"{path}: track {rec['id']}: cameras are not strictly ascending")
        tracks.append(
            Track(
                id=int(rec["id"]),
                cameras=el[:, 0].astype(np.int64),
                features=el[:, 1].astype(np.int64),
                xy=el[:, 2:4],
            )
        )
    return tracks


# ---------------------------------------------------------------------------
# Local reconstructions and relative motions
# ---------------------------------------------------------------------------

def save_local_reconstructions(path, recs: list[LocalReconstruction]) -> None:
    payload = []
    for rec in recs:
        payload.append(
            {
                "clusterId": rec.cluster_id,
                "failed": rec.failed,
                "seedPair": list(rec.seed_pair) if rec.seed_pair else None,
                "meanReprojection": rec.mean_reprojection if np.isfinite(rec.mean_reprojection) else None,
                "cameras": [
                    {
                        "id": int(c),
                        "rotation": np.asarray(rec.rotations[c]).ravel().tolist(),
                        "center": np.asarray(rec.centers[c]).tolist(),
                    }
                    for c in sorted(rec.rotations)
                ],
                "points": [
                    {
                        "trackId": int(t),
                        "position": np.asarray(rec.points[t]).tolist(),
                        "observations": [[int(c), float(x), float(y)] for (c, x, y) in rec.observations[t]],
                    }
                    for t in sorted(rec.points)
                ],
            }
        )
    _dump(path, payload)


@_checked
def load_local_reconstructions(path) -> list[LocalReconstruction]:
    data = _load(path)
    out = []
    for blob in data:
        rec = LocalReconstruction(cluster_id=blob["clusterId"])
        rec.failed = blob["failed"]
        rec.seed_pair = tuple(blob["seedPair"]) if blob["seedPair"] else None
        rec.mean_reprojection = blob["meanReprojection"] if blob["meanReprojection"] is not None else float("nan")
        for cam in blob["cameras"]:
            rec.rotations[cam["id"]] = np.asarray(cam["rotation"], dtype=float).reshape(3, 3)
            rec.centers[cam["id"]] = np.asarray(cam["center"], dtype=float)
        for pt in blob["points"]:
            rec.points[pt["trackId"]] = np.asarray(pt["position"], dtype=float)
            rec.observations[pt["trackId"]] = [(int(c), float(x), float(y)) for c, x, y in pt["observations"]]
        out.append(rec)
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
def load_global_motion(path):
    from .averaging import GlobalMotion

    data = _load(path)
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
    payload = [
        {
            "trackId": int(p.track_id),
            "clusterId": int(p.cluster_id),
            "status": p.status,
            "position": np.asarray(p.position).tolist() if p.position is not None else None,
            "observations": [
                [int(c), float(x), float(y)] for c, (x, y) in zip(p.cameras, p.xy)
            ],
        }
        for p in points
    ]
    _dump(path, payload)


@_checked
def load_global_points(path):
    from .global_ba import GlobalPoint

    data = _load(path)
    out = []
    for rec in data:
        obs = np.asarray(rec["observations"], dtype=float).reshape(-1, 3)
        out.append(
            GlobalPoint(
                track_id=int(rec["trackId"]),
                position=None if rec["position"] is None else np.asarray(rec["position"], dtype=float),
                cluster_id=int(rec["clusterId"]),
                cameras=obs[:, 0].astype(np.int64),
                xy=obs[:, 1:3],
                status=rec["status"],
            )
        )
    return out


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
    _write(path, "\n".join(lines) + "\n")


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
    _write(path, buf.getvalue())
