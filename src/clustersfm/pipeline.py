"""Batch pipeline: stage functions, artifact/manifest bookkeeping, resume
logic, and the end-to-end driver.

Every stage reads its inputs from files and writes its outputs plus a
manifest entry recording input hashes, so stale artifacts are detected and
`--resume` can skip fresh stages. All randomized stages derive per-unit
seeds by stable hashing from the global seed, so the worker count never
changes any artifact.
"""

import dataclasses
import json
import logging
import numbers
import time
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io as sfm_io
from .averaging import (
    build_translation_system,
    rotation_averaging,
    solve_translation_l1,
)
from .clustering import ClusterConfig, cluster_cameras
from .errors import ConfigurationError, DataError
from .evaluation import connected_pair_count, epipolar_error, pose_error_report
from .global_ba import build_partitions, distributed_bundle_adjust, triangulate_global
from .local_sfm import extract_relative_motions, run_local_sfm
from .scene import build_camera_graph
from .synthetic import LAYOUTS, generate_synthetic_scene
from .tracks import Track, generate_tracks
from .utils import default_worker_count, parallel_map

logger = logging.getLogger(__name__)

# value types a PipelineConfig field of each annotated type accepts
_ACCEPTED = {str: str, int: numbers.Integral, float: numbers.Real}

STAGES = ("synth", "cluster", "tracks", "local-sfm", "average", "triangulate", "ba", "evaluate")

ARTIFACTS = {
    "synth": ("matches.json", "ground_truth.json"),
    "cluster": ("clusters.json",),
    "tracks": ("tracks.json",),
    "local-sfm": ("local_reconstructions.json", "relative_motions.json"),
    "average": ("global_motion.json",),
    "triangulate": ("points.npz",),
    "ba": ("final_motion.json", "final_points.npz", "points.ply", "cameras.ply", "ba_rounds.csv"),
    "evaluate": ("report.json",),
}

STAGE_INPUTS = {
    "synth": (),
    "cluster": ("matches.json",),
    "tracks": ("matches.json", "clusters.json"),
    "local-sfm": ("matches.json", "clusters.json", "tracks.json"),
    "average": ("relative_motions.json",),
    "triangulate": ("tracks.json", "clusters.json", "global_motion.json", "local_reconstructions.json"),
    "ba": ("points.npz", "clusters.json", "global_motion.json", "matches.json"),
    "evaluate": ("matches.json", "ground_truth.json", "relative_motions.json", "final_motion.json", "final_points.npz", "clusters.json"),
}


@dataclass
class PipelineConfig:
    """Flat configuration for every stage; unknown keys are rejected."""

    output_dir: str = "out"
    seed: int = 0
    workers: int | None = None
    # synthetic scene
    layout: str = "loop"
    num_cameras: int = 60
    num_points: int = 1000
    pixel_sigma: float = 0.5
    outlier_fraction: float = 0.0
    # clustering
    max_cluster_size: int = 100
    completeness_ratio: float = 0.7
    max_outer_iterations: int = 16
    # distributed BA
    ba_rounds: int = 10

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            kinds = typing.get_args(f.type) or (f.type,)
            if value is None and type(None) in kinds:
                continue
            if not isinstance(value, _ACCEPTED[kinds[0]]) or isinstance(value, bool):
                raise ConfigurationError(f"{f.name} must be {kinds[0].__name__}, got {value!r}")
        if self.layout not in LAYOUTS:
            raise ConfigurationError(f"unknown layout {self.layout!r}")
        if self.num_cameras < 2:
            raise ConfigurationError("num_cameras must be >= 2")
        if self.num_points < 1:
            raise ConfigurationError("num_points must be >= 1")
        if self.pixel_sigma < 0:
            raise ConfigurationError("pixel_sigma must be >= 0")
        if not (0.0 <= self.outlier_fraction < 1.0):
            raise ConfigurationError("outlier_fraction must be in [0, 1)")
        # checks the clustering settings before any stage runs
        self.cluster_config = ClusterConfig(
            max_cluster_size=self.max_cluster_size,
            completeness_ratio=self.completeness_ratio,
            seed=self.seed,
            max_outer_iterations=self.max_outer_iterations,
        )
        if self.workers is None:
            default_worker_count()  # a malformed worker variable fails before any stage
        elif self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.ba_rounds < 1:
            raise ConfigurationError("ba_rounds must be >= 1")

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "PipelineConfig":
        path = Path(path)
        if path.suffix == ".toml":
            try:
                import tomllib
            except ImportError as exc:  # tomllib is 3.11+
                raise ConfigurationError(
                    "TOML config files need Python >= 3.11; use JSON instead"
                ) from exc
        try:
            text = path.read_text()
            data = tomllib.loads(text) if path.suffix == ".toml" else json.loads(text)
        except OSError as exc:
            raise ConfigurationError(f"{path}: cannot read config file ({exc.strerror})") from exc
        except ValueError as exc:  # JSON, TOML and Unicode decode errors
            raise ConfigurationError(f"{path}: malformed config file: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigurationError(f"{path}: config must be a flat table")
        data.update(overrides or {})
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {unknown}")
        return cls(**data)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def config_hash(self) -> str:
        import hashlib

        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()
        ).hexdigest()


# ---------------------------------------------------------------------------
# Manifest and status
# ---------------------------------------------------------------------------

def _manifest_path(out_dir) -> Path:
    return Path(out_dir) / "manifest.json"


def _load_manifest(out_dir) -> dict:
    path = _manifest_path(out_dir)
    if not path.exists():
        return {}
    manifest = sfm_io._load(path)
    for entry in manifest.values() if isinstance(manifest, dict) else [None]:
        tables = [entry.get(key) for key in ("inputs", "outputs")] if isinstance(entry, dict) else [None]
        if not all(isinstance(t, dict) and all(isinstance(h, str) for h in t.values()) for t in tables):
            raise DataError(f"{path}: malformed manifest: each stage needs inputs and outputs tables of name -> hash")
    return manifest


def _record_stage(out_dir, stage: str, config: PipelineConfig) -> None:
    manifest = _load_manifest(out_dir)
    entry = {"configHash": config.config_hash(), "timestamp": time.time(), "inputs": {}, "outputs": {}}
    for name in STAGE_INPUTS[stage]:
        p = Path(out_dir) / name
        if p.exists():
            entry["inputs"][name] = sfm_io.file_hash(p)
    for name in ARTIFACTS[stage]:
        p = Path(out_dir) / name
        if p.exists():
            entry["outputs"][name] = sfm_io.file_hash(p)
    manifest[stage] = entry
    sfm_io._dump(_manifest_path(out_dir), manifest)


def stage_status(out_dir) -> dict:
    """Per-stage presence, output hash, timestamp, and staleness.

    A stage is stale when any recorded input hash no longer matches the
    file on disk (or the file vanished), or when its own outputs changed
    since it ran.
    """
    out = {}
    out_dir = Path(out_dir)
    if not out_dir.is_dir():
        raise DataError(f"{out_dir} is not a directory")
    manifest = _load_manifest(out_dir)
    for stage in STAGES:
        entry = manifest.get(stage)
        present = all((out_dir / n).exists() for n in ARTIFACTS[stage])
        stale = False
        if entry is None:
            stale = present  # artifacts exist with no provenance record
        else:
            for name, recorded in entry["inputs"].items():
                p = out_dir / name
                if not p.exists() or sfm_io.file_hash(p) != recorded:
                    stale = True
            for name, recorded in entry["outputs"].items():
                p = out_dir / name
                if not p.exists() or sfm_io.file_hash(p) != recorded:
                    stale = True
        out[stage] = {
            "present": present,
            "stale": stale,
            "hash": entry["outputs"] if entry else {},
            "timestamp": entry.get("timestamp") if entry else None,
        }
    return out


# ---------------------------------------------------------------------------
# Stage implementations
# ---------------------------------------------------------------------------

def stage_synth(config: PipelineConfig, out_dir) -> None:
    scene, matches = generate_synthetic_scene(
        config.layout,
        config.num_cameras,
        config.num_points,
        pixel_sigma=config.pixel_sigma,
        outlier_fraction=config.outlier_fraction,
        seed=config.seed,
    )
    sfm_io.save_match_graph(Path(out_dir) / "matches.json", scene.cameras, matches)
    sfm_io.save_ground_truth(Path(out_dir) / "ground_truth.json", scene.poses)


def stage_cluster(config: PipelineConfig, out_dir) -> None:
    cameras, matches = sfm_io.load_match_graph(Path(out_dir) / "matches.json")
    graph = build_camera_graph(matches, len(cameras))
    cs = cluster_cameras(graph, config.cluster_config)
    sfm_io.save_cluster_set(Path(out_dir) / "clusters.json", cs)


def stage_tracks(config: PipelineConfig, out_dir) -> None:
    cameras, matches = sfm_io.load_match_graph(Path(out_dir) / "matches.json")
    cs = sfm_io.load_cluster_set(Path(out_dir) / "clusters.json", len(cameras))
    usable = np.isin(matches.edges, cs.tree.root.cameras).all(axis=1)
    if not usable.all():
        logger.warning("dropping %d match edges touching dropped cameras", len(matches) - usable.sum())
    tracks = generate_tracks(cs.tree, matches.take(usable))
    sfm_io.save_tracks(Path(out_dir) / "tracks.json", tracks)


def stage_local_sfm(config: PipelineConfig, out_dir) -> None:
    cameras, matches = sfm_io.load_match_graph(Path(out_dir) / "matches.json")
    graph = build_camera_graph(matches, len(cameras))
    cs = sfm_io.load_cluster_set(Path(out_dir) / "clusters.json", len(cameras))
    tracks = sfm_io.load_tracks(Path(out_dir) / "tracks.json", len(cameras))

    def run_one(cluster):
        return run_local_sfm(graph, cluster, tracks, cameras, config.seed)

    recs = parallel_map(run_one, cs.interdependent, workers=config.workers)
    motions = []
    for rec in recs:
        motions.extend(extract_relative_motions(rec, graph))
    sfm_io.save_local_reconstructions(Path(out_dir) / "local_reconstructions.json", recs)
    sfm_io.save_relative_motions(Path(out_dir) / "relative_motions.json", motions)
    failed = [r.cluster_id for r in recs if r.failed]
    if failed:
        logger.warning("local SfM failed for cluster(s) %s", failed)


def stage_average(config: PipelineConfig, out_dir) -> None:
    motions = sfm_io.load_relative_motions(Path(out_dir) / "relative_motions.json")
    estimate = rotation_averaging(motions)
    system = build_translation_system(motions, estimate)
    motion = solve_translation_l1(system, estimate)
    sfm_io.save_global_motion(Path(out_dir) / "global_motion.json", motion)


def validated_tracks(tracks, recs) -> list[Track]:
    """Tracks restricted to the observations the local reconstructions kept
    as inliers, by track id; of the rows of one camera on one track the
    first in cluster order is kept. Tracks unknown to `tracks` or left with
    fewer than 2 views are dropped."""
    ints = np.zeros(0, dtype=np.int64)
    track = np.concatenate([ints] + [r.obs_tracks for r in recs])
    cam = np.concatenate([ints] + [r.obs_cameras for r in recs])
    xy = np.concatenate([np.zeros((0, 2))] + [r.obs_xy for r in recs])
    src_ids = np.array([t.id for t in tracks], dtype=np.int64)
    src_cam = np.concatenate([ints] + [t.cameras for t in tracks])
    src_feat = np.concatenate([ints] + [t.features for t in tracks])
    # one sortable key per (track, camera)
    stride = max(cam.max(initial=0), src_cam.max(initial=0)) + 1
    src_key = np.repeat(src_ids, [len(t) for t in tracks]) * stride + src_cam
    known = np.flatnonzero(np.isin(track, src_ids))
    key, first = np.unique((track * stride + cam)[known], return_index=True)
    rows = known[first]
    by_key = np.argsort(src_key)
    at = by_key[np.minimum(np.searchsorted(src_key, key, sorter=by_key), len(src_key) - 1)]
    feat = np.where(src_key[at] == key, src_feat[at], -1)
    cam, xy = cam[rows], xy[rows]
    ids, starts, views = np.unique(track[rows], return_index=True, return_counts=True)
    return [
        Track(id=t, cameras=cam[a:a + n], features=feat[a:a + n], xy=xy[a:a + n])
        for t, a, n in zip(ids.tolist(), starts.tolist(), views.tolist())
        if n >= 2
    ]


def stage_triangulate(config: PipelineConfig, out_dir) -> None:
    cameras = sfm_io.load_cameras(Path(out_dir) / "matches.json")
    tracks = sfm_io.load_tracks(Path(out_dir) / "tracks.json", len(cameras))
    cs = sfm_io.load_cluster_set(Path(out_dir) / "clusters.json", len(cameras))
    motion = sfm_io.load_global_motion(Path(out_dir) / "global_motion.json", len(cameras))
    recs = sfm_io.load_local_reconstructions(Path(out_dir) / "local_reconstructions.json")
    points = triangulate_global(validated_tracks(tracks, recs), motion, cs, cameras)
    sfm_io.save_global_points(Path(out_dir) / "points.npz", points)


def stage_ba(config: PipelineConfig, out_dir) -> None:
    cameras = sfm_io.load_cameras(Path(out_dir) / "matches.json")
    points = sfm_io.load_global_points(Path(out_dir) / "points.npz")
    cs = sfm_io.load_cluster_set(Path(out_dir) / "clusters.json", len(cameras))
    motion = sfm_io.load_global_motion(Path(out_dir) / "global_motion.json", len(cameras))
    partitions = build_partitions(points, cs, motion)
    final_motion, final_points, log = distributed_bundle_adjust(
        partitions,
        motion,
        points,
        cameras,
        rounds=config.ba_rounds,
        workers=config.workers,
    )
    out = Path(out_dir)
    sfm_io.save_global_motion(out / "final_motion.json", final_motion)
    sfm_io.save_global_points(out / "final_points.npz", final_points)
    active = np.array([p.position for p in final_points if p.active]).reshape(-1, 3)
    sfm_io.save_ply_points(out / "points.ply", active)
    centers = np.array([final_motion.centers[c] for c in sorted(final_motion.centers)])
    sfm_io.save_ply_cameras(out / "cameras.ply", centers)
    sfm_io.save_round_log(out / "ba_rounds.csv", log)


def stage_evaluate(config: PipelineConfig, out_dir) -> dict:
    out = Path(out_dir)
    cameras, matches = sfm_io.load_match_graph(out / "matches.json")
    gt = sfm_io.load_ground_truth(out / "ground_truth.json")
    motions = sfm_io.load_relative_motions(out / "relative_motions.json")
    final_motion = sfm_io.load_global_motion(out / "final_motion.json", len(cameras))
    points = sfm_io.load_global_points(out / "final_points.npz")
    cs = sfm_io.load_cluster_set(out / "clusters.json", len(cameras))
    med_epi = epipolar_error(final_motion.rotations, final_motion.centers, cameras, matches)
    report = pose_error_report(
        final_motion.rotations,
        final_motion.centers,
        gt,
        [(m.i, m.j) for m in motions],
        num_points=sum(p.active for p in points),
        num_connected_pairs=connected_pair_count(points),
        num_clusters=len(cs.interdependent),
        epipolar_median=med_epi,
    )
    payload = report.to_dict()
    sfm_io._dump(out / "report.json", payload)
    print(report.table())
    return payload


STAGE_FUNCTIONS = {
    "synth": stage_synth,
    "cluster": stage_cluster,
    "tracks": stage_tracks,
    "local-sfm": stage_local_sfm,
    "average": stage_average,
    "triangulate": stage_triangulate,
    "ba": stage_ba,
    "evaluate": stage_evaluate,
}


def run_pipeline(config: PipelineConfig, stages=None, resume: bool = False) -> dict:
    """Run the requested stages in pipeline order.

    With resume=True, stages whose artifacts are present and fresh (per the
    manifest hash chain) are skipped. Any stage failure propagates with the
    failing stage named; earlier artifacts stay intact.
    """
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    selected = list(STAGES) if stages is None else list(stages)
    for s in selected:
        if s not in STAGES:
            raise ConfigurationError(f"unknown stage {s!r}")
    _load_manifest(out_dir)  # a malformed manifest fails before any stage runs
    result = {}
    for stage in STAGES:
        if stage not in selected:
            continue
        if resume:
            status = stage_status(out_dir).get(stage, {})
            if status.get("present") and not status.get("stale"):
                logger.info("stage %s: fresh, skipped", stage)
                continue
        t0 = time.time()
        logger.info("stage %s: running", stage)
        try:
            ret = STAGE_FUNCTIONS[stage](config, out_dir)
        except Exception as exc:
            # name the stage in the message, keeping the exception object
            # (type, attributes, traceback) intact
            exc.args = (f"stage {stage!r} failed: {exc}",)
            raise
        _record_stage(out_dir, stage, config)
        logger.info("stage %s: done in %.1fs", stage, time.time() - t0)
        if stage == "evaluate" and ret is not None:
            result = ret
    return result
