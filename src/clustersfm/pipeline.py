"""Batch pipeline: stage functions, artifact/manifest bookkeeping, resume
logic, and the end-to-end driver.

Every stage reads its inputs from files and writes its outputs plus a
manifest entry recording input hashes, so stale artifacts are detected and
`--resume` can skip fresh stages. All randomized stages derive per-unit
seeds by stable hashing from the global seed, so the worker count never
changes any artifact.
"""

import dataclasses
import hashlib
import json
import logging
import numbers
import time
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io as sfm_io
from .averaging import rotation_averaging, solve_translation_l1
from .clustering import cluster_cameras
from .errors import ConfigurationError, DataError
from .evaluation import connected_pair_count, epipolar_error, pose_error_report
from .global_ba import build_partitions, distributed_bundle_adjust, triangulate_global
from .local_sfm import extract_relative_motions, run_local_sfm
from .scene import build_camera_graph
from .synthetic import LAYOUTS, generate_synthetic_scene
from .tracks import TrackTable, generate_tracks
from .utils import default_worker_count, parallel_map

logger = logging.getLogger(__name__)

# value types a PipelineConfig field of each annotated type accepts
_ACCEPTED = {str: str, int: numbers.Integral, float: numbers.Real}

STAGES = ("synth", "cluster", "tracks", "local-sfm", "average", "triangulate", "ba", "evaluate")

ARTIFACTS = {
    "synth": ("matches.json", "ground_truth.npz"),
    "cluster": ("clusters.json",),
    "tracks": ("tracks.json",),
    "local-sfm": ("local_reconstructions.json", "relative_motions.npz"),
    "average": ("global_motion.npz",),
    "triangulate": ("points.npz",),
    "ba": ("final_motion.npz", "final_points.npz", "points.ply", "cameras.ply", "ba_rounds.csv"),
    "evaluate": ("report.json",),
}

STAGE_INPUTS = {
    "synth": (),
    "cluster": ("matches.json",),
    "tracks": ("matches.json", "clusters.json"),
    "local-sfm": ("matches.json", "clusters.json", "tracks.json"),
    "average": ("matches.json", "relative_motions.npz"),
    "triangulate": ("matches.json", "global_motion.npz", "local_reconstructions.json"),
    "ba": ("points.npz", "clusters.json", "global_motion.npz", "matches.json"),
    "evaluate": ("matches.json", "ground_truth.npz", "relative_motions.npz", "final_motion.npz", "final_points.npz", "clusters.json"),
}

# the PipelineConfig fields each stage reads; output_dir and workers change no artifact
STAGE_SETTINGS = {
    "synth": ("seed", "layout", "num_cameras", "num_points", "pixel_sigma", "outlier_fraction"),
    "cluster": ("seed", "max_cluster_size", "completeness_ratio"),
    "local-sfm": ("seed",),
}


@dataclass
class PipelineConfig:
    """Flat configuration for every stage; unknown keys are rejected."""

    output_dir: str = "out"
    seed: int = 0
    workers: int | None = None  # validated, but the stages run on one thread
    # synthetic scene
    layout: str = "loop"
    num_cameras: int = 60
    num_points: int = 1000
    pixel_sigma: float = 0.5
    outlier_fraction: float = 0.0
    # clustering
    max_cluster_size: int = 100
    completeness_ratio: float = 0.7

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
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")
        if not 0.0 <= self.pixel_sigma < np.inf:
            raise ConfigurationError("pixel_sigma must be >= 0 and finite")
        if not (0.0 <= self.outlier_fraction < 1.0):
            raise ConfigurationError("outlier_fraction must be in [0, 1)")
        if self.max_cluster_size < 2:
            raise ConfigurationError("max_cluster_size must be >= 2")
        if not (0.0 <= self.completeness_ratio < 1.0):
            raise ConfigurationError("completeness_ratio must be in [0, 1)")
        if self.workers is None:
            default_worker_count()  # a malformed worker variable fails before any stage
        elif self.workers < 1:
            raise ConfigurationError("workers must be >= 1")

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

    def config_hash(self, stage: str) -> str:
        """The hash of the settings that stage reads."""
        settings = {k: getattr(self, k) for k in STAGE_SETTINGS.get(stage, ())}
        return hashlib.sha256(json.dumps(settings, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Manifest and status
# ---------------------------------------------------------------------------

class _Provenance:
    """One pass over an output directory's provenance: the manifest, read
    and checked once, and each artifact's sha256 (None when the file is
    missing), hashed at most once."""

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.path = self.out_dir / "manifest.json"
        self.manifest = sfm_io._load(self.path) if self.path.exists() else {}
        for entry in self.manifest.values() if isinstance(self.manifest, dict) else [None]:
            tables = [entry.get(key) for key in ("inputs", "outputs")] if isinstance(entry, dict) else [None]
            if not all(isinstance(t, dict) and all(isinstance(h, str) for h in t.values()) for t in tables):
                raise DataError(f"{self.path}: malformed manifest: "
                                "each stage needs inputs and outputs tables of name -> hash")
        self.hashes = {}

    def hash(self, name: str) -> str | None:
        if name not in self.hashes:
            p = self.out_dir / name
            self.hashes[name] = sfm_io.file_hash(p) if p.exists() else None
        return self.hashes[name]

    def status(self, stage: str, config_hash: str | None = None) -> dict:
        """present: every artifact of the stage exists. stale: a recorded
        input or output no longer has its recorded hash (or vanished), or
        artifacts exist with no record; with config_hash given (on resume),
        also a record of another configHash."""
        entry = self.manifest.get(stage)
        present = all((self.out_dir / n).exists() for n in ARTIFACTS[stage])
        if entry is None:
            return {"present": present, "stale": present}
        recorded = {**entry["inputs"], **entry["outputs"]}
        stale = ((config_hash is not None and entry.get("configHash") != config_hash)
                 or any(self.hash(n) != h for n, h in recorded.items()))
        return {"present": present, "stale": stale}

    def record(self, stage: str, config_hash: str) -> None:
        """Record a stage that just ran; its outputs are hashed anew."""
        for name in ARTIFACTS[stage]:
            self.hashes.pop(name, None)

        def hashed(names):
            return {n: h for n in names if (h := self.hash(n)) is not None}

        self.manifest[stage] = {"configHash": config_hash, "timestamp": time.time(),
                                "inputs": hashed(STAGE_INPUTS[stage]), "outputs": hashed(ARTIFACTS[stage])}
        sfm_io._dump(self.path, self.manifest)


def stage_status(out_dir) -> dict:
    """Each stage's {"present", "stale"}, by the freshness rule of
    --resume without its configHash check (_Provenance.status); the
    manifest is read once and each artifact hashed at most once."""
    if not Path(out_dir).is_dir():
        raise DataError(f"{out_dir} is not a directory")
    provenance = _Provenance(out_dir)
    return {stage: provenance.status(stage) for stage in STAGES}


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
    sfm_io.save_ground_truth(Path(out_dir) / "ground_truth.npz", scene.rotation, scene.center)


def stage_cluster(config: PipelineConfig, out_dir) -> None:
    cameras, matches = sfm_io.load_match_graph(Path(out_dir) / "matches.json")
    graph = build_camera_graph(matches, len(cameras))
    cs = cluster_cameras(graph, config.max_cluster_size, config.completeness_ratio, config.seed)
    sfm_io.save_cluster_set(Path(out_dir) / "clusters.json", cs)


def stage_tracks(config: PipelineConfig, out_dir) -> None:
    cameras, matches = sfm_io.load_match_graph(Path(out_dir) / "matches.json")
    cs = sfm_io.load_cluster_set(Path(out_dir) / "clusters.json", len(cameras))
    tracks = generate_tracks(cs.tree, matches)
    sfm_io.save_tracks(Path(out_dir) / "tracks.json", tracks)


def stage_local_sfm(config: PipelineConfig, out_dir) -> None:
    cameras, matches = sfm_io.load_match_graph(Path(out_dir) / "matches.json")
    graph = build_camera_graph(matches, len(cameras))
    cs = sfm_io.load_cluster_set(Path(out_dir) / "clusters.json", len(cameras))
    tracks = sfm_io.load_tracks(Path(out_dir) / "tracks.json", len(cameras))

    def run_one(cluster):
        return run_local_sfm(graph, cluster, tracks, cameras, config.seed)

    recs = parallel_map(run_one, cs.interdependent)
    motions = extract_relative_motions(recs, graph)
    sfm_io.save_local_reconstructions(Path(out_dir) / "local_reconstructions.json", recs)
    sfm_io.save_relative_motions(Path(out_dir) / "relative_motions.npz", motions)
    failed = [r.cluster_id for r in recs if r.failed]
    if failed:
        logger.warning("local SfM failed for cluster(s) %s", failed)


def stage_average(config: PipelineConfig, out_dir) -> None:
    cameras = sfm_io.load_cameras(Path(out_dir) / "matches.json")
    motions = sfm_io.load_relative_motions(Path(out_dir) / "relative_motions.npz", len(cameras))
    estimate = rotation_averaging(motions)
    motion = solve_translation_l1(motions, estimate)
    sfm_io.save_global_motion(Path(out_dir) / "global_motion.npz", motion)


def validated_tracks(recs) -> TrackTable:
    """The local reconstructions' inlier rows merged by track id: of the
    rows of one camera on one track the first in cluster order is kept, and
    tracks left with fewer than 2 views are dropped."""
    tables = [TrackTable.empty()] + [r.inliers for r in recs]
    track = np.concatenate([t.ids[t.owner()] for t in tables])
    cam = np.concatenate([t.cameras for t in tables])
    # one sortable key per (track, camera); np.unique returns each key's first row
    _, rows = np.unique(track * (cam.max(initial=0) + 1) + cam, return_index=True)
    ids, owner, views = np.unique(track[rows], return_inverse=True, return_counts=True)
    kept = views >= 2
    rows = rows[kept[owner]]
    return TrackTable(ids[kept], np.append(0, np.cumsum(views[kept])), cam[rows],
                      np.concatenate([t.features for t in tables])[rows], np.concatenate([t.xy for t in tables])[rows])


def stage_triangulate(config: PipelineConfig, out_dir) -> None:
    cameras = sfm_io.load_cameras(Path(out_dir) / "matches.json")
    motion = sfm_io.load_global_motion(Path(out_dir) / "global_motion.npz", len(cameras))
    recs = sfm_io.load_local_reconstructions(Path(out_dir) / "local_reconstructions.json", len(cameras))
    points = triangulate_global(validated_tracks(recs), motion, cameras)
    sfm_io.save_global_points(Path(out_dir) / "points.npz", points)


def stage_ba(config: PipelineConfig, out_dir) -> None:
    cameras = sfm_io.load_cameras(Path(out_dir) / "matches.json")
    points = sfm_io.load_global_points(Path(out_dir) / "points.npz", len(cameras))
    cs = sfm_io.load_cluster_set(Path(out_dir) / "clusters.json", len(cameras))
    motion = sfm_io.load_global_motion(Path(out_dir) / "global_motion.npz", len(cameras))
    partitions = build_partitions(points, cs, motion)
    final_motion, final_points, log = distributed_bundle_adjust(partitions, motion, points, cameras)
    out = Path(out_dir)
    sfm_io.save_global_motion(out / "final_motion.npz", final_motion)
    sfm_io.save_global_points(out / "final_points.npz", final_points)
    active = np.array([p.position for p in final_points if p.active]).reshape(-1, 3)
    sfm_io.save_ply_points(out / "points.ply", active)
    sfm_io.save_ply_cameras(out / "cameras.ply", final_motion.center)
    sfm_io.save_round_log(out / "ba_rounds.csv", log)


def stage_evaluate(config: PipelineConfig, out_dir) -> dict:
    out = Path(out_dir)
    cameras, matches = sfm_io.load_match_graph(out / "matches.json")
    gt_rotation, gt_center = sfm_io.load_ground_truth(out / "ground_truth.npz", len(cameras))
    motions = sfm_io.load_relative_motions(out / "relative_motions.npz", len(cameras))
    final_motion = sfm_io.load_global_motion(out / "final_motion.npz", len(cameras))
    points = sfm_io.load_global_points(out / "final_points.npz", len(cameras))
    cs = sfm_io.load_cluster_set(out / "clusters.json", len(cameras))
    med_epi = epipolar_error(final_motion, cameras, matches)
    report = pose_error_report(
        final_motion,
        gt_rotation,
        gt_center,
        motions.pairs,
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

    With resume=True, a stage is skipped when it is present and not stale
    by the rule of stage_status, a record of another config_hash of its own
    settings counting as stale. The manifest is read once per call and each
    artifact hashed at most once; a stage that runs has its outputs hashed
    anew. Any stage failure propagates with the failing stage named;
    earlier artifacts stay intact.
    """
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    selected = list(STAGES) if stages is None else list(stages)
    for s in selected:
        if s not in STAGES:
            raise ConfigurationError(f"unknown stage {s!r}")
    provenance = _Provenance(out_dir)  # a malformed manifest fails before any stage runs
    result = {}
    for stage in STAGES:
        if stage not in selected:
            continue
        config_hash = config.config_hash(stage)
        if resume:
            status = provenance.status(stage, config_hash)
            if status["present"] and not status["stale"]:
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
        provenance.record(stage, config_hash)
        logger.info("stage %s: done in %.1fs", stage, time.time() - t0)
        if stage == "evaluate" and ret is not None:
            result = ret
    return result
