"""Cluster-parallel structure from motion pipeline."""

from .averaging import (
    GlobalMotion,
    RotationEstimate,
    rotation_averaging,
    solve_translation_l1,
)
from .clustering import (
    Cluster,
    ClusterSet,
    ClusterTree,
    bisect_normalized_cut,
    cluster_cameras,
    divide,
)
from .evaluation import ErrorReport, align_similarity, epipolar_error, pose_error_report
from .global_ba import (
    BAPartition,
    GlobalPoint,
    build_partitions,
    distributed_bundle_adjust,
    triangulate_global,
)
from .local_sfm import (
    LocalReconstruction,
    MotionTable,
    extract_relative_motions,
    run_local_sfm,
)
from .pipeline import PipelineConfig, run_pipeline, stage_status
from .scene import CameraGraph, CameraTable, MatchTable, build_camera_graph
from .synthetic import SyntheticScene, generate_synthetic_scene
from .tracks import TrackTable, generate_tracks

__version__ = "0.1.0"
