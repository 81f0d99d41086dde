"""Cluster-parallel structure from motion pipeline."""

from .averaging import (
    GlobalMotion,
    RotationEstimate,
    TranslationSystem,
    build_translation_system,
    rotation_averaging,
    solve_translation_l1,
)
from .clustering import (
    Cluster,
    ClusterConfig,
    ClusterSet,
    ClusterTree,
    bisect_normalized_cut,
    cluster_cameras,
    completeness_ratio,
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
    RelativeMotion,
    extract_relative_motions,
    run_local_sfm,
)
from .pipeline import PipelineConfig, run_pipeline, stage_status
from .scene import Camera, CameraGraph, MatchTable, Pose, build_camera_graph, project_point
from .synthetic import SyntheticScene, generate_synthetic_scene
from .tracks import Track, generate_tracks

__version__ = "0.1.0"
