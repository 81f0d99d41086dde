"""Benchmark workloads: the synthetic scene each one generates, why it was
chosen, and the accuracy it must reach against ground truth.

The scene seed comes from the command line; every other setting is fixed
here. The accuracy limits pass with room to spare on seeds 1-10 of loop120
and grid64-single and on seed 7 of city72, so a run that breaks one has
changed its results rather than drawn an unlucky scene.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    scene: dict  # PipelineConfig fields
    at_most: dict  # accuracy metric -> upper limit
    at_least: dict  # accuracy metric -> lower limit


def limits(pos_err_median: float, points_active: int, registered_frac: float = 1.0) -> dict:
    """Accuracy limits; the ones every workload shares are fixed here."""
    return dict(
        at_most={"pos_err_median": pos_err_median, "rot_err_mean_deg": 0.1,
                 "epipolar_median_px": 1.0, "ba_rms_px": 1.0},
        at_least={"registered_frac": registered_frac, "points_active": points_active,
                  "clusters_ok_frac": 1.0},
    )


WORKLOADS = {
    # README loop: 4 clusters on the pool, averaging at its iteration caps,
    # mixed BA with a third of the points on cluster boundaries
    "loop120": Workload(
        scene=dict(layout="loop", num_cameras=120, num_points=2000, pixel_sigma=0.5,
                   max_cluster_size=62, completeness_ratio=0.7),
        **limits(pos_err_median=0.025, points_active=1900),
    ),
    # 12 small clusters on a dense match graph with 10% outliers: RANSAC-heavy,
    # every BA point on a boundary, 13 of 72 cameras never register
    "city72": Workload(
        scene=dict(layout="cityBlocks", num_cameras=72, num_points=500, pixel_sigma=0.5,
                   outlier_fraction=0.1, max_cluster_size=18),
        **limits(pos_err_median=0.01, points_active=400, registered_frac=0.7),
    ),
    # one 64-camera cluster: LM/Schur dominates; no averaging load, no boundary
    # points, one pool item, few RANSAC hypotheses (the bypass workload). 500
    # points keep a pass near 7-10 s, so a run's median is over several passes
    "grid64-single": Workload(
        scene=dict(layout="grid", num_cameras=64, num_points=500, pixel_sigma=0.5,
                   max_cluster_size=80),
        **limits(pos_err_median=0.015, points_active=450),
    ),
    # a few-second scene that runs the same harness and checks in the tests
    "smoke": Workload(
        scene=dict(layout="grid", num_cameras=25, num_points=300, pixel_sigma=0.5,
                   max_cluster_size=14),
        **limits(pos_err_median=0.015, points_active=250),
    ),
}
