"""Where the tracer hooks into clustersfm, and the per-layer metrics it
derives from the spans and counters.

Every probe wraps a public function under the name by which its caller
looks it up, so nothing under src/ changes: ``pipeline.cluster_cameras``,
``local_sfm.ransac``, ``global_ba.parallel_map``, ``ba_core.lm_minimize``
(called as ``ba_core.lm_minimize`` by local_sfm and global_ba) and so on.
"""

import os
from collections import Counter

from clustersfm import averaging, ba_core, clustering, global_ba, local_sfm, pipeline
from clustersfm import io as sfm_io


class CountingRng:
    """Delegates to a numpy Generator and counts ``choice`` draws, which is
    one RANSAC hypothesis each. The stream of random numbers is unchanged."""

    def __init__(self, rng, on_draw):
        self._rng = rng
        self._on_draw = on_draw

    def choice(self, *args, **kwargs):
        self._on_draw()
        return self._rng.choice(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _ransac(tr, call, args, kwargs):
    # ransac(num_data, min_samples, fit_fn, residual_fn, threshold, rng, ...)
    def draw():
        tr.count("ransac_hypotheses")

    args = list(args)
    if len(args) > 5:
        args[5] = CountingRng(args[5], draw)
    else:
        kwargs = dict(kwargs, rng=CountingRng(kwargs["rng"], draw))
    model, mask = call(*args, **kwargs)
    tr.count("ransac_offered", args[0])
    if model is None:
        tr.count("ransac_failed")
    else:
        tr.count("ransac_inliers", int(mask.sum()))
    return model, mask


def _parallel_map(tr, call, args, kwargs):
    fn, items, *rest = args
    items = list(items)
    tr.count("parallel_items", len(items))
    return call(tr.bind(fn), items, *rest, **kwargs)


def _counting(measure):
    """Hook adding measure(result, args), a {counter: amount} dict, to the counters."""
    def hook(tr, call, args, kwargs):
        result = call(*args, **kwargs)
        for name, amount in measure(result, args).items():
            tr.count(name, amount)
        return result

    return hook


def _save(tr, call, args, kwargs):
    # save_ply_cameras calls save_ply_points: a gauge per path counts each file once
    result = call(*args, **kwargs)
    path = str(args[0] if args else kwargs["path"])
    tr.gauge(f"written:{path}", os.path.getsize(path))
    return result


def install(tr) -> None:
    """Put every probe in place on the clustersfm modules."""
    tr.wrap(pipeline, "cluster_cameras", "clustering.cluster_cameras",
            hook=_counting(lambda cs, a: {"clusters": len(cs.interdependent)}))
    tr.wrap(clustering, "bisect_normalized_cut", "ncut_calls", span=False)
    tr.wrap(pipeline, "generate_tracks", "tracks.generate_tracks",
            hook=_counting(lambda t, a: {"tracks": len(t)}))

    tr.wrap(pipeline, "run_local_sfm", "local_sfm.run_local_sfm",
            hook=_counting(lambda rec, a: {
                "registered": len(rec.registered), "clusters_failed": int(rec.failed)}))
    tr.wrap(pipeline, "extract_relative_motions", "extract_relative_motions", span=False,
            hook=_counting(lambda m, a: {"relative_motions": len(m)}))
    tr.wrap(local_sfm, "ransac", "geometry.ransac", hook=_ransac)
    for module in (local_sfm, global_ba):
        tr.wrap(module, "triangulate_linear", "triangulate_linear_calls", span=False)
    tr.wrap(averaging, "so3_log", "so3_log_calls", span=False)

    tr.wrap(ba_core, "lm_minimize", "ba_core.lm_minimize",
            hook=_counting(lambda r, a: {"lm_iterations": r.iterations,
                                         "lm_converged": int(r.converged)}))
    tr.wrap(ba_core, "jacobian_blocks", "ba_core.jacobian_blocks")
    tr.wrap(ba_core, "residuals", "ba_core.residuals")

    tr.wrap(pipeline, "rotation_averaging", "averaging.rotation_averaging",
            hook=_counting(lambda r, a: {"rotation_iterations": r.iterations}))
    tr.wrap(pipeline, "solve_translation_l1", "averaging.solve_translation_l1",
            hook=_counting(lambda g, a: {"translation_iterations": g.iterations}))

    tr.wrap(pipeline, "triangulate_global", "global_ba.triangulate_global",
            hook=_counting(lambda pts, a: Counter(f"status.{p.status}" for p in pts)))
    tr.wrap(pipeline, "build_partitions", "global_ba.build_partitions",
            hook=_counting(lambda parts, a: {"boundary_points": (
                sum(p.active for p in a[0]) - sum(len(p.interior_points) for p in parts))}))
    tr.wrap(pipeline, "distributed_bundle_adjust", "global_ba.distributed_bundle_adjust",
            hook=_counting(lambda out, a: {"ba_rounds": len(out[2]) - 1}))
    tr.wrap(global_ba, "parallel_map", "global_ba.parallel_map", hook=_parallel_map)
    tr.wrap(pipeline, "parallel_map", "pipeline.parallel_map", hook=_parallel_map)

    for attr in sorted(vars(sfm_io)):
        if attr.startswith("load_"):
            tr.wrap(sfm_io, attr, "io.load")
        elif attr.startswith("save_"):
            tr.wrap(sfm_io, attr, "io.save", hook=_save)
    tr.wrap(sfm_io, "file_hash", "io.file_hash")


def layer_metrics(tr) -> dict:
    """Per-layer metrics as {name: (value, unit)}."""
    c = tr.counters
    local = tr.named("local_sfm.run_local_sfm")
    ransac_calls = len(tr.named("geometry.ransac"))
    lm_calls = len(tr.named("ba_core.lm_minimize"))
    offered = c["ransac_offered"]
    written = {k: v for k, v in tr.gauges.items() if k.startswith("written:")}
    return {
        "clustering.cluster_cameras_s": (tr.busy("clustering.cluster_cameras"), "s"),
        "clustering.ncut_calls": (c["ncut_calls"], "count"),
        "clustering.clusters": (c["clusters"], "count"),
        "tracks.generate_tracks_s": (tr.busy("tracks.generate_tracks"), "s"),
        "tracks.tracks": (c["tracks"], "count"),
        "local_sfm.run_local_sfm_s": (tr.busy("local_sfm.run_local_sfm"), "s"),
        "local_sfm.cluster_s_max": (max((s.duration for s in local), default=0.0), "s"),
        "local_sfm.registered": (c["registered"], "count"),
        "local_sfm.clusters_failed": (c["clusters_failed"], "count"),
        "local_sfm.relative_motions": (c["relative_motions"], "count"),
        "geometry.ransac_s": (tr.busy("geometry.ransac"), "s"),
        "geometry.ransac_calls": (ransac_calls, "count"),
        "geometry.ransac_hypotheses": (c["ransac_hypotheses"], "count"),
        "geometry.ransac_inlier_ratio": (c["ransac_inliers"] / offered if offered else 0.0, "ratio"),
        "geometry.ransac_failed": (c["ransac_failed"], "count"),
        "geometry.triangulate_linear_calls": (c["triangulate_linear_calls"], "count"),
        "geometry.so3_log_calls": (c["so3_log_calls"], "count"),
        "ba_core.lm_s": (tr.busy("ba_core.lm_minimize"), "s"),
        "ba_core.lm_calls": (lm_calls, "count"),
        "ba_core.lm_iterations": (c["lm_iterations"], "count"),
        "ba_core.lm_converged_ratio": (c["lm_converged"] / lm_calls if lm_calls else 0.0, "ratio"),
        "ba_core.jacobian_s": (tr.busy("ba_core.jacobian_blocks"), "s"),
        "ba_core.residuals_s": (tr.busy("ba_core.residuals"), "s"),
        "ba_core.lm_self_s": (tr.self_time("ba_core.lm_minimize"), "s"),
        "averaging.rotation_s": (tr.busy("averaging.rotation_averaging"), "s"),
        "averaging.rotation_iterations": (c["rotation_iterations"], "count"),
        "averaging.translation_s": (tr.busy("averaging.solve_translation_l1"), "s"),
        "averaging.translation_iterations": (c["translation_iterations"], "count"),
        "global_ba.triangulate_s": (tr.busy("global_ba.triangulate_global"), "s"),
        "global_ba.points_active": (c["status.active"], "count"),
        "global_ba.rejected_too_few_views": (c["status.too_few_views"], "count"),
        "global_ba.rejected_cheirality": (c["status.cheirality"], "count"),
        "global_ba.rejected_reprojection": (c["status.reprojection"], "count"),
        "global_ba.bundle_adjust_s": (tr.busy("global_ba.distributed_bundle_adjust"), "s"),
        "global_ba.partition_solve_s": (tr.busy("global_ba.parallel_map"), "s"),
        "global_ba.consensus_s": (tr.self_time("global_ba.distributed_bundle_adjust"), "s"),
        "global_ba.boundary_points": (c["boundary_points"], "count"),
        "global_ba.rounds": (c["ba_rounds"], "count"),
        "io.load_s": (tr.busy("io.load"), "s"),
        "io.save_s": (tr.busy("io.save"), "s"),
        "io.hash_s": (tr.busy("io.file_hash"), "s"),
        "io.loads": (len(tr.named("io.load")), "count"),
        "io.bytes_written": (sum(written.values()), "bytes"),
        "io.matches_bytes": (sum(v for k, v in written.items() if k.endswith("matches.json")), "bytes"),
        "utils.parallel_map_s": (tr.busy("global_ba.parallel_map", "pipeline.parallel_map"), "s"),
        "utils.parallel_items": (c["parallel_items"], "count"),
    }
