"""One pipeline job in a fresh interpreter, started by run.py.

    python3 perfbench/job.py --workload loop120 --seed 7 --workers 2 \
        --out DIR [--seconds 40] [--setup-only] [--trace]

Imports clustersfm from the checkout's src/ and runs the synth stage. Then
it runs the reconstruct stages (cluster through ba) once, and again as long
as another pass is expected to end within --seconds of the first pass's
start; each stage is one `run_pipeline` call, timed wall and CPU. Every pass
after the first must write artifacts that hash equal to the first pass's.
Then the evaluate stage runs and the outputs are checked. The job prints
one JSON object as its last line of standard output. With --setup-only it
stops after the synth stage. With --trace the probes of probes.py are in
place while the stages run (not while the outputs are checked) and the
per-layer metrics are added.
"""

import argparse
import csv
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RECONSTRUCT = ("cluster", "tracks", "local-sfm", "average", "triangulate", "ba")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child, in MiB (Linux reports KiB)."""
    kib = max(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


def run_stages(pipeline, config, stages) -> tuple[dict, dict, str | None]:
    """Run stages in order; returns (wall seconds, CPU seconds, error)."""
    wall, cpu = {}, {}
    for stage in stages:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            pipeline.run_pipeline(config, stages=[stage])
        except Exception as exc:  # a failing stage fails the job, it does not end the benchmark
            return wall, cpu, f"{type(exc).__name__}: {exc}"
        wall[stage] = time.perf_counter() - t0
        cpu[stage] = time.process_time() - c0
    return wall, cpu, None


def check(pipeline, out: Path, workload, num_cameras: int) -> tuple[dict, list[str]]:
    """Accuracy metrics of a finished run and the list of gate violations."""
    from clustersfm.io import load_local_reconstructions

    problems = []
    for stage, info in pipeline.stage_status(out).items():
        if not info["present"] or info["stale"]:
            problems.append(f"stage {stage} is {'stale' if info['present'] else 'missing'}")
    with open(out / "ba_rounds.csv") as fh:
        rounds = [(float(r["cost"]), float(r["rms_px"])) for r in csv.DictReader(fh)]
    costs = [c for c, _ in rounds]
    if any(b > a for a, b in zip(costs, costs[1:])):
        problems.append(f"ba_rounds.csv cost increases: {costs}")
    report = json.loads((out / "report.json").read_text())
    recs = load_local_reconstructions(out / "local_reconstructions.json")
    accuracy = {
        "pos_err_median": report["medianPositionError"],
        "rot_err_mean_deg": report["meanRelRotationErrorDeg"],
        "epipolar_median_px": report["medianEpipolarErrorPx"],
        "ba_rms_px": rounds[-1][1],
        "registered_frac": report["numRegistered"] / num_cameras,
        "points_active": report["numPoints"],
        "clusters_ok_frac": 1.0 - sum(r.failed for r in recs) / len(recs),
    }
    for name, limit in workload.at_most.items():
        if not accuracy[name] <= limit:
            problems.append(f"{name} {accuracy[name]:.6g} above {limit}")
    for name, limit in workload.at_least.items():
        if not accuracy[name] >= limit:
            problems.append(f"{name} {accuracy[name]:.6g} below {limit}")
    return accuracy, problems


def run_passes(pipeline, config, out: Path, seconds: float, clock=time.perf_counter):
    """Run the reconstruct stages at least once, and again while the last
    pass's duration still fits in `seconds` from the start of the first.
    Returns (per-pass wall seconds, per-pass CPU seconds, error, problems)."""
    walls, cpus, problems, first = [], [], [], None
    start = last = clock()
    while True:
        wall, cpu, error = run_stages(pipeline, config, RECONSTRUCT)
        if error is not None:
            return walls, cpus, error, problems
        walls.append(wall)
        cpus.append(cpu)
        hashes = {n: sha256(out / n) for s in RECONSTRUCT for n in pipeline.ARTIFACTS[s]}
        first = first or hashes
        changed = sorted(n for n, h in hashes.items() if first[n] != h)
        if changed:
            problems.append(f"pass {len(walls)} changed artifacts {changed}")
        now = clock()
        if now - start + (now - last) > seconds:
            return walls, cpus, None, problems
        last = now


def median_by_stage(passes: list[dict]) -> dict:
    return {s: statistics.median(p[s] for p in passes) for s in passes[0]}


def run_job(pipeline, config, out: Path, args) -> dict:
    """Synth, then unless args.setup_only the reconstruct passes and
    evaluate; returns the job's timings, pass problems and artifact hashes."""
    wall, cpu, error = run_stages(pipeline, config, ("synth",))
    if error is not None:
        return {"error": error, "problems": []}
    result = {"error": None, "problems": [], "setup_s": wall["synth"]}
    stages = ("synth",)
    if not args.setup_only:
        walls, cpus, error, result["problems"] = run_passes(pipeline, config, out, args.seconds)
        if error is None:
            wall.update(median_by_stage(walls))
            cpu.update(median_by_stage(cpus))
            evaluate_wall, evaluate_cpu, error = run_stages(pipeline, config, ("evaluate",))
            wall.update(evaluate_wall)
            cpu.update(evaluate_cpu)
        if error is not None:
            return dict(result, error=error)
        result["reconstruct_s"] = [sum(w.values()) for w in walls]
        stages = pipeline.STAGES
    result["hashes"] = {n: sha256(out / n) for s in stages for n in pipeline.ARTIFACTS[s]}
    result["stage_s"] = wall
    result["stage_cpu_s"] = cpu
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    from clustersfm import pipeline
    import_s = time.perf_counter() - t0

    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    out = Path(args.out)
    config = pipeline.PipelineConfig(
        output_dir=str(out), seed=args.seed, workers=args.workers, **workload.scene)

    if args.trace:
        from probes import install, layer_metrics
        from tracer import Tracer

        with Tracer() as tracer:
            install(tracer)
            result = run_job(pipeline, config, out, args)
        if "reconstruct_s" in result:
            result["layers"] = layer_metrics(tracer)
    else:
        result = run_job(pipeline, config, out, args)
    if "reconstruct_s" in result:  # checked outside the traced region
        result["accuracy"], problems = check(pipeline, out, workload, config.num_cameras)
        result["problems"] += problems
    if "setup_s" in result:
        result["setup_s"] += import_s
    result["rss_mb"] = peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
