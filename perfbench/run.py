"""Pipeline benchmark for clustersfm.

    python3 perfbench/run.py --workload loop120 --seed 7 --seconds 40 --trace 0

A batch job in a closed loop: one client, one pipeline run at a time, in a
fresh interpreter (job.py) with `workers` fixed to the CPUs this process
may use, so CLUSTERSFM_WORKERS cannot change the load. The job synthesises
the scene once and repeats the reconstruct stages as long as another pass
fits in --seconds (at least one pass); four more set-up-only jobs give
setup_s five samples.

--trace 0 prints the end-to-end metrics: reconstruct_s is the median over
the passes, setup_s the median of the five set-up samples. --trace 1 runs
one untraced and one traced job of one pass each on the same scene, checks
that their artifacts hash equal, and prints the per-layer metrics:
pipeline.* from the untraced job, every other layer from the traced one.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Each pass and each set-up-only job is one
operation. A job that raises, leaves a stage missing or stale, lets the BA
cost rise, misses the workload's accuracy limits, or has a pass whose
artifacts differ from the first pass's fails all its operations. Exits
non-zero without a result if the checkout holds no clustersfm sources or a
job cannot finish in time.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work" / str(os.getpid())
TIME_LIMIT_S = 170.0  # a run must end within 180 s, so jobs past this are killed
SETUP_SAMPLES = 5  # a set-up takes 2-4 s and wanders by about 20% from one to the next

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


class JobTimeout(Exception):
    pass


def run_job(workload: str, seed: int, workers: int, out: Path, deadline: float,
            seconds=0.0, setup_only=False, trace=False) -> dict:
    cmd = [sys.executable, str(HERE / "job.py"), "--workload", workload, "--seed", str(seed),
           "--workers", str(workers), "--out", str(out), "--seconds", str(seconds)]
    cmd += ["--setup-only"] * setup_only + ["--trace"] * trace
    env = {k: v for k, v in os.environ.items() if k != "CLUSTERSFM_WORKERS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    shutil.rmtree(out, ignore_errors=True)
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise JobTimeout(f"{workload} job did not finish in time") from exc
    finally:
        shutil.rmtree(out, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"job exited with {proc.returncode}", "problems": []}
    return json.loads(lines[-1])


def failures(job: dict) -> list[str]:
    return ([job["error"]] if job["error"] else []) + job["problems"]


def operations(job: dict) -> int:
    """Each measured pass of a job is one operation; any other job is one."""
    return len(job.get("reconstruct_s", [None]))


def end_to_end(main: dict, setups: list[float]) -> dict:
    """The median pass and set-up sample; the main job's memory and accuracy."""
    acc = main["accuracy"]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "reconstruct_s": (statistics.median(main["reconstruct_s"]), "s"),
        "peak_rss_mb": (main["rss_mb"], "MiB"),
        "rot_err_mean_deg": (acc["rot_err_mean_deg"], "deg"),
        "epipolar_median_px": (acc["epipolar_median_px"], "px"),
        "ba_rms_px": (acc["ba_rms_px"], "px"),
        "registered_frac": (acc["registered_frac"], "ratio"),
        "points_active": (acc["points_active"], "count"),
        "clusters_ok_frac": (acc["clusters_ok_frac"], "ratio"),
    }


def per_layer(plain: dict, traced: dict) -> dict:
    """pipeline.* from the untraced job, the other layers from the traced one."""
    wall, cpu = plain["stage_s"], plain["stage_cpu_s"]
    out = {f"pipeline.{s}_s": (t, "s") for s, t in wall.items()}
    for s in ("local-sfm", "ba"):
        out[f"pipeline.{s}_cpu_util"] = (cpu[s] / wall[s], "cpu_s/s")
    out.update({k: tuple(v) for k, v in traced["layers"].items()})
    # deterministic, but it spreads too widely across scene seeds for a bound
    out["evaluation.pos_err_median"] = (plain["accuracy"]["pos_err_median"], "gt_units")
    out["tracer.overhead_s"] = (traced["reconstruct_s"][0] - plain["reconstruct_s"][0], "s")
    return out


def differing(a: dict, b: dict) -> list[str]:
    """Artifacts of b whose hash differs from the same artifact of a."""
    return sorted(n for n, h in b["hashes"].items() if a["hashes"].get(n) != h)


def measure(args, deadline: float) -> tuple[list[dict], dict]:
    """Run the jobs of one benchmark run; returns (jobs, metrics)."""
    workers = len(os.sched_getaffinity(0))

    def job(name, **kw):
        return run_job(args.workload, args.seed, workers, WORK / name, deadline, **kw)

    if args.trace:
        plain, traced = job("plain"), job("traced", trace=True)
        if "layers" not in traced or "reconstruct_s" not in plain:
            return [plain, traced], {}
        if differing(plain, traced):
            traced["problems"].append(f"tracing changed artifacts {differing(plain, traced)}")
        return [plain, traced], per_layer(plain, traced)

    main = job("job", seconds=args.seconds)
    if "reconstruct_s" not in main:
        return [main], {}
    setups = [job(f"setup{k}", setup_only=True) for k in range(SETUP_SAMPLES - 1)]
    for s in setups:
        if "hashes" in s and differing(main, s):
            s["problems"].append(f"synth artifacts differ for one seed: {differing(main, s)}")
    samples = [j["setup_s"] for j in [main] + setups if "setup_s" in j]
    return [main] + setups, end_to_end(main, samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "clustersfm" / "pipeline.py").is_file():
        print(f"no clustersfm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        jobs, metrics = measure(args, deadline)
    except JobTimeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    failed = [j for j in jobs if failures(j)]
    for j in failed:
        print(f"failed job: {'; '.join(failures(j))}", file=sys.stderr)
    if not metrics:
        print("error: no job completed, no metrics to report", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not failed,
        "attempted": sum(map(operations, jobs)),
        "failed": sum(map(operations, failed)),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
