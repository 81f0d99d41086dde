"""The benchmark end to end on the smoke scene, and the gate that fails a job.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import job  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", "smoke",
         "--seed", "7", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_end_to_end_metrics_match_the_spec():
    res = result_of(bench("--trace", "0"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] >= 5  # at least one pass plus four set-up-only jobs
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_run_reports_every_layer_and_matches_untraced_artifacts():
    res = result_of(bench("--trace", "1"))
    assert res["correct"], "traced and untraced artifacts must hash equal"
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == spec
    assert metrics["clustering.clusters"] == 4
    assert metrics["utils.parallel_items"] >= metrics["clustering.clusters"]
    assert metrics["ba_core.lm_self_s"] < metrics["ba_core.lm_s"]
    assert metrics["global_ba.consensus_s"] < metrics["global_ba.bundle_adjust_s"]
    assert metrics["geometry.ransac_hypotheses"] >= metrics["geometry.ransac_calls"] > 0
    assert 0 < metrics["geometry.ransac_inlier_ratio"] <= 1
    assert metrics["io.bytes_written"] > metrics["io.matches_bytes"] > 0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    from clustersfm import pipeline

    out = tmp_path_factory.mktemp("smoke")
    config = pipeline.PipelineConfig(output_dir=str(out), seed=7, workers=2,
                                     **WORKLOADS["smoke"].scene)
    _, _, error = job.run_stages(pipeline, config, pipeline.STAGES)
    assert error is None
    return pipeline, out, config


def test_gate_passes_a_good_run(smoke_run):
    pipeline, out, config = smoke_run
    accuracy, problems = job.check(pipeline, out, WORKLOADS["smoke"], config.num_cameras)
    assert problems == []
    assert accuracy["registered_frac"] == 1.0


def test_gate_flags_accuracy_outside_tolerance(smoke_run):
    pipeline, out, config = smoke_run
    strict = Workload(scene={}, at_most={"pos_err_median": 0.0},
                      at_least={"points_active": 10**6})
    _, problems = job.check(pipeline, out, strict, config.num_cameras)
    assert len(problems) == 2


def test_gate_flags_rising_cost_and_stale_stages(tmp_path, smoke_run):
    pipeline, out, config = smoke_run
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    with open(copy / "ba_rounds.csv", "a") as fh:
        fh.write("99,1e12,9.0\n")
    (copy / "tracks.json").unlink()
    _, problems = job.check(pipeline, copy, WORKLOADS["smoke"], config.num_cameras)
    assert any("cost increases" in p for p in problems)
    assert any("stage tracks is missing" in p for p in problems)
    assert any("stale" in p for p in problems)  # local-sfm read the vanished tracks.json


def test_passes_repeat_while_another_fits_and_write_equal_artifacts(tmp_path, smoke_run):
    pipeline, out, config = smoke_run
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    ticks = iter(range(0, 1000, 10))  # each pass takes 10 s on this clock
    config = dataclasses.replace(config, output_dir=str(copy))
    walls, cpus, error, problems = job.run_passes(
        pipeline, config, copy, seconds=25, clock=lambda: next(ticks))
    assert error is None and problems == []
    assert len(walls) == len(cpus) == 2  # a third pass would end at 30 s
    assert set(walls[0]) == set(job.RECONSTRUCT)
