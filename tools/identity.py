"""Check that a change keeps every artifact byte-identical to a revision.

    python3 tools/identity.py --against REV

The tool extracts `src/` of git revision REV into `.bench_work/identity/`,
then runs the pipeline on each scene from that tree at 1 worker and from
this checkout's `src/` at 1 and at 2 workers, each in a fresh interpreter
at OPENBLAS_NUM_THREADS=1 and seed 7. The scenes are the benchmark
workloads of `perfbench/workloads.py`: smoke (the CI scene), loop120,
grid64-single and city72.

It prints one line per scene: `identical`, or the artifacts of the
checkout's 1-worker run whose bytes differ from REV's and those that only
one side wrote, then the same for the checkout's 2-worker run against its
1-worker run, marked `at 2 workers`. `manifest.json` holds run times and
is never compared. The exit status is 1 when any scene differs or any run
fails, else 0.
"""

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work" / "identity"
SCENES = ("smoke", "loop120", "grid64-single", "city72")
SEED = 7
NOT_COMPARED = {"manifest.json"}


def compare(dir_a, dir_b) -> tuple[list[str], list[str]]:
    """The artifact names whose bytes differ between two output
    directories, and those that only one of them holds, each sorted."""
    names_a = {p.name for p in Path(dir_a).iterdir() if p.is_file()} - NOT_COMPARED
    names_b = {p.name for p in Path(dir_b).iterdir() if p.is_file()} - NOT_COMPARED
    differing = [n for n in sorted(names_a & names_b)
                 if (Path(dir_a) / n).read_bytes() != (Path(dir_b) / n).read_bytes()]
    return differing, sorted(names_a ^ names_b)


def differences(dir_a, dir_b, suffix: str = "") -> list[str]:
    """The `differ` and `missing` parts of a scene's line for two output
    directories, each label followed by suffix; empty when they match."""
    return [f"{label}{suffix}: {', '.join(names)}"
            for label, names in zip(("differ", "missing"), compare(dir_a, dir_b)) if names]


def report(scene: str, reference, checkout, checkout_2) -> int:
    """Print the line of one scene whose reference run wrote reference and
    whose checkout runs at 1 and 2 workers wrote checkout and checkout_2;
    returns 0 when all three hold the same artifacts, else 1."""
    parts = differences(reference, checkout) + differences(checkout, checkout_2, " at 2 workers")
    print(f"{scene}: {'; '.join(parts) or 'identical'}", flush=True)
    return 1 if parts else 0


def extract(rev: str) -> Path:
    """`src/` of revision rev, extracted under WORK; returns the tree's root."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                             check=True, capture_output=True).stdout
    tree = WORK / f"rev-{rev.replace('/', '_')}"
    shutil.rmtree(tree, ignore_errors=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree, filter="data")
    return tree


def run_scene(tree: Path, scene: dict, workers: int, out: Path) -> int:
    """Run every stage of scene with tree's clustersfm at workers workers
    into out (emptied first); the log goes beside out. Returns the exit
    status."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    config = out.parent / f"{out.name}.config.json"
    config.write_text(json.dumps(dict(scene, seed=SEED, workers=workers)))
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    with open(out.parent / f"{out.name}.log", "w") as log:
        return subprocess.run([sys.executable, "-m", "clustersfm.cli", "run", "--config", str(config),
                               "--output-dir", str(out)], env=env, stdout=log, stderr=log).returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, metavar="REV", help="git revision whose src/ is the reference")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    reference = extract(args.against)
    status = 0
    runs = (("reference", reference, 1), ("checkout", ROOT, 1), ("checkout-2", ROOT, 2))
    for name in SCENES:
        outs = {side: WORK / side / name for side, _, _ in runs}
        codes = {side: run_scene(tree, WORKLOADS[name].scene, workers, outs[side]) for side, tree, workers in runs}
        if any(codes.values()):
            print(f"{name}: run failed (exit {codes['reference']} at {args.against}, {codes['checkout']} in the "
                  f"checkout, {codes['checkout-2']} in the checkout at 2 workers)", flush=True)
            status = 1
        else:
            status |= report(name, *outs.values())
    return status


if __name__ == "__main__":
    sys.exit(main())
