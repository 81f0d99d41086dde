"""Check that a change keeps every artifact byte-identical to a revision.

    python3 tools/identity.py --against REV

The tool extracts `src/` of git revision REV into `.bench_work/identity/`,
then runs the pipeline on each scene from that tree and from this
checkout's `src/`, each in a fresh interpreter at OPENBLAS_NUM_THREADS=1
and seed 7. The scenes are the benchmark workloads of
`perfbench/workloads.py`: smoke (the CI scene), loop120, grid64-single and
city72.

It prints one line per scene: `identical`, or the artifacts whose bytes
differ and those that only one side wrote. `manifest.json` holds run
times and is never compared. The exit status is 1 when any scene
differs or any run fails, else 0.
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


def report(scene: str, dir_a, dir_b) -> int:
    """Print the line of one scene whose runs wrote dir_a and dir_b;
    returns 0 when their artifacts are identical, else 1."""
    differing, missing = compare(dir_a, dir_b)
    parts = []
    if differing:
        parts.append(f"differ: {', '.join(differing)}")
    if missing:
        parts.append(f"missing: {', '.join(missing)}")
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


def run_scene(tree: Path, scene: dict, out: Path) -> int:
    """Run every stage of scene with tree's clustersfm into out (emptied
    first); the log goes beside out. Returns the exit status."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    config = out.parent / f"{out.name}.config.json"
    config.write_text(json.dumps(dict(scene, seed=SEED)))
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
    for name in SCENES:
        outs = {side: WORK / side / name for side in ("reference", "checkout")}
        codes = {side: run_scene(tree, WORKLOADS[name].scene, outs[side])
                 for side, tree in (("reference", reference), ("checkout", ROOT))}
        if any(codes.values()):
            print(f"{name}: run failed (exit {codes['reference']} at {args.against}, "
                  f"{codes['checkout']} in the checkout)", flush=True)
            status = 1
        else:
            status |= report(name, outs["reference"], outs["checkout"])
    return status


if __name__ == "__main__":
    sys.exit(main())
