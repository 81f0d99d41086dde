"""Command-line entry point wiring the pipeline stages.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.
"""

import argparse
import dataclasses
import logging
import sys

from .errors import ConfigurationError, DataError, NumericalError
from .pipeline import STAGES, PipelineConfig, run_pipeline, stage_status
from .utils import WORKERS_ENV_VAR

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _add_common(parser):
    parser.add_argument("--output-dir", default="out", help="artifact directory")
    parser.add_argument("--config", default=None, help="JSON or TOML config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--workers", type=int, default=None,
        help=(f"worker count (default: ${WORKERS_ENV_VAR} or CPU count); "
              "the stages run on one thread, so it changes nothing yet"),
    )
    parser.add_argument("--verbose", action="store_true")


def _add_synth(parser):
    parser.add_argument("--layout", default=None, choices=["grid", "orbit", "loop", "cityBlocks"])
    parser.add_argument("--cameras", type=int, default=None, dest="num_cameras")
    parser.add_argument("--points", type=int, default=None, dest="num_points")
    parser.add_argument("--pixel-sigma", type=float, default=None)
    parser.add_argument("--outlier-fraction", type=float, default=None)


def _add_cluster(parser):
    parser.add_argument("--max-cluster-size", type=int, default=None)
    parser.add_argument("--completeness-ratio", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clustersfm",
        description="Cluster-parallel structure from motion pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in STAGES + ("run",):
        p = sub.add_parser(name, help=f"run the {name} stage" if name != "run" else "run all stages")
        _add_common(p)
        if name in ("synth", "run"):
            _add_synth(p)
        if name in ("cluster", "run"):
            _add_cluster(p)
        if name == "run":
            p.add_argument("--resume", action="store_true", help="skip fresh stages")
            p.add_argument("--stages", default=None, help="comma-separated stage subset")
    status = sub.add_parser("status", help="report per-stage artifact status")
    status.add_argument("--output-dir", default="out")
    return parser


# each flag's dest is a PipelineConfig field; an unset flag leaves the field to the config file
_CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(PipelineConfig))


def _config_from_args(args) -> PipelineConfig:
    overrides = {}
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    if args.config:
        return PipelineConfig.from_file(args.config, overrides)
    return PipelineConfig.from_dict(overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if getattr(args, "verbose", False) else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "status":
            for stage, info in stage_status(args.output_dir).items():
                state = "fresh" if info["present"] and not info["stale"] else (
                    "stale" if info["present"] else "absent"
                )
                print(f"{stage:12s} {state}")
            return 0
        config = _config_from_args(args)
        if args.command == "run":
            stages = args.stages.split(",") if args.stages else None
            run_pipeline(config, stages=stages, resume=args.resume)
        else:
            run_pipeline(config, stages=[args.command])
        return 0
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
