"""Command-line interface: simulate, calibrate, estimate, evaluate.

The config file is one JSON document with a section per module.  It is
loaded straight into CliConfig: PipelineConfig's fields (seed, jobs and
the stage sections) plus the simulator and evaluation sections.  Each
section is its module's dataclass, whose field defaults are the config
defaults; any key absent keeps its default and unknown keys are
rejected by dotted path.  All JSON output is printed with floats at
fixed 9-digit precision, so a given config and seed always produce
byte-identical bytes.

Exit codes: 0 success, 1 any other depthcal error, 2 config error,
3 I/O error, 4 no usable frames, 5 frame failed the visibility checks,
6 dataset has no ground truth.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import numbers
import sys
from pathlib import Path

from .calibration import calibrate
from .errors import (
    ConfigError,
    DatasetError,
    DepthcalError,
    InvalidDimensions,
    MissingGroundTruth,
    NoUsableFrames,
)
from .evaluation import (
    EvaluationConfig,
    evaluate_dataset,
    format_report,
    per_frame_csv,
    rotation_error,
    translation_error,
)
from .dataset_io import json_bytes, load_dataset, save_dataset
from .pipeline import PipelineConfig, dataset_source, estimate_frame
from .simulator import SimulatorConfig, default_scenario, generate_dataset


@dataclasses.dataclass
class CliConfig(PipelineConfig):
    """The whole config file: the pipeline settings plus the CLI's own."""

    simulator: SimulatorConfig = dataclasses.field(default_factory=SimulatorConfig)
    evaluation: EvaluationConfig = dataclasses.field(default_factory=EvaluationConfig)


def _json_kind(value) -> str | None:
    """The JSON type a config value has, or None for null and objects."""
    if isinstance(value, bool):
        return "a boolean"
    if isinstance(value, numbers.Integral):
        return "an integer"
    if isinstance(value, numbers.Real):
        return "a number"
    if isinstance(value, str):
        return "a string"
    if isinstance(value, (list, tuple)):
        return "an array"
    return None


def from_dict(cls, data, where: str = ""):
    """Build dataclass cls from a JSON object, rejecting unknown keys.

    A field whose default is a dataclass is a config section and is
    built recursively.  Any other field takes the JSON value as it is,
    once the value has its default's JSON type (an integer also passes
    for a number); a field that defaults to null takes any value.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"config section {where or '(top level)'} must be a JSON object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    values = {}
    for key, value in data.items():
        path = f"{where}.{key}" if where else key
        if key not in fields:
            raise ConfigError(f"unknown config key: {path}")
        section = fields[key].default_factory
        if dataclasses.is_dataclass(section):
            value = from_dict(section, value, path)
        else:
            want, got = _json_kind(fields[key].default), _json_kind(value)
            if want is not None and got != want and (want, got) != ("a number", "an integer"):
                raise ConfigError(f"{path} must be {want}, got {value!r}")
        values[key] = value
    try:
        return cls(**values)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad config value in {where or '(top level)'}: {e}") from e


def load_config(path: str | None) -> CliConfig:
    if path is None:
        return CliConfig()
    text = Path(path).read_text()  # unreadable file is an I/O failure
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    return from_dict(CliConfig, data)


def config_from_args(args) -> CliConfig:
    """The --config file's settings, with the command-line flags applied."""
    cfg = load_config(args.config)
    flags = {"seed": args.seed, "jobs": args.jobs}
    return dataclasses.replace(
        cfg,
        **{k: v for k, v in flags.items() if v is not None},
        icp=dataclasses.replace(cfg.icp, enabled=cfg.icp.enabled and not args.no_icp),
    )


def _emit_json(payload, output: str | None) -> None:
    data = json_bytes(payload)
    if output is None:
        sys.stdout.buffer.write(data)
        sys.stdout.flush()
    else:
        Path(output).write_bytes(data)


def _pose_errors_vs(gt, pose) -> tuple[float, float]:
    return translation_error(gt, pose), math.degrees(rotation_error(gt, pose))


def cmd_simulate(args) -> int:
    cfg = config_from_args(args)
    try:
        scenario = default_scenario(cfg.seed, **dataclasses.asdict(cfg.simulator))
    except (TypeError, ValueError, InvalidDimensions) as e:
        raise ConfigError(f"bad simulator config value: {e}") from e
    dataset = generate_dataset(scenario)
    out = args.output or "dataset"
    save_dataset(dataset, out)
    print(f"wrote {len(dataset.frames)} frames to {out}", file=sys.stderr)
    for w in dataset.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


def cmd_calibrate(args) -> int:
    cfg = config_from_args(args)
    dataset = load_dataset(args.dataset)
    result = calibrate(dataset, cfg)
    _emit_json(result.to_dict(), args.output)
    if dataset.gt_calibration is not None:
        et, er = _pose_errors_vs(dataset.gt_calibration, result.calibration)
        print(
            f"calibration error vs ground truth: et={et:.6e} m er={er:.6e} deg",
            file=sys.stderr,
        )
    print(
        f"used {sum(g.frames_used for g in result.groups)} frames in "
        f"{len(result.groups)} groups, rejected {result.rejected_frames}",
        file=sys.stderr,
    )
    return 0


def cmd_estimate(args) -> int:
    cfg = config_from_args(args)
    dataset = load_dataset(args.dataset)
    if not 0 <= args.frame < len(dataset.frames):
        raise ConfigError(
            f"frame index {args.frame} out of range (dataset has {len(dataset.frames)} frames)"
        )
    fe = estimate_frame(
        dataset.frames[args.frame],
        args.frame,
        dataset.model,
        cfg,
        dataset.gt_calibration,
        dataset_source(dataset, cfg),
    )
    if fe.skipped_reason is not None:
        print(f"frame {args.frame} unusable: {fe.skipped_reason}", file=sys.stderr)
        return 5
    candidates = []
    for m in fe.estimates:
        candidates.append({"method": m.method, "refined": False, "pose": m.pose.to_dict()})
        if m.refined_pose is not None:
            candidates.append(
                {
                    "method": m.method,
                    "refined": True,
                    "pose": m.refined_pose.to_dict(),
                    "icp": {
                        "fitness": m.icp.fitness,
                        "inlier_rmse": m.icp.inlier_rmse,
                        "iterations_used": m.icp.iterations_used,
                        "converged": m.icp.converged,
                    },
                }
            )
    payload = {
        "frame_index": fe.frame_index,
        "config_id": fe.config_id,
        "candidate_count": len(candidates),
        "candidates": candidates,
    }
    _emit_json(payload, args.output)
    methods = ", ".join(m.method for m in fe.estimates)
    print(
        f"frame {args.frame}: {len(candidates)} candidates ({methods})",
        file=sys.stderr,
    )
    return 0


def cmd_evaluate(args) -> int:
    cfg = config_from_args(args)
    dataset = load_dataset(args.dataset)
    report = evaluate_dataset(dataset, cfg, cfg.evaluation.add_thresholds)
    _emit_json(report.to_dict(), args.output)
    table = format_report(report)
    if args.output is None:
        print(table, file=sys.stderr)
    else:
        print(table)
    if cfg.evaluation.write_csv:
        if args.output is None:
            print("write_csv needs --output to name the CSV file", file=sys.stderr)
        else:
            csv_path = Path(args.output).with_suffix(".csv")
            csv_path.write_text(per_frame_csv(report))
            print(f"wrote per-frame rows to {csv_path}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--jobs", type=int, help="worker threads for per-frame stages")
    common.add_argument(
        "--no-icp", action="store_true", dest="no_icp", help="skip ICP refinement"
    )
    common.add_argument("--output", metavar="PATH", help="output file or directory")

    parser = argparse.ArgumentParser(
        prog="depthcal",
        description="Depth-camera extrinsic calibration from end-effector geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common], help="render a synthetic dataset")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("calibrate", parents=[common], help="calibrate from a dataset")
    p.add_argument("dataset", help="dataset directory")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("estimate", parents=[common], help="estimate one frame's pose")
    p.add_argument("dataset", help="dataset directory")
    p.add_argument("--frame", type=int, required=True, help="frame index")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("evaluate", parents=[common], help="score a dataset's estimates")
    p.add_argument("dataset", help="dataset directory")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (DatasetError, OSError) as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3
    except NoUsableFrames as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except MissingGroundTruth as e:
        print(f"error: {e}", file=sys.stderr)
        return 6
    except DepthcalError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
