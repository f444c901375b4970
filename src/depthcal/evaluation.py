"""Pose-error metrics and dataset-level evaluation reports.

Per-frame errors (translation, rotation, average point distance) are
computed for every method estimate with and without ICP refinement,
summarized per method variant, and paired with the error of the final
calibration against the dataset's true camera pose.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .calibration import calibration_from_estimates
from .errors import ConfigError, EmptyCloud, MissingGroundTruth
from .geometry import PointCloud, Pose, compose, rotation_distance
from .pipeline import PipelineConfig, estimate_frames

DEFAULT_ADD_THRESHOLDS = (0.005, 0.01, 0.02, 0.03, 0.05)


@dataclass
class EvaluationConfig:
    """The `evaluation` config section: report settings of the CLI."""

    add_thresholds: tuple[float, ...] = DEFAULT_ADD_THRESHOLDS
    # also write the per-frame rows as CSV next to the --output report
    write_csv: bool = False

    def __post_init__(self):
        # a JSON array arrives as a list
        self.add_thresholds = tuple(self.add_thresholds)
        for t in self.add_thresholds:
            if isinstance(t, bool) or not isinstance(t, numbers.Real) or not 0 < t < math.inf:
                raise ConfigError(f"add_thresholds must be finite positive numbers, got {t!r}")


def translation_error(gt: Pose, pred: Pose) -> float:
    """Euclidean distance between the two translations."""
    return float(np.linalg.norm(gt.translation - pred.translation))


def rotation_error(gt: Pose, pred: Pose) -> float:
    """Minimum rotation angle (radians) taking pred to gt."""
    return rotation_distance(gt.rotation, pred.rotation)


def add_metric(cloud, gt: Pose, pred: Pose) -> float:
    """Average distance between model points under the two poses."""
    pts = cloud.points if isinstance(cloud, PointCloud) else np.asarray(cloud, dtype=float)
    if len(pts) == 0:
        raise EmptyCloud("average point distance needs at least one model point")
    return float(np.mean(np.linalg.norm(gt.apply(pts) - pred.apply(pts), axis=1)))


@dataclass
class PoseErrorReport:
    """Errors of one method estimate on one frame."""

    frame_index: int
    config_id: int
    method: str
    refined: bool
    translation_error: float
    rotation_error: float  # radians; serialized in degrees
    add: float

    def to_dict(self) -> dict:
        return {
            "frame_index": self.frame_index,
            "config_id": self.config_id,
            "method": self.method,
            "refined": self.refined,
            "translation_error_m": self.translation_error,
            "rotation_error_deg": math.degrees(self.rotation_error),
            "add_m": self.add,
        }


@dataclass
class MethodStats:
    """Mean and spread of the per-frame errors for one method variant."""

    method: str
    refined: bool
    count: int
    translation_mean_m: float
    translation_std_m: float
    rotation_mean_deg: float
    rotation_std_deg: float
    add_mean_m: float
    add_std_m: float
    # threshold (m) -> fraction of frames with ADD within it
    add_accuracy: dict[float, float]

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "refined": self.refined,
            "count": self.count,
            "translation_mean_m": self.translation_mean_m,
            "translation_std_m": self.translation_std_m,
            "rotation_mean_deg": self.rotation_mean_deg,
            "rotation_std_deg": self.rotation_std_deg,
            "add_mean_m": self.add_mean_m,
            "add_std_m": self.add_std_m,
            "add_accuracy": {f"{t:g}": v for t, v in self.add_accuracy.items()},
        }


@dataclass
class EvaluationReport:
    rows: list[MethodStats]
    frames: list[PoseErrorReport]
    calibration: dict[str, dict[str, float]]
    skipped_frames: int
    add_thresholds: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "summary": [r.to_dict() for r in self.rows],
            "calibration": self.calibration,
            "skipped_frames": self.skipped_frames,
            "add_thresholds": list(self.add_thresholds),
            "frames": [f.to_dict() for f in self.frames],
        }


def evaluate_dataset(
    dataset,
    cfg: PipelineConfig | None = None,
    add_thresholds: tuple[float, ...] = DEFAULT_ADD_THRESHOLDS,
) -> EvaluationReport:
    """Score every usable frame of a dataset against its ground truth.

    One estimation pass feeds everything: per-frame errors for each
    method with and without refinement, the per-variant summaries, and
    the final-calibration errors for both refinement settings.  With
    ICP disabled only the raw variants appear.
    """
    cfg = cfg or PipelineConfig()
    if dataset.gt_calibration is None:
        raise MissingGroundTruth("evaluation needs the dataset's true calibration")

    estimates = estimate_frames(dataset, cfg)
    model_pts = dataset.model.surface_cloud.points

    frames: list[PoseErrorReport] = []
    skipped = 0
    for fe in estimates:
        if not fe.usable:
            skipped += 1
            continue
        true_pose = compose(dataset.gt_calibration, fe.t_b_ee)
        for m in fe.estimates:
            variants = [(False, m.pose)]
            if m.refined_pose is not None:
                variants.append((True, m.refined_pose))
            for refined, pose in variants:
                frames.append(
                    PoseErrorReport(
                        frame_index=fe.frame_index,
                        config_id=fe.config_id,
                        method=m.method,
                        refined=refined,
                        translation_error=translation_error(true_pose, pose),
                        rotation_error=rotation_error(true_pose, pose),
                        add=add_metric(model_pts, true_pose, pose),
                    )
                )

    rows: list[MethodStats] = []
    for method in sorted({f.method for f in frames}):
        for refined in (False, True):
            sel = [f for f in frames if f.method == method and f.refined == refined]
            if not sel:
                continue
            et = np.array([f.translation_error for f in sel])
            er = np.degrees([f.rotation_error for f in sel])
            ad = np.array([f.add for f in sel])
            rows.append(
                MethodStats(
                    method=method,
                    refined=refined,
                    count=len(sel),
                    translation_mean_m=float(et.mean()),
                    translation_std_m=float(et.std()),
                    rotation_mean_deg=float(er.mean()),
                    rotation_std_deg=float(er.std()),
                    add_mean_m=float(ad.mean()),
                    add_std_m=float(ad.std()),
                    add_accuracy={t: float((ad <= t).mean()) for t in add_thresholds},
                )
            )

    calibration: dict[str, dict[str, float]] = {}
    variants = [("with_icp", True)] if cfg.icp.enabled else []
    variants.append(("without_icp", False))
    for name, use in variants:
        res = calibration_from_estimates(estimates, cfg.calibration, use_icp=use)
        calibration[name] = {
            "translation_error_m": translation_error(dataset.gt_calibration, res.calibration),
            "rotation_error_deg": math.degrees(
                rotation_error(dataset.gt_calibration, res.calibration)
            ),
        }

    return EvaluationReport(
        rows=rows,
        frames=frames,
        calibration=calibration,
        skipped_frames=skipped,
        add_thresholds=tuple(add_thresholds),
    )


def format_report(report: EvaluationReport) -> str:
    """Aligned plain-text rendering of an evaluation report."""
    out = []
    out.append(
        f"{'method':<8}{'variant':<9}{'frames':>6}  "
        f"{'t err cm':>17}  {'rot err deg':>17}  {'ADD cm':>17}"
    )
    for r in report.rows:
        variant = "icp" if r.refined else "raw"
        out.append(
            f"{r.method:<8}{variant:<9}{r.count:>6}  "
            f"{100 * r.translation_mean_m:8.3f} +-{100 * r.translation_std_m:6.3f}  "
            f"{r.rotation_mean_deg:8.3f} +-{r.rotation_std_deg:6.3f}  "
            f"{100 * r.add_mean_m:8.3f} +-{100 * r.add_std_m:6.3f}"
        )
    out.append("")
    out.append("fraction of frames within ADD threshold:")
    header = "  ".join(f"{100 * t:>6.1f}cm" for t in report.add_thresholds)
    out.append(f"{'method':<8}{'variant':<9}{header}")
    for r in report.rows:
        variant = "icp" if r.refined else "raw"
        accs = "  ".join(f"{r.add_accuracy[t]:>8.3f}" for t in report.add_thresholds)
        out.append(f"{r.method:<8}{variant:<9}{accs}")
    out.append("")
    out.append("final calibration error vs ground truth:")
    for name, err in report.calibration.items():
        out.append(
            f"  {name.replace('_', ' '):<12} "
            f"et {100 * err['translation_error_m']:9.4f} cm   "
            f"er {err['rotation_error_deg']:9.4f} deg"
        )
    out.append(f"skipped frames: {report.skipped_frames}")
    return "\n".join(out)


def per_frame_csv(report: EvaluationReport) -> str:
    """Per-frame error rows as CSV text."""
    buf = io.StringIO()
    fields = [
        "frame_index",
        "config_id",
        "method",
        "refined",
        "translation_error_m",
        "rotation_error_deg",
        "add_m",
    ]
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for f in report.frames:
        writer.writerow(f.to_dict())
    return buf.getvalue()
