"""Multi-frame camera-to-base calibration.

Each usable frame yields one camera-to-base transform per estimation
method (the camera-frame EE pose combined with the forward-kinematic
base-frame EE pose).  Estimates are grouped by robot configuration,
cleaned per group with MAD outlier rejection, averaged, and the group
means are aggregated the same way into the final calibration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, EmptyInput, NoUsableFrames
from .geometry import (
    PointCloud,
    Pose,
    Quaternion,
    compose,
    invert,
    quaternion_average,
    rotation_distance,
)

MAD_SCALE = 0.6745  # normal-consistency constant of the modified Z-score
# below this MAD a sample is treated as constant, and any deviation beyond
# it is an outlier
MAD_ZERO_EPSILON = 1e-6


@dataclass
class CalibrationConfig:
    """The `calibration` config section: frame sanity check and MAD screening."""

    # minimum visibility a frame must offer to be worth estimating
    min_ee_points: int = 300
    min_bbox_diagonal: float = 0.04
    modified_zscore_threshold: float = 3.5

    def __post_init__(self):
        if self.min_ee_points <= 0 or self.min_bbox_diagonal <= 0:
            raise ConfigError("sanity thresholds must be positive")
        if self.modified_zscore_threshold <= 0:
            raise ConfigError("modified_zscore_threshold must be positive")


@dataclass
class SanityCheck:
    passed: bool
    reason: str | None = None


def sanity_check(ee_cloud: PointCloud, cfg: CalibrationConfig | None = None) -> SanityCheck:
    """Reject frames where too little of the end effector is visible."""
    cfg = cfg or CalibrationConfig()
    n = len(ee_cloud)
    if n < cfg.min_ee_points:
        return SanityCheck(False, f"too few end-effector points: {n} < {cfg.min_ee_points}")
    diag = float(np.linalg.norm(ee_cloud.points.max(axis=0) - ee_cloud.points.min(axis=0)))
    if diag < cfg.min_bbox_diagonal:
        return SanityCheck(
            False,
            f"end-effector bounding box too small: {diag:.4f} m < {cfg.min_bbox_diagonal} m",
        )
    return SanityCheck(True)


def frame_calibration(t_c_ee: Pose, t_b_ee: Pose) -> Pose:
    """Camera-to-base transform from one frame's two EE poses."""
    return compose(t_c_ee, invert(t_b_ee))


def mad_outlier_mask(values, cfg: CalibrationConfig | None = None) -> np.ndarray:
    """Modified Z-score outliers (True = outlier).

    M_i = 0.6745 (x_i - median) / MAD; |M_i| above the threshold flags
    the value.  When the MAD collapses below MAD_ZERO_EPSILON the sample
    is essentially constant and any deviation beyond the epsilon flags.
    """
    cfg = cfg or CalibrationConfig()
    x = np.asarray(values, dtype=float).reshape(-1)
    if len(x) == 0:
        raise EmptyInput("cannot screen an empty sample for outliers")
    dev = np.abs(x - np.median(x))
    mad = float(np.median(dev))
    if mad < MAD_ZERO_EPSILON:
        return dev > MAD_ZERO_EPSILON
    return MAD_SCALE * dev / mad > cfg.modified_zscore_threshold


def rotation_outlier_mask(
    quaternions: Sequence[Quaternion], cfg: CalibrationConfig | None = None
) -> np.ndarray:
    """Outliers by rotational distance to the group mean orientation."""
    if len(quaternions) == 0:
        raise EmptyInput("cannot screen zero rotations for outliers")
    reference = quaternion_average(quaternions)
    distances = [rotation_distance(q, reference) for q in quaternions]
    return mad_outlier_mask(distances, cfg)


@dataclass
class AggregateResult:
    pose: Pose
    used: int
    outliers_removed: int
    # fallback means rejection emptied the set and all inputs were averaged
    fallback: bool = False


def aggregate(poses: Sequence[Pose], cfg: CalibrationConfig | None = None) -> AggregateResult:
    """Average poses after removing translation and rotation outliers.

    Translations are screened per axis and rotations by distance to the
    mean orientation.  A pose flagged on any translation axis or by the
    rotation screen is removed.
    Survivors are combined by arithmetic mean translation and eigenvector
    quaternion averaging.  If screening removes everything, all inputs
    are averaged and the result is flagged as a fallback.
    """
    cfg = cfg or CalibrationConfig()
    if len(poses) == 0:
        raise EmptyInput("cannot aggregate zero poses")
    t = np.array([p.translation for p in poses])
    quats = [p.rotation for p in poses]
    bad = rotation_outlier_mask(quats, cfg)
    for axis in range(3):
        bad |= mad_outlier_mask(t[:, axis], cfg)
    keep = ~bad
    fallback = not keep.any()
    if fallback:
        keep = np.ones(len(poses), dtype=bool)
    mean_t = t[keep].mean(axis=0)
    mean_q = quaternion_average([q for q, k in zip(quats, keep) if k])
    return AggregateResult(
        pose=Pose(mean_q, mean_t),
        used=int(keep.sum()),
        outliers_removed=0 if fallback else int(bad.sum()),
        fallback=fallback,
    )


@dataclass
class GroupRecord:
    """Aggregation record for one robot configuration."""

    config_id: int
    pose: Pose
    frames_used: int
    samples_used: int
    outliers_removed: int
    fallback: bool = False

    def to_dict(self) -> dict:
        return {
            "config_id": self.config_id,
            "pose": self.pose.to_dict(),
            "frames_used": self.frames_used,
            "samples_used": self.samples_used,
            "outliers_removed": self.outliers_removed,
            "fallback": self.fallback,
        }


@dataclass
class CalibrationResult:
    calibration: Pose
    groups: list[GroupRecord]
    rejected_frames: int
    method_counts: dict[str, int] = field(default_factory=dict)
    icp_enabled: bool = True
    fallback: bool = False

    def to_dict(self) -> dict:
        return {
            "calibration": self.calibration.to_dict(),
            "groups": [g.to_dict() for g in self.groups],
            "rejected_frames": self.rejected_frames,
            "method_counts": dict(sorted(self.method_counts.items())),
            "icp_enabled": self.icp_enabled,
            "fallback": self.fallback,
        }


def calibration_from_estimates(
    frame_estimates, cfg: CalibrationConfig | None = None, use_icp: bool = True
) -> CalibrationResult:
    """Aggregate per-frame estimates into the final calibration.

    Per-frame transforms are grouped by robot configuration, each group
    is cleaned and averaged, and the group means are aggregated the same
    way into the final pose (two-level hierarchy).
    """
    samples: dict[int, list[tuple[int, str, Pose]]] = {}
    method_counts: dict[str, int] = {}
    rejected = 0
    for fe in frame_estimates:
        if not fe.usable:
            rejected += 1
            continue
        for est in fe.estimates:
            t_c_ee = est.chosen_pose(use_icp)
            pose = frame_calibration(t_c_ee, fe.t_b_ee)
            samples.setdefault(fe.config_id, []).append((fe.frame_index, est.method, pose))
            method_counts[est.method] = method_counts.get(est.method, 0) + 1
    if not samples:
        raise NoUsableFrames("every frame was rejected; nothing to calibrate from")

    groups = []
    for config_id in sorted(samples):
        rows = samples[config_id]
        agg = aggregate([p for _, _, p in rows], cfg)
        groups.append(
            GroupRecord(
                config_id=config_id,
                pose=agg.pose,
                frames_used=len({i for i, _, _ in rows}),
                samples_used=agg.used,
                outliers_removed=agg.outliers_removed,
                fallback=agg.fallback,
            )
        )

    final = aggregate([g.pose for g in groups], cfg)
    return CalibrationResult(
        calibration=final.pose,
        groups=groups,
        rejected_frames=rejected,
        method_counts=method_counts,
        icp_enabled=use_icp,
        fallback=final.fallback or any(g.fallback for g in groups),
    )


def calibrate(dataset, cfg=None) -> CalibrationResult:
    """Full calibration flow over a dataset.

    Per frame: segmentation, clustering, sanity check, per-method pose
    estimation and optional ICP refinement, then the camera-to-base
    transform of each surviving method estimate; the per-frame poses are
    aggregated hierarchically into the final calibration.
    """
    from .pipeline import PipelineConfig, estimate_frames

    cfg = cfg or PipelineConfig()
    return calibration_from_estimates(
        estimate_frames(dataset, cfg), cfg.calibration, cfg.icp.enabled
    )
