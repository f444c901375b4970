"""Pose route 1: predict the end-effector rotation, then derive the
translation from axis extents of the de-rotated cloud.

Once the end-effector points are rotated back into the model's own
orientation, every coordinate of the origin sits at a known offset from
the cloud extent along that axis (a fixed inset behind the front face in
x, centered in y, on the finger-tip plane in z).  Reading those extents
and rotating the offset forward by the predicted rotation yields the
full pose from a rotation estimate alone.  The whole end-effector must
be in view: a missing extreme face shifts the recovered translation by
the size of the missing chunk, which is why multi-frame aggregation
treats this route's output as just one vote.

The rotation stands where the paper's learned single-frame rotation
model sits: the simulator's true rotation with configurable noise.
rpt_pose reads both that noise and the extent trimming from the `rpt`
config section.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, MissingGroundTruth, TooFewPoints
from .geometry import PointCloud, Pose, Quaternion
from .simulator import AxisRule, EEModel

MIN_RPT_POINTS = 10


@dataclass
class RptConfig:
    """The `rpt` config section."""

    # angular noise of the rotation oracle
    rotation_sigma_deg: float = 0.0
    # extent trimming of rpt_pose, on every dataset (see rpt_translation)
    trim_fraction: float = 0.002

    def __post_init__(self):
        if not self.rotation_sigma_deg >= 0:
            raise ConfigError("rotation_sigma_deg must be non-negative")
        if not 0.0 <= self.trim_fraction < 0.5:
            raise ConfigError("trim_fraction must be in [0, 0.5)")


def _oracle_rotation(
    true_pose: Pose | None, sigma_deg: float, rng: np.random.Generator | None
) -> Quaternion:
    """The true rotation perturbed by a random axis-angle.

    Stand-in for the paper's trained rotation network: the perturbation
    axis is uniform on the sphere and the angle is N(0, sigma_deg).
    """
    if true_pose is None:
        raise MissingGroundTruth("rotation oracle requires the true pose")
    if sigma_deg == 0.0:
        return true_pose.rotation
    if rng is None:
        raise ValueError("a noisy rotation oracle needs an rng")
    axis = rng.normal(size=3)
    n = np.linalg.norm(axis)
    if n < 1e-12:
        axis = np.array([0.0, 0.0, 1.0])
        n = 1.0
    angle = math.radians(sigma_deg) * rng.normal()
    return Quaternion.from_axis_angle(axis / n, angle).multiply(true_pose.rotation)


def rotate_back(ee_cloud: PointCloud, r_pred: Quaternion) -> PointCloud:
    """Rotate points by the inverse predicted rotation.

    Pure rotation: no translation is applied or removed.
    """
    pts = ee_cloud.points @ r_pred.rotation_matrix()  # p @ R == R^T p
    return PointCloud(pts, labels=ee_cloud.labels, keypoint_ids=ee_cloud.keypoint_ids)


def _extent(values: np.ndarray, trim_fraction: float) -> tuple[float, float]:
    """Min/max after dropping the trim_fraction most extreme points per side."""
    k = int(math.ceil(trim_fraction * len(values)))
    k = min(k, (len(values) - 1) // 2)
    s = np.sort(values)
    return float(s[k]), float(s[len(s) - 1 - k])


def rpt_translation(
    rotated_points: np.ndarray,
    descriptor: Sequence[AxisRule],
    r_pred: Quaternion,
    *,
    trim_fraction: float = 0.0,
) -> np.ndarray:
    """Translation from the extents of the de-rotated end-effector cloud.

    trim_fraction > 0 discards that fraction of the most extreme points
    on each side of every axis before reading the extent, so a stray
    noise point cannot shift the estimate by itself.  On noise-free input
    an extreme face holds many points at its exact coordinate, so the
    trimmed extent is the untrimmed one.
    """
    pts = np.asarray(rotated_points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise TooFewPoints("expected an (n, 3) point array")
    if len(pts) < MIN_RPT_POINTS:
        raise TooFewPoints(
            f"extent reading needs at least {MIN_RPT_POINTS} points, got {len(pts)}"
        )
    t_bar = np.zeros(3)
    for rule in descriptor:
        lo, hi = _extent(pts[:, rule.axis], trim_fraction)
        if rule.extreme == "max":
            t_bar[rule.axis] = hi - rule.inset
        elif rule.extreme == "min":
            t_bar[rule.axis] = lo + rule.inset
        else:  # mid
            t_bar[rule.axis] = 0.5 * (lo + hi)
    return r_pred.rotate(t_bar)


def rpt_pose(
    ee_cloud: PointCloud,
    model: EEModel,
    cfg: RptConfig,
    *,
    true_pose: Pose | None = None,
    rng: np.random.Generator | None = None,
) -> Pose:
    """Full route: predict rotation, de-rotate, read extents, assemble pose.

    The rotation is the oracle's (cfg.rotation_sigma_deg of noise around
    true_pose); the extents are trimmed by cfg.trim_fraction.
    """
    r_pred = _oracle_rotation(true_pose, cfg.rotation_sigma_deg, rng)
    de_rotated = rotate_back(ee_cloud, r_pred)
    t = rpt_translation(
        de_rotated.points, model.rpt_descriptor, r_pred, trim_fraction=cfg.trim_fraction
    )
    return Pose(r_pred, t)
