"""Pose route 2: match predicted keypoints to the model's reference
keypoints with a rigid least-squares fit.

Keypoints are named (matched by id, not by geometry), so four good
predictions already pin down the pose.  Because each keypoint is local,
this route keeps working when whole regions of the end-effector are
occluded, which is exactly where the extent-based route breaks.

The keypoints stand where the paper's learned keypoint model sits: the
simulator's true keypoint positions with the noise, dropout and
snapping set in the `kpm` config section.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import ConfigError, EmptyCloud, MissingGroundTruth, TooFewKeypoints
from .geometry import PointCloud, Pose, kabsch_fit

MIN_MATCHED_KEYPOINTS = 4
# filter_keypoints: farthest a kept prediction may lie from the EE points (m)
QUALITY_RADIUS = 0.03

Prediction = tuple[int, np.ndarray]


@dataclass
class KpmConfig:
    """The `kpm` config section: keypoint oracle noise, dropout and snapping."""

    sigma_m: float = 0.0
    dropout: float = 0.0
    snap_radius_m: float = 0.01

    def __post_init__(self):
        if not self.sigma_m >= 0:
            raise ConfigError("sigma_m must be non-negative")
        if not 0.0 <= self.dropout <= 1.0:
            raise ConfigError("dropout must be in [0, 1]")
        if not self.snap_radius_m > 0:
            raise ConfigError("snap_radius_m must be positive")


def predict_keypoints(
    ee_cloud: PointCloud,
    cfg: KpmConfig,
    ref_keypoints: np.ndarray,
    *,
    true_pose: Pose | None = None,
    rng: np.random.Generator | None = None,
) -> list[Prediction]:
    """True keypoint positions with noise, dropout and snapping.

    Stand-in for the paper's trained keypoint network.  Per keypoint, in
    id order: drop it with probability cfg.dropout; drop it if no
    end-effector point lies within cfg.snap_radius_m of its true
    position (an occluded keypoint has nothing to detect); otherwise
    perturb the true position with isotropic Gaussian noise of
    cfg.sigma_m and snap the result to the nearest end-effector point,
    so every prediction is an input point.
    """
    if len(ee_cloud) == 0:
        raise EmptyCloud("cannot predict keypoints on an empty cloud")
    if true_pose is None:
        raise MissingGroundTruth("keypoint oracle requires the true pose")
    if rng is None and (cfg.sigma_m > 0.0 or cfg.dropout > 0.0):
        raise ValueError("a noisy keypoint oracle needs an rng")
    true_positions = true_pose.apply(np.asarray(ref_keypoints, dtype=float))
    tree = cKDTree(ee_cloud.points)
    out: list[Prediction] = []
    for k, pos in enumerate(true_positions):
        if cfg.dropout > 0.0 and rng.uniform() < cfg.dropout:
            continue
        visible_dist, _ = tree.query(pos)
        if visible_dist > cfg.snap_radius_m:
            continue
        if cfg.sigma_m > 0.0:
            pos = pos + rng.normal(scale=cfg.sigma_m, size=3)
        _, j = tree.query(pos)
        out.append((k, ee_cloud.points[j].copy()))
    return out


def filter_keypoints(predictions: list[Prediction], ee_points: np.ndarray) -> list[Prediction]:
    """Drop predictions farther than QUALITY_RADIUS from every EE point.

    A keypoint that is nowhere near the observed surface is a hallucination
    and must not count toward the matching minimum.  predict_keypoints
    snaps every prediction to a point of its input cloud, so on the
    pipeline's input nothing is dropped.
    """
    if not predictions or len(ee_points) == 0:
        return []
    tree = cKDTree(np.asarray(ee_points, dtype=float))
    kept = []
    for k, pos in predictions:
        d, _ = tree.query(pos)
        if d <= QUALITY_RADIUS:
            kept.append((k, pos))
    return kept


def kpm_pose(predictions: list[Prediction], ref_keypoints: np.ndarray) -> Pose:
    """Rigid fit from reference keypoints (EE frame) to predictions (camera).

    The result maps end-effector coordinates into the camera frame, i.e.
    it is the end-effector pose.  Raises TooFewKeypoints below the
    four-match minimum and DegenerateGeometry when the matched set is
    (near-)collinear.
    """
    if len(predictions) < MIN_MATCHED_KEYPOINTS:
        raise TooFewKeypoints(
            f"need at least {MIN_MATCHED_KEYPOINTS} matched keypoints, "
            f"got {len(predictions)}"
        )
    refs = np.asarray(ref_keypoints, dtype=float)
    source = np.stack([refs[k] for k, _ in predictions])
    target = np.stack([p for _, p in predictions])
    return kabsch_fit(source, target)
