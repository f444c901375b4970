"""Pose route 2: match predicted keypoints to the model's reference
keypoints with a rigid least-squares fit.

Keypoints are named (matched by id, not by geometry), so four good
predictions already pin down the pose.  Because each keypoint is local,
this route keeps working when whole regions of the end-effector are
occluded, which is exactly where the extent-based route breaks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np
from scipy.spatial import cKDTree

from .errors import ConfigError, EmptyCloud, MissingGroundTruth, TooFewKeypoints
from .geometry import PointCloud, Pose, kabsch_fit

MIN_MATCHED_KEYPOINTS = 4

Prediction = tuple[int, np.ndarray]


@dataclass
class KpmConfig:
    """The `kpm` config section: keypoint oracle noise and quality gate."""

    # NoisyOracleKeypoints settings
    sigma_m: float = 0.0
    dropout: float = 0.0
    snap_radius_m: float = 0.01
    # filter_keypoints radius
    quality_radius_m: float = 0.03

    def __post_init__(self):
        if not self.sigma_m >= 0:
            raise ConfigError("sigma_m must be non-negative")
        if not 0.0 <= self.dropout <= 1.0:
            raise ConfigError("dropout must be in [0, 1]")
        if not (self.snap_radius_m > 0 and self.quality_radius_m > 0):
            raise ConfigError("snap_radius_m and quality_radius_m must be positive")


class KeypointPredictor(Protocol):
    """Finds named model keypoints among the end-effector points.

    true_pose carries the simulator ground truth for oracle
    implementations; a learned predictor would ignore it.
    """

    def predict(
        self,
        ee_cloud: PointCloud,
        true_pose: Pose | None,
        ref_keypoints: np.ndarray,
        rng: np.random.Generator | None,
    ) -> list[Prediction]: ...


@dataclass
class NoisyOracleKeypoints:
    """Ground-truth keypoint positions with noise, dropout and snapping.

    Stand-in for a trained keypoint network.  Per keypoint, in id order:
    drop it with probability `dropout`; drop it if no end-effector point
    lies within `snap_radius` of its true position (an occluded keypoint
    has nothing to detect); otherwise perturb the true position with
    isotropic Gaussian noise of `sigma_m` and snap the result to the
    nearest end-effector point, so every prediction is an input point.
    """

    sigma_m: float = 0.0
    dropout: float = 0.0
    snap_radius: float = KpmConfig.snap_radius_m

    def predict(
        self,
        ee_cloud: PointCloud,
        true_pose: Pose | None,
        ref_keypoints: np.ndarray,
        rng: np.random.Generator | None,
    ) -> list[Prediction]:
        if true_pose is None:
            raise MissingGroundTruth("keypoint oracle requires the true pose")
        if rng is None and (self.sigma_m > 0.0 or self.dropout > 0.0):
            raise ValueError("a noisy keypoint oracle needs an rng")
        true_positions = true_pose.apply(np.asarray(ref_keypoints, dtype=float))
        tree = cKDTree(ee_cloud.points)
        out: list[Prediction] = []
        for k, pos in enumerate(true_positions):
            if self.dropout > 0.0 and rng.uniform() < self.dropout:
                continue
            visible_dist, _ = tree.query(pos)
            if visible_dist > self.snap_radius:
                continue
            if self.sigma_m > 0.0:
                pos = pos + rng.normal(scale=self.sigma_m, size=3)
            _, j = tree.query(pos)
            out.append((k, ee_cloud.points[j].copy()))
        return out


def predict_keypoints(
    ee_cloud: PointCloud,
    predictor: KeypointPredictor,
    ref_keypoints: np.ndarray,
    *,
    true_pose: Pose | None = None,
    rng: np.random.Generator | None = None,
) -> list[Prediction]:
    """Run a predictor and validate its output contract."""
    if len(ee_cloud) == 0:
        raise EmptyCloud("cannot predict keypoints on an empty cloud")
    predictions = predictor.predict(ee_cloud, true_pose, ref_keypoints, rng)
    ids = [k for k, _ in predictions]
    if len(set(ids)) != len(ids):
        raise ValueError(f"predictor returned duplicate keypoint ids: {ids}")
    n_refs = len(ref_keypoints)
    if any(k < 0 or k >= n_refs for k in ids):
        raise ValueError(f"keypoint id out of range 0..{n_refs - 1}: {ids}")
    return [(int(k), np.asarray(p, dtype=float)) for k, p in predictions]


def filter_keypoints(
    predictions: list[Prediction],
    ee_points: np.ndarray,
    quality_radius: float = KpmConfig.quality_radius_m,
) -> list[Prediction]:
    """Drop predictions farther than quality_radius from every EE point.

    A keypoint that is nowhere near the observed surface is a hallucination
    and must not count toward the matching minimum.
    """
    if not predictions or len(ee_points) == 0:
        return []
    tree = cKDTree(np.asarray(ee_points, dtype=float))
    kept = []
    for k, pos in predictions:
        d, _ = tree.query(pos)
        if d <= quality_radius:
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
