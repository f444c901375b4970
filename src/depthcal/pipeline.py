"""Per-frame pose estimation pipeline.

One frame flows through segmentation, spatial cluster filtering, a
visibility sanity check, the two single-frame pose routes (rotation
prediction + axis-extent translation, and keypoint matching), and
optional ICP refinement against the cluster thinned once per frame.
Calibration and evaluation both consume the FrameEstimate records
produced here; their ee_cloud is the full cluster.

PipelineConfig gathers the stage settings; each stage's section
dataclass lives next to the stage, and the CLI loads the JSON config
file straight into them.  Each stage function takes its own section
as an argument; the three learned models of the paper (segmentation,
rotation, keypoints) are simulator oracles inside predict_labels,
rpt_pose and predict_keypoints.  dataset_source prepares the one ICP
source that every frame of a dataset shares.

Randomness is reproducible per frame: every frame derives its own
generator streams from (seed, frame index), so results do not depend
on processing order or worker count.
"""

from __future__ import annotations

import logging
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .calibration import CalibrationConfig, sanity_check
from .errors import (
    ConfigError,
    DegenerateGeometry,
    EmptyCloud,
    MissingGroundTruth,
    NoValidCluster,
    TooFewKeypoints,
    TooFewPoints,
)
from .geometry import LABEL_EE, PointCloud, Pose, compose
from .icp import IcpConfig, IcpResult, IcpSource, prepare_source, refine_estimates
from .icp import VOXEL_SIZE, voxel_downsample
from .kpm import KpmConfig, filter_keypoints, kpm_pose, predict_keypoints
from .rpt import RptConfig, rpt_pose
from .segmentation import SegmentationConfig, cluster_filter, predict_labels
from .simulator import Dataset, EEModel, Frame

log = logging.getLogger(__name__)


@dataclass
class PipelineConfig:
    """Settings for the full estimation and calibration flow."""

    seed: int = 0
    # worker threads for the per-frame stages
    jobs: int = 1
    segmentation: SegmentationConfig = field(default_factory=SegmentationConfig)
    rpt: RptConfig = field(default_factory=RptConfig)
    kpm: KpmConfig = field(default_factory=KpmConfig)
    icp: IcpConfig = field(default_factory=IcpConfig)
    calibration: CalibrationConfig = field(default_factory=CalibrationConfig)

    def __post_init__(self):
        for name, low in (("seed", 0), ("jobs", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
                raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass
class MethodEstimate:
    """One method's camera-frame EE pose for one frame."""

    method: str
    pose: Pose
    icp: IcpResult | None = None

    @property
    def refined_pose(self) -> Pose | None:
        return None if self.icp is None else self.icp.refined_pose

    def chosen_pose(self, use_icp: bool = True) -> Pose:
        if use_icp and self.refined_pose is not None:
            return self.refined_pose
        return self.pose


@dataclass
class FrameEstimate:
    frame_index: int
    config_id: int
    t_b_ee: Pose
    ee_cloud: PointCloud | None
    estimates: list[MethodEstimate] = field(default_factory=list)
    skipped_reason: str | None = None

    @property
    def usable(self) -> bool:
        return self.skipped_reason is None and bool(self.estimates)


def dataset_source(dataset: Dataset, cfg: PipelineConfig) -> IcpSource | None:
    """The ICP source every frame of the dataset shares, measured on its
    points (see prepare_source); None when the config turns ICP off."""
    if not cfg.icp.enabled:
        return None
    return prepare_source(dataset.model, (frame.cloud for frame in dataset.frames))


def estimate_frame(
    frame: Frame,
    frame_index: int,
    model: EEModel,
    cfg: PipelineConfig | None = None,
    gt_calibration: Pose | None = None,
    source: IcpSource | None = None,
) -> FrameEstimate:
    """Run the single-frame estimation flow on one frame.

    Frames the flow cannot use (no end-effector points, no valid
    cluster, failed sanity check) come back with a skipped_reason
    instead of raising.  source is the model's ICP source (see
    dataset_source); without one the route poses are not refined.
    """
    cfg = cfg or PipelineConfig()
    out = FrameEstimate(frame_index, frame.config_id, frame.t_b_ee, None)

    seg_seq, rot_seq, kp_seq = np.random.SeedSequence([cfg.seed, frame_index]).spawn(3)
    true_pose = None
    if gt_calibration is not None:
        true_pose = compose(gt_calibration, frame.t_b_ee)

    try:
        labeled = predict_labels(frame.cloud, cfg.segmentation, np.random.default_rng(seg_seq))
    except (EmptyCloud, MissingGroundTruth) as e:
        out.skipped_reason = f"segmentation failed: {e}"
        return out
    ee = labeled.subset(labeled.labels == LABEL_EE)
    if len(ee) == 0:
        out.skipped_reason = "segmentation found no end-effector points"
        return out
    try:
        ee = cluster_filter(ee, cfg.segmentation)
    except NoValidCluster as e:
        out.skipped_reason = f"cluster filter failed: {e}"
        return out
    out.ee_cloud = ee

    check = sanity_check(ee, cfg.calibration)
    if not check.passed:
        out.skipped_reason = f"sanity check failed: {check.reason}"
        return out

    try:
        rng = np.random.default_rng(rot_seq)
        pose = rpt_pose(ee, model, cfg.rpt, true_pose=true_pose, rng=rng)
        out.estimates.append(MethodEstimate("rpt", pose))
    except (TooFewPoints, MissingGroundTruth, DegenerateGeometry) as e:
        log.info("frame %d: rotation-extent route unavailable: %s", frame_index, e)

    try:
        rng = np.random.default_rng(kp_seq)
        predictions = predict_keypoints(
            ee, cfg.kpm, model.ref_keypoints, true_pose=true_pose, rng=rng
        )
        kept = filter_keypoints(predictions, ee.points)
        out.estimates.append(MethodEstimate("kpm", kpm_pose(kept, model.ref_keypoints)))
    except (TooFewKeypoints, MissingGroundTruth, DegenerateGeometry, EmptyCloud) as e:
        log.info("frame %d: keypoint route unavailable: %s", frame_index, e)

    if source is not None and out.estimates:
        target = voxel_downsample(ee, VOXEL_SIZE)
        candidates = [(m.method, m.pose) for m in out.estimates]
        refined = dict(refine_estimates(target, candidates, source))
        for m in out.estimates:
            m.icp = refined.get(m.method)
    return out


def estimate_frames(dataset: Dataset, cfg: PipelineConfig | None = None) -> list[FrameEstimate]:
    """Estimate every frame of a dataset, optionally with worker threads."""
    cfg = cfg or PipelineConfig()
    source = dataset_source(dataset, cfg)

    def one(item: tuple[int, Frame]) -> FrameEstimate:
        i, frame = item
        return estimate_frame(frame, i, dataset.model, cfg, dataset.gt_calibration, source)

    items = list(enumerate(dataset.frames))
    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            return list(pool.map(one, items))
    return [one(it) for it in items]
