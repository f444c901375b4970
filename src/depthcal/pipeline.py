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
rpt_pose and predict_keypoints.  resolve_config picks the ICP source
resolution from one measurement of the dataset's points.

Randomness is reproducible per frame: every frame derives its own
generator streams from (seed, frame index), so results do not depend
on processing order or worker count.
"""

from __future__ import annotations

import logging
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.spatial import cKDTree

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
from .icp import NORMAL_NEIGHBOURS, TARGET_VOXEL_SIZE, local_pca, voxel_downsample
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
    refined_pose: Pose | None = None
    icp: IcpResult | None = None

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


# median local plane residual (m) below which the points count as exact:
# noiseless renders read under 1 nm, sensor noise of 10 um about 9 um
EXACT_SURFACE_RMS = 1e-6


def resolve_config(dataset: Dataset, cfg: PipelineConfig) -> PipelineConfig:
    """cfg with the ICP source resolution keyed on the measured sensor noise.

    The measurement samples about 256 points of the first frame with at
    least NORMAL_NEIGHBOURS finite points and takes, for each, the RMS
    distance of its NORMAL_NEIGHBOURS nearest neighbours to their
    best-fit plane.  Below EXACT_SURFACE_RMS in the median, the cloud
    reproduces model surface points exactly, so registration against the
    full-resolution model is both possible and required for exactness.
    Otherwise the cloud is noise-limited; the voxel-thinned source from
    the config is just as accurate and much faster.
    """
    for frame in dataset.frames:
        pts = frame.cloud.points[np.isfinite(frame.cloud.points).all(axis=1)]
        if len(pts) >= NORMAL_NEIGHBOURS:
            least = local_pca(cKDTree(pts), pts[:: max(1, len(pts) // 256)])[0][:, 0]
            if np.median(np.sqrt(np.abs(least) / NORMAL_NEIGHBOURS)) < EXACT_SURFACE_RMS:
                return replace(cfg, icp=replace(cfg.icp, source_voxel_size=0.0))
            break
    return cfg


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
    instead of raising.  cfg is used as given; callers with dataset
    context pass it through resolve_config first.  source is the
    model's ICP source prepared with cfg.icp; without one, ICP
    prepares its own.
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

    if cfg.icp.enabled and out.estimates:
        if source is None:
            source = prepare_source(model, cfg.icp)
        target = voxel_downsample(ee, TARGET_VOXEL_SIZE)
        refined = dict(
            refine_estimates(target, [(m.method, m.pose) for m in out.estimates], source, cfg.icp)
        )
        for m in out.estimates:
            res = refined.get(m.method)
            if res is not None:
                m.refined_pose = res.refined_pose
                m.icp = res
    return out


def estimate_frames(dataset: Dataset, cfg: PipelineConfig | None = None) -> list[FrameEstimate]:
    """Estimate every frame of a dataset, optionally with worker threads."""
    cfg = resolve_config(dataset, cfg or PipelineConfig())
    # one ICP source for all frames
    source = prepare_source(dataset.model, cfg.icp) if cfg.icp.enabled else None

    def one(item: tuple[int, Frame]) -> FrameEstimate:
        i, frame = item
        return estimate_frame(frame, i, dataset.model, cfg, dataset.gt_calibration, source)

    items = list(enumerate(dataset.frames))
    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            return list(pool.map(one, items))
    return [one(it) for it in items]
