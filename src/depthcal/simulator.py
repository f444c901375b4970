"""Synthetic depth-scene generation.

Stands in for the physical robot cell: a parametric two-finger gripper
model, a pinhole depth camera with range noise and dropout, static
background planes, and scenario-level dataset generation with known
ground-truth hand-eye calibration.

Frames are expressed in the camera frame.  The world frame of a scenario
is the robot base frame, so the camera's world-to-camera pose and the
ground-truth calibration (base to camera) are the same transform, and
dataset generation enforces that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import EEOutsideFrustum, InvalidDimensions
from .geometry import (
    LABEL_BACKGROUND,
    LABEL_EE,
    NO_KEYPOINT,
    PointCloud,
    Pose,
    Quaternion,
    compose,
    invert,
)

NUM_KEYPOINTS = 6


@dataclass(frozen=True)
class AxisRule:
    """How one axis of the end-effector origin relates to the cloud extent
    along that axis, measured in the unrotated (end-effector) frame.

    extreme "max": origin = max coordinate - inset
    extreme "min": origin = min coordinate + inset
    extreme "mid": origin = midpoint of min and max (inset unused)
    """

    axis: int
    extreme: str
    inset: float = 0.0

    def __post_init__(self):
        if self.axis not in (0, 1, 2):
            raise InvalidDimensions(f"axis must be 0, 1 or 2, got {self.axis}")
        if self.extreme not in ("min", "max", "mid"):
            raise InvalidDimensions(f"unknown extreme rule {self.extreme!r}")


@dataclass
class EEModel:
    """End-effector reference model in its own frame.

    surface_cloud: dense surface samples; the six reference keypoints are
    included as samples and tagged through keypoint_ids.
    ref_keypoints: (6, 3) keypoint positions, index = keypoint id.
    rpt_descriptor: one AxisRule per axis, recovering the origin from the
    axis-aligned extent of the unrotated surface.
    bbox: (2, 3) axis-aligned min/max corners.
    params: constructive parameters, echoed into dataset manifests so the
    model can be rebuilt deterministically.
    """

    surface_cloud: PointCloud
    ref_keypoints: np.ndarray
    rpt_descriptor: tuple[AxisRule, AxisRule, AxisRule]
    bbox: np.ndarray
    params: dict | None = None


@dataclass
class CameraModel:
    """Pinhole depth camera.

    pose: world-to-camera transform (world = robot base within a scenario).
    Noise is applied along each viewing ray with standard deviation
    sigma(z) = noise_sigma_1m * (z / 1 m) ** noise_exponent, and points are
    then dropped i.i.d. with probability `dropout`.  Self-occlusion uses an
    angular z-buffer: rays are bucketed at hpr_angular_tol_deg and a point
    is removed when another point in its bucket is closer by more than
    hpr_depth_margin.
    """

    pose: Pose = field(default_factory=Pose.identity)
    hfov_deg: float = 60.0
    vfov_deg: float = 48.0
    noise_sigma_1m: float = 0.0
    noise_exponent: float = 2.0
    dropout: float = 0.0
    hpr_angular_tol_deg: float = 0.2
    hpr_depth_margin: float = 0.005

    def __post_init__(self):
        if not (0.0 < self.hfov_deg < 180.0 and 0.0 < self.vfov_deg < 180.0):
            raise InvalidDimensions("fields of view must be in (0, 180) degrees")
        if self.noise_sigma_1m < 0 or not (0.0 <= self.dropout <= 1.0):
            raise InvalidDimensions("noise sigma must be >= 0, dropout in [0, 1]")
        if self.hpr_angular_tol_deg <= 0 or self.hpr_depth_margin < 0:
            raise InvalidDimensions("hidden-point-removal parameters must be positive")

    def to_dict(self) -> dict:
        return {**vars(self), "pose": self.pose.to_dict()}


@dataclass
class BackgroundPlane:
    """Rectangular patch: origin + s * edge_u + t * edge_v, s, t in [0, 1]."""

    origin: np.ndarray
    edge_u: np.ndarray
    edge_v: np.ndarray
    density: float = 1.0e4

    def sample(self) -> np.ndarray:
        return _sample_rect(
            np.asarray(self.origin, float),
            np.asarray(self.edge_u, float),
            np.asarray(self.edge_v, float),
            self.density,
        )

    def to_dict(self) -> dict:
        return {
            "type": "plane",
            "origin": list(map(float, self.origin)),
            "edge_u": list(map(float, self.edge_u)),
            "edge_v": list(map(float, self.edge_v)),
            "density": self.density,
        }


@dataclass(frozen=True)
class HalfspaceCut:
    """Removes model points on one side of an axis-aligned plane in the
    end-effector frame before rendering (simulated occlusion)."""

    axis: int
    threshold: float
    remove_above: bool = True

    def keep_mask(self, points: np.ndarray) -> np.ndarray:
        c = points[:, self.axis]
        return c < self.threshold if self.remove_above else c > self.threshold

    def to_dict(self) -> dict:
        return {"axis": self.axis, "threshold": self.threshold, "remove_above": self.remove_above}

    @classmethod
    def from_dict(cls, d: dict) -> "HalfspaceCut":
        """Build from a JSON object; a missing key raises KeyError, any
        other bad value ValueError naming its key."""
        if not isinstance(d, dict):
            raise ValueError(f"occlusion must be an object or null, got {d!r}")
        unknown = sorted(set(d) - {"axis", "threshold", "remove_above"})
        if unknown:
            raise ValueError(f"unknown occlusion key: occlusion.{unknown[0]}")
        axis, threshold = d["axis"], d["threshold"]
        remove_above = d.get("remove_above", True)
        # type() rather than isinstance(): JSON true and false are not numbers
        if type(axis) is not int or axis not in (0, 1, 2):
            raise ValueError(f"occlusion.axis must be 0, 1 or 2, got {axis!r}")
        if type(threshold) not in (int, float) or not math.isfinite(threshold):
            raise ValueError(f"occlusion.threshold must be a finite number, got {threshold!r}")
        if not isinstance(remove_above, bool):
            raise ValueError(f"occlusion.remove_above must be a boolean, got {remove_above!r}")
        return cls(axis, float(threshold), remove_above)


@dataclass(frozen=True)
class RobotConfig:
    """One arm configuration: the forward-kinematic base-to-EE transform."""

    config_id: int
    t_b_ee: Pose

    def to_dict(self) -> dict:
        return {"config_id": self.config_id, "t_b_ee": self.t_b_ee.to_dict()}


@dataclass
class EEModelParams:
    """Gripper sizes (m) and sampling density (points/m^2); see build_ee_model."""

    body: tuple[float, float, float] = (0.06, 0.06, 0.05)
    finger: tuple[float, float, float] = (0.02, 0.02, 0.05)
    finger_gap: float = 0.11
    density: float = 8.0e5
    origin_inset: float = 0.015

    def to_dict(self) -> dict:
        return {**vars(self), "body": list(self.body), "finger": list(self.finger)}

    @classmethod
    def from_dict(cls, d: dict) -> "EEModelParams":
        out = cls()
        for k in ("body", "finger"):
            if k in d:
                setattr(out, k, tuple(float(v) for v in d[k]))
        for k in ("finger_gap", "density", "origin_inset"):
            if k in d:
                setattr(out, k, float(d[k]))
        return out


@dataclass
class Scenario:
    """Everything needed to generate one dataset; built by default_scenario."""

    gt_calibration: Pose
    robot_configs: list[RobotConfig]
    frames_per_config: int
    camera: CameraModel
    ee_model: EEModelParams
    background: list[BackgroundPlane]
    occlusion: HalfspaceCut | None
    seed: int

    def to_dict(self) -> dict:
        return {
            "gt_calibration": self.gt_calibration.to_dict(),
            "robot_configs": [rc.to_dict() for rc in self.robot_configs],
            "frames_per_config": self.frames_per_config,
            "camera": self.camera.to_dict(),
            "ee_model": self.ee_model.to_dict(),
            "background": [b.to_dict() for b in self.background],
            "occlusion": None if self.occlusion is None else self.occlusion.to_dict(),
            "seed": self.seed,
        }


@dataclass
class Frame:
    """One rendered depth frame in the camera frame, with ground-truth
    labels, at-most-once keypoint tags, and the arm configuration."""

    cloud: PointCloud
    config_id: int
    t_b_ee: Pose


@dataclass
class Dataset:
    frames: list[Frame]
    gt_calibration: Pose | None
    model: EEModel
    # provenance of a generated dataset: save_dataset writes both to the
    # manifest, and load_dataset reads neither back
    scenario: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Sampling helpers


def _sample_rect(origin: np.ndarray, eu: np.ndarray, ev: np.ndarray, density: float) -> np.ndarray:
    """Grid-sample a parallelogram, boundary lines included.

    Point count scales linearly with density (edge counts scale with its
    square root), and including the boundary keeps face extremes exact.
    """
    la = float(np.linalg.norm(eu))
    lb = float(np.linalg.norm(ev))
    na = max(2, int(round(la * math.sqrt(density))) + 1)
    nb = max(2, int(round(lb * math.sqrt(density))) + 1)
    sa = np.linspace(0.0, 1.0, na)
    sb = np.linspace(0.0, 1.0, nb)
    pts = origin + sa[:, None, None] * eu + sb[None, :, None] * ev
    return pts.reshape(-1, 3)


def _box_faces(bmin: np.ndarray, bmax: np.ndarray):
    d = bmax - bmin
    ex = np.array([d[0], 0.0, 0.0])
    ey = np.array([0.0, d[1], 0.0])
    ez = np.array([0.0, 0.0, d[2]])
    return [
        (bmin, ex, ey),
        (np.array([bmin[0], bmin[1], bmax[2]]), ex, ey),
        (bmin, ex, ez),
        (np.array([bmin[0], bmax[1], bmin[2]]), ex, ez),
        (bmin, ey, ez),
        (np.array([bmax[0], bmin[1], bmin[2]]), ey, ez),
    ]


def sample_background(primitives: Sequence) -> np.ndarray | None:
    """World-frame points for static background geometry.

    Sampling is a deterministic grid, so the same scene yields the same
    points in every frame, exactly like a static scene seen by a fixed
    camera.
    """
    if not primitives:
        return None
    return np.concatenate([p.sample() for p in primitives])


# ---------------------------------------------------------------------------
# End-effector model


def build_ee_model(params: EEModelParams | None = None) -> EEModel:
    """Watertight-sampled two-finger gripper, EEModelParams() by default.

    Layout in the end-effector frame: the finger tips sit on the z = 0
    plane (nearest the camera in the canonical pose), the body sits behind
    them, the origin is `origin_inset` inside the max-x face and centered
    in y.  Fingers protrude beyond the body in y, so each finger alone
    carries one y extreme of the model; they stay within single-linkage
    reach of the body so the whole gripper clusters as one part.

    Keypoints: ids 0-3 at the corners of the body's front face, ids 4 and
    5 at the finger tips, separated by `finger_gap`.
    """
    p = params or EEModelParams()
    bx, by, bz = (float(v) for v in p.body)
    fx, fy, fz = (float(v) for v in p.finger)
    gap, density, origin_inset = float(p.finger_gap), float(p.density), float(p.origin_inset)
    if min(bx, by, bz, fx, fy, fz, gap, density) <= 0:
        raise InvalidDimensions("all gripper dimensions must be positive")
    if fx > bx:
        raise InvalidDimensions("finger depth must not exceed body depth")
    if origin_inset <= 0 or origin_inset >= bx:
        raise InvalidDimensions("origin inset must fall inside the body")

    x_hi = origin_inset
    x_lo = origin_inset - bx
    cx = origin_inset - bx / 2.0

    boxes = [
        # Body, behind the fingers.
        (np.array([x_lo, -by / 2.0, fz]), np.array([x_hi, by / 2.0, fz + bz])),
        # Fingers, tips on the z = 0 plane.
        (np.array([cx - fx / 2.0, -gap / 2.0 - fy, 0.0]), np.array([cx + fx / 2.0, -gap / 2.0, fz])),
        (np.array([cx - fx / 2.0, gap / 2.0, 0.0]), np.array([cx + fx / 2.0, gap / 2.0 + fy, fz])),
    ]
    parts = []
    for bmin, bmax in boxes:
        for o, u, v in _box_faces(bmin, bmax):
            parts.append(_sample_rect(o, u, v, density))

    keypoints = np.array(
        [
            [x_lo, -by / 2.0, fz],
            [x_lo, by / 2.0, fz],
            [x_hi, -by / 2.0, fz],
            [x_hi, by / 2.0, fz],
            [cx, -gap / 2.0, 0.0],
            [cx, gap / 2.0, 0.0],
        ]
    )
    parts.append(keypoints)
    points = np.concatenate(parts)

    kp_ids = np.full(len(points), NO_KEYPOINT, dtype=np.int64)
    kp_ids[-NUM_KEYPOINTS:] = np.arange(NUM_KEYPOINTS)

    descriptor = (
        AxisRule(0, "max", origin_inset),
        AxisRule(1, "mid", 0.0),
        AxisRule(2, "min", 0.0),
    )
    # Self-consistency: the descriptor applied to the full cloud must land
    # on the origin, otherwise the layout above is wrong.
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    origin = np.array([hi[0] - origin_inset, 0.5 * (lo[1] + hi[1]), lo[2]])
    if np.abs(origin).max() > 1e-9:
        raise InvalidDimensions("extent descriptor does not recover the model origin")

    bbox = np.stack([lo, hi])
    cloud = PointCloud(points, labels=np.full(len(points), LABEL_EE), keypoint_ids=kp_ids)
    floats = EEModelParams((bx, by, bz), (fx, fy, fz), gap, density, origin_inset)
    return EEModel(cloud, keypoints, descriptor, bbox, floats.to_dict())


# ---------------------------------------------------------------------------
# Rendering


def _visible_mask(points: np.ndarray, angular_tol_rad: float, depth_margin: float) -> np.ndarray:
    """Angular z-buffer: a point survives unless some point in its angular
    bucket is closer by more than depth_margin along the viewing ray."""
    z = points[:, 2]
    u = points[:, 0] / z
    v = points[:, 1] / z
    s = math.tan(angular_tol_rad)
    iu = np.floor(u / s).astype(np.int64)
    iv = np.floor(v / s).astype(np.int64)
    key = (iu - iu.min()) * (iv.max() - iv.min() + 1) + (iv - iv.min())
    r = np.linalg.norm(points, axis=1)
    uniq, inv = np.unique(key, return_inverse=True)
    nearest = np.full(len(uniq), np.inf)
    np.minimum.at(nearest, inv, r)
    return r <= nearest[inv] + depth_margin


def render_frame(
    model: EEModel,
    ee_pose_in_camera: Pose,
    camera: CameraModel,
    background: np.ndarray | None = None,
    seed: int = 0,
    *,
    occlusion: HalfspaceCut | None = None,
    config_id: int = 0,
    t_b_ee: Pose | None = None,
) -> Frame:
    """Render one depth frame.

    background holds world-frame points (sample_background's output),
    mapped through camera.pose.  Pipeline order: frustum cull,
    hidden-point removal on clean geometry, ray noise, dropout.  Raises
    EEOutsideFrustum when no end-effector point lies in the frustum
    before sensor effects.
    """
    rng = np.random.default_rng(seed)

    ee_pts = model.surface_cloud.points
    kp_ids = model.surface_cloud.keypoint_ids
    if kp_ids is None:
        kp_ids = np.full(len(ee_pts), NO_KEYPOINT, dtype=np.int64)
    if occlusion is not None:
        keep = occlusion.keep_mask(ee_pts)
        ee_pts = ee_pts[keep]
        kp_ids = kp_ids[keep]
    ee_cam = ee_pose_in_camera.apply(ee_pts)

    if background is not None and len(background):
        bg_cam = camera.pose.apply(background)
        points = np.concatenate([ee_cam, bg_cam])
        labels = np.concatenate(
            [
                np.full(len(ee_cam), LABEL_EE, dtype=np.int64),
                np.full(len(bg_cam), LABEL_BACKGROUND, dtype=np.int64),
            ]
        )
        ids = np.concatenate([kp_ids, np.full(len(bg_cam), NO_KEYPOINT, dtype=np.int64)])
    else:
        points = ee_cam
        labels = np.full(len(ee_cam), LABEL_EE, dtype=np.int64)
        ids = kp_ids.copy()

    tan_h = math.tan(math.radians(camera.hfov_deg) / 2.0)
    tan_v = math.tan(math.radians(camera.vfov_deg) / 2.0)
    z = points[:, 2]
    in_frustum = (
        (z > 1e-6)
        & (np.abs(points[:, 0]) <= z * tan_h)
        & (np.abs(points[:, 1]) <= z * tan_v)
    )
    if not in_frustum[labels == LABEL_EE].any():
        raise EEOutsideFrustum("no end-effector point inside the camera frustum")
    points, labels, ids = points[in_frustum], labels[in_frustum], ids[in_frustum]

    vis = _visible_mask(
        points, math.radians(camera.hpr_angular_tol_deg), camera.hpr_depth_margin
    )
    points, labels, ids = points[vis], labels[vis], ids[vis]

    if camera.noise_sigma_1m > 0:
        r = np.linalg.norm(points, axis=1)
        sigma = camera.noise_sigma_1m * (points[:, 2] / 1.0) ** camera.noise_exponent
        shift = rng.normal(size=len(points)) * sigma
        points = points + points / r[:, None] * shift[:, None]

    if camera.dropout > 0:
        keep = rng.random(len(points)) >= camera.dropout
        points, labels, ids = points[keep], labels[keep], ids[keep]

    cloud = PointCloud(points, labels=labels, keypoint_ids=ids)
    return Frame(cloud, config_id, Pose.identity() if t_b_ee is None else t_b_ee)


def frame_seed(scenario_seed: int, frame_index: int) -> int:
    """Deterministic per-frame seed derivation."""
    ss = np.random.SeedSequence([int(scenario_seed), int(frame_index)])
    return int(ss.generate_state(1, np.uint64)[0])


def generate_dataset(scenario: Scenario) -> Dataset:
    """Render every frame of a scenario.

    A frame whose end effector misses the frustum is skipped with a
    warning; a config losing all its frames gets its own warning.  Equal
    seeds give bit-identical datasets.
    """
    model = build_ee_model(scenario.ee_model)
    bg_world = sample_background(scenario.background)
    camera = replace(scenario.camera, pose=scenario.gt_calibration)

    frames: list[Frame] = []
    warnings: list[str] = []
    index = 0
    for rc in scenario.robot_configs:
        rendered = 0
        for k in range(scenario.frames_per_config):
            ee_pose = compose(scenario.gt_calibration, rc.t_b_ee)
            try:
                fr = render_frame(
                    model,
                    ee_pose,
                    camera,
                    background=bg_world,
                    seed=frame_seed(scenario.seed, index),
                    occlusion=scenario.occlusion,
                    config_id=rc.config_id,
                    t_b_ee=rc.t_b_ee,
                )
            except EEOutsideFrustum:
                warnings.append(
                    f"config {rc.config_id} frame {k}: end effector outside frustum, skipped"
                )
            else:
                frames.append(fr)
                rendered += 1
            index += 1
        if rendered == 0:
            warnings.append(f"config {rc.config_id}: no usable frame, config skipped")

    return Dataset(frames, scenario.gt_calibration, model, scenario.to_dict(), warnings)


# ---------------------------------------------------------------------------
# Default scenario


def look_at(eye: Sequence[float], target: Sequence[float], up=(0.0, 0.0, 1.0)) -> Pose:
    """Camera-in-world pose: optical convention, z forward, y down."""
    eye = np.asarray(eye, float)
    fwd = np.asarray(target, float) - eye
    n = np.linalg.norm(fwd)
    if n < 1e-9:
        raise InvalidDimensions("look_at target coincides with eye")
    zc = fwd / n
    upv = np.asarray(up, float)
    yc = -(upv - np.dot(upv, zc) * zc)
    ny = np.linalg.norm(yc)
    if ny < 1e-9:
        raise InvalidDimensions("up vector parallel to viewing direction")
    yc = yc / ny
    xc = np.cross(yc, zc)
    rot = np.column_stack([xc, yc, zc])
    return Pose(Quaternion.from_rotation_matrix(rot), eye)


_DEFAULT_EE_IN_CAMERA = [
    ((0.10, 0.02, 1.10), (0.4, 1.0, 0.15), 26.0),
    ((0.17, -0.06, 1.00), (0.0, 1.0, 0.2), 24.0),
    ((-0.18, 0.07, 1.22), (1.0, 0.0, 0.0), -20.0),
    ((0.11, 0.13, 1.32), (0.5, -1.0, 0.3), 28.0),
    ((-0.14, -0.11, 1.08), (-1.0, 0.4, 0.2), 21.0),
    ((0.05, -0.15, 1.28), (0.3, 0.8, -0.5), 26.0),
]


@dataclass
class SimulatorConfig:
    """The `simulator` config section: the settings of default_scenario."""

    noise_sigma_1m: float = CameraModel.noise_sigma_1m
    noise_exponent: float = CameraModel.noise_exponent
    dropout: float = CameraModel.dropout
    frames_per_config: int = 10
    # a HalfspaceCut, or its dict {"axis": 0|1|2, "threshold": meters,
    # "remove_above": bool}
    occlusion: HalfspaceCut | None = None

    def __post_init__(self):
        if not self.frames_per_config >= 1:
            raise ValueError(f"frames_per_config must be at least 1, got {self.frames_per_config}")
        if self.occlusion is not None and not isinstance(self.occlusion, HalfspaceCut):
            try:
                self.occlusion = HalfspaceCut.from_dict(self.occlusion)
            except KeyError as e:
                raise ValueError(f"occlusion needs the key {e}") from e


def default_scenario(seed: int = 0, **settings) -> Scenario:
    """Six arm configurations seen by a fixed camera over a table.

    settings are SimulatorConfig's fields.  The end-effector poses are
    authored in the camera frame (so every configuration is visible and
    camera-facing) and converted to base-to-EE transforms through the
    ground-truth calibration.
    """
    sim = SimulatorConfig(**settings)
    cam_in_base = look_at(eye=(1.25, 0.15, 0.70), target=(0.35, 0.0, 0.35))
    gt_calibration = invert(cam_in_base)

    configs = []
    for i, (t, axis, ang) in enumerate(_DEFAULT_EE_IN_CAMERA):
        t_c_ee = Pose(Quaternion.from_axis_angle(axis, math.radians(ang)), np.asarray(t))
        configs.append(RobotConfig(i, compose(cam_in_base, t_c_ee)))

    background = [
        # Table top under the workspace.
        BackgroundPlane(
            np.array([-0.10, -0.45, 0.0]),
            np.array([0.90, 0.0, 0.0]),
            np.array([0.0, 0.90, 0.0]),
        ),
        # Wall behind the robot.
        BackgroundPlane(
            np.array([-0.30, -0.45, 0.0]),
            np.array([0.0, 0.90, 0.0]),
            np.array([0.0, 0.0, 0.90]),
        ),
    ]

    camera = CameraModel(
        noise_sigma_1m=sim.noise_sigma_1m, noise_exponent=sim.noise_exponent, dropout=sim.dropout
    )
    return Scenario(
        gt_calibration=gt_calibration,
        robot_configs=configs,
        frames_per_config=sim.frames_per_config,
        camera=camera,
        ee_model=EEModelParams(),
        background=background,
        occlusion=sim.occlusion,
        seed=seed,
    )
