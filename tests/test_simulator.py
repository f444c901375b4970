from __future__ import annotations

import numpy as np
import pytest
from scipy.spatial import cKDTree

from depthcal.errors import EEOutsideFrustum, InvalidDimensions
from depthcal.geometry import LABEL_BACKGROUND, LABEL_EE, PointCloud, Pose, compose, invert
from depthcal.simulator import (
    AxisRule,
    CameraModel,
    EEModel,
    EEModelParams,
    HalfspaceCut,
    build_ee_model,
    default_scenario,
    generate_dataset,
    render_frame,
)


def apply_axis_rules(points, rules):
    lo, hi = points.min(axis=0), points.max(axis=0)
    out = np.zeros(3)
    for r in rules:
        if r.extreme == "max":
            out[r.axis] = hi[r.axis] - r.inset
        elif r.extreme == "min":
            out[r.axis] = lo[r.axis] + r.inset
        else:
            out[r.axis] = 0.5 * (lo[r.axis] + hi[r.axis])
    return out


class TestBuildEEModel:
    def test_default_is_dense(self):
        m = build_ee_model()
        assert len(m.surface_cloud) >= 20000

    def test_point_count_scales_with_density(self):
        n1 = len(build_ee_model(EEModelParams(density=8.0e5)).surface_cloud)
        n2 = len(build_ee_model(EEModelParams(density=1.6e6)).surface_cloud)
        assert 1.8 <= n2 / n1 <= 2.2

    def test_keypoints_lie_on_surface(self):
        m = build_ee_model()
        tree = cKDTree(m.surface_cloud.points)
        d, _ = tree.query(m.ref_keypoints)
        assert d.max() < 1e-3

    def test_tip_keypoints_separated_by_gap(self):
        gap = 0.11
        m = build_ee_model(EEModelParams(finger_gap=gap))
        assert abs(np.linalg.norm(m.ref_keypoints[5] - m.ref_keypoints[4]) - gap) < 1e-12

    def test_descriptor_recovers_origin(self):
        m = build_ee_model()
        origin = apply_axis_rules(m.surface_cloud.points, m.rpt_descriptor)
        assert np.abs(origin).max() < 1e-6

    def test_bbox_bounds_cloud(self):
        m = build_ee_model()
        assert np.all(m.surface_cloud.points >= m.bbox[0] - 1e-12)
        assert np.all(m.surface_cloud.points <= m.bbox[1] + 1e-12)

    def test_bad_dimensions_rejected(self):
        with pytest.raises(InvalidDimensions):
            build_ee_model(EEModelParams(body=(0.0, 0.06, 0.05)))
        with pytest.raises(InvalidDimensions):
            build_ee_model(EEModelParams(finger=(0.1, 0.015, 0.05)))  # wider than the body
        with pytest.raises(InvalidDimensions):
            build_ee_model(EEModelParams(origin_inset=0.2))


def _flat_plane_model(n_side: int = 317, half: float = 0.1) -> EEModel:
    """Square plane used as a minimal stand-in model for sensor tests."""
    s = np.linspace(-half, half, n_side)
    gx, gy = np.meshgrid(s, s)
    pts = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
    cloud = PointCloud(pts, labels=np.full(len(pts), LABEL_EE))
    rules = (AxisRule(0, "mid"), AxisRule(1, "mid"), AxisRule(2, "min"))
    bbox = np.stack([pts.min(axis=0), pts.max(axis=0)])
    return EEModel(cloud, np.zeros((6, 3)), rules, bbox)


class TestRenderFrame:
    def test_noiseless_ee_points_lie_on_model(self):
        sc = default_scenario(seed=3, frames_per_config=1)
        ds = generate_dataset(sc)
        for fr in ds.frames:
            ee = fr.cloud.subset(fr.cloud.labels == LABEL_EE)
            true_pose = compose(ds.gt_calibration, fr.t_b_ee)
            local = invert(true_pose).apply(ee.points)
            d, _ = cKDTree(ds.model.surface_cloud.points).query(local)
            assert d.max() < 1e-6

    def test_background_labels_sound(self):
        sc = default_scenario(seed=4, frames_per_config=1)
        ds = generate_dataset(sc)
        lo, hi = ds.model.bbox[0] - 0.01, ds.model.bbox[1] + 0.01
        for fr in ds.frames:
            bg = fr.cloud.subset(fr.cloud.labels == LABEL_BACKGROUND)
            local = invert(compose(ds.gt_calibration, fr.t_b_ee)).apply(bg.points)
            inside = np.all((local >= lo) & (local <= hi), axis=1)
            assert not inside.any()

    def test_keypoint_ids_unique_per_frame(self):
        sc = default_scenario(seed=5, frames_per_config=2)
        for fr in generate_dataset(sc).frames:
            tagged = fr.cloud.keypoint_ids[fr.cloud.keypoint_ids >= 0]
            assert len(tagged) == len(set(tagged.tolist()))

    def test_self_occlusion_removes_back_face(self):
        # At the canonical pose the body's back face sits directly behind
        # its front face, so its interior must not survive.
        m = build_ee_model()
        fr = render_frame(m, Pose(Pose.identity().rotation, [0.0, 0.0, 1.1]), CameraModel())
        local = fr.cloud.points - np.array([0.0, 0.0, 1.1])
        back_interior = (
            (np.abs(local[:, 0] + 0.015) < 0.02)
            & (np.abs(local[:, 1]) < 0.02)
            & (np.abs(local[:, 2] - 0.10) < 1e-6)
        )
        assert not back_interior.any()
        # The front of the fingers (z = 0 plane) must survive.
        assert (np.abs(local[:, 2]) < 1e-6).sum() > 100

    def test_noise_std_matches_model(self):
        # sigma(z) = sigma_1m * (z/1m)^2 -> 2 mm at 1 m becomes 8 mm at 2 m.
        m = _flat_plane_model()
        pose = Pose(Pose.identity().rotation, [0.0, 0.0, 2.0])
        cam = CameraModel(noise_sigma_1m=0.002, noise_exponent=2.0)
        fr = render_frame(m, pose, cam, seed=11)
        clean = pose.apply(m.surface_cloud.points)
        assert len(fr.cloud) == len(clean)  # no dropout, nothing occluded
        shift = np.linalg.norm(fr.cloud.points, axis=1) - np.linalg.norm(clean, axis=1)
        assert abs(shift.std() - 0.008) / 0.008 < 0.05
        assert abs(shift.mean()) < 0.008 / np.sqrt(len(shift)) * 4

    def test_dropout_removes_everything(self):
        m = _flat_plane_model(n_side=50)
        pose = Pose(Pose.identity().rotation, [0.0, 0.0, 1.5])
        fr = render_frame(m, pose, CameraModel(dropout=1.0), seed=2)
        assert len(fr.cloud) == 0

    def test_dropout_rate(self):
        m = _flat_plane_model()
        pose = Pose(Pose.identity().rotation, [0.0, 0.0, 1.5])
        fr = render_frame(m, pose, CameraModel(dropout=0.1), seed=3)
        frac = 1.0 - len(fr.cloud) / len(m.surface_cloud)
        assert abs(frac - 0.1) < 0.01

    def test_ee_behind_camera_rejected(self):
        m = build_ee_model()
        with pytest.raises(EEOutsideFrustum):
            render_frame(m, Pose(Pose.identity().rotation, [0.0, 0.0, -1.0]), CameraModel())

    def test_halfspace_cut_removes_one_finger(self):
        m = build_ee_model()
        pose = Pose(Pose.identity().rotation, [0.0, 0.0, 1.1])
        cut = HalfspaceCut(axis=1, threshold=0.05, remove_above=True)
        fr = render_frame(m, pose, CameraModel(), occlusion=cut)
        local = fr.cloud.points - np.array([0.0, 0.0, 1.1])
        assert local[:, 1].max() < 0.05
        assert 5 not in fr.cloud.keypoint_ids
        assert 4 in fr.cloud.keypoint_ids


class TestGenerateDataset:
    def test_shape_and_visibility(self):
        sc = default_scenario(seed=0, frames_per_config=2)
        ds = generate_dataset(sc)
        assert len(ds.frames) == 12
        assert ds.warnings == []
        for fr in ds.frames:
            assert (fr.cloud.labels == LABEL_EE).sum() > 1000

    def test_same_seed_bit_identical(self):
        a = generate_dataset(default_scenario(seed=9, frames_per_config=2, noise_sigma_1m=0.002))
        b = generate_dataset(default_scenario(seed=9, frames_per_config=2, noise_sigma_1m=0.002))
        assert len(a.frames) == len(b.frames)
        for fa, fb in zip(a.frames, b.frames):
            assert np.array_equal(fa.cloud.points, fb.cloud.points)
            assert np.array_equal(fa.cloud.labels, fb.cloud.labels)

    def test_different_frames_differ(self):
        ds = generate_dataset(default_scenario(seed=9, frames_per_config=2, noise_sigma_1m=0.002))
        a, b = ds.frames[0], ds.frames[1]
        assert a.config_id == b.config_id
        assert len(a.cloud) != len(b.cloud) or not np.array_equal(a.cloud.points, b.cloud.points)

    def test_unreachable_config_warns(self):
        sc = default_scenario(seed=1, frames_per_config=2)
        bad = sc.robot_configs[0]
        far = Pose(bad.t_b_ee.rotation, bad.t_b_ee.translation + np.array([0.0, 0.0, 50.0]))
        sc.robot_configs[0] = type(bad)(bad.config_id, far)
        ds = generate_dataset(sc)
        assert any("config 0" in w for w in ds.warnings)
        assert len(ds.frames) == 10  # five remaining configs
