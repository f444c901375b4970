"""Tests for the rotation-then-extents pose route.

The geometric content is checked two ways: exact recovery on noise-free
clouds (the extent rules are calibrated to the model by construction)
and rotation equivariance of the translation readout.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_pose_close, random_pose, random_quaternion
from depthcal.errors import MissingGroundTruth, TooFewPoints
from depthcal.geometry import (
    LABEL_EE,
    PointCloud,
    Pose,
    Quaternion,
    compose,
    rotation_distance,
)
from depthcal.rpt import RptConfig, rotate_back, rpt_pose, rpt_translation
from depthcal.simulator import build_ee_model, default_scenario, generate_dataset


@pytest.fixture(scope="module")
def model():
    return build_ee_model()


@pytest.fixture(scope="module")
def noiseless_dataset():
    return generate_dataset(default_scenario(frames_per_config=1))


def ee_subset(cloud):
    return cloud.subset(cloud.labels == LABEL_EE)


class TestRotateBack:
    def test_identity_is_noop(self, model):
        out = rotate_back(model.surface_cloud, Quaternion.identity())
        np.testing.assert_allclose(out.points, model.surface_cloud.points, atol=0)

    def test_undoes_rotation(self, model):
        rng = np.random.default_rng(3)
        q = random_quaternion(rng)
        rotated = PointCloud(model.surface_cloud.points @ q.rotation_matrix().T)
        out = rotate_back(rotated, q)
        np.testing.assert_allclose(out.points, model.surface_cloud.points, atol=1e-12)

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(50, 3))
        q = random_quaternion(rng)
        out = rotate_back(PointCloud(pts), q)
        want = (q.rotation_matrix().T @ pts.T).T
        np.testing.assert_allclose(out.points, want, atol=1e-14)

    def test_keeps_labels_and_ids(self, model):
        out = rotate_back(model.surface_cloud, Quaternion.identity())
        np.testing.assert_array_equal(out.labels, model.surface_cloud.labels)
        np.testing.assert_array_equal(out.keypoint_ids, model.surface_cloud.keypoint_ids)


class TestRptTranslation:
    def test_recovers_pure_translation(self, model):
        t_true = np.array([0.0, 0.0, 1.0])
        pts = model.surface_cloud.points + t_true
        t = rpt_translation(pts, model.rpt_descriptor, Quaternion.identity())
        np.testing.assert_allclose(t, t_true, atol=1e-6)

    def test_apply_then_recover(self, model):
        rng = np.random.default_rng(7)
        for _ in range(10):
            pose = random_pose(rng)
            pts = pose.apply(model.surface_cloud.points)
            de_rotated = pts @ pose.rotation.rotation_matrix()
            t = rpt_translation(de_rotated, model.rpt_descriptor, pose.rotation)
            np.testing.assert_allclose(t, pose.translation, atol=1e-6)

    def test_too_few_points(self, model):
        with pytest.raises(TooFewPoints):
            rpt_translation(np.zeros((9, 3)), model.rpt_descriptor, Quaternion.identity())

    def test_trim_absorbs_single_outlier(self, model):
        pose = Pose(Quaternion.identity(), np.array([0.05, -0.02, 1.2]))
        pts = pose.apply(model.surface_cloud.points)
        hi_x = model.surface_cloud.points[:, 0].max()
        outlier = pose.apply(np.array([[hi_x + 0.10, 0.0, 0.0]]))
        spoiled = np.vstack([pts, outlier])
        t_trim = rpt_translation(
            spoiled, model.rpt_descriptor, pose.rotation, trim_fraction=0.002
        )
        t_raw = rpt_translation(spoiled, model.rpt_descriptor, pose.rotation)
        # the extreme faces carry hundreds of grid points, so trimming a
        # handful cannot move the extent while the lone outlier can
        assert np.linalg.norm(t_trim - pose.translation) < 1e-3
        assert np.linalg.norm(t_raw - pose.translation) > 0.05

    def test_trim_changes_nothing_on_noiseless_views(self, noiseless_dataset):
        # each extreme face of a noiseless view holds many points at its
        # exact coordinate, so trimming may apply to every dataset
        ds = noiseless_dataset
        for frame in ds.frames:
            rot = compose(ds.gt_calibration, frame.t_b_ee).rotation
            args = (rotate_back(ee_subset(frame.cloud), rot).points, ds.model.rpt_descriptor, rot)
            trimmed = rpt_translation(*args, trim_fraction=0.002)
            np.testing.assert_allclose(trimmed, rpt_translation(*args), rtol=0, atol=1e-12)

    def test_missing_chunk_shifts_translation(self, model):
        # everything within 2.5 cm of the front face occluded
        pts = model.surface_cloud.points
        hi_x = pts[:, 0].max()
        visible = pts[pts[:, 0] <= hi_x - 0.025]
        t = rpt_translation(visible, model.rpt_descriptor, Quaternion.identity())
        assert np.linalg.norm(t) > 0.02


quats = st.builds(
    lambda s: random_quaternion(np.random.default_rng(s)), st.integers(0, 2**31)
)


class TestEquivariance:
    @settings(max_examples=60, deadline=None)
    @given(quats, quats)
    def test_rotation_equivariance(self, r, r0):
        model = build_ee_model()
        base = model.surface_cloud.points[::40] @ r0.rotation_matrix().T + np.array(
            [0.1, -0.05, 0.9]
        )
        t0 = rpt_translation(
            base @ r0.rotation_matrix(), model.rpt_descriptor, r0
        )
        rotated = base @ r.rotation_matrix().T
        r_combined = r.multiply(r0)
        t1 = rpt_translation(
            rotated @ r_combined.rotation_matrix(), model.rpt_descriptor, r_combined
        )
        np.testing.assert_allclose(t1, r.rotate(t0), atol=1e-9)


def oracle_rotation(model, sigma_deg, true_pose, rng=None):
    """The rotation rpt_pose predicts; it does not depend on the points."""
    cloud = PointCloud(model.surface_cloud.points[::100])
    cfg = RptConfig(rotation_sigma_deg=sigma_deg)
    return rpt_pose(cloud, model, cfg, true_pose=true_pose, rng=rng).rotation


class TestNoisyOracleRotation:
    def test_sigma_zero_is_exact(self, model):
        pose = random_pose(np.random.default_rng(0))
        got = oracle_rotation(model, 0.0, pose)
        assert rotation_distance(got, pose.rotation) < 1e-12

    def test_requires_truth(self, model):
        with pytest.raises(MissingGroundTruth):
            oracle_rotation(model, 0.0, None)

    def test_noisy_needs_rng(self, model):
        pose = random_pose(np.random.default_rng(0))
        with pytest.raises(ValueError):
            oracle_rotation(model, 5.0, pose)

    def test_angular_error_statistics(self, model):
        # |N(0, sigma)| has mean sigma * sqrt(2/pi)
        sigma = 5.0
        rng = np.random.default_rng(42)
        pose = random_pose(np.random.default_rng(1))
        errs = [
            rotation_distance(oracle_rotation(model, sigma, pose, rng), pose.rotation)
            for _ in range(2000)
        ]
        mean_deg = math.degrees(float(np.mean(errs)))
        want = sigma * math.sqrt(2.0 / math.pi)
        assert abs(mean_deg - want) < 0.1 * want


class TestRptPose:
    def test_noiseless_frames_recover_ground_truth(self, noiseless_dataset):
        ds = noiseless_dataset
        for frame in ds.frames:
            true_pose = compose(ds.gt_calibration, frame.t_b_ee)
            got = rpt_pose(ee_subset(frame.cloud), ds.model, RptConfig(), true_pose=true_pose)
            assert_pose_close(got, true_pose, atol_t=1e-6, atol_r=1e-6)

    def test_rotation_noise_bounds_translation_error(self, noiseless_dataset):
        # a rotation error of theta moves any point by at most
        # 2 sin(theta/2) |p|, so each axis extent and hence each
        # translation component shifts by at most that much
        ds = noiseless_dataset
        r_max = float(np.linalg.norm(ds.model.surface_cloud.points, axis=1).max())
        cfg = RptConfig(rotation_sigma_deg=5.0)
        rng = np.random.default_rng(9)
        frame = ds.frames[0]
        true_pose = compose(ds.gt_calibration, frame.t_b_ee)
        ee = ee_subset(frame.cloud)
        for _ in range(25):
            got = rpt_pose(ee, ds.model, cfg, true_pose=true_pose, rng=rng)
            theta = rotation_distance(got.rotation, true_pose.rotation)
            bound = math.sqrt(3.0) * 2.0 * math.sin(theta / 2.0) * r_max + 1e-9
            err = float(np.linalg.norm(got.translation - true_pose.translation))
            assert err <= bound
