"""Tests for multi-frame calibration aggregation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_pose_close, random_pose
from depthcal.calibration import (
    CalibrationConfig,
    aggregate,
    calibrate,
    frame_calibration,
    mad_outlier_mask,
    rotation_outlier_mask,
    sanity_check,
)
from depthcal.errors import ConfigError, EmptyInput, NoUsableFrames
from depthcal.geometry import (
    LABEL_EE,
    PointCloud,
    Pose,
    Quaternion,
    compose,
    invert,
)
from depthcal.icp import IcpConfig
from depthcal.pipeline import PipelineConfig, estimate_frames
from depthcal.simulator import default_scenario, generate_dataset


def rz(deg: float) -> Quaternion:
    return Quaternion.from_axis_angle([0.0, 0.0, 1.0], math.radians(deg))


@pytest.fixture(scope="module")
def noiseless_dataset():
    return generate_dataset(default_scenario(frames_per_config=1))


class TestMadOutlierMask:
    def test_hand_checked_example(self):
        # median 0.05, deviations [0.05, 0.05, 0.15, 0, 49.95], MAD 0.05:
        # modified scores [0.67, 0.67, 2.02, 0, 673.8], only the last > 3.5
        mask = mad_outlier_mask([0.0, 0.1, -0.1, 0.05, 50.0])
        assert mask.tolist() == [False, False, False, False, True]

    def test_all_equal_no_outliers(self):
        assert not mad_outlier_mask([2.0] * 7).any()

    def test_single_value_no_outlier(self):
        assert mad_outlier_mask([13.0]).tolist() == [False]

    def test_constant_sample_with_one_deviant(self):
        # MAD collapses to zero; the epsilon branch still catches the 5
        mask = mad_outlier_mask([1.0, 1.0, 1.0, 1.0, 5.0])
        assert mask.tolist() == [False, False, False, False, True]

    def test_threshold_configurable(self):
        values = [0.0, 0.1, -0.1, 0.05, 50.0]
        lax = CalibrationConfig(modified_zscore_threshold=700.0)
        assert not mad_outlier_mask(values, lax).any()

    def test_idempotent_on_survivors(self):
        values = np.array([0.0, 0.1, -0.1, 0.05, 50.0])
        survivors = values[~mad_outlier_mask(values)]
        assert not mad_outlier_mask(survivors).any()

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            mad_outlier_mask([])

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            CalibrationConfig(modified_zscore_threshold=0.0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_planted_outlier_always_flagged(self, seed):
        # inliers bounded in [0, 1] keep the MAD at most 0.5, so a value
        # at 10 always scores far beyond the threshold
        rng = np.random.default_rng(seed)
        inliers = rng.uniform(0.0, 1.0, size=int(rng.integers(5, 40)))
        at = int(rng.integers(0, len(inliers) + 1))
        values = np.insert(inliers, at, 10.0)
        assert mad_outlier_mask(values)[at]


class TestRotationOutlierMask:
    def test_right_angle_entry_flagged(self):
        quats = [rz(d) for d in np.linspace(-1.0, 1.0, 9)] + [rz(90.0)]
        mask = rotation_outlier_mask(quats)
        assert mask.tolist() == [False] * 9 + [True]

    def test_identical_no_outliers(self):
        q = random_pose(np.random.default_rng(2)).rotation
        assert not rotation_outlier_mask([q] * 5).any()

    def test_antipodal_representations_no_outliers(self):
        q = random_pose(np.random.default_rng(3)).rotation
        flipped = Quaternion.from_array(-q.as_array())
        assert not rotation_outlier_mask([q, flipped, q]).any()

    def test_idempotent_on_survivors(self):
        quats = [rz(d) for d in np.linspace(-1.0, 1.0, 9)] + [rz(90.0)]
        mask = rotation_outlier_mask(quats)
        survivors = [q for q, bad in zip(quats, mask) if not bad]
        assert not rotation_outlier_mask(survivors).any()

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            rotation_outlier_mask([])


class TestAggregate:
    def test_single_pose_returned(self):
        pose = random_pose(np.random.default_rng(5))
        res = aggregate([pose])
        assert_pose_close(res.pose, pose, atol_t=1e-12, atol_r=1e-12)
        assert (res.used, res.outliers_removed, res.fallback) == (1, 0, False)

    def test_planted_outlier_removed(self):
        pose = random_pose(np.random.default_rng(7))
        far = compose(pose, Pose(rz(90.0), np.array([10.0, 0.0, 0.0])))
        res = aggregate([pose, pose, pose, far])
        assert_pose_close(res.pose, pose, atol_t=1e-12, atol_r=1e-12)
        assert (res.used, res.outliers_removed, res.fallback) == (3, 1, False)

    def test_symmetric_pair_averages_to_center(self):
        # rotations q*Rz(+a) and q*Rz(-a) average back to q exactly, and
        # the translations mirror through the center
        center = random_pose(np.random.default_rng(11))
        d = np.array([0.01, -0.02, 0.03])
        poses = [
            compose(center, Pose(rz(10.0), d)),
            compose(center, Pose(rz(-10.0), -d)),
        ]
        res = aggregate(poses)
        assert_pose_close(res.pose, center, atol_t=1e-6, atol_r=1e-6)
        assert (res.used, res.outliers_removed) == (2, 0)

    def test_three_symmetric_pairs_average_to_center(self):
        center = random_pose(np.random.default_rng(13))
        pairs = [
            ([1.0, 0.0, 0.0], 8.0, np.array([0.010, 0.004, -0.006])),
            ([0.0, 1.0, 0.0], 12.0, np.array([-0.007, 0.011, 0.005])),
            ([0.0, 0.0, 1.0], 5.0, np.array([0.006, -0.009, 0.012])),
        ]
        poses = []
        for axis, deg, d in pairs:
            q = Quaternion.from_axis_angle(axis, math.radians(deg))
            qi = Quaternion.from_axis_angle(axis, -math.radians(deg))
            poses.append(compose(center, Pose(q, d)))
            poses.append(compose(center, Pose(qi, -d)))
        res = aggregate(poses)
        assert_pose_close(res.pose, center, atol_t=1e-6, atol_r=1e-6)
        assert res.used == 6

    def test_permutation_invariance(self):
        rng = np.random.default_rng(17)
        poses = [random_pose(rng, t_scale=0.1) for _ in range(6)]
        base = aggregate(poses)
        shuffled = aggregate([poses[i] for i in (4, 0, 5, 2, 1, 3)])
        assert_pose_close(base.pose, shuffled.pose, atol_t=1e-12, atol_r=1e-12)
        assert base.used == shuffled.used

    def test_quaternion_sign_invariance(self):
        rng = np.random.default_rng(19)
        poses = [random_pose(rng, t_scale=0.1) for _ in range(6)]
        flipped = [
            Pose(Quaternion.from_array(-p.rotation.as_array()), p.translation)
            if i in (1, 4)
            else p
            for i, p in enumerate(poses)
        ]
        assert_pose_close(
            aggregate(poses).pose, aggregate(flipped).pose, atol_t=1e-12, atol_r=1e-12
        )

    def test_fallback_when_union_flags_everything(self):
        # each axis flags a different subset via the constant-MAD branch;
        # the union covers all five poses, so averaging falls back to the
        # full set
        xs = [0.0, 0.0, 0.0, 9.0, 9.0]
        ys = [9.0, 9.0, 0.0, 0.0, 0.0]
        zs = [0.0, 0.0, 9.0, 0.0, 0.0]
        poses = [
            Pose(Quaternion.identity(), np.array(t)) for t in zip(xs, ys, zs)
        ]
        res = aggregate(poses)
        assert res.fallback
        assert (res.used, res.outliers_removed) == (5, 0)
        np.testing.assert_allclose(res.pose.translation, [3.6, 3.6, 1.8])

    def test_single_axis_outlier_rejected(self):
        # deviant only on x: one flagged axis is enough to remove the pose
        poses = [Pose(Quaternion.identity(), np.zeros(3)) for _ in range(5)]
        poses.append(Pose(Quaternion.identity(), np.array([5.0, 0.0, 0.0])))
        res = aggregate(poses)
        assert (res.used, res.outliers_removed) == (5, 1)
        np.testing.assert_array_equal(res.pose.translation, np.zeros(3))

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            aggregate([])


pose_seeds = st.integers(0, 2**31 - 1)


class TestFrameCalibration:
    def test_equal_poses_give_identity(self):
        p = random_pose(np.random.default_rng(23))
        assert_pose_close(frame_calibration(p, p), Pose.identity())

    def test_identity_base_pose(self):
        p = random_pose(np.random.default_rng(29))
        assert_pose_close(frame_calibration(p, Pose.identity()), p)

    @settings(max_examples=200, deadline=None)
    @given(pose_seeds, pose_seeds)
    def test_round_trip_recovers_camera_pose(self, sa, sb):
        t_c_ee = random_pose(np.random.default_rng(sa))
        t_b_ee = random_pose(np.random.default_rng(sb))
        back = compose(frame_calibration(t_c_ee, t_b_ee), t_b_ee)
        assert_pose_close(back, t_c_ee, atol_t=1e-9, atol_r=1e-9)

    def test_simulator_frames_recover_scenario_calibration(self, noiseless_dataset):
        ds = noiseless_dataset
        for frame in ds.frames:
            t_c_ee = compose(ds.gt_calibration, frame.t_b_ee)
            got = frame_calibration(t_c_ee, frame.t_b_ee)
            assert_pose_close(got, ds.gt_calibration, atol_t=1e-9, atol_r=1e-9)


class TestSanityCheck:
    def test_empty_cloud_fails(self):
        check = sanity_check(PointCloud(np.zeros((0, 3))))
        assert not check.passed
        assert "too few" in check.reason

    def test_full_view_passes(self, noiseless_dataset):
        frame = noiseless_dataset.frames[0]
        ee = frame.cloud.subset(frame.cloud.labels == LABEL_EE)
        check = sanity_check(ee)
        assert check.passed and check.reason is None

    def test_sparse_view_fails_on_count(self, noiseless_dataset):
        frame = noiseless_dataset.frames[0]
        ee = frame.cloud.subset(frame.cloud.labels == LABEL_EE)
        sparse = ee.subset(np.arange(len(ee)) % 30 == 0)
        assert len(sparse) < 300
        check = sanity_check(sparse)
        assert not check.passed
        assert "too few" in check.reason

    def test_small_footprint_fails_on_bbox(self):
        rng = np.random.default_rng(31)
        patch = PointCloud(rng.uniform(0.0, 0.02, size=(400, 3)))
        check = sanity_check(patch)
        assert not check.passed
        assert "bounding box" in check.reason

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            CalibrationConfig(min_ee_points=0)
        with pytest.raises(ConfigError):
            CalibrationConfig(min_bbox_diagonal=-0.1)


class TestCalibrate:
    def test_noiseless_recovers_ground_truth(self, noiseless_dataset):
        ds = noiseless_dataset
        res = calibrate(ds)
        assert_pose_close(
            res.calibration, ds.gt_calibration, atol_t=1e-4, atol_r=math.radians(0.01)
        )
        assert res.rejected_frames == 0
        assert res.method_counts == {"rpt": 6, "kpm": 6}
        assert [g.config_id for g in res.groups] == [0, 1, 2, 3, 4, 5]
        assert all(g.frames_used == 1 for g in res.groups)
        assert not res.fallback
        assert res.icp_enabled

    def test_without_icp_still_exact_at_zero_noise(self, noiseless_dataset):
        ds = noiseless_dataset
        res = calibrate(ds, PipelineConfig(icp=IcpConfig(enabled=False)))
        assert not res.icp_enabled
        assert_pose_close(
            res.calibration, ds.gt_calibration, atol_t=1e-4, atol_r=math.radians(0.01)
        )

    def test_single_config_matches_flat_aggregation(self):
        scn = default_scenario(frames_per_config=3)
        scn = dataclasses.replace(scn, robot_configs=scn.robot_configs[:1])
        ds = generate_dataset(scn)
        cfg = PipelineConfig()
        res = calibrate(ds, cfg)
        assert len(res.groups) == 1

        flat = []
        for fe in estimate_frames(ds, cfg):
            for m in fe.estimates:
                flat.append(frame_calibration(m.chosen_pose(cfg.icp.enabled), fe.t_b_ee))
        expected = aggregate(flat, cfg.calibration)
        assert_pose_close(res.calibration, expected.pose, atol_t=1e-12, atol_r=1e-12)
        assert res.groups[0].samples_used == expected.used

    def test_occluded_config_group_absent_final_still_produced(self):
        # config 3 pokes just past the frustum edge: only a sliver of the
        # end effector stays visible, far below the raised sanity floor,
        # while every full view clears it comfortably
        scn = default_scenario(frames_per_config=1)
        sliver = compose(
            invert(scn.gt_calibration),
            Pose(Quaternion.identity(), np.array([0.72, 0.0, 1.1])),
        )
        configs = list(scn.robot_configs)
        configs[3] = dataclasses.replace(configs[3], t_b_ee=sliver)
        ds = generate_dataset(dataclasses.replace(scn, robot_configs=configs))
        cfg = PipelineConfig(calibration=CalibrationConfig(min_ee_points=2000))
        res = calibrate(ds, cfg)
        assert [g.config_id for g in res.groups] == [0, 1, 2, 4, 5]
        assert res.rejected_frames == 1
        assert_pose_close(
            res.calibration, ds.gt_calibration, atol_t=1e-4, atol_r=math.radians(0.01)
        )

    def test_every_frame_rejected_raises(self, noiseless_dataset):
        strict = PipelineConfig(calibration=CalibrationConfig(min_ee_points=10**6))
        with pytest.raises(NoUsableFrames):
            calibrate(noiseless_dataset, strict)
