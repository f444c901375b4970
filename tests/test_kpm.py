"""Tests for the keypoint-matching pose route."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_pose_close, random_pose
from depthcal.errors import (
    DegenerateGeometry,
    EmptyCloud,
    MissingGroundTruth,
    TooFewKeypoints,
)
from depthcal.geometry import LABEL_EE, PointCloud, Pose, Quaternion, compose, invert
from depthcal.kpm import (
    QUALITY_RADIUS,
    KpmConfig,
    filter_keypoints,
    kpm_pose,
    predict_keypoints,
)
from depthcal.rpt import RptConfig, rpt_pose
from depthcal.simulator import build_ee_model, default_scenario, generate_dataset


@pytest.fixture(scope="module")
def model():
    return build_ee_model()


@pytest.fixture(scope="module")
def noiseless_dataset():
    return generate_dataset(default_scenario(frames_per_config=1))


def ee_subset(cloud):
    return cloud.subset(cloud.labels == LABEL_EE)


class TestNoisyOracleKeypoints:
    def test_exact_oracle_full_view(self, noiseless_dataset):
        ds = noiseless_dataset
        frame = ds.frames[0]
        true_pose = compose(ds.gt_calibration, frame.t_b_ee)
        got = predict_keypoints(
            ee_subset(frame.cloud),
            KpmConfig(),
            ds.model.ref_keypoints,
            true_pose=true_pose,
        )
        assert [k for k, _ in got] == list(range(6))
        want = true_pose.apply(ds.model.ref_keypoints)
        for k, pos in got:
            assert np.linalg.norm(pos - want[k]) < 1e-9

    def test_predictions_are_input_points(self, noiseless_dataset):
        ds = noiseless_dataset
        frame = ds.frames[1]
        true_pose = compose(ds.gt_calibration, frame.t_b_ee)
        ee = ee_subset(frame.cloud)
        got = predict_keypoints(
            ee,
            KpmConfig(sigma_m=0.005),
            ds.model.ref_keypoints,
            true_pose=true_pose,
            rng=np.random.default_rng(5),
        )
        for _, pos in got:
            d = np.linalg.norm(ee.points - pos, axis=1).min()
            assert d == 0.0

    def test_full_dropout_returns_nothing(self, model):
        cloud = PointCloud(model.surface_cloud.points)
        got = predict_keypoints(
            cloud,
            KpmConfig(dropout=1.0),
            model.ref_keypoints,
            true_pose=Pose.identity(),
            rng=np.random.default_rng(0),
        )
        assert got == []

    def test_dropout_rate(self, model):
        cloud = PointCloud(model.surface_cloud.points)
        rng = np.random.default_rng(11)
        cfg, refs = KpmConfig(dropout=0.3), model.ref_keypoints
        n = sum(
            len(predict_keypoints(cloud, cfg, refs, true_pose=Pose.identity(), rng=rng))
            for _ in range(300)
        )
        rate = 1.0 - n / (300 * 6)
        assert abs(rate - 0.3) < 0.03

    def test_occluded_keypoint_not_predicted(self, model):
        # remove finger 2: its tip keypoint has no nearby surface left
        pts = model.surface_cloud.points
        kept = PointCloud(pts[pts[:, 1] < 0.05])
        got = predict_keypoints(
            kept,
            KpmConfig(),
            model.ref_keypoints,
            true_pose=Pose.identity(),
        )
        assert [k for k, _ in got] == [0, 1, 2, 3, 4]

    def test_noise_magnitude_statistics(self):
        # isotropic 3d gaussian: mean norm = sigma * sqrt(8/pi); a filled
        # grid makes the snap step a sub-millimeter quantization
        spacing = 0.001
        axis = np.arange(-0.02, 0.0201, spacing)
        gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
        cube = PointCloud(np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()]))
        sigma = 0.003
        refs = np.zeros((300, 3))
        got = predict_keypoints(
            cube,
            KpmConfig(sigma_m=sigma),
            refs,
            true_pose=Pose.identity(),
            rng=np.random.default_rng(21),
        )
        assert len(got) == 300
        mean_offset = float(np.mean([np.linalg.norm(p) for _, p in got]))
        want = sigma * math.sqrt(8.0 / math.pi)
        assert abs(mean_offset - want) < 0.10 * want

    def test_requires_truth(self, model):
        with pytest.raises(MissingGroundTruth):
            predict_keypoints(model.surface_cloud, KpmConfig(), model.ref_keypoints)

    def test_noisy_needs_rng(self, model):
        with pytest.raises(ValueError):
            predict_keypoints(
                model.surface_cloud,
                KpmConfig(sigma_m=0.01),
                model.ref_keypoints,
                true_pose=Pose.identity(),
            )


class TestPredictKeypointsValidation:
    def test_empty_cloud(self, model):
        with pytest.raises(EmptyCloud):
            predict_keypoints(
                PointCloud(np.zeros((0, 3))), KpmConfig(), model.ref_keypoints
            )


class TestFilterKeypoints:
    def test_far_prediction_discarded(self):
        ee = np.zeros((10, 3))
        preds = [(0, np.array([0.0, 0.0, QUALITY_RADIUS])), (1, np.array([0.0, 0.0, 0.05]))]
        kept = filter_keypoints(preds, ee)
        assert [k for k, _ in kept] == [0]

    def test_empty_inputs(self):
        assert filter_keypoints([], np.zeros((5, 3))) == []
        assert filter_keypoints([(0, np.zeros(3))], np.zeros((0, 3))) == []


poses = st.builds(lambda s: random_pose(np.random.default_rng(s)), st.integers(0, 2**31))


class TestKpmPose:
    @settings(max_examples=100, deadline=None)
    @given(poses)
    def test_recovers_any_pose_from_exact_keypoints(self, pose):
        refs = build_ee_model().ref_keypoints
        preds = [(k, p) for k, p in enumerate(pose.apply(refs))]
        assert_pose_close(kpm_pose(preds, refs), pose, atol_t=1e-9, atol_r=1e-9)

    def test_four_keypoints_suffice(self, model):
        pose = random_pose(np.random.default_rng(3))
        moved = pose.apply(model.ref_keypoints)
        preds = [(k, moved[k]) for k in (0, 2, 4, 5)]
        assert_pose_close(kpm_pose(preds, model.ref_keypoints), pose, atol_t=1e-9, atol_r=1e-9)

    def test_three_keypoints_rejected(self, model):
        pose = random_pose(np.random.default_rng(4))
        moved = pose.apply(model.ref_keypoints)
        preds = [(k, moved[k]) for k in (0, 1, 2)]
        with pytest.raises(TooFewKeypoints):
            kpm_pose(preds, model.ref_keypoints)

    def test_collinear_keypoints_degenerate(self):
        refs = np.column_stack([np.linspace(0, 0.1, 6), np.zeros(6), np.zeros(6)])
        preds = [(k, refs[k]) for k in range(4)]
        with pytest.raises(DegenerateGeometry):
            kpm_pose(preds, refs)


def _add(est: Pose, true: Pose, pts: np.ndarray) -> float:
    return float(np.mean(np.linalg.norm(est.apply(pts) - true.apply(pts), axis=1)))


def test_keypoint_route_beats_extent_route_under_occlusion():
    """With a third or more of the end-effector hidden, matching local
    keypoints stays accurate while the extent readout shifts by the size
    of the missing region."""
    ds = generate_dataset(default_scenario(frames_per_config=2, noise_sigma_1m=0.002))
    rpt_cfg = RptConfig(rotation_sigma_deg=5.0)
    kpm_cfg = KpmConfig(sigma_m=0.005, dropout=0.1)
    rng = np.random.default_rng(17)
    model_pts = ds.model.surface_cloud.points
    rpt_errs, kpm_errs = [], []
    for frame in ds.frames:
        true_pose = compose(ds.gt_calibration, frame.t_b_ee)
        ee = ee_subset(frame.cloud)
        local = invert(true_pose).apply(ee.points)
        occluded = ee.subset((local[:, 2] <= 0.052) & (local[:, 1] <= 0.04))
        assert len(occluded) < 0.7 * len(ee)
        pose_r = rpt_pose(occluded, ds.model, rpt_cfg, true_pose=true_pose, rng=rng)
        preds = predict_keypoints(
            occluded, kpm_cfg, ds.model.ref_keypoints, true_pose=true_pose, rng=rng
        )
        preds = filter_keypoints(preds, occluded.points)
        try:
            pose_k = kpm_pose(preds, ds.model.ref_keypoints)
        except TooFewKeypoints:
            continue
        rpt_errs.append(_add(pose_r, true_pose, model_pts))
        kpm_errs.append(_add(pose_k, true_pose, model_pts))
    assert len(kpm_errs) >= 6
    assert np.median(kpm_errs) <= np.median(rpt_errs)
