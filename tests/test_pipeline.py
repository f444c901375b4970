"""Tests for the per-frame estimation pipeline."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import assert_pose_close
from depthcal import pipeline
from depthcal.geometry import LABEL_BACKGROUND, LABEL_EE, PointCloud, Pose, compose
from depthcal.calibration import CalibrationConfig
from depthcal.icp import VOXEL_SIZE, IcpResult, IcpSource, prepare_source, voxel_downsample
from depthcal.kpm import KpmConfig
from depthcal.pipeline import (
    FrameEstimate,
    MethodEstimate,
    PipelineConfig,
    estimate_frame,
    estimate_frames,
)
from depthcal.rpt import RptConfig
from depthcal.segmentation import SegmentationConfig
from depthcal.simulator import Frame, default_scenario, generate_dataset


@pytest.fixture(scope="module")
def noiseless_dataset():
    return generate_dataset(default_scenario(frames_per_config=1))


@pytest.fixture(scope="module")
def noisy_dataset():
    return generate_dataset(
        default_scenario(seed=2, noise_sigma_1m=0.002, dropout=0.1, frames_per_config=2)
    )


@pytest.fixture(scope="module")
def noisy_cfg():
    return PipelineConfig(
        seed=2, rpt=RptConfig(rotation_sigma_deg=5.0), kpm=KpmConfig(sigma_m=0.005, dropout=0.1)
    )


@pytest.fixture(scope="module")
def degenerate_source(noisy_dataset, noisy_cfg):
    return pipeline.dataset_source(noisy_dataset, noisy_cfg)


@pytest.fixture(scope="module")
def noisy_estimates(noisy_dataset, noisy_cfg):
    return estimate_frames(noisy_dataset, noisy_cfg)


def poses_equal(a: Pose, b: Pose) -> bool:
    return np.array_equal(a.translation, b.translation) and np.array_equal(
        a.rotation.as_array(), b.rotation.as_array()
    )


def frame_estimates_equal(a: FrameEstimate, b: FrameEstimate) -> bool:
    if (a.skipped_reason, a.config_id, len(a.estimates)) != (
        b.skipped_reason,
        b.config_id,
        len(b.estimates),
    ):
        return False
    for ma, mb in zip(a.estimates, b.estimates):
        if ma.method != mb.method or not poses_equal(ma.pose, mb.pose):
            return False
        if (ma.refined_pose is None) != (mb.refined_pose is None):
            return False
        if ma.refined_pose is not None and not poses_equal(ma.refined_pose, mb.refined_pose):
            return False
    return True


class TestMethodEstimate:
    def test_chosen_pose_prefers_refinement(self):
        raw, fine = Pose.identity(), Pose.identity()
        est = MethodEstimate("rpt", raw, icp=IcpResult(fine, 1.0, 0.0, 1, True))
        assert est.chosen_pose(use_icp=True) is fine
        assert est.chosen_pose(use_icp=False) is raw
        assert MethodEstimate("rpt", raw).chosen_pose(use_icp=True) is raw

    def test_usable_property(self):
        fe = FrameEstimate(0, 0, Pose.identity(), None)
        assert not fe.usable
        fe.estimates.append(MethodEstimate("rpt", Pose.identity()))
        assert fe.usable
        fe.skipped_reason = "whatever"
        assert not fe.usable


class TestZeroNoise:
    def test_all_frames_exact(self, noiseless_dataset):
        ds = noiseless_dataset
        results = estimate_frames(ds)
        assert len(results) == len(ds.frames)
        for fe in results:
            assert fe.usable
            assert [m.method for m in fe.estimates] == ["rpt", "kpm"]
            true_pose = compose(ds.gt_calibration, fe.t_b_ee)
            for m in fe.estimates:
                assert_pose_close(m.pose, true_pose, atol_t=1e-9, atol_r=1e-9)
                assert m.refined_pose is not None
                assert_pose_close(m.refined_pose, true_pose, atol_t=1e-9, atol_r=1e-9)


class TestSkipPaths:
    def test_background_only_frame(self, noiseless_dataset):
        pts = np.random.default_rng(0).uniform(-1, 1, size=(500, 3)) + [0, 0, 2]
        cloud = PointCloud(pts, labels=np.full(500, LABEL_BACKGROUND))
        frame = Frame(cloud, config_id=0, t_b_ee=Pose.identity())
        fe = estimate_frame(frame, 0, noiseless_dataset.model)
        assert not fe.usable
        assert "no end-effector points" in fe.skipped_reason

    def test_empty_frame(self, noiseless_dataset):
        frame = Frame(PointCloud(np.zeros((0, 3))), config_id=0, t_b_ee=Pose.identity())
        fe = estimate_frame(frame, 0, noiseless_dataset.model)
        assert not fe.usable
        assert "segmentation failed" in fe.skipped_reason

    def test_sanity_rejection(self, noiseless_dataset):
        ds = noiseless_dataset
        cfg = PipelineConfig(calibration=CalibrationConfig(min_ee_points=10**6))
        fe = estimate_frame(ds.frames[0], 0, ds.model, cfg, ds.gt_calibration)
        assert not fe.usable
        assert "sanity check failed" in fe.skipped_reason
        assert fe.ee_cloud is not None
        assert fe.estimates == []


class TestNonFinitePoints:
    def test_nan_row_changes_nothing(self, noiseless_dataset):
        ds = noiseless_dataset
        frame = ds.frames[0]
        c = frame.cloud
        spoiled = PointCloud(
            np.vstack([c.points, np.full((1, 3), np.nan)]),
            labels=np.append(c.labels, LABEL_EE),
            keypoint_ids=np.append(c.keypoint_ids, -1),
        )
        cfg = PipelineConfig()
        source = pipeline.dataset_source(ds, cfg)
        clean = estimate_frame(frame, 0, ds.model, cfg, ds.gt_calibration, source)
        nan = estimate_frame(
            dataclasses.replace(frame, cloud=spoiled), 0, ds.model, cfg, ds.gt_calibration, source
        )
        assert clean.usable
        assert all(m.refined_pose is not None for m in clean.estimates)
        assert frame_estimates_equal(nan, clean)

    def test_all_nan_frame_skipped_at_segmentation(self, noiseless_dataset):
        cloud = PointCloud(np.full((50, 3), np.nan), labels=np.full(50, LABEL_EE))
        frame = Frame(cloud, config_id=0, t_b_ee=Pose.identity())
        fe = estimate_frame(frame, 0, noiseless_dataset.model)
        assert fe.skipped_reason.startswith("segmentation failed")


def degenerate_cloud(cloud: PointCloud, kind: str, rng: np.random.Generator) -> PointCloud:
    """A sensor failure applied to a rendered frame's cloud."""
    ee_points = cloud.points[cloud.labels == LABEL_EE]
    if kind == "empty":
        return PointCloud(np.zeros((0, 3)), labels=np.zeros(0))
    if kind in ("single", "duplicate"):
        n = 1 if kind == "single" else int(rng.integers(2, 400))
        point = ee_points[rng.integers(len(ee_points))]
        return PointCloud(np.tile(point, (n, 1)), labels=np.full(n, LABEL_EE))
    points, labels = cloud.points.copy(), cloud.labels.copy()
    if kind == "non_finite":
        rows = rng.random(len(points)) < rng.choice([0.01, 0.5, 1.0])
        cols = rng.integers(3, size=int(rows.sum()))
        points[np.flatnonzero(rows), cols] = rng.choice([np.nan, np.inf, -np.inf], size=len(cols))
        return PointCloud(points, labels=labels)
    # far outliers labelled as end effector, alone or beside the gripper
    n = int(rng.integers(1, 6))
    far = rng.choice([-1.0, 1.0], size=(n, 3)) * 10.0 ** rng.uniform(2, 6, size=(n, 3))
    if rng.random() < 0.5:
        points, labels = points[labels != LABEL_EE], labels[labels != LABEL_EE]
    return PointCloud(np.vstack([points, far]), labels=np.append(labels, np.full(n, LABEL_EE)))


class TestDegenerateFrames:
    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["empty", "single", "duplicate", "non_finite", "far_outlier"]),
        frame_index=st.integers(0, 11),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(kind="non_finite", frame_index=0, seed=0)
    @example(kind="far_outlier", frame_index=0, seed=0)
    def test_estimate_frame_returns_or_explains(
        self, noisy_dataset, noisy_cfg, degenerate_source, kind, frame_index, seed
    ):
        ds = noisy_dataset
        frame = ds.frames[frame_index]
        cloud = degenerate_cloud(frame.cloud, kind, np.random.default_rng(seed))
        cfg = dataclasses.replace(
            noisy_cfg, segmentation=SegmentationConfig(flip_probability=0.02, speckle_rate=0.01)
        )
        fe = estimate_frame(
            dataclasses.replace(frame, cloud=cloud), frame_index, ds.model, cfg,
            ds.gt_calibration, degenerate_source,
        )
        assert isinstance(fe, FrameEstimate)
        assert fe.frame_index == frame_index
        if not fe.estimates:
            assert fe.skipped_reason
        for m in fe.estimates:
            for pose in (m.pose, m.refined_pose or m.pose):
                assert np.isfinite(pose.translation).all()
                assert np.isfinite(pose.rotation.as_array()).all()


class TestDeterminism:
    def test_same_seed_bitwise_identical(self, noisy_dataset, noisy_cfg, noisy_estimates):
        again = estimate_frames(noisy_dataset, noisy_cfg)
        assert len(again) == len(noisy_estimates)
        for a, b in zip(noisy_estimates, again):
            assert frame_estimates_equal(a, b)

    def test_worker_threads_change_nothing(self, noisy_dataset, noisy_cfg, noisy_estimates):
        parallel_cfg = dataclasses.replace(noisy_cfg, jobs=4)
        parallel = estimate_frames(noisy_dataset, parallel_cfg)
        for a, b in zip(noisy_estimates, parallel):
            assert frame_estimates_equal(a, b)

    def test_frame_results_independent_of_batch(
        self, noisy_dataset, noisy_cfg, noisy_estimates, degenerate_source
    ):
        # one frame estimated on its own must reproduce the batch result,
        # proving the rng streams derive from (seed, frame index) alone
        ds = noisy_dataset
        alone = estimate_frame(
            ds.frames[5], 5, ds.model, noisy_cfg, ds.gt_calibration, degenerate_source
        )
        assert frame_estimates_equal(alone, noisy_estimates[5])

    def test_seed_changes_predictions(self, noisy_dataset, noisy_cfg, noisy_estimates):
        ds = noisy_dataset
        other_cfg = dataclasses.replace(noisy_cfg, seed=3)
        other = estimate_frame(ds.frames[5], 5, ds.model, other_cfg, ds.gt_calibration)
        base = noisy_estimates[5]
        assert not poses_equal(other.estimates[0].pose, base.estimates[0].pose)


class TestNoisyRun:
    def test_frames_usable_and_refined(self, noisy_dataset, noisy_estimates):
        assert len(noisy_estimates) == len(noisy_dataset.frames)
        methods = {"rpt": 0, "kpm": 0}
        for fe in noisy_estimates:
            assert fe.usable
            for m in fe.estimates:
                methods[m.method] += 1
                assert m.refined_pose is not None
                assert m.icp is not None
                assert 0.0 < m.icp.fitness <= 1.0
        assert methods["rpt"] == len(noisy_estimates)
        assert methods["kpm"] >= len(noisy_estimates) - 2

    def test_refinement_histories_monotone(self, noisy_estimates):
        for fe in noisy_estimates:
            for m in fe.estimates:
                hist = np.asarray(m.icp.rmse_history)
                assert (np.diff(hist) <= 1e-12).all()


class TestIcpTarget:
    def test_icp_pairs_against_the_thinned_cluster(self, noisy_dataset, noisy_cfg, monkeypatch):
        clusters, targets = [], []

        def spy(fn, seen):
            def wrapper(*args):
                seen.append(args)
                return fn(*args)

            return wrapper

        monkeypatch.setattr(pipeline, "cluster_filter", spy(pipeline.cluster_filter, clusters))
        monkeypatch.setattr(pipeline, "refine_estimates", spy(pipeline.refine_estimates, targets))
        estimates = estimate_frames(noisy_dataset, noisy_cfg)
        # one thinning per frame, shared by both candidates
        assert len(targets) == len(clusters) == len(estimates)
        for (target, candidates, *_), (labeled, seg_cfg), fe in zip(targets, clusters, estimates):
            assert [tag for tag, _ in candidates] == ["rpt", "kpm"]
            # ee_cloud is still the whole cluster
            np.testing.assert_array_equal(
                fe.ee_cloud.points, pipeline.cluster_filter(labeled, seg_cfg).points
            )
            # the target: an exact row subset with one point per voxel
            rows = {tuple(p) for p in fe.ee_cloud.points.tolist()}
            assert all(tuple(p) in rows for p in target.points.tolist())
            voxels = np.unique(np.floor(target.points / VOXEL_SIZE), axis=0)
            assert len(voxels) == len(target) < len(fe.ee_cloud)


class TestAdaptiveSettings:
    # the ICP source resolution is measured on the points, not read from
    # the simulator's record of how they were rendered
    def test_icp_source_resolution_keyed_on_sensor_noise(
        self, noiseless_dataset, noisy_dataset
    ):
        model = noiseless_dataset.model
        full = IcpSource(model.surface_cloud.points).points
        thinned = IcpSource(voxel_downsample(model.surface_cloud, VOXEL_SIZE).points).points
        assert len(thinned) < len(full)
        exact = prepare_source(model, [f.cloud for f in noiseless_dataset.frames])
        np.testing.assert_array_equal(exact.points, full)
        noisy = prepare_source(model, [f.cloud for f in noisy_dataset.frames])
        np.testing.assert_array_equal(noisy.points, thinned)

    def test_frames_without_enough_points_defer_to_the_next(
        self, noiseless_dataset, noisy_dataset
    ):
        model = noiseless_dataset.model
        full = IcpSource(model.surface_cloud.points).points
        thinned = IcpSource(voxel_downsample(model.surface_cloud, VOXEL_SIZE).points).points
        empty = PointCloud(np.zeros((0, 3)))
        nan = PointCloud(np.full((50, 3), np.nan))
        for ds, want in ((noiseless_dataset, full), (noisy_dataset, thinned)):
            clouds = [empty, nan, *(f.cloud for f in ds.frames)]
            np.testing.assert_array_equal(prepare_source(model, clouds).points, want)
        # nothing to measure: the thinned source
        for clouds in ([empty, nan], []):
            np.testing.assert_array_equal(prepare_source(model, clouds).points, thinned)
