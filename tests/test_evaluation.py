"""Tests for pose-error metrics and dataset evaluation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_pose
from depthcal.errors import EmptyCloud, MissingGroundTruth
from depthcal.evaluation import (
    add_metric,
    evaluate_dataset,
    format_report,
    per_frame_csv,
    rotation_error,
    translation_error,
)
from depthcal.geometry import PointCloud, Pose, Quaternion, compose
from depthcal.icp import IcpConfig
from depthcal.pipeline import PipelineConfig
from depthcal.simulator import build_ee_model, default_scenario, generate_dataset


@pytest.fixture(scope="module")
def noiseless_dataset():
    return generate_dataset(default_scenario(frames_per_config=1))


@pytest.fixture(scope="module")
def noiseless_report(noiseless_dataset):
    return evaluate_dataset(noiseless_dataset)


class TestTranslationError:
    def test_identical_poses(self):
        p = random_pose(np.random.default_rng(1))
        assert translation_error(p, p) == 0.0

    def test_three_four_five(self):
        gt = Pose.identity()
        pred = Pose(Quaternion.identity(), np.array([0.0, 0.03, 0.04]))
        assert translation_error(gt, pred) == pytest.approx(0.05, abs=1e-15)

    def test_hand_computed_pair(self):
        # differences (0.03, -0.04, -0.12): sqrt(0.0169) = 0.13
        gt = Pose(Quaternion.identity(), np.array([0.20, -0.10, 0.50]))
        pred = Pose(Quaternion.identity(), np.array([0.17, -0.06, 0.62]))
        assert translation_error(gt, pred) == pytest.approx(0.13, abs=1e-15)


class TestRotationError:
    def test_identical_poses(self):
        p = random_pose(np.random.default_rng(2))
        assert rotation_error(p, p) == 0.0

    def test_right_angle(self):
        q = Quaternion.from_axis_angle([0.0, 0.0, 1.0], math.pi / 2)
        got = rotation_error(Pose.identity(), Pose(q, np.zeros(3)))
        assert got == pytest.approx(math.pi / 2, abs=1e-12)

    def test_antipodal_representations(self):
        p = random_pose(np.random.default_rng(3))
        flipped = Pose(Quaternion.from_array(-p.rotation.as_array()), p.translation)
        assert rotation_error(p, flipped) == pytest.approx(0.0, abs=1e-12)


class TestAddMetric:
    def test_identical_poses(self):
        model = build_ee_model()
        p = random_pose(np.random.default_rng(4))
        assert add_metric(model.surface_cloud, p, p) == 0.0

    def test_rigid_shift_is_exact_distance(self):
        model = build_ee_model()
        gt = random_pose(np.random.default_rng(5))
        d = np.array([0.004, -0.003, 0.012])
        pred = Pose(gt.rotation, gt.translation + d)
        got = add_metric(model.surface_cloud, gt, pred)
        assert got == pytest.approx(float(np.linalg.norm(d)), abs=1e-15)

    def test_rotation_about_centroid_matches_brute_force(self):
        pts = build_ee_model().surface_cloud.points[::20]
        c = pts.mean(axis=0)
        gt = random_pose(np.random.default_rng(6))
        spin = Quaternion.from_axis_angle([0.2, -1.0, 0.4], math.radians(5.0))
        about_centroid = Pose(spin, c - spin.rotate(c[None, :])[0])
        pred = compose(gt, about_centroid)

        expected = sum(
            math.dist(a, b) for a, b in zip(gt.apply(pts), pred.apply(pts))
        ) / len(pts)
        assert add_metric(pts, gt, pred) == pytest.approx(expected, abs=1e-12)

    def test_empty_cloud_raises(self):
        with pytest.raises(EmptyCloud):
            add_metric(np.zeros((0, 3)), Pose.identity(), Pose.identity())

    def test_perturbed_pose_has_positive_errors(self):
        model = build_ee_model()
        gt = random_pose(np.random.default_rng(7))
        pred = compose(
            gt,
            Pose(
                Quaternion.from_axis_angle([1.0, 0.0, 0.0], 0.01),
                np.array([0.001, 0.0, 0.0]),
            ),
        )
        assert translation_error(gt, pred) > 0
        assert rotation_error(gt, pred) > 0
        assert add_metric(model.surface_cloud, gt, pred) > 0

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_small_angle_upper_bound(self, seed):
        # on a centroid-centered cloud the average point distance cannot
        # exceed the translation error plus max radius times the angle
        rng = np.random.default_rng(seed)
        pts = build_ee_model().surface_cloud.points[::10]
        pts = pts - pts.mean(axis=0)
        r_max = float(np.linalg.norm(pts, axis=1).max())

        gt = random_pose(rng)
        axis = rng.normal(size=3)
        angle = rng.uniform(0.0, math.radians(10.0))
        dq = Quaternion.from_axis_angle(axis, angle)
        pred = Pose(gt.rotation.multiply(dq), gt.translation + rng.uniform(-0.05, 0.05, 3))

        add = add_metric(pts, gt, pred)
        bound = translation_error(gt, pred) + r_max * rotation_error(gt, pred)
        assert add <= bound + 1e-12


class TestEvaluateDataset:
    def test_noiseless_errors_vanish(self, noiseless_report):
        rep = noiseless_report
        assert rep.skipped_frames == 0
        assert rep.frames
        for f in rep.frames:
            assert f.translation_error <= 1e-9
            assert f.rotation_error <= 1e-9
            assert f.add <= 1e-9
        for row in rep.rows:
            for acc in row.add_accuracy.values():
                assert acc == 1.0
        for err in rep.calibration.values():
            assert err["translation_error_m"] <= 1e-9
            assert err["rotation_error_deg"] <= 1e-7

    def test_row_layout(self, noiseless_report):
        layout = [(r.method, r.refined) for r in noiseless_report.rows]
        assert layout == [("kpm", False), ("kpm", True), ("rpt", False), ("rpt", True)]
        assert all(r.count == 6 for r in noiseless_report.rows)
        assert set(noiseless_report.calibration) == {"with_icp", "without_icp"}

    def test_without_icp_only_raw_rows(self, noiseless_dataset):
        rep = evaluate_dataset(noiseless_dataset, PipelineConfig(icp=IcpConfig(enabled=False)))
        assert [(r.method, r.refined) for r in rep.rows] == [
            ("kpm", False),
            ("rpt", False),
        ]
        assert set(rep.calibration) == {"without_icp"}

    def test_missing_ground_truth_raises(self, noiseless_dataset):
        blind = dataclasses.replace(noiseless_dataset, gt_calibration=None)
        with pytest.raises(MissingGroundTruth):
            evaluate_dataset(blind)

    def test_text_report_mentions_every_row(self, noiseless_report):
        text = format_report(noiseless_report)
        assert "rpt" in text and "kpm" in text
        assert "with icp" in text and "without icp" in text
        assert "skipped frames: 0" in text

    def test_csv_round_trips(self, noiseless_report):
        import csv
        import io

        text = per_frame_csv(noiseless_report)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(noiseless_report.frames)
        assert float(rows[0]["translation_error_m"]) <= 1e-9
        assert rows[0]["method"] in ("rpt", "kpm")
