from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.transform import Rotation

from depthcal.errors import DegenerateGeometry, EmptyInput
from depthcal.geometry import (
    PointCloud,
    Pose,
    Quaternion,
    compose,
    invert,
    kabsch_fit,
    quaternion_average,
    rotation_distance,
)

from conftest import assert_pose_close, random_pose, random_quaternion


def scipy_quat(q: Quaternion) -> Rotation:
    # scipy is scalar-last
    return Rotation.from_quat([q.x, q.y, q.z, q.w])


def quaternions(draw_seed):
    rng = np.random.default_rng(draw_seed)
    return random_quaternion(rng)


unit_quats = st.builds(quaternions, st.integers(min_value=0, max_value=2**31))
poses = st.builds(lambda s: random_pose(np.random.default_rng(s)), st.integers(0, 2**31))


class TestQuaternion:
    def test_identity_rotates_nothing(self):
        p = np.array([0.3, -0.2, 1.5])
        assert np.allclose(Quaternion.identity().rotate(p), p)

    def test_normalized_on_construction(self):
        q = Quaternion(2.0, 0.0, 0.0, 0.0)
        assert q.w == 1.0

    def test_zero_norm_rejected(self):
        with pytest.raises(DegenerateGeometry):
            Quaternion(0.0, 0.0, 0.0, 0.0)

    def test_rotation_matrix_matches_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            q = random_quaternion(rng)
            assert np.allclose(q.rotation_matrix(), scipy_quat(q).as_matrix(), atol=1e-12)

    def test_from_rotation_matrix_round_trip(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            q = random_quaternion(rng)
            q2 = Quaternion.from_rotation_matrix(q.rotation_matrix())
            assert rotation_distance(q, q2) < 1e-9

    def test_from_axis_angle(self):
        q = Quaternion.from_axis_angle([0, 0, 1], math.radians(90))
        assert np.allclose(q.rotate([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-12)


class TestPose:
    def test_compose_frozen_example(self):
        # Rz(90 deg) with t=(1,0,0) after Rx(90 deg) with t=(0,2,0):
        # values worked out by hand from the homogeneous matrix product.
        a = Pose(Quaternion.from_axis_angle([0, 0, 1], math.pi / 2), [1.0, 0.0, 0.0])
        b = Pose(Quaternion.from_axis_angle([1, 0, 0], math.pi / 2), [0.0, 2.0, 0.0])
        c = compose(a, b)
        assert np.allclose(c.rotation.as_array(), [0.5, 0.5, 0.5, 0.5], atol=1e-12)
        assert np.allclose(c.translation, [-1.0, 0.0, 0.0], atol=1e-12)

    def test_compose_matches_matrix_product(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b = random_pose(rng), random_pose(rng)
            assert np.allclose(compose(a, b).matrix(), a.matrix() @ b.matrix(), atol=1e-12)

    def test_compose_applies_right_then_left(self):
        rng = np.random.default_rng(4)
        a, b = random_pose(rng), random_pose(rng)
        p = rng.normal(size=(20, 3))
        assert np.allclose(compose(a, b).apply(p), a.apply(b.apply(p)), atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(poses)
    def test_invert_round_trip(self, p):
        assert_pose_close(compose(p, invert(p)), Pose.identity(), 1e-9, 1e-9)
        assert_pose_close(compose(invert(p), p), Pose.identity(), 1e-9, 1e-9)

    def test_invert_matches_matrix_inverse(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = random_pose(rng)
            assert np.allclose(invert(p).matrix(), np.linalg.inv(p.matrix()), atol=1e-10)

    def test_json_round_trip(self):
        p = random_pose(np.random.default_rng(9))
        assert_pose_close(Pose.from_dict(p.to_dict()), p, 1e-12, 1e-12)


class TestRotationDistance:
    def test_identical_is_zero(self):
        q = random_quaternion(np.random.default_rng(1))
        assert rotation_distance(q, q) == 0.0

    def test_sign_flip_is_zero(self):
        q = random_quaternion(np.random.default_rng(2))
        qneg = Quaternion(-q.w, -q.x, -q.y, -q.z)
        assert rotation_distance(q, qneg) < 1e-12

    def test_known_angle(self):
        q = Quaternion.from_axis_angle([0, 0, 1], math.radians(10))
        assert abs(rotation_distance(Quaternion.identity(), q) - math.radians(10)) < 1e-9

    def test_range_and_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a, b = random_quaternion(rng), random_quaternion(rng)
            d = rotation_distance(a, b)
            assert 0.0 <= d <= math.pi + 1e-12
            assert abs(d - rotation_distance(b, a)) < 1e-12

    def test_triangle_inequality(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            a, b, c = (random_quaternion(rng) for _ in range(3))
            assert rotation_distance(a, c) <= (
                rotation_distance(a, b) + rotation_distance(b, c) + 1e-9
            )


class TestKabschFit:
    def test_recovers_reference_transform(self):
        # Oracle: target generated with scipy's rotation, never with Pose.apply.
        rng = np.random.default_rng(21)
        for _ in range(100):
            rot = Rotation.random(random_state=rng)
            t = rng.uniform(-1, 1, size=3)
            src = rng.normal(size=(rng.integers(3, 40), 3))
            tgt = rot.apply(src) + t
            fit = kabsch_fit(src, tgt)
            assert np.linalg.norm(fit.translation - t) < 1e-8
            x, y, z, w = rot.as_quat()
            assert rotation_distance(fit.rotation, Quaternion(w, x, y, z)) < 1e-8

    def test_exact_noisefree_residual(self):
        rng = np.random.default_rng(22)
        src = rng.normal(size=(50, 3))
        p = random_pose(rng)
        fit = kabsch_fit(src, p.apply(src))
        assert np.abs(fit.apply(src) - p.apply(src)).max() < 1e-9

    def test_minimum_three_points(self):
        with pytest.raises(DegenerateGeometry):
            kabsch_fit(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_collinear_rejected(self):
        src = np.outer(np.arange(5.0), [1.0, 0.0, 0.0])
        with pytest.raises(DegenerateGeometry):
            kabsch_fit(src, src + 1.0)

    def test_no_reflection(self):
        # A noisy near-planar set can push a plain SVD solution into a
        # reflection; the determinant correction must keep det(R) = +1.
        rng = np.random.default_rng(23)
        for _ in range(50):
            src = rng.normal(size=(10, 3)) * np.array([1.0, 1.0, 1e-4])
            tgt = rng.normal(size=(10, 3))
            try:
                fit = kabsch_fit(src, tgt)
            except DegenerateGeometry:
                continue
            assert np.linalg.det(fit.rotation.rotation_matrix()) > 0.99

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            kabsch_fit(np.zeros((4, 3)), np.zeros((5, 3)))


class TestQuaternionAverage:
    def test_symmetric_pair_gives_identity(self):
        qp = Quaternion.from_axis_angle([0, 0, 1], math.radians(10))
        qm = Quaternion.from_axis_angle([0, 0, 1], math.radians(-10))
        avg = quaternion_average([qp, qm])
        assert rotation_distance(avg, Quaternion.identity()) < 1e-9

    def test_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(31)
        qs = [random_quaternion(rng) for _ in range(8)]
        # unit weights: the accumulator is the plain sum of outer products
        acc = sum(np.outer(q.as_array(), q.as_array()) for q in qs)
        vals, vecs = np.linalg.eig(acc)
        expected = np.real(vecs[:, np.argmax(np.real(vals))])
        got = quaternion_average(qs)
        assert min(
            np.linalg.norm(got.as_array() - expected), np.linalg.norm(got.as_array() + expected)
        ) < 1e-9

    def test_sign_invariance(self):
        rng = np.random.default_rng(32)
        qs = [random_quaternion(rng) for _ in range(6)]
        flipped = [Quaternion(-q.w, -q.x, -q.y, -q.z) if i % 2 else q for i, q in enumerate(qs)]
        assert rotation_distance(quaternion_average(qs), quaternion_average(flipped)) < 1e-12

    def test_single_quaternion_is_itself(self):
        q = random_quaternion(np.random.default_rng(33))
        assert rotation_distance(quaternion_average([q]), q) < 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(34)
        qs = [random_quaternion(rng) for _ in range(7)]
        a = quaternion_average(qs)
        b = quaternion_average(list(reversed(qs)))
        assert rotation_distance(a, b) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            quaternion_average([])


class TestPointCloud:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((3, 3)), labels=np.zeros(2, dtype=int))

    def test_duplicate_keypoint_rejected(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((3, 3)), keypoint_ids=np.array([1, 1, -1]))

    def test_subset_keeps_order(self):
        cloud = PointCloud(np.arange(12.0).reshape(4, 3), labels=np.array([0, 2, 2, 0]))
        sub = cloud.subset(cloud.labels == 2)
        assert np.allclose(sub.points, cloud.points[[1, 2]])
