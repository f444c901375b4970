"""Tests for ICP pose refinement."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial import cKDTree

from conftest import assert_pose_close
from depthcal import icp
from depthcal.calibration import calibrate
from depthcal.errors import NoCorrespondences, TooFewPoints
from depthcal.geometry import (
    LABEL_EE,
    PointCloud,
    Pose,
    Quaternion,
    compose,
    invert,
    rotation_distance,
)
from depthcal.icp import (
    IcpSource,
    _nearest_pairs,
    icp_refine,
    prepare_source,
    refine_estimates,
    voxel_downsample,
)
from depthcal.kpm import KpmConfig, filter_keypoints, kpm_pose, predict_keypoints
from depthcal.pipeline import PipelineConfig
from depthcal.rpt import RptConfig, rpt_pose
from depthcal.simulator import default_scenario, generate_dataset


@pytest.fixture(scope="module")
def noiseless_dataset():
    return generate_dataset(default_scenario(frames_per_config=1))


@pytest.fixture(scope="module")
def noisy_dataset():
    return generate_dataset(
        default_scenario(frames_per_config=2, noise_sigma_1m=0.002)
    )


@pytest.fixture(scope="module")
def four_per_config_dataset():
    return generate_dataset(default_scenario(seed=1, frames_per_config=4))


def ee_subset(cloud):
    return cloud.subset(cloud.labels == LABEL_EE)


def model_source(ds) -> IcpSource:
    """The full-resolution model source, as a noiseless calibration uses it."""
    return IcpSource(ds.model.surface_cloud.points)


def perturbed(pose: Pose, t_off, axis, angle_deg) -> Pose:
    q = Quaternion.from_axis_angle(np.asarray(axis, float), math.radians(angle_deg))
    return Pose(q.multiply(pose.rotation), pose.translation + np.asarray(t_off, float))


class TestVoxelDownsample:
    def test_output_is_subset_of_input(self, noiseless_dataset):
        cloud = noiseless_dataset.model.surface_cloud
        out = voxel_downsample(cloud, 0.005)
        rows = {tuple(p) for p in cloud.points}
        assert all(tuple(p) in rows for p in out.points)
        assert len(out) < len(cloud)

    def test_zero_voxel_is_identity(self, noiseless_dataset):
        cloud = noiseless_dataset.model.surface_cloud
        out = voxel_downsample(cloud, 0.0)
        assert len(out) == len(cloud)

    def test_one_point_per_voxel(self):
        rng = np.random.default_rng(3)
        cloud = PointCloud(rng.uniform(0, 0.1, size=(500, 3)))
        out = voxel_downsample(cloud, 0.02)
        keys = {tuple(k) for k in np.floor(out.points / 0.02).astype(int)}
        assert len(keys) == len(out)

    @settings(max_examples=150, deadline=None)
    @given(
        base=st.lists(
            st.tuples(*[st.one_of(
                st.floats(-0.1, 0.1),
                # coordinates on voxel faces and repeated across points
                st.integers(-40, 40).map(lambda k: k * 0.0025),
            )] * 3),
            min_size=1,
            max_size=40,
        ),
        repeats=st.lists(st.integers(1, 3), min_size=40, max_size=40),
        voxel=st.sampled_from([0.001, 0.0025, 0.005, 0.02, 0.1]),
        seed=st.integers(0, 2**32 - 1),
    )
    # cell indices beyond int64: 1e17 m and 2e17 m are different voxels
    @example(
        base=[(1e17, 0.0, 0.0), (2e17, 0.0, 0.0), (0.0, 0.0, 0.0), (0.001, 0.0, 0.0)],
        repeats=[1] * 40,
        voxel=0.005,
        seed=0,
    )
    def test_matches_brute_force_reference(self, base, repeats, voxel, seed):
        pts = np.repeat(np.array(base, dtype=float), repeats[: len(base)], axis=0)
        pts = pts[np.random.default_rng(seed).permutation(len(pts))]
        out = voxel_downsample(PointCloud(pts), voxel)
        np.testing.assert_array_equal(out.points, pts[reference_voxel_keep(pts, voxel)])

    def test_prepared_source_points_unchanged(self, noiseless_dataset):
        pts = prepare_source(noiseless_dataset.model).points
        assert pts.shape == (1158, 3)
        digest = hashlib.sha256(np.ascontiguousarray(pts).tobytes()).hexdigest()
        assert digest == "ba71c11bfba3d4b6d0083b27e06be0775325d6dff0c44798bf5b9b81cb722f15"


def reference_voxel_keep(pts: np.ndarray, voxel: float) -> list[int]:
    """Sorted indices voxel thinning keeps, by brute force: group the points
    by floor cell (Python integers, so no index overflows), keep each
    group's member nearest its centroid, the lowest index on a tie."""
    rows = pts.tolist()
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, p in enumerate(rows):
        groups.setdefault(tuple(math.floor(c / voxel) for c in p), []).append(i)
    keep = []
    for members in groups.values():
        # coordinates summed in input order, as float64 accumulates them
        sums = [0.0, 0.0, 0.0]
        for i in members:
            sums = [s + c for s, c in zip(sums, rows[i])]
        centroid = [s / len(members) for s in sums]

        def dist(i):
            return math.sqrt(sum((c - m) * (c - m) for c, m in zip(rows[i], centroid)))

        keep.append(min(members, key=lambda i: (dist(i), i)))
    return sorted(keep)


class TestIcpRefine:
    def test_ground_truth_is_fixed_point(self, noiseless_dataset):
        ds = noiseless_dataset
        frame = ds.frames[0]
        gt = compose(ds.gt_calibration, frame.t_b_ee)
        source = model_source(ds)
        res = icp_refine(source, ee_subset(frame.cloud), gt)
        assert_pose_close(res.refined_pose, gt, atol_t=1e-9, atol_r=1e-9)
        assert res.iterations_used <= 2
        assert res.converged
        # composition contract: refined pose re-places the model exactly
        # where the internal iteration left the source
        np.testing.assert_allclose(
            res.refined_pose.apply(source.points),
            gt.apply(source.points),
            atol=1e-9,
        )

    def test_small_offset_recovered(self, four_per_config_dataset):
        # an 8 mm / 3 degree start in a seeded direction on each of the 24
        # zero-noise frames: model and sensor sample the faces on grids of
        # equal pitch, where point-to-point pairing aliases
        ds = four_per_config_dataset
        source = model_source(ds)
        rng = np.random.default_rng(7)
        assert len(ds.frames) == 24
        for i, frame in enumerate(ds.frames):
            gt = compose(ds.gt_calibration, frame.t_b_ee)
            shift = rng.normal(size=3)
            start = perturbed(gt, 0.008 * shift / np.linalg.norm(shift), rng.normal(size=3), 3.0)
            res = icp_refine(source, ee_subset(frame.cloud), start)
            err_t = float(np.linalg.norm(res.refined_pose.translation - gt.translation))
            err_r = math.degrees(rotation_distance(res.refined_pose.rotation, gt.rotation))
            assert err_t < 1e-4, f"frame {i}: {err_t}"
            assert err_r < 0.01, f"frame {i}: {err_r}"

    def test_flat_target_moves_only_along_its_normal(self, noiseless_dataset):
        # the middle of the body's back face (z = max), away from its edges:
        # the pairs constrain only the offset along the face normal and the
        # tilts, so the in-plane motions are left still
        ds = noiseless_dataset
        source = model_source(ds)
        pts = source.points
        face = pts[:, 2] == pts[:, 2].max()
        middle = face & (np.abs(pts[:, :2] - pts[face, :2].mean(axis=0)).max(axis=1) < 0.015)
        np.testing.assert_allclose(np.abs(source.normals[middle, 2]), 1.0, atol=1e-12)
        gt = compose(ds.gt_calibration, ds.frames[0].t_b_ee)
        target = PointCloud(gt.apply(pts[middle]))
        normal = gt.rotation.rotate(np.array([0.0, 0.0, 1.0]))
        for offset in (-0.006, 0.004):
            start = Pose(gt.rotation, gt.translation + offset * normal)
            res = icp_refine(source, target, start)
            moved = res.refined_pose.translation - start.translation
            along = float(moved @ normal)
            assert abs(along + offset) < 1e-6
            assert np.linalg.norm(moved - along * normal) < 1e-3
            assert math.degrees(rotation_distance(res.refined_pose.rotation, gt.rotation)) < 0.01

    def test_far_offset_has_no_correspondences(self, noiseless_dataset):
        ds = noiseless_dataset
        frame = ds.frames[0]
        gt = compose(ds.gt_calibration, frame.t_b_ee)
        start = Pose(gt.rotation, gt.translation + np.array([0.5, 0.0, 0.0]))
        with pytest.raises(NoCorrespondences):
            icp_refine(model_source(ds), ee_subset(frame.cloud), start)

    def test_rmse_monotone_on_noisy_frame(self, noisy_dataset):
        ds = noisy_dataset
        source = model_source(ds)
        for frame in ds.frames[:4]:
            gt = compose(ds.gt_calibration, frame.t_b_ee)
            start = perturbed(gt, [0.01, 0.008, -0.006], [1.0, -0.4, 0.8], 4.0)
            res = icp_refine(source, ee_subset(frame.cloud), start)
            diffs = np.diff(res.rmse_history)
            assert np.all(diffs <= 1e-12), diffs

    def test_guard_stop_reports_converged(self, noisy_dataset):
        # on noisy data most runs end when the next step would raise the
        # inlier RMSE; a re-run from where one ended accepts no step and,
        # like the run itself, reports converged
        ds = noisy_dataset
        source = prepare_source(ds.model)
        guard_stops = 0
        for frame in ds.frames[:4]:
            gt = compose(ds.gt_calibration, frame.t_b_ee)
            start = perturbed(gt, [0.006, -0.004, 0.003], [0.3, 1.0, -0.2], 3.0)
            ee = ee_subset(frame.cloud)
            res = icp_refine(source, ee, start)
            assert res.converged
            assert 0 < res.iterations_used < icp.MAX_ITERATIONS
            again = icp_refine(source, ee, res.refined_pose)
            assert again.converged
            if again.iterations_used == 0:
                guard_stops += 1
                assert again.refined_pose.to_dict() == res.refined_pose.to_dict()
                assert again.rmse_history == [again.inlier_rmse]
        assert guard_stops >= 3

    def test_iteration_cap_is_not_converged(self, noiseless_dataset, monkeypatch):
        ds = noiseless_dataset
        frame = ds.frames[0]
        gt = compose(ds.gt_calibration, frame.t_b_ee)
        start = perturbed(gt, [0.006, -0.004, 0.003], [0.3, 1.0, -0.2], 3.0)
        monkeypatch.setattr(icp, "MAX_ITERATIONS", 1)
        res = icp_refine(model_source(ds), ee_subset(frame.cloud), start)
        assert res.iterations_used == 1
        assert not res.converged

    def test_too_few_points(self):
        tiny = PointCloud(np.zeros((5, 3)))
        big = PointCloud(np.random.default_rng(0).normal(size=(100, 3)))
        with pytest.raises(TooFewPoints):
            icp_refine(IcpSource(tiny.points), big, Pose.identity())
        with pytest.raises(TooFewPoints):
            icp_refine(IcpSource(big.points), tiny, Pose.identity())

    def test_fitness_range(self, noisy_dataset):
        ds = noisy_dataset
        frame = ds.frames[0]
        gt = compose(ds.gt_calibration, frame.t_b_ee)
        res = icp_refine(model_source(ds), ee_subset(frame.cloud), gt)
        assert 0.0 < res.fitness <= 1.0
        assert res.inlier_rmse >= 0.0


def fresh_search(tree, tgt, src, place=None):
    """Reference pairing: a gated 1-NN search over a tree built on every
    placement, with _nearest_pairs's call signature (tree and place unused)."""
    d, i = cKDTree(src).query(tgt, distance_upper_bound=icp.MAX_CORRESPONDENCE_DISTANCE)
    j = np.flatnonzero(np.isfinite(d))
    return i[j], j, d[j]


def random_source_and_target(rng):
    # 400 source points and 40 repeats of them; targets near every third
    # point, on the repeated points exactly, and partly beyond the gate
    src = rng.uniform(-0.05, 0.05, size=(400, 3))
    src = np.vstack([src, src[:40]])
    tgt = np.vstack(
        [src[::3] + rng.normal(scale=0.002, size=(147, 3)), src[:40],
         rng.uniform(-0.2, 0.2, size=(60, 3))]
    )
    return src, tgt


class TestNearestSource:
    def test_every_call_matches_a_fresh_gated_search(self):
        # shrinking rigid steps from the identity, as in an ICP run, each
        # checked against a fresh search over the placed distinct points
        rng = np.random.default_rng(7)
        src, tgt = random_source_and_target(rng)
        source = IcpSource(src)
        placed, place = source.points, Pose.identity()
        for step in range(12):
            scale = 0.5**step
            move = Pose(
                Quaternion.from_axis_angle(rng.normal(size=3), 0.05 * scale),
                rng.normal(scale=0.005 * scale, size=3),
            )
            placed, place = move.apply(placed), compose(move, place)
            si, ti, d = _nearest_pairs(source.tree, tgt, placed, place)
            fi, fj, fd = fresh_search(source.tree, tgt, placed)
            np.testing.assert_array_equal(ti, fj)
            np.testing.assert_array_equal(si, fi)
            np.testing.assert_array_equal(d, fd)


class TestGateBoundary:
    def test_gate_is_strict_in_the_sensor_frame(self):
        # target points exactly the gate and a hair inside it from a placed
        # source point at the origin.  Mapped back into the model frame,
        # both read farther than the gate, so the search's slack only widens
        # the candidates: the strict sensor-frame test decides
        gate = icp.MAX_CORRESPONDENCE_DISTANCE
        inside = np.nextafter(gate, 0.0)
        placed = np.array([[0.0, 0.0, 0.0], [0.1, 0.1, 0.1], [-0.1, 0.05, 0.0]])
        tgt = np.array([[gate, 0.0, 0.0], [inside, 0.0, 0.0], [0.0, 0.0, inside], [0.0, 0.03, 0.0]])
        place = Pose(Quaternion.from_axis_angle([1.0, 2.0, 4.0], 0.4), [0.3, -0.2, 0.5])
        tree = cKDTree(invert(place).apply(placed))
        model_d, _ = tree.query(invert(place).apply(tgt[:3]))
        assert np.all(model_d > gate)
        si, ti, d = _nearest_pairs(tree, tgt, placed, place)
        np.testing.assert_array_equal(ti, [1, 2])
        np.testing.assert_array_equal(si, [0, 0])
        np.testing.assert_array_equal(d, [inside, inside])


class TestModelFrameSearch:
    def test_every_call_matches_a_fresh_gated_search(self):
        # the sequence of TestNearestSource from a placement far from the
        # source frame, against a fresh search over all 440 placed rows: it
        # may name either copy of a repeated point, the source names the
        # one distinct point.  The copies are kept coincident after each
        # move, since a matrix product may round two equal rows differently
        rng = np.random.default_rng(11)
        src, tgt = random_source_and_target(rng)
        lowest = np.r_[np.arange(400), np.arange(40)]
        place = Pose(Quaternion.from_axis_angle([0.2, -1.0, 0.4], 0.3), [0.01, 0.0, -0.02])
        placed = place.apply(src)
        tgt = place.apply(tgt)
        source = IcpSource(src)
        np.testing.assert_array_equal(source.points, src[:400])
        for step in range(12):
            scale = 0.5**step
            move = Pose(
                Quaternion.from_axis_angle(rng.normal(size=3), 0.05 * scale),
                rng.normal(scale=0.005 * scale, size=3),
            )
            placed, place = move.apply(placed), compose(move, place)
            placed[400:] = placed[:40]
            si, ti, d = _nearest_pairs(source.tree, tgt, placed[:400], place)
            dd, ii = cKDTree(placed).query(tgt, distance_upper_bound=0.02)
            j = np.flatnonzero(np.isfinite(dd))
            np.testing.assert_array_equal(ti, j)
            np.testing.assert_array_equal(si, lowest[ii[j]])
            np.testing.assert_array_equal(placed[si], placed[ii[j]])
            np.testing.assert_array_equal(d, dd[j])

    def test_register_follows_the_placement(self, noisy_dataset, monkeypatch):
        # the main loop's model-frame searches against a tree built over
        # every placement: same steps, same pairs
        ds = noisy_dataset
        source = prepare_source(ds.model)
        for frame in ds.frames[:3]:
            gt = compose(ds.gt_calibration, frame.t_b_ee)
            start = perturbed(gt, [0.004, -0.003, 0.002], [0.5, 1.0, -0.3], 2.0)
            tgt = ee_subset(frame.cloud).points
            src0 = start.apply(source.points)
            args = (source, tgt, src0)
            a = icp._register(*args, *_nearest_pairs(source.tree, tgt, src0, start), start)
            with monkeypatch.context() as m:
                m.setattr(icp, "_nearest_pairs", fresh_search)
                b = icp._register(*args, *fresh_search(source.tree, tgt, src0), start)
            assert a[1:] == b[1:]
            assert a[0].to_dict() == b[0].to_dict()
            assert a[3] > 1


class TestIcpSource:
    def test_repeated_points_count_once(self):
        # every distinct point paired with its twin is a perfect fit: the
        # repeats neither enter the fitness denominator nor tilt the normals
        rng = np.random.default_rng(5)
        pts = rng.uniform(-0.05, 0.05, size=(300, 3))
        repeated = np.vstack([pts, pts[:40], pts[100:110]])
        source = IcpSource(repeated)
        np.testing.assert_array_equal(source.points, pts)
        np.testing.assert_array_equal(source.normals, IcpSource(pts).normals)
        res = icp_refine(source, PointCloud(repeated), Pose.identity())
        assert res.fitness == 1.0
        assert res.inlier_rmse <= icp.EPS_ABS


def count_calls(monkeypatch, names):
    """Count the calls to each named attribute of the icp module."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        fn = getattr(icp, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(icp, name, counted(name))
    return calls


class TestPreparedSource:
    def test_reuse_across_frames_is_bitwise_equal(self, noisy_dataset):
        ds = noisy_dataset
        shared = prepare_source(ds.model)
        for i, frame in enumerate(ds.frames[:4]):
            gt = compose(ds.gt_calibration, frame.t_b_ee)
            cands = [
                ("rpt", perturbed(gt, [0.008, -0.004, 0.003], [0.3, 1.0, -0.2], 3.0)),
                ("kpm", perturbed(gt, [-0.002, 0.005, 0.001], [1.0, 0.1, 0.5], 1.5)),
            ]
            ee = ee_subset(frame.cloud)
            reused = refine_estimates(ee, cands, shared)
            fresh = refine_estimates(ee, cands, prepare_source(ds.model))
            assert len(reused) == len(fresh) == 2, f"frame {i}"
            for (tag_a, a), (tag_b, b) in zip(reused, fresh):
                assert tag_a == tag_b
                assert a.refined_pose.to_dict() == b.refined_pose.to_dict()
                assert (a.fitness, a.inlier_rmse) == (b.fitness, b.inlier_rmse)
                assert (a.iterations_used, a.converged) == (b.iterations_used, b.converged)
                assert a.rmse_history == b.rmse_history

    def test_one_calibration_prepares_once(self, noiseless_dataset, monkeypatch):
        calls = count_calls(monkeypatch, ["voxel_downsample", "_pca_normals", "icp_refine"])
        result = calibrate(noiseless_dataset, PipelineConfig())
        assert sum(g.frames_used for g in result.groups) == len(noiseless_dataset.frames)
        assert calls["icp_refine"] >= 2 * len(noiseless_dataset.frames)
        assert calls["voxel_downsample"] == 1
        assert calls["_pca_normals"] == 1

    def test_tree_count_does_not_grow_with_frames(self, noisy_dataset, monkeypatch):
        # the criterion-2 noise, with one registration per ICP run
        cfg = PipelineConfig(
            rpt=RptConfig(rotation_sigma_deg=5.0), kpm=KpmConfig(sigma_m=0.005, dropout=0.1)
        )
        six = generate_dataset(default_scenario(frames_per_config=1, noise_sigma_1m=0.002))
        calls = count_calls(monkeypatch, ["cKDTree", "_register", "icp_refine"])
        trees = []
        for ds in (six, noisy_dataset):
            calls.update(dict.fromkeys(calls, 0))
            calibrate(ds, cfg)
            assert calls["_register"] == calls["icp_refine"] >= len(ds.frames)
            trees.append(calls["cKDTree"])
        assert len(noisy_dataset.frames) == 2 * len(six.frames)
        assert trees[0] == trees[1]


class TestRefineEstimates:
    def test_two_candidates_two_results(self, noiseless_dataset):
        ds = noiseless_dataset
        frame = ds.frames[0]
        gt = compose(ds.gt_calibration, frame.t_b_ee)
        cands = [
            ("rpt", perturbed(gt, [0.005, 0.0, 0.0], [0, 0, 1], 2.0)),
            ("kpm", perturbed(gt, [0.0, -0.004, 0.003], [1, 0, 0], 1.0)),
        ]
        out = refine_estimates(ee_subset(frame.cloud), cands, prepare_source(ds.model))
        assert [tag for tag, _ in out] == ["rpt", "kpm"]
        for _, res in out:
            err = np.linalg.norm(res.refined_pose.translation - gt.translation)
            assert err < 2e-3

    def test_bad_candidate_skipped(self, noiseless_dataset):
        ds = noiseless_dataset
        frame = ds.frames[0]
        gt = compose(ds.gt_calibration, frame.t_b_ee)
        far = Pose(gt.rotation, gt.translation + np.array([0.0, 0.0, 0.8]))
        out = refine_estimates(
            ee_subset(frame.cloud), [("rpt", gt), ("kpm", far)], prepare_source(ds.model)
        )
        assert [tag for tag, _ in out] == ["rpt"]

    def test_all_bad_gives_empty(self, noiseless_dataset):
        ds = noiseless_dataset
        frame = ds.frames[0]
        gt = compose(ds.gt_calibration, frame.t_b_ee)
        far = Pose(gt.rotation, gt.translation + np.array([0.0, 0.0, 0.8]))
        source = prepare_source(ds.model)
        out = refine_estimates(ee_subset(frame.cloud), [("rpt", far), ("kpm", far)], source)
        assert out == []


def _add(est: Pose, true: Pose, pts: np.ndarray) -> float:
    return float(np.mean(np.linalg.norm(est.apply(pts) - true.apply(pts), axis=1)))


def test_refinement_reduces_add_on_noisy_frames(noisy_dataset):
    """Mean alignment error must drop through refinement for both routes."""
    ds = noisy_dataset
    rpt_cfg = RptConfig(rotation_sigma_deg=5.0)
    kpm_cfg = KpmConfig(sigma_m=0.005, dropout=0.1)
    rng = np.random.default_rng(23)
    pts = ds.model.surface_cloud.points
    source = prepare_source(ds.model)
    before = {"rpt": [], "kpm": []}
    after = {"rpt": [], "kpm": []}
    for frame in ds.frames:
        true_pose = compose(ds.gt_calibration, frame.t_b_ee)
        ee = ee_subset(frame.cloud)
        cands = []
        cands.append(("rpt", rpt_pose(ee, ds.model, rpt_cfg, true_pose=true_pose, rng=rng)))
        preds = filter_keypoints(
            predict_keypoints(ee, kpm_cfg, ds.model.ref_keypoints, true_pose=true_pose, rng=rng),
            ee.points,
        )
        if len(preds) >= 4:
            cands.append(("kpm", kpm_pose(preds, ds.model.ref_keypoints)))
        refined = dict(refine_estimates(ee, cands, source))
        for tag, pose in cands:
            if tag in refined:
                before[tag].append(_add(pose, true_pose, pts))
                after[tag].append(_add(refined[tag].refined_pose, true_pose, pts))
    for tag in ("rpt", "kpm"):
        assert len(after[tag]) >= 8
        assert np.mean(after[tag]) < np.mean(before[tag])
