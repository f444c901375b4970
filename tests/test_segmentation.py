from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial import cKDTree

from depthcal.errors import EmptyCloud, MissingGroundTruth, NoValidCluster
from depthcal.geometry import LABEL_EE, PointCloud
from depthcal.segmentation import (
    SegmentationConfig,
    _radius_components,
    cluster_filter,
    predict_labels,
)


def labeled_cloud(n=1000, seed=0):
    rng = np.random.default_rng(seed)
    return PointCloud(rng.normal(size=(n, 3)), labels=rng.integers(0, 3, size=n))


def oracle_labels(cloud, rng_seed=0, **rates):
    cfg = SegmentationConfig(**rates)
    return predict_labels(cloud, cfg, np.random.default_rng(rng_seed)).labels


class TestPredictors:
    def test_ground_truth_passthrough(self):
        cloud = labeled_cloud()
        assert np.array_equal(oracle_labels(cloud), cloud.labels)

    def test_ground_truth_requires_labels(self):
        with pytest.raises(MissingGroundTruth):
            oracle_labels(PointCloud(np.zeros((4, 3))))

    def test_noisy_with_zero_rates_is_ground_truth(self):
        cloud = labeled_cloud(seed=1)
        out = oracle_labels(cloud, flip_probability=0.0, speckle_rate=0.0)
        assert np.array_equal(out, cloud.labels)

    def test_flip_rate(self):
        cloud = labeled_cloud(n=50000, seed=2)
        out = oracle_labels(cloud, 3, flip_probability=0.1)
        changed = (out != cloud.labels).mean()
        assert abs(changed - 0.1) < 0.01
        assert set(np.unique(out)) <= {0, 1, 2}

    def test_speckle_hits_only_non_ee(self):
        cloud = labeled_cloud(n=50000, seed=4)
        out = oracle_labels(cloud, 5, speckle_rate=0.05)
        was_ee = cloud.labels == LABEL_EE
        assert np.array_equal(out[was_ee], cloud.labels[was_ee])
        became = (out[~was_ee] == LABEL_EE).mean()
        assert abs(became - 0.05) < 0.01

    def test_empty_cloud_rejected(self):
        with pytest.raises(EmptyCloud):
            oracle_labels(PointCloud(np.zeros((0, 3))))

    def test_non_finite_rows_dropped_with_their_labels(self):
        cloud = labeled_cloud(n=6, seed=6)
        points = cloud.points.copy()
        points[1, 0] = np.nan
        points[4, 2] = np.inf
        ids = np.array([-1, 0, -1, 1, 2, -1])
        out = predict_labels(
            PointCloud(points, labels=cloud.labels, keypoint_ids=ids),
            SegmentationConfig(),
            np.random.default_rng(0),
        )
        keep = [0, 2, 3, 5]
        assert np.array_equal(out.points, cloud.points[keep])
        assert np.array_equal(out.labels, cloud.labels[keep])
        assert np.array_equal(out.keypoint_ids, ids[keep])
        with pytest.raises(EmptyCloud):
            oracle_labels(PointCloud(np.full((3, 3), np.nan), labels=np.zeros(3)))


def brute_components(points, radius):
    n = len(points)
    d = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    adj = d <= radius
    comp = np.full(n, -1)
    c = 0
    for s in range(n):
        if comp[s] >= 0:
            continue
        stack = [s]
        comp[s] = c
        while stack:
            i = stack.pop()
            for j in np.flatnonzero(adj[i]):
                if comp[j] < 0:
                    comp[j] = c
                    stack.append(j)
        c += 1
    return comp


def assert_same_partition(got, want):
    # label names may differ; the labels must map one to one
    assert len(got) == len(want)
    pairs = np.unique(np.stack([got, want]), axis=1)
    assert pairs.shape[1] == len(np.unique(got)) == len(np.unique(want))


@st.composite
def blob_chains(draw):
    """1-4 blobs chained 0.9-1.1 radius apart, every point repeated 1-3 times."""
    radius = draw(st.floats(0.005, 0.05))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centres = [np.zeros(3)]
    for _ in range(draw(st.integers(0, 3))):
        step = rng.normal(size=3)
        centres.append(centres[-1] + step / np.linalg.norm(step) * radius * rng.uniform(0.9, 1.1))
    spread = draw(st.sampled_from([0.0, 0.02, 0.2])) * radius
    points = np.concatenate(
        [c + rng.normal(scale=spread, size=(draw(st.integers(1, 30)), 3)) for c in centres]
    )
    return np.repeat(points, rng.integers(1, 4, size=len(points)), axis=0), radius


class TestRadiusComponents:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 0.2, size=(250, 3))
        radius = rng.uniform(0.01, 0.05)
        assert_same_partition(_radius_components(pts, radius), brute_components(pts, radius))

    @settings(max_examples=200, deadline=None)
    @given(blob_chains())
    @example((np.ones((1, 3)), 0.03))
    @example((np.ones((4, 3)), 0.03))
    def test_blob_chains_match_brute_force(self, cloud):
        pts, radius = cloud
        assert_same_partition(_radius_components(pts, radius), brute_components(pts, radius))

    def test_far_points_are_their_own_components(self):
        # cell coordinates this far apart overflow an int64 index of their box
        rng = np.random.default_rng(5)
        far = [[1e5, 1e5, 1e5], [-1e5, 3e4, -1e5]]
        pts = np.vstack([rng.normal(scale=0.01, size=(200, 3)), far])
        comp = _radius_components(pts, 0.03)
        assert_same_partition(comp, brute_components(pts, 0.03))
        assert len(np.unique(comp)) == len(np.unique(comp[:200])) + 2

    def test_grid_chain_is_one_component(self):
        # colinear chain with spacing just inside the radius
        pts = np.column_stack([np.arange(20) * 0.0299, np.zeros(20), np.zeros(20)])
        comp = _radius_components(pts, 0.03)
        assert len(np.unique(comp)) == 1

    @pytest.mark.parametrize("bridge_x, parts", [(0.05, 1), (0.105, 2)])
    def test_voxel_pair_settled_by_point_distance(self, bridge_x, parts):
        # two dense lines 31 mm apart; one extra point of the upper line
        # sits 29.9 mm above the lower line's span, which links them, or
        # beyond its end, 30.3 mm from it, which does not.  The linking
        # voxel pair passes the bounding-box and representative screens
        # undecided; the other is ruled out by its bounding-box gap.
        x = np.arange(101) * 0.001
        lower = np.column_stack([x, np.zeros(101), np.zeros(101)])
        upper = np.column_stack([x, np.full(101, 0.031), np.zeros(101)])
        pts = np.vstack([lower, upper, [[bridge_x, 0.0299, 0.0]]])
        comp = _radius_components(pts, 0.03)
        assert len(np.unique(comp)) == parts
        assert len(np.unique(brute_components(pts, 0.03))) == parts


class TestClusterFilter:
    def test_keeps_blob_drops_speckle(self):
        rng = np.random.default_rng(10)
        blob = rng.normal(scale=0.01, size=(500, 3))
        speckle = rng.uniform(0.3, 1.0, size=(25, 3)) * rng.choice([-1, 1], size=(25, 3))
        cloud = PointCloud(np.concatenate([blob, speckle]))
        out = cluster_filter(cloud, SegmentationConfig())
        assert len(out) == 500
        assert np.allclose(out.points, blob)

    def test_connectivity_of_output(self):
        rng = np.random.default_rng(11)
        cloud = PointCloud(rng.normal(scale=0.01, size=(300, 3)))
        out = cluster_filter(cloud, SegmentationConfig())
        d, _ = cKDTree(out.points).query(out.points, k=2)
        assert d[:, 1].max() <= 0.03

    def test_tie_breaks_to_lower_centroid_x(self):
        rng = np.random.default_rng(12)
        blob = rng.normal(scale=0.005, size=(100, 3))
        left = blob + np.array([0.0, 0.0, 0.0])
        right = blob + np.array([1.0, 0.0, 0.0])
        out = cluster_filter(PointCloud(np.concatenate([right, left])), SegmentationConfig())
        assert out.points[:, 0].max() < 0.5

    def test_all_below_fraction(self):
        pts = np.arange(10)[:, None] * np.array([1.0, 0.0, 0.0])
        with pytest.raises(NoValidCluster):
            cluster_filter(PointCloud(pts), SegmentationConfig())

    def test_empty_rejected(self):
        with pytest.raises(EmptyCloud):
            cluster_filter(PointCloud(np.zeros((0, 3))), SegmentationConfig())
