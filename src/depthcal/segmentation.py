"""Point cloud segmentation and spatial cluster filtering.

predict_labels stands where the paper's learned per-point classifier
sits: it corrupts the simulator's ground-truth labels with label flips
and false-positive speckle so the downstream robustness can be tested;
at zero rates it returns them unchanged.  predict_labels and
cluster_filter both take the `segmentation` config section.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as _sparse_components
from scipy.spatial import cKDTree

from .errors import ConfigError, EmptyCloud, MissingGroundTruth, NoValidCluster
from .geometry import LABEL_EE, PointCloud, voxel_labels


@dataclass
class SegmentationConfig:
    """The `segmentation` config section: oracle label noise and clustering."""

    # predict_labels error rates; both 0 selects the ground-truth labels
    flip_probability: float = 0.0
    speckle_rate: float = 0.0
    # cluster_filter settings
    linkage_distance: float = 0.03
    min_cluster_fraction: float = 0.2

    def __post_init__(self):
        if not (0.0 <= self.flip_probability <= 1.0 and 0.0 <= self.speckle_rate <= 1.0):
            raise ConfigError("flip_probability and speckle_rate must be in [0, 1]")
        if not self.linkage_distance > 0:
            raise ConfigError("linkage_distance must be positive")
        if not 0.0 <= self.min_cluster_fraction <= 1.0:
            raise ConfigError("min_cluster_fraction must be in [0, 1]")


def predict_labels(
    cloud: PointCloud, cfg: SegmentationConfig, rng: np.random.Generator
) -> PointCloud:
    """The cloud's finite points with oracle labels attached.

    Points with a non-finite coordinate (sensor holes read as NaN) are
    dropped first; labels and keypoint ids stay aligned with the rest.
    The labels are the ground truth corrupted by two error modes:
    cfg.flip_probability swaps each point independently to one of the
    other two classes, and cfg.speckle_rate mislabels each non-EE point
    independently as end effector, producing the scattered false
    positives the cluster filter must reject.
    """
    finite = np.isfinite(cloud.points).all(axis=1)
    if not finite.all():
        cloud = cloud.subset(finite)
    if len(cloud) == 0:
        raise EmptyCloud("cannot segment a cloud with no finite points")
    if cloud.labels is None:
        raise MissingGroundTruth("cloud carries no ground-truth labels")
    labels = cloud.labels.copy()
    n = len(labels)
    if cfg.flip_probability > 0:
        flip = rng.random(n) < cfg.flip_probability
        labels[flip] = (labels[flip] + rng.integers(1, 3, size=int(flip.sum()))) % 3
    if cfg.speckle_rate > 0:
        candidates = labels != LABEL_EE
        spark = rng.random(n) < cfg.speckle_rate
        labels[candidates & spark] = LABEL_EE
    ids = None if cloud.keypoint_ids is None else cloud.keypoint_ids.copy()
    return PointCloud(cloud.points.copy(), labels=labels, keypoint_ids=ids)


def _radius_components(points: np.ndarray, radius: float) -> np.ndarray:
    """Exact connected components of the fixed-radius graph.

    Voxel contraction keeps this near O(n log n) on dense clouds: with
    voxel edge radius/sqrt(3) any two points sharing a voxel are within
    radius (the cell diagonal equals the radius), so point components
    equal components of the voxel graph (voxel_labels keys them by
    per-axis rank, so a far outlier cannot overflow a cell index).

    Two voxels connect iff their point sets come within radius.  Candidate
    pairs come from the voxel centres; a bounding-box gap beyond radius
    rules a pair out.  Two screens settle the rest:
    - representatives: each voxel's member nearest its box centre; a pair
      whose representatives lie within radius is linked;
    - components first: of the pairs still undecided, only those whose
      voxels lie in different components of the links found so far can
      change the partition.  Only these are settled by nearest-neighbour
      queries against one KD-tree per voxel.
    """
    n = len(points)
    cell = radius / math.sqrt(3.0)
    nv, inv = voxel_labels(points, cell)
    if nv == 1:
        return np.zeros(n, dtype=np.int64)

    # points grouped by voxel: voxel v holds grouped[start[v] : start[v + 1]]
    order = np.argsort(inv, kind="stable")
    grouped = points[order]
    start = np.searchsorted(inv[order], np.arange(nv + 1))
    count = np.diff(start)
    mins = np.minimum.reduceat(grouped, start[:-1], axis=0)
    maxs = np.maximum.reduceat(grouped, start[:-1], axis=0)
    centers = 0.5 * (mins + maxs)
    # each voxel's representative: its member nearest the box centre
    d2 = ((grouped - np.repeat(centers, count, axis=0)) ** 2).sum(axis=1)
    nearest = np.flatnonzero(d2 == np.repeat(np.minimum.reduceat(d2, start[:-1]), count))
    reps = grouped[nearest[np.searchsorted(nearest, start[:-1])]]

    # A connecting point pair bounds the center distance of its voxels.
    reach = radius + cell * math.sqrt(3.0) + 1e-12
    pairs = cKDTree(centers).query_pairs(reach, output_type="ndarray")
    r2 = radius * radius
    a, b = pairs[:, 0], pairs[:, 1]
    gap = np.maximum(0.0, np.maximum(mins[a] - maxs[b], mins[b] - maxs[a]))
    maybe = (gap * gap).sum(axis=1) <= r2
    linked = maybe & (((reps[a] - reps[b]) ** 2).sum(axis=1) <= r2)
    vlabels = _components(nv, a[linked], b[linked])
    unsure = np.flatnonzero(maybe & ~linked)
    unsure = unsure[vlabels[a[unsure]] != vlabels[b[unsure]]]
    if len(unsure):
        linked[unsure] = _voxels_within(grouped, start, a[unsure], b[unsure], radius)
        vlabels = _components(nv, a[linked], b[linked])
    return vlabels[inv]


def _components(nv: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Component label of each of nv nodes of the undirected graph with edges (a, b)."""
    graph = coo_matrix((np.ones(len(a)), (a, b)), shape=(nv, nv))
    return _sparse_components(graph, directed=False)[1]


def _voxels_within(
    grouped: np.ndarray, start: np.ndarray, a: np.ndarray, b: np.ndarray, radius: float
) -> np.ndarray:
    """For each voxel pair (a[k], b[k]): does some point pair lie within radius?

    All points of the a-voxels paired with one b-voxel are queried against
    that voxel's KD-tree at once.  The nearest hit is confirmed with the
    squared-distance test `<= radius**2`, so pairs at exactly the radius
    link as they do in the brute-force definition.
    """
    r2 = radius * radius
    count = np.diff(start)
    out = np.zeros(len(a), dtype=bool)
    for v in np.unique(b):
        ks = np.flatnonzero(b == v)
        lengths = count[a[ks]]
        # concatenated point ranges of the partner voxels
        offsets = np.repeat(start[a[ks]] - np.cumsum(lengths) + lengths, lengths)
        query = grouped[offsets + np.arange(lengths.sum())]
        target = grouped[start[v] : start[v + 1]]
        d, j = cKDTree(target).query(query, distance_upper_bound=radius * (1 + 1e-9))
        hit = np.isfinite(d)
        within = np.zeros(len(query), dtype=bool)
        within[hit] = ((query[hit] - target[j[hit]]) ** 2).sum(axis=1) <= r2
        out[ks] = np.logical_or.reduceat(within, np.cumsum(lengths) - lengths)
    return out


def cluster_filter(ee_points: PointCloud, cfg: SegmentationConfig) -> PointCloud:
    """Keep the largest spatial cluster of the predicted EE points.

    Clusters are single-linkage components at cfg.linkage_distance.
    Clusters holding less than cfg.min_cluster_fraction of the input are
    discarded; if none remains, NoValidCluster.  Size ties go to the
    cluster with the lower centroid x, then to the one containing the
    lowest point index.
    """
    if len(ee_points) == 0:
        raise EmptyCloud("no end-effector points to cluster")
    comp = _radius_components(ee_points.points, cfg.linkage_distance)
    sizes = np.bincount(comp)
    min_count = cfg.min_cluster_fraction * len(ee_points)
    eligible = np.flatnonzero(sizes >= min_count)
    if len(eligible) == 0:
        raise NoValidCluster(
            f"largest cluster holds {sizes.max()} of {len(ee_points)} points, "
            f"below the {cfg.min_cluster_fraction:.0%} minimum"
        )
    best_size = sizes[eligible].max()
    candidates = [c for c in eligible if sizes[c] == best_size]
    if len(candidates) > 1:
        cx = [float(ee_points.points[comp == c, 0].mean()) for c in candidates]
        first = [int(np.flatnonzero(comp == c)[0]) for c in candidates]
        candidates = [candidates[int(np.lexsort((first, cx))[0])]]
    return ee_points.subset(comp == candidates[0])
