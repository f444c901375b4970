"""Point-to-point ICP refinement of an initial end-effector pose.

The model surface cloud (source), placed at the initial pose estimate,
is iteratively matched against the segmented sensor points (target).
Pairing is target-driven: every sensor point claims its nearest model
point within a distance gate.  Model regions the sensor cannot see
(back faces, self-occluded geometry) never initiate pairs, so they
cannot drag the fit, and at the true pose every pair is an exact twin.
Iterations that would increase the inlier RMSE are rejected, so the
reported objective is non-increasing by construction.

The source depends only on the model and the config, so prepare_source
builds it once per model and every frame and candidate reuses it: the
thinned model points in the model's own frame, their KD-tree, and their
sampling pitch (median nearest-neighbour distance).  The main loop
tracks the cumulative placement pose and searches that one tree with the
sensor points mapped back by the pose's inverse.  Rigid motion preserves
distances, so the pairs are those of a search over the placed source,
without a tree built per search; coincident model points (the model
repeats points on shared edges) are named by their lowest index.  Pair
distances and the gate are still measured in the sensor frame.

Grid-sampled surfaces need one extra step.  When source and target
sample the same surface on regular grids of equal pitch, nearest
neighbour pairing aliases between the two grids and the iteration can
lock onto a spurious minimum a millimetre or two from the true pose.
If the starting misalignment exceeds half the source sampling pitch, a
pre-alignment pass therefore runs first on a dithered copy of the
source (every point shifted by up to half the pitch, fixed seed).  The
dither destroys the grid coherence, the pre-alignment lands well
inside the basin of the exact minimum, and the main loop then snaps to
it.  The jittered points are not a rigid image of the model, so the
model-frame tree cannot pair them: the pre-alignment searches a tree
built over its current placement each time, the second search mode of
_NearestSource.  The pre-alignment pass does not count toward
iterations_used and does not appear in rmse_history.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.spatial import cKDTree

from .errors import ConfigError, DegenerateGeometry, NoCorrespondences, TooFewPoints
from .geometry import PointCloud, Pose, compose, invert, kabsch_fit
from .simulator import EEModel

log = logging.getLogger(__name__)

MIN_ICP_POINTS = 10

# absolute RMSE floor, far below any physical signal; keeps relative
# convergence tests meaningful when the objective sits at floating-point zero
EPS_ABS = 1e-12


@dataclass
class IcpConfig:
    """The `icp` config section."""

    # False skips refinement; the raw route poses are used
    enabled: bool = True
    max_correspondence_distance: float = 0.02
    max_iterations: int = 50
    relative_rmse_epsilon: float = 1e-6
    relative_fitness_epsilon: float = 1e-6
    # source preparation (refine_estimates): 0 disables either limit
    source_voxel_size: float = 0.005
    source_max_points: int = 5000

    def __post_init__(self):
        if self.max_correspondence_distance <= 0:
            raise ConfigError("max_correspondence_distance must be positive")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be at least 1")
        if self.relative_rmse_epsilon <= 0 or self.relative_fitness_epsilon <= 0:
            raise ConfigError("convergence epsilons must be positive")
        if self.source_voxel_size < 0:
            raise ConfigError("source_voxel_size must be non-negative")
        if self.source_max_points < 0:
            raise ConfigError("source_max_points must be non-negative")


@dataclass
class IcpResult:
    refined_pose: Pose
    fitness: float
    inlier_rmse: float
    iterations_used: int
    converged: bool
    # inlier RMSE after each accepted iteration of the main loop, starting
    # at the pose the loop begins from (after pre-alignment when it runs)
    rmse_history: list[float] = field(default_factory=list)


def voxel_downsample(
    cloud: PointCloud, voxel_size: float, max_points: int = 0
) -> PointCloud:
    """Thin a cloud to at most one point per voxel, keeping input points.

    Each voxel is represented by the member nearest its centroid, so the
    output is an exact subset of the input.  voxel_size 0 skips the grid;
    max_points 0 means unlimited, otherwise an evenly strided subset is
    taken on top.
    """
    cloud_out = cloud
    if voxel_size > 0 and len(cloud) > 0:
        pts = cloud.points
        keys = np.floor(pts / voxel_size).astype(np.int64)
        _, inverse = np.unique(keys, axis=0, return_inverse=True)
        n_vox = int(inverse.max()) + 1
        sums = np.zeros((n_vox, 3))
        np.add.at(sums, inverse, pts)
        counts = np.bincount(inverse, minlength=n_vox).astype(float)
        centroids = sums / counts[:, None]
        d = np.linalg.norm(pts - centroids[inverse], axis=1)
        order = np.lexsort((d, inverse))
        first = np.searchsorted(inverse[order], np.arange(n_vox))
        pick = np.sort(order[first])
        cloud_out = cloud.subset(pick)
    if max_points > 0 and len(cloud_out) > max_points:
        idx = np.linspace(0, len(cloud_out) - 1, max_points).round().astype(int)
        cloud_out = cloud_out.subset(np.unique(idx))
    return cloud_out


class IcpSource:
    """The ICP source of one model, in the model's own frame.

    points: the (thinned) model points.  tree: a KD-tree over the distinct
    points; first[k] is the lowest index in `points` of tree point k, the
    index pairs give to coincident points (the model repeats points on
    shared edges).  pitch: the median nearest-neighbour distance of points.
    """

    def __init__(self, points: np.ndarray):
        self.points = points
        distinct, self.first = np.unique(points, axis=0, return_index=True)
        self.tree = cKDTree(distinct)
        self.pitch = _median_spacing(points)


def _median_spacing(pts: np.ndarray) -> float:
    """Median nearest-neighbour distance, an estimate of the sampling pitch."""
    if len(pts) < 2:
        return 0.0
    d, _ = cKDTree(pts).query(pts, k=2)
    return float(np.median(d[:, 1]))


def prepare_source(model: EEModel, cfg: IcpConfig | None = None) -> IcpSource:
    """The model's ICP source, thinned as the config asks."""
    cfg = cfg or IcpConfig()
    thinned = voxel_downsample(model.surface_cloud, cfg.source_voxel_size, cfg.source_max_points)
    return IcpSource(thinned.points)


class _NearestSource:
    """Target-driven pairing: each target point with its nearest source point.

    The same target is paired against successive placements of one source
    set, and most partners survive a small move.  A target point keeps its
    partner while the partner's lead over the runner-up, measured at the
    last search, exceeds twice the largest source displacement since then
    (triangle inequality); only the other points are searched again.

    Given the placement pose of `source`, a search maps the target points
    back by its inverse and runs on source.tree, so no tree is built.  The
    pairs are those of a fresh search over the placed points, except that
    of coincident source points, which such a search may name in any
    order, the lowest index is named.  Without a pose (a placement that is
    no rigid image of the source, such as the dithered copy) a search runs
    on a tree built over the placed points, and leads within EPS_ABS of
    zero, exact ties among them, are settled by the gated 1-NN search
    there, so every pair is the one a fresh search would give.
    """

    def __init__(self, tgt: np.ndarray, max_dist: float, source: IcpSource | None = None):
        self.tgt = tgt
        self.max_dist = max_dist
        self.source = source
        self.src: np.ndarray | None = None
        self.idx = np.zeros(len(tgt), dtype=np.intp)
        # a lead of zero marks a point for search, so the first call finds all
        self.lead = np.zeros(len(tgt))

    def __call__(
        self, src: np.ndarray, place: Pose | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pairs (i, j, distance) within max_dist for this source placement.

        place, when given, maps source.points onto src.
        """
        if self.src is not None:
            self.lead -= 2.0 * np.sqrt(((src - self.src) ** 2).sum(axis=1).max())
        self.src = src
        redo = np.flatnonzero(self.lead <= EPS_ABS)
        if len(redo) and place is not None:
            d, i = self.source.tree.query(invert(place).apply(self.tgt[redo]), k=2)
            self.idx[redo] = self.source.first[i[:, 0]]
            self.lead[redo] = d[:, 1] - d[:, 0]
        elif len(redo):
            tree = cKDTree(src)
            d, i = tree.query(self.tgt[redo], k=2)
            self.idx[redo] = i[:, 0]
            self.lead[redo] = d[:, 1] - d[:, 0]
            tied = redo[self.lead[redo] <= EPS_ABS]
            if len(tied):
                _, i1 = tree.query(self.tgt[tied], distance_upper_bound=self.max_dist)
                found = i1 < len(src)
                self.idx[tied[found]] = i1[found]
        # the gate of cKDTree's distance_upper_bound: squared distance
        # strictly below the squared bound
        d2 = ((src[self.idx] - self.tgt) ** 2).sum(axis=1)
        j = np.flatnonzero(d2 < self.max_dist * self.max_dist)
        return self.idx[j], j, np.sqrt(d2[j])


def _pair_metrics(si: np.ndarray, d: np.ndarray, n_src: int) -> tuple[float, float]:
    fitness = np.count_nonzero(np.bincount(si, minlength=n_src)) / n_src
    return fitness, float(np.sqrt(np.mean(d**2)))


def _register(
    src_pts: np.ndarray,
    pairs: _NearestSource,
    cfg: IcpConfig,
    si: np.ndarray,
    ti: np.ndarray,
    d: np.ndarray,
    place: Pose | None = None,
) -> tuple[Pose, float, float, int, bool, list[float]]:
    """Iterate rigid fit + re-pairing from a precomputed initial pairing.

    place is the pose that maps pairs.source.points onto src_pts;
    None makes every search build a tree over the current placement.
    Returns the accumulated incremental correction together with the final
    pair metrics, the iteration count, the convergence flag and the RMSE
    history of accepted iterations.
    """
    tgt = pairs.tgt
    n_src = len(src_pts)
    cur = src_pts
    delta = Pose.identity()
    fitness, rmse = _pair_metrics(si, d, n_src)
    history = [rmse]
    iterations_used = 0
    converged = False

    for it in range(1, cfg.max_iterations + 1):
        if len(si) < 3:
            break
        try:
            step = kabsch_fit(cur[si], tgt[ti])
        except DegenerateGeometry:
            break
        cand = step.apply(cur)
        cand_place = None if place is None else compose(step, place)
        si2, ti2, d2 = pairs(cand, cand_place)
        if len(si2) == 0:
            break
        new_fitness, new_rmse = _pair_metrics(si2, d2, n_src)
        if new_rmse > rmse + EPS_ABS:
            break
        cur, place = cand, cand_place
        delta = compose(step, delta)
        iterations_used = it
        rmse_stable = abs(new_rmse - rmse) < max(cfg.relative_rmse_epsilon * rmse, EPS_ABS)
        fit_stable = abs(new_fitness - fitness) < cfg.relative_fitness_epsilon * max(
            fitness, 1.0
        )
        fitness, rmse = new_fitness, new_rmse
        history.append(rmse)
        si, ti = si2, ti2
        # an exact match is converged outright: fitness can still flicker by
        # one count when duplicate points tie for nearest, but every pair
        # already sits at zero distance
        if rmse_stable and (fit_stable or rmse <= EPS_ABS):
            converged = True
            break

    return delta, fitness, rmse, iterations_used, converged, history


def icp_refine(
    source: PointCloud | IcpSource,
    target: PointCloud,
    initial: Pose,
    cfg: IcpConfig | None = None,
) -> IcpResult:
    """Refine `initial` so the source cloud matches the target cloud.

    `source` is either a PointCloud already transformed by the initial
    pose, or an IcpSource in the model frame, placed at `initial` here.
    The result composes the accumulated incremental correction with
    `initial`, so applying refined_pose to the untransformed model
    reproduces the final internal source placement.
    """
    cfg = cfg or IcpConfig()
    n_src = len(source.points)
    if n_src < MIN_ICP_POINTS or len(target) < MIN_ICP_POINTS:
        raise TooFewPoints(
            f"ICP needs at least {MIN_ICP_POINTS} points on each side, "
            f"got {n_src} source / {len(target)} target"
        )
    if not (np.all(np.isfinite(initial.translation))):
        raise ValueError("initial pose translation is not finite")

    if isinstance(source, PointCloud):
        # the placed cloud is its own frame, so its placement is the identity
        src0, source, place = source.points, IcpSource(source.points), Pose.identity()
    else:
        src0, place = initial.apply(source.points), initial
    pairs = _NearestSource(target.points, cfg.max_correspondence_distance, source)
    si, ti, d = pairs(src0, place)
    if len(si) == 0:
        raise NoCorrespondences(
            "no target point within max_correspondence_distance of the "
            "initial placement; the initialization is too far off"
        )
    _, rmse0 = _pair_metrics(si, d, n_src)

    # dithered pre-alignment against grid aliasing (see module docstring);
    # skipped when the start is already closer than half the sampling pitch
    pre = Pose.identity()
    start_pts = src0
    pitch = source.pitch
    if rmse0 > EPS_ABS and pitch > 0.0 and rmse0 > 0.5 * pitch:
        shift = np.random.default_rng(0).uniform(-0.5 * pitch, 0.5 * pitch, size=src0.shape)
        jittered = src0 + shift
        sj, tj, dj = pairs(jittered)
        if len(sj) >= 3:
            pre = _register(jittered, pairs, cfg, sj, tj, dj)[0]
            cand_pts = pre.apply(src0)
            si2, ti2, d2 = pairs(cand_pts, compose(pre, place))
            if len(si2) > 0:
                start_pts, si, ti, d = cand_pts, si2, ti2, d2
            else:
                pre = Pose.identity()

    delta, fitness, rmse, iterations_used, converged, history = _register(
        start_pts, pairs, cfg, si, ti, d, compose(pre, place)
    )

    return IcpResult(
        refined_pose=compose(delta, compose(pre, initial)),
        fitness=fitness,
        inlier_rmse=rmse,
        iterations_used=iterations_used,
        converged=converged,
        rmse_history=history,
    )


def refine_estimates(
    ee_cloud: PointCloud,
    candidates: Sequence[tuple[str, Pose]],
    source: IcpSource | EEModel,
    cfg: IcpConfig | None = None,
) -> list[tuple[str, IcpResult]]:
    """Run ICP from every available initial pose candidate.

    `source` is the model's prepared IcpSource; an EEModel is prepared
    here.  Candidates that fail (no correspondences, degenerate fits) are
    logged and skipped; with no survivors the caller drops the frame.
    """
    cfg = cfg or IcpConfig()
    if isinstance(source, EEModel):
        source = prepare_source(source, cfg)
    out = []
    for tag, pose in candidates:
        try:
            out.append((tag, icp_refine(source, ee_cloud, pose, cfg)))
        except (NoCorrespondences, DegenerateGeometry, TooFewPoints) as e:
            log.warning("ICP for %s candidate failed: %s", tag, e)
    return out
