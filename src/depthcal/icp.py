"""Point-to-plane ICP refinement of an initial end-effector pose.

The model surface cloud (source), placed at the initial pose estimate,
is iteratively matched against the segmented sensor points (target).
The pipeline passes the sensor cluster thinned once per frame to one
point per VOXEL_SIZE voxel (the point selection of Rusinkiewicz & Levoy
2001), shared by every candidate of the frame; thinning keeps input
points, so on exact data every pair is still an exact twin.
Pairing is target-driven: every target point claims its nearest model
point within a distance gate.  Each step pairs every target point
afresh, with one gated nearest-neighbour query and nothing carried over
from the step before.  Model regions the sensor cannot see
(back faces, self-occluded geometry) never initiate pairs, so they
cannot drag the fit.  fitness is the fraction of source points that
some target point claims, so a thinned target pairs fewer of them:
below one half on noisy data and a few percent against the
full-resolution source on exact data.

Each step is the linearised point-to-plane fit (Chen & Medioni 1991):
it minimises the squared distances of the target points to the tangent
planes of their partners, so the source slides along its own faces.
The sliding carries the fit past the aliasing between two surfaces
sampled on regular grids of equal pitch, where point-to-point steps
lock a millimetre or two from the true pose.  Directions the pairs do
not constrain (in-plane motion over one flat face) are left still.
Steps that would increase the point-to-point inlier RMSE are rejected,
so the reported objective is non-increasing by construction.

prepare_source builds the source once per model and every frame and
candidate reuses it: the distinct model points in the model's own frame
(the model repeats points on shared edges; each position counts once),
their KD-tree, and their PCA normals.  The model is thinned at
VOXEL_SIZE too, unless a measurement of the sensor points finds them
exact: then only the full-resolution model gives an exact fit.  Each
search maps the sensor points back by the inverse of the cumulative
placement pose and queries that one tree; each step turns the
partners' normals by the same placement.  Rigid motion preserves
distances, so the pairs are those of a search over the placed source,
without a tree built per search.  Pair distances and the gate are
measured in the sensor frame.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .errors import NoCorrespondences, TooFewPoints
from .geometry import PointCloud, Pose, Quaternion, compose, invert, voxel_labels
from .simulator import EEModel

log = logging.getLogger(__name__)

MIN_ICP_POINTS = 10

# voxel edge (m) of the thinning of both clouds: the model source (on
# inexact data) and the pipeline's per-frame target
VOXEL_SIZE = 0.005
# pairs farther apart than this (m) are not formed
MAX_CORRESPONDENCE_DISTANCE = 0.02
# a run that has not converged stops after this many steps
MAX_ITERATIONS = 50

# each source normal is the least-variance axis of this many nearest
# source points, the point itself included
NORMAL_NEIGHBOURS = 12

# absolute RMSE floor, far below any physical signal; keeps relative
# convergence tests meaningful when the objective sits at floating-point zero
EPS_ABS = 1e-12
# a run has converged once a step changes the inlier RMSE and the fitness
# by less than these fractions of their values
RELATIVE_RMSE_EPSILON = 1e-6
RELATIVE_FITNESS_EPSILON = 1e-6
# median local plane residual (m) below which sensor points count as exact:
# noiseless renders read under 1 nm, sensor noise of 10 um about 9 um
EXACT_SURFACE_RMS = 1e-6


@dataclass
class IcpConfig:
    """The `icp` config section."""

    # False skips refinement; the raw route poses are used
    enabled: bool = True


@dataclass
class IcpResult:
    """The outcome of one ICP run.

    converged is True when the run stopped on its own: the inlier RMSE
    and fitness settled, or the next step would raise the inlier RMSE
    (the guard stop: on noisy data the plane and point-to-point minima
    differ by about the noise, and steps between them stop lowering the
    RMSE).  It is False when the run used up MAX_ITERATIONS or lost
    every pair.
    """

    refined_pose: Pose
    fitness: float
    inlier_rmse: float
    iterations_used: int
    converged: bool
    # inlier RMSE at the initial pose, then after each accepted step
    rmse_history: list[float] = field(default_factory=list)


def voxel_downsample(cloud: PointCloud, voxel_size: float) -> PointCloud:
    """Thin a cloud to at most one point per voxel, keeping input points.

    Each voxel is represented by the member nearest its centroid, the
    lowest index on a tie, so the output is an exact subset of the input
    in input order.  voxel_size 0 returns the cloud as it is.
    """
    if voxel_size <= 0 or len(cloud) == 0:
        return cloud
    pts = cloud.points
    n_vox, inverse = voxel_labels(pts, voxel_size)
    sums = np.stack([np.bincount(inverse, weights=axis, minlength=n_vox) for axis in pts.T], 1)
    centroids = sums / np.bincount(inverse, minlength=n_vox)[:, None]
    d = np.linalg.norm(pts - centroids[inverse], axis=1)
    order = np.lexsort((d, inverse))
    first = np.searchsorted(inverse[order], np.arange(n_vox))
    return cloud.subset(np.sort(order[first]))


class IcpSource:
    """The ICP source of one model, in the model's own frame.

    points: the distinct input points in order of first occurrence, tree
    their KD-tree, normals their unit PCA normals (see _pca_normals).
    """

    def __init__(self, points: np.ndarray):
        _, first = np.unique(points, axis=0, return_index=True)
        self.points = points[np.sort(first)]
        self.tree = cKDTree(self.points)
        self.normals = _pca_normals(self.tree)


def local_pca(tree: cKDTree, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors (columns) of the scatter of
    each query's NORMAL_NEIGHBOURS nearest tree points: the first pair is
    their best-fit plane's normal and sum of squared distances to it."""
    k = min(NORMAL_NEIGHBOURS, tree.n)
    _, idx = tree.query(queries, k=k)
    nb = tree.data[idx.reshape(len(queries), k)]
    nb -= nb.mean(axis=1, keepdims=True)
    return np.linalg.eigh(nb.transpose(0, 2, 1) @ nb)


def _pca_normals(tree: cKDTree) -> np.ndarray:
    """Unit normal of each tree point: the least-variance axis of its
    NORMAL_NEIGHBOURS nearest neighbours.  The sign is arbitrary, which a
    squared plane residual does not see."""
    return local_pca(tree, tree.data)[1][:, :, 0]


def prepare_source(model: EEModel, clouds: Iterable[PointCloud] = ()) -> IcpSource:
    """The model's ICP source, at the resolution the sensor clouds support.

    The first cloud with at least NORMAL_NEIGHBOURS finite points is
    measured: about 256 of its points each take the RMS distance of their
    NORMAL_NEIGHBOURS nearest neighbours to their best-fit plane.  Below
    EXACT_SURFACE_RMS in the median, the points reproduce model surface
    points exactly, and only the full-resolution model gives an exact
    fit.  Otherwise, or with nothing to measure, the points are
    noise-limited and the model thinned at VOXEL_SIZE is just as
    accurate and much faster.
    """
    voxel = VOXEL_SIZE
    for cloud in clouds:
        pts = cloud.points[np.isfinite(cloud.points).all(axis=1)]
        if len(pts) >= NORMAL_NEIGHBOURS:
            least = local_pca(cKDTree(pts), pts[:: max(1, len(pts) // 256)])[0][:, 0]
            if np.median(np.sqrt(np.abs(least) / NORMAL_NEIGHBOURS)) < EXACT_SURFACE_RMS:
                voxel = 0.0
            break
    return IcpSource(voxel_downsample(model.surface_cloud, voxel).points)


def _nearest_pairs(
    tree: cKDTree, tgt: np.ndarray, src: np.ndarray, place: Pose
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairs (i, j, distance): each target point j with its nearest source
    point i, when they are less than MAX_CORRESPONDENCE_DISTANCE apart.

    tree holds the source points in their own frame and place maps them
    onto src.  The search maps the target points back by place's inverse,
    so no tree is built per placement.  Its bound carries a hair of slack
    against rounding in that map; the gate itself is cKDTree's strict
    squared-distance test, made on src and tgt in the sensor frame.
    """
    gate = MAX_CORRESPONDENCE_DISTANCE
    d, i = tree.query(invert(place).apply(tgt), distance_upper_bound=gate * (1 + 1e-9))
    j = np.flatnonzero(np.isfinite(d))
    d2 = ((src[i[j]] - tgt[j]) ** 2).sum(axis=1)
    keep = d2 < gate * gate
    return i[j[keep]], j[keep], np.sqrt(d2[keep])


def _pair_metrics(si: np.ndarray, d: np.ndarray, n_src: int) -> tuple[float, float]:
    fitness = np.count_nonzero(np.bincount(si, minlength=n_src)) / n_src
    return fitness, float(np.sqrt(np.mean(d**2)))


def _plane_step(p: np.ndarray, q: np.ndarray, n: np.ndarray) -> Pose:
    """The rigid step that moves points p onto the planes through q with
    normals n: sum(((R p + t - q) . n)^2) minimised with R linearised.

    The rotation turns about the pairs' centroid.  lstsq's minimum-norm
    solution of the 6x6 normal equations leaves still every direction
    the pairs do not constrain.
    """
    c = p.mean(axis=0)
    a = np.hstack([np.cross(p - c, n), n])
    b = np.einsum("ij,ij->i", q - p, n)
    x = np.linalg.lstsq(a.T @ a, a.T @ b, rcond=None)[0]
    angle = float(np.linalg.norm(x[:3]))
    turn = Quaternion.from_axis_angle(x[:3], angle) if angle > 1e-12 else Quaternion.identity()
    return Pose(turn, c + x[3:] - turn.rotate(c))


def _register(
    source: IcpSource,
    tgt: np.ndarray,
    src_pts: np.ndarray,
    si: np.ndarray,
    ti: np.ndarray,
    d: np.ndarray,
    place: Pose,
) -> tuple[Pose, float, float, int, bool, list[float]]:
    """Iterate point-to-plane steps from the initial pairing (si, ti, d).

    place maps source.points onto src_pts.  Each step pairs every target
    point afresh with its nearest source point at the new placement.
    Returns the final placement (each accepted step composed onto place),
    the final pair metrics, the iteration count, the convergence flag
    (see IcpResult) and the RMSE history.
    """
    n_src = len(src_pts)
    cur = src_pts
    fitness, rmse = _pair_metrics(si, d, n_src)
    history = [rmse]
    iterations_used = 0
    converged = False

    for it in range(1, MAX_ITERATIONS + 1):
        step = _plane_step(cur[si], tgt[ti], place.rotation.rotate(source.normals[si]))
        cand = step.apply(cur)
        cand_place = compose(step, place)
        si2, ti2, d2 = _nearest_pairs(source.tree, tgt, cand, cand_place)
        if len(si2) == 0:
            break
        new_fitness, new_rmse = _pair_metrics(si2, d2, n_src)
        if new_rmse > rmse + EPS_ABS:
            converged = True  # the guard stop, see IcpResult
            break
        cur, place = cand, cand_place
        iterations_used = it
        rmse_stable = abs(new_rmse - rmse) < max(RELATIVE_RMSE_EPSILON * rmse, EPS_ABS)
        fit_stable = abs(new_fitness - fitness) < RELATIVE_FITNESS_EPSILON * max(fitness, 1.0)
        fitness, rmse = new_fitness, new_rmse
        history.append(rmse)
        si, ti = si2, ti2
        # an exact match is converged outright: fitness can still flicker by
        # one count when equidistant points tie for nearest, but every pair
        # already sits at zero distance
        if rmse_stable and (fit_stable or rmse <= EPS_ABS):
            converged = True
            break

    return place, fitness, rmse, iterations_used, converged, history


def icp_refine(source: IcpSource, target: PointCloud, initial: Pose) -> IcpResult:
    """Refine `initial` so the source, placed there, matches the target cloud.

    refined_pose is the final placement of source.points: `initial` with
    every accepted step composed onto it.
    """
    n_src = len(source.points)
    if n_src < MIN_ICP_POINTS or len(target) < MIN_ICP_POINTS:
        raise TooFewPoints(
            f"ICP needs at least {MIN_ICP_POINTS} points on each side, "
            f"got {n_src} source / {len(target)} target"
        )
    if not (np.all(np.isfinite(initial.translation))):
        raise ValueError("initial pose translation is not finite")

    tgt = target.points
    src0 = initial.apply(source.points)
    si, ti, d = _nearest_pairs(source.tree, tgt, src0, initial)
    if len(si) == 0:
        raise NoCorrespondences(
            "no target point within MAX_CORRESPONDENCE_DISTANCE of the "
            "initial placement; the initialization is too far off"
        )
    place, fitness, rmse, iterations_used, converged, history = _register(
        source, tgt, src0, si, ti, d, initial
    )

    return IcpResult(
        refined_pose=place,
        fitness=fitness,
        inlier_rmse=rmse,
        iterations_used=iterations_used,
        converged=converged,
        rmse_history=history,
    )


def refine_estimates(
    target: PointCloud,
    candidates: Sequence[tuple[str, Pose]],
    source: IcpSource,
) -> list[tuple[str, IcpResult]]:
    """Run ICP against one target cloud from every initial pose candidate.

    `source` is the model's prepared IcpSource.  Candidates that fail (no
    correspondences, too few points) are logged and skipped; with no
    survivors the caller drops the frame.
    """
    out = []
    for tag, pose in candidates:
        try:
            out.append((tag, icp_refine(source, target, pose)))
        except (NoCorrespondences, TooFewPoints) as e:
            log.warning("ICP for %s candidate failed: %s", tag, e)
    return out
