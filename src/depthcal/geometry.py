"""Rigid-body math: quaternions, poses, labeled point clouds, and the
fitting primitives (least-squares rigid alignment, rotation averaging)
that the calibration pipeline is built from.

Conventions: quaternions are scalar-first (w, x, y, z) and Hamilton;
translations are meters; a Pose maps points from its source frame into
its target frame as p' = R p + t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateGeometry, EmptyInput

# Point cloud class labels.
LABEL_BACKGROUND = 0
LABEL_ARM = 1
LABEL_EE = 2

NO_KEYPOINT = -1

_UNIT_TOL = 1e-9


@dataclass(frozen=True)
class Quaternion:
    """Unit quaternion, scalar-first, Hamilton convention.

    Inputs are renormalized on construction, so the unit-norm invariant
    holds for every instance.  A zero-norm input is rejected.
    """

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        n = math.sqrt(self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z)
        if n < 1e-12:
            raise DegenerateGeometry("quaternion has zero norm")
        if abs(n - 1.0) > _UNIT_TOL:
            object.__setattr__(self, "w", self.w / n)
            object.__setattr__(self, "x", self.x / n)
            object.__setattr__(self, "y", self.y / n)
            object.__setattr__(self, "z", self.z / n)

    @classmethod
    def identity(cls) -> "Quaternion":
        return cls(1.0, 0.0, 0.0, 0.0)

    @classmethod
    def from_array(cls, a: Sequence[float]) -> "Quaternion":
        w, x, y, z = (float(v) for v in a)
        return cls(w, x, y, z)

    @classmethod
    def from_axis_angle(cls, axis: Sequence[float], angle: float) -> "Quaternion":
        ax = np.asarray(axis, dtype=float)
        n = float(np.linalg.norm(ax))
        if n < 1e-12:
            raise DegenerateGeometry("rotation axis has zero norm")
        ax = ax / n
        half = 0.5 * float(angle)
        s = math.sin(half)
        return cls(math.cos(half), s * ax[0], s * ax[1], s * ax[2])

    @classmethod
    def from_rotation_matrix(cls, m: np.ndarray) -> "Quaternion":
        """Shepperd's method, branching on the largest diagonal term."""
        m = np.asarray(m, dtype=float)
        t = m[0, 0] + m[1, 1] + m[2, 2]
        if t > 0.0:
            s = math.sqrt(t + 1.0) * 2.0
            w = 0.25 * s
            x = (m[2, 1] - m[1, 2]) / s
            y = (m[0, 2] - m[2, 0]) / s
            z = (m[1, 0] - m[0, 1]) / s
        elif m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
            s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
            w = (m[2, 1] - m[1, 2]) / s
            x = 0.25 * s
            y = (m[0, 1] + m[1, 0]) / s
            z = (m[0, 2] + m[2, 0]) / s
        elif m[1, 1] >= m[2, 2]:
            s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
            w = (m[0, 2] - m[2, 0]) / s
            x = (m[0, 1] + m[1, 0]) / s
            y = 0.25 * s
            z = (m[1, 2] + m[2, 1]) / s
        else:
            s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
            w = (m[1, 0] - m[0, 1]) / s
            x = (m[0, 2] + m[2, 0]) / s
            y = (m[1, 2] + m[2, 1]) / s
            z = 0.25 * s
        return cls(w, x, y, z)

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z], dtype=float)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def multiply(self, other: "Quaternion") -> "Quaternion":
        """Hamilton product self * other (applies `other` first)."""
        w1, x1, y1, z1 = self.w, self.x, self.y, self.z
        w2, x2, y2, z2 = other.w, other.x, other.y, other.z
        return Quaternion(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def rotation_matrix(self) -> np.ndarray:
        w, x, y, z = self.w, self.x, self.y, self.z
        return np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ],
            dtype=float,
        )

    def rotate(self, points: np.ndarray) -> np.ndarray:
        """Rotate one point (3,) or a stack (N, 3)."""
        pts = np.asarray(points, dtype=float)
        return pts @ self.rotation_matrix().T


@dataclass(frozen=True)
class Pose:
    """Rigid transform: rotation (unit quaternion) plus translation in meters."""

    rotation: Quaternion
    translation: np.ndarray

    def __post_init__(self):
        t = np.array(self.translation, dtype=float).reshape(3)
        t.flags.writeable = False
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "Pose":
        return cls(Quaternion.identity(), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one point (3,) or a stack (N, 3)."""
        return self.rotation.rotate(points) + self.translation

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation.rotation_matrix()
        m[:3, 3] = self.translation
        return m

    def to_dict(self) -> dict:
        q = self.rotation
        return {"q": [q.w, q.x, q.y, q.z], "t": [float(v) for v in self.translation]}

    @classmethod
    def from_dict(cls, d: dict) -> "Pose":
        q, t = np.asarray(d["q"], dtype=float), np.asarray(d["t"], dtype=float)
        if not (np.isfinite(q).all() and np.isfinite(t).all()):
            raise ValueError(f"pose has a non-finite value: {d}")
        return cls(Quaternion.from_array(q), t)


@dataclass
class PointCloud:
    """Points (N, 3) in meters with optional per-point labels and keypoint ids.

    labels: int array (N,), classes 0 background / 1 arm / 2 end-effector.
    keypoint_ids: int array (N,), -1 for ordinary points; any id >= 0
    appears at most once.
    """

    points: np.ndarray
    labels: np.ndarray | None = None
    keypoint_ids: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        n = len(self.points)
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
            if len(self.labels) != n:
                raise ValueError("labels length does not match point count")
        if self.keypoint_ids is not None:
            self.keypoint_ids = np.asarray(self.keypoint_ids, dtype=np.int64).reshape(-1)
            if len(self.keypoint_ids) != n:
                raise ValueError("keypoint_ids length does not match point count")
            tagged = self.keypoint_ids[self.keypoint_ids >= 0]
            if len(tagged) != len(np.unique(tagged)):
                raise ValueError("duplicate keypoint id in cloud")

    def __len__(self) -> int:
        return len(self.points)

    def subset(self, mask: np.ndarray) -> "PointCloud":
        """New cloud containing the selected points, order preserved."""
        return PointCloud(
            self.points[mask],
            None if self.labels is None else self.labels[mask],
            None if self.keypoint_ids is None else self.keypoint_ids[mask],
        )


def voxel_labels(points: np.ndarray, cell: float) -> tuple[int, np.ndarray]:
    """The number of occupied cubic voxels of edge cell, and each point's voxel.

    Voxels are numbered in lexicographic order of their floor cell
    coordinates.  They are keyed by the rank of that coordinate on each
    axis, not by the coordinate itself, so the key space is bounded by
    n**3 however far apart the points lie and no cell index can overflow.
    """
    ranks = [np.unique(np.floor(axis / cell), return_inverse=True)[1] for axis in points.T]
    flat = np.ravel_multi_index(ranks, [r.max() + 1 for r in ranks])
    uniq, inverse = np.unique(flat, return_inverse=True)
    return len(uniq), inverse


def compose(a: Pose, b: Pose) -> Pose:
    """Pose equivalent to applying b first, then a."""
    q = a.rotation.multiply(b.rotation)
    t = a.rotation.rotate(b.translation) + a.translation
    return Pose(q, t)


def invert(p: Pose) -> Pose:
    qi = p.rotation.conjugate()
    return Pose(qi, -qi.rotate(p.translation))


def rotation_distance(a: Quaternion, b: Quaternion) -> float:
    """Minimum rotation angle in radians between two orientations.

    Invariant under the quaternion double cover (q and -q agree), always
    in [0, pi].  Computed through the relative quaternion with atan2, so
    tiny angles near machine precision come out accurately.
    """
    rel = a.conjugate().multiply(b)
    vec = math.sqrt(rel.x * rel.x + rel.y * rel.y + rel.z * rel.z)
    return 2.0 * math.atan2(vec, abs(rel.w))


def kabsch_fit(source: np.ndarray, target: np.ndarray) -> Pose:
    """Least-squares rigid fit: the Pose minimizing sum ||R s_i + t - t_i||^2.

    Cross-covariance SVD with a determinant sign correction so the result
    is always a proper rotation (no reflection).

    Raises DegenerateGeometry for fewer than 3 points or (near-)collinear
    input, where the rotation is underdetermined.
    """
    s = np.asarray(source, dtype=float).reshape(-1, 3)
    t = np.asarray(target, dtype=float).reshape(-1, 3)
    if len(s) != len(t):
        raise ValueError("source and target must pair up one to one")
    if len(s) < 3:
        raise DegenerateGeometry("rigid fit needs at least 3 point pairs")

    sc = s.mean(axis=0)
    tc = t.mean(axis=0)
    h = (s - sc).T @ (t - tc)
    u, sing, vt = np.linalg.svd(h)
    if sing[0] < 1e-15 or sing[1] <= 1e-9 * sing[0]:
        raise DegenerateGeometry("point pairs are collinear or coincident")
    d = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    q = Quaternion.from_rotation_matrix(r)
    return Pose(q, tc - q.rotate(sc))


def quaternion_average(quaternions: Iterable[Quaternion]) -> Quaternion:
    """Mean orientation.

    Largest eigenvector of the outer-product accumulator sum q_i q_i^T,
    which is invariant to per-quaternion sign flips.
    """
    qs = [q.as_array() for q in quaternions]
    if not qs:
        raise EmptyInput("cannot average zero quaternions")
    acc = np.zeros((4, 4))
    for qi in qs:
        acc += np.outer(qi, qi)
    vals, vecs = np.linalg.eigh(acc)
    v = vecs[:, np.argmax(vals)]
    # Canonical sign: first nonzero component positive, preferring w.
    for c in v:
        if abs(c) > 1e-12:
            if c < 0:
                v = -v
            break
    return Quaternion.from_array(v)
