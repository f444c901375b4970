"""Markerless depth-camera-to-robot extrinsic calibration toolkit.

Single-frame end-effector pose estimation from segmented depth points
(a rotate-and-measure translation route and a keypoint-matching route),
point-to-plane ICP refinement, and robust multi-frame aggregation into
a camera-to-base transform.  A synthetic depth-scene simulator provides
ground truth for end-to-end validation.
"""

from .geometry import Pose, PointCloud, Quaternion

__all__ = ["Pose", "PointCloud", "Quaternion"]
__version__ = "0.1.0"
