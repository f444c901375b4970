"""On-disk dataset format and deterministic JSON helpers.

A dataset directory holds manifest.json plus one ASCII PLY per frame.
PLY vertices carry x y z (float, meters), label (uchar: 0 background,
1 arm, 2 end-effector) and keypoint_id (int, -1 for none, each other id
on at most one point).  All floats are written at fixed 9-digit precision,
so identical data always serializes to identical bytes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import DatasetError, DegenerateGeometry, InvalidDimensions
from .geometry import LABEL_ARM, LABEL_BACKGROUND, LABEL_EE, PointCloud, Pose
from .simulator import Dataset, EEModelParams, Frame, build_ee_model

MANIFEST_NAME = "manifest.json"
FORMAT_TAG = "depthcal-dataset-v1"

_PLY_HEADER = """ply
format ascii 1.0
element vertex {n}
property float x
property float y
property float z
property uchar label
property int keypoint_id
end_header
"""


def round_floats(obj):
    """Copy of a JSON-ish structure with every float rounded to 9 digits."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise DatasetError("non-finite float in serialized structure")
        return round(obj, 9)
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def json_bytes(obj) -> bytes:
    return (json.dumps(round_floats(obj), indent=2, sort_keys=True) + "\n").encode()


def write_ply(path: Path | str, cloud: PointCloud) -> None:
    n = len(cloud)
    labels = cloud.labels if cloud.labels is not None else np.zeros(n, dtype=np.int64)
    ids = cloud.keypoint_ids if cloud.keypoint_ids is not None else np.full(n, -1, np.int64)
    table = np.column_stack([cloud.points, labels.astype(float), ids.astype(float)])
    with open(path, "w") as fh:
        fh.write(_PLY_HEADER.format(n=n))
        # one formatting call for the whole body: a per-row loop is several times slower
        fh.write(("%.9f %.9f %.9f %d %d\n" * n) % tuple(table.ravel().tolist()))


def read_ply(path: Path | str) -> PointCloud:
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as e:
        raise DatasetError(f"cannot read {path}: {e}") from e
    if not lines or lines[0].strip() != "ply":
        raise DatasetError(f"{path} is not a PLY file")
    n = None
    body_at = None
    for i, line in enumerate(lines):
        parts = line.split()
        if parts[:2] == ["element", "vertex"]:
            if len(parts) != 3 or not parts[2].isdigit():
                raise DatasetError(f"{path} has a bad vertex count: {line.strip()!r}")
            n = int(parts[2])
        if line.strip() == "end_header":
            body_at = i + 1
            break
    if n is None or body_at is None:
        raise DatasetError(f"{path} has a malformed PLY header")
    if n == 0:  # an empty cloud; loadtxt would read no lines as shape (0, 1)
        data = np.zeros((0, 5))
    else:
        try:
            data = np.loadtxt(lines[body_at : body_at + n], dtype=float, ndmin=2)
        except ValueError as e:
            raise DatasetError(f"{path} has malformed vertex data: {e}") from e
    if len(data) != n or data.shape[1] != 5:
        raise DatasetError(f"{path} vertex data does not match its header")
    labels, ids = data[:, 3], data[:, 4]
    if not np.isin(labels, (LABEL_BACKGROUND, LABEL_ARM, LABEL_EE)).all():
        raise DatasetError(f"{path} has a label other than 0, 1 or 2")
    if not (ids == np.floor(ids)).all() or (ids < -1).any():
        raise DatasetError(f"{path} has a keypoint id that is not an integer >= -1")
    try:
        return PointCloud(
            data[:, :3], labels=labels.astype(np.int64), keypoint_ids=ids.astype(np.int64)
        )
    except ValueError as e:  # a keypoint id on two points
        raise DatasetError(f"{path}: {e}") from e


def save_dataset(dataset: Dataset, directory: Path | str) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    records = []
    for i, frame in enumerate(dataset.frames):
        name = f"frame_{i:05d}.ply"
        write_ply(directory / name, frame.cloud)
        records.append(
            {"file": name, "config_id": frame.config_id, "t_b_ee": frame.t_b_ee.to_dict()}
        )
    manifest = {
        "format": FORMAT_TAG,
        "gt_calibration": (
            None if dataset.gt_calibration is None else dataset.gt_calibration.to_dict()
        ),
        "ee_model": dataset.model.params,
        "scenario": dataset.scenario,
        "warnings": dataset.warnings,
        "frames": records,
    }
    (directory / MANIFEST_NAME).write_bytes(json_bytes(manifest))
    return directory


def load_dataset(directory: Path | str) -> Dataset:
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.is_file():
        raise DatasetError(f"no {MANIFEST_NAME} in {directory}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise DatasetError(f"cannot parse {manifest_path}: {e}") from e
    if not isinstance(manifest, dict):
        raise DatasetError(f"{manifest_path} is not a JSON object")
    if manifest.get("format") != FORMAT_TAG:
        raise DatasetError(f"{manifest_path} has unknown format tag {manifest.get('format')!r}")
    if not isinstance(manifest.get("ee_model"), dict):
        raise DatasetError(f"{manifest_path} is missing the end-effector model parameters")

    try:
        records = [
            (directory / rec["file"], int(rec["config_id"]), Pose.from_dict(rec["t_b_ee"]))
            for rec in manifest.get("frames", [])
        ]
        gt = manifest.get("gt_calibration")
        gt_calibration = None if gt is None else Pose.from_dict(gt)
        model = build_ee_model(EEModelParams.from_dict(manifest["ee_model"]))
        warnings = list(manifest.get("warnings", []))
    except (KeyError, TypeError, ValueError, InvalidDimensions, DegenerateGeometry) as e:
        raise DatasetError(f"{manifest_path} is malformed: {type(e).__name__}: {e}") from e
    return Dataset(
        frames=[Frame(read_ply(path), config_id, t_b_ee) for path, config_id, t_b_ee in records],
        gt_calibration=gt_calibration,
        model=model,
        scenario=manifest.get("scenario", {}),
        warnings=warnings,
    )
