from __future__ import annotations

import numpy as np
import pytest

from depthcal.dataset_io import load_dataset, read_ply, save_dataset, write_ply
from depthcal.errors import DatasetError
from depthcal.geometry import PointCloud
from depthcal.simulator import default_scenario, generate_dataset

from conftest import assert_pose_close


def small_dataset(seed=0, noise=0.0):
    return generate_dataset(default_scenario(seed=seed, frames_per_config=1, noise_sigma_1m=noise))


class TestPly:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        cloud = PointCloud(
            rng.uniform(-2, 2, size=(100, 3)),
            labels=rng.integers(0, 3, size=100),
            keypoint_ids=np.r_[np.arange(6), np.full(94, -1)],
        )
        path = tmp_path / "c.ply"
        write_ply(path, cloud)
        back = read_ply(path)
        assert np.abs(back.points - cloud.points).max() < 1e-9
        assert np.array_equal(back.labels, cloud.labels)
        assert np.array_equal(back.keypoint_ids, cloud.keypoint_ids)

    def test_golden_bytes(self, tmp_path):
        # fixed-precision body: a negative value, a -0.0, a value that
        # rounds to -0, an id of -1 and every label
        cloud = PointCloud(
            np.array([[0.1, -2.5, 0.0], [-0.0, 1.0000000004, 3.25], [123.456789012, 0.5, -1e-10]]),
            labels=np.array([0, 1, 2]),
            keypoint_ids=np.array([-1, 0, 7]),
        )
        path = tmp_path / "g.ply"
        write_ply(path, cloud)
        assert path.read_text() == (
            "ply\n"
            "format ascii 1.0\n"
            "element vertex 3\n"
            "property float x\n"
            "property float y\n"
            "property float z\n"
            "property uchar label\n"
            "property int keypoint_id\n"
            "end_header\n"
            "0.100000000 -2.500000000 0.000000000 0 -1\n"
            "-0.000000000 1.000000000 3.250000000 1 0\n"
            "123.456789012 0.500000000 -0.000000000 2 7\n"
        )

    def test_empty_cloud_round_trip(self, tmp_path):
        path = tmp_path / "empty.ply"
        write_ply(path, PointCloud(np.zeros((0, 3))))
        back = read_ply(path)
        assert back.points.shape == (0, 3)
        assert back.labels.shape == back.keypoint_ids.shape == (0,)

    def test_rejects_non_ply(self, tmp_path):
        p = tmp_path / "x.ply"
        p.write_text("not a ply\n")
        with pytest.raises(DatasetError):
            read_ply(p)


class TestDatasetRoundTrip:
    def test_save_load(self, tmp_path):
        ds = small_dataset(seed=2, noise=0.002)
        save_dataset(ds, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        assert len(back.frames) == len(ds.frames)
        assert_pose_close(back.gt_calibration, ds.gt_calibration, 1e-8, 1e-8)
        for fa, fb in zip(ds.frames, back.frames):
            assert fa.config_id == fb.config_id
            assert_pose_close(fa.t_b_ee, fb.t_b_ee, 1e-8, 1e-8)
            assert np.abs(fa.cloud.points - fb.cloud.points).max() < 1e-9
        # Model is rebuilt from manifest parameters, bit-identically.
        assert np.array_equal(back.model.surface_cloud.points, ds.model.surface_cloud.points)

    def test_byte_identical_across_runs(self, tmp_path):
        for name, seed in (("a", 7), ("b", 7)):
            save_dataset(small_dataset(seed=seed, noise=0.002), tmp_path / name)
        a, b = tmp_path / "a", tmp_path / "b"
        files_a = sorted(p.name for p in a.iterdir())
        assert files_a == sorted(p.name for p in b.iterdir())
        for name in files_a:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DatasetError):
            load_dataset(tmp_path)

    def test_bad_format_tag(self, tmp_path):
        d = tmp_path / "d"
        save_dataset(small_dataset(), d)
        manifest = (d / "manifest.json").read_text().replace("depthcal-dataset-v1", "nope")
        (d / "manifest.json").write_text(manifest)
        with pytest.raises(DatasetError):
            load_dataset(d)

    def test_optional_ground_truth(self, tmp_path):
        ds = small_dataset()
        ds.gt_calibration = None
        save_dataset(ds, tmp_path / "d")
        assert load_dataset(tmp_path / "d").gt_calibration is None
