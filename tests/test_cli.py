"""Tests for the command-line interface."""

import dataclasses
import json
import math
import shutil

import numpy as np
import pytest

from depthcal import cli
from depthcal.cli import CliConfig, from_dict, load_config, main
from depthcal.dataset_io import read_ply, write_ply
from depthcal.errors import ConfigError, EmptyInput
from depthcal.geometry import LABEL_EE, PointCloud, Pose, compose, rotation_distance


def copy_dataset(src, dst, edit_manifest=None):
    shutil.copytree(src, dst)
    if edit_manifest is not None:
        manifest = json.loads((dst / "manifest.json").read_text())
        edit_manifest(manifest)
        (dst / "manifest.json").write_text(json.dumps(manifest))
    return dst


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def small_config(workdir):
    path = workdir / "small.json"
    path.write_text(json.dumps({"simulator": {"frames_per_config": 1}}))
    return str(path)


@pytest.fixture(scope="module")
def dataset_dir(workdir, small_config):
    out = workdir / "ds"
    assert main(["simulate", "--config", small_config, "--output", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def blind_dataset_dir(workdir, dataset_dir):
    # same dataset with the ground-truth calibration stripped out
    return copy_dataset(
        dataset_dir, workdir / "ds_blind", lambda m: m.update(gt_calibration=None)
    )


class TestConfigHandling:
    def test_defaults_returned_without_file(self):
        cfg = load_config(None)
        assert cfg == CliConfig()
        cfg.icp.enabled = False
        assert load_config(None).icp.enabled is True
        assert CliConfig().icp.enabled is True

    def test_partial_overlay_keeps_other_defaults(self):
        cfg = from_dict(CliConfig, {"kpm": {"dropout": 0.2}})
        assert cfg.kpm.dropout == 0.2
        assert cfg.kpm.snap_radius_m == 0.01
        assert cfg.icp.enabled is True
        assert cfg.seed == 0

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="icp.bogus_knob"):
            from_dict(CliConfig, {"icp": {"bogus_knob": 1}})
        with pytest.raises(ConfigError, match="nonsense"):
            from_dict(CliConfig, {"nonsense": 1})

    def test_section_must_be_object(self):
        with pytest.raises(ConfigError, match="icp"):
            from_dict(CliConfig, {"icp": 5})

    def test_invalid_json_rejected(self, workdir):
        path = workdir / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_every_key_at_its_default_loads_back_equal(self, workdir):
        # a file naming every key guards the sections against drifting
        # from the dataclasses they are loaded into
        path = workdir / "all_defaults.json"
        path.write_text(json.dumps(dataclasses.asdict(CliConfig())))
        assert load_config(str(path)) == CliConfig()

    def test_labeling_section_rejected_exit_2(self, workdir, capsys):
        path = workdir / "labeling.json"
        path.write_text(json.dumps({"labeling": {"background_match_radius": 0.005}}))
        code = main(["simulate", "--config", str(path), "--output", str(workdir / "no")])
        assert code == 2
        assert "labeling" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "dotted, value",
        [
            pytest.param(dotted, value, id=dotted)
            for dotted, value in [
                ("calibration.mad_zero_epsilon", 1e-6),
                ("calibration.translation_outlier_mode", "union"),
                ("icp.relative_rmse_epsilon", 1e-6),
                ("icp.relative_fitness_epsilon", 1e-6),
                ("icp.source_voxel_size", 0.005),
                ("icp.max_correspondence_distance", 0.02),
                ("icp.max_iterations", 50),
                ("simulator.with_background", True),
                ("kpm.quality_radius_m", 0.03),
            ]
        ],
    )
    def test_removed_keys_rejected_exit_2(self, workdir, capsys, dotted, value):
        # each value is the key's former default, so only the key is wrong
        section, key = dotted.split(".")
        path = workdir / "removed_key.json"
        path.write_text(json.dumps({section: {key: value}}))
        out = workdir / "removed_key_ds"
        code = main(["simulate", "--config", str(path), "--output", str(out)])
        assert code == 2
        assert dotted in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "bad",
        [
            {"segmentation": {"linkage_distance": 0}},
            {"segmentation": {"min_cluster_fraction": 1.5}},
            {"segmentation": {"min_cluster_fraction": -0.1}},
            {"seed": "x"},
            {"seed": -1},
            {"seed": True},
            {"jobs": "2"},
            {"jobs": 0},
            {"jobs": True},
            {"segmentation": {"flip_probability": 2}},
            {"segmentation": {"flip_probability": "x"}},
            {"segmentation": {"speckle_rate": -0.1}},
            {"rpt": {"rotation_sigma_deg": -1}},
            {"rpt": {"trim_fraction": 0.5}},
            {"rpt": {"trim_fraction": -0.01}},
            {"kpm": {"sigma_m": "x"}},
            {"kpm": {"sigma_m": -0.001}},
            {"kpm": {"dropout": 1.5}},
            {"kpm": {"snap_radius_m": 0}},
            {"icp": {"enabled": "no"}},
            {"calibration": {"min_ee_points": 7.5}},
            {"kpm": {"sigma_m": True}},
            {"evaluation": {"add_thresholds": 0.01}},
            {"evaluation": {"add_thresholds": ["x"]}},
            {"evaluation": {"add_thresholds": [True]}},
            {"evaluation": {"write_csv": 1}},
            {"simulator": {"frames_per_config": "5"}},
            {"simulator": {"frames_per_config": 0}},
            {"simulator": {"frames_per_config": -1}},
            {"simulator": {"occlusion": {"axis": 5, "threshold": 0.0}}},
            {"simulator": {"occlusion": {"axis": -1, "threshold": 0.0}}},
            {"simulator": {"occlusion": {"axis": 1.7, "threshold": 0.0}}},
            {"simulator": {"occlusion": {"axis": True, "threshold": 0.0}}},
            {"simulator": {"occlusion": {"threshold": "x", "axis": 0}}},
            {"simulator": {"occlusion": {"remove_above": "no", "axis": 0, "threshold": 0.0}}},
            {"simulator": {"occlusion": {"bogus": 1, "axis": 0, "threshold": 0.0}}},
            {"simulator": {"occlusion": 5}},
        ],
        ids=[
            "linkage_distance_zero",
            "min_cluster_fraction_above_one",
            "min_cluster_fraction_negative",
            "seed_string",
            "seed_negative",
            "seed_bool",
            "jobs_string",
            "jobs_zero",
            "jobs_bool",
            "flip_probability_above_one",
            "flip_probability_string",
            "speckle_rate_negative",
            "rotation_sigma_negative",
            "trim_fraction_half",
            "trim_fraction_negative",
            "kpm_sigma_string",
            "kpm_sigma_negative",
            "kpm_dropout_above_one",
            "snap_radius_zero",
            "icp_enabled_string",
            "min_ee_points_fraction",
            "kpm_sigma_bool",
            "add_thresholds_number",
            "add_thresholds_string_element",
            "add_thresholds_bool_element",
            "write_csv_integer",
            "frames_per_config_string",
            "frames_per_config_zero",
            "frames_per_config_negative",
            "occlusion_axis_out_of_range",
            "occlusion_axis_negative",
            "occlusion_axis_fraction",
            "occlusion_axis_bool",
            "occlusion_threshold_string",
            "occlusion_remove_above_string",
            "occlusion_unknown_key",
            "occlusion_not_object",
        ],
    )
    def test_out_of_range_value_exit_2(self, workdir, dataset_dir, capsys, bad):
        path = workdir / "out_of_range.json"
        path.write_text(json.dumps(bad))
        code = main(["estimate", str(dataset_dir), "--frame", "0", "--config", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err
        key, value = next(iter(bad.items()))
        while isinstance(value, dict):
            key, value = next(iter(value.items()))
        assert key in err

    def test_wrong_type_named_by_dotted_key(self):
        with pytest.raises(ConfigError, match=r"icp\.enabled must be a boolean"):
            from_dict(CliConfig, {"icp": {"enabled": "no"}})
        with pytest.raises(ConfigError, match=r"kpm\.sigma_m must be a number"):
            from_dict(CliConfig, {"kpm": {"sigma_m": "x"}})
        with pytest.raises(ConfigError, match=r"^seed must be an integer"):
            from_dict(CliConfig, {"seed": 1.5})
        # an integer passes for a number, and a null default takes an object
        cfg = from_dict(
            CliConfig,
            {"segmentation": {"linkage_distance": 1},
             "simulator": {"occlusion": {"axis": 2, "threshold": 0.3, "remove_above": True}}},
        )
        assert cfg.segmentation.linkage_distance == 1
        assert cfg.simulator.occlusion is not None


class TestSimulate:
    def test_dataset_on_disk(self, dataset_dir):
        manifest = json.loads((dataset_dir / "manifest.json").read_text())
        assert len(manifest["frames"]) == 6
        assert (dataset_dir / manifest["frames"][0]["file"]).is_file()

    def test_same_seed_identical_bytes(self, workdir, small_config, dataset_dir):
        again = workdir / "ds_again"
        assert main(["simulate", "--config", small_config, "--output", str(again)]) == 0
        for name in ["manifest.json", "frame_00000.ply", "frame_00005.ply"]:
            assert (again / name).read_bytes() == (dataset_dir / name).read_bytes()

    def test_unknown_key_exit_2(self, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_text(json.dumps({"icp": {"bogus_knob": 1}}))
        code = main(["simulate", "--config", str(bad), "--output", str(workdir / "no")])
        assert code == 2
        assert "icp.bogus_knob" in capsys.readouterr().err

    def test_bad_simulator_value_exit_2(self, workdir):
        bad = workdir / "badsim.json"
        bad.write_text(json.dumps({"simulator": {"noise_sigma_1m": -1.0}}))
        code = main(["simulate", "--config", str(bad), "--output", str(workdir / "no")])
        assert code == 2


class TestCalibrate:
    def test_result_and_error_line(self, workdir, dataset_dir, capsys):
        out = workdir / "cal.json"
        code = main(["calibrate", str(dataset_dir), "--output", str(out)])
        assert code == 0
        assert "calibration error vs ground truth" in capsys.readouterr().err
        result = json.loads(out.read_text())
        assert result["icp_enabled"] is True
        assert len(result["groups"]) == 6
        assert result["rejected_frames"] == 0

    def test_repeat_run_byte_identical(self, workdir, dataset_dir):
        a, b = workdir / "cal_a.json", workdir / "cal_b.json"
        assert main(["calibrate", str(dataset_dir), "--output", str(a)]) == 0
        assert main(["calibrate", str(dataset_dir), "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_no_icp_flag_tagged(self, workdir, dataset_dir):
        out = workdir / "cal_raw.json"
        code = main(["calibrate", str(dataset_dir), "--no-icp", "--output", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["icp_enabled"] is False

    def test_bad_icp_value_exit_2(self, workdir, dataset_dir):
        bad = workdir / "badicp.json"
        bad.write_text(json.dumps({"icp": {"enabled": 0}}))
        assert main(["calibrate", str(dataset_dir), "--config", str(bad)]) == 2

    def test_other_depthcal_error_exit_1(self, dataset_dir, capsys, monkeypatch):
        def fail(*args):
            raise EmptyInput("nothing to average")

        monkeypatch.setattr(cli, "calibrate", fail)
        assert main(["calibrate", str(dataset_dir)]) == 1
        err = capsys.readouterr().err
        assert "error: nothing to average" in err
        assert "Traceback" not in err

    def test_missing_dataset_exit_3(self, workdir):
        assert main(["calibrate", str(workdir / "nowhere")]) == 3

    def test_missing_config_file_exit_3(self, dataset_dir, workdir):
        code = main(
            ["calibrate", str(dataset_dir), "--config", str(workdir / "absent.json")]
        )
        assert code == 3

    def test_empty_frame_skipped(self, workdir, dataset_dir, capsys):
        ds = copy_dataset(dataset_dir, workdir / "ds_empty_frame")
        write_ply(ds / "frame_00000.ply", PointCloud(np.zeros((0, 3))))
        out = workdir / "cal_empty_frame.json"
        assert main(["calibrate", str(ds), "--output", str(out)]) == 0
        assert json.loads(out.read_text())["rejected_frames"] == 1
        assert main(["estimate", str(ds), "--frame", "0"]) == 5
        assert "frame 0 unusable: segmentation failed" in capsys.readouterr().err

    def test_far_point_dropped_as_its_own_cluster(self, workdir, dataset_dir, capsysbinary):
        # one end-effector point 170 km away: its voxel key lies far outside
        # the others', and the frame still calibrates as without it
        ds = copy_dataset(dataset_dir, workdir / "ds_far_point")
        ply = ds / "frame_00000.ply"
        cloud = read_ply(ply)
        write_ply(
            ply,
            PointCloud(
                np.vstack([cloud.points, np.full((1, 3), 1e5)]),
                labels=np.append(cloud.labels, LABEL_EE),
                keypoint_ids=np.append(cloud.keypoint_ids, -1),
            ),
        )
        printed = []
        for d in (ds, dataset_dir):
            capsysbinary.readouterr()
            assert main(["calibrate", str(d), "--no-icp"]) == 0
            printed.append(capsysbinary.readouterr().out)
        assert json.loads(printed[0])["rejected_frames"] == 0
        assert printed[0] == printed[1]

    def test_noise_regime_read_from_the_points(self, workdir, capsysbinary):
        # a noisy dataset calibrates the same without the simulator's
        # record of how it was rendered
        cfg = workdir / "noisy_small.json"
        cfg.write_text(
            json.dumps(
                {
                    "simulator": {"frames_per_config": 1, "noise_sigma_1m": 0.002, "dropout": 0.1},
                    "rpt": {"rotation_sigma_deg": 5.0},
                    "kpm": {"sigma_m": 0.005, "dropout": 0.1},
                }
            )
        )
        made = workdir / "ds_noisy"
        assert main(["simulate", "--config", str(cfg), "--output", str(made)]) == 0
        bare = copy_dataset(made, workdir / "ds_noisy_bare", lambda m: m.pop("scenario"))
        printed = []
        for ds in (made, bare):
            capsysbinary.readouterr()
            assert main(["calibrate", str(ds), "--config", str(cfg)]) == 0
            printed.append(capsysbinary.readouterr().out)
        assert b'"calibration"' in printed[0]
        assert printed[1] == printed[0]

    def test_no_ground_truth_means_no_usable_frames_exit_4(self, blind_dataset_dir):
        # oracle predictors cannot run without the true poses, so every
        # frame comes back empty and calibration has nothing to average
        assert main(["calibrate", str(blind_dataset_dir)]) == 4


class TestEstimate:
    def test_full_view_four_candidates(self, workdir, dataset_dir):
        out = workdir / "est.json"
        code = main(["estimate", str(dataset_dir), "--frame", "0", "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["candidate_count"] == 4
        tags = {(c["method"], c["refined"]) for c in payload["candidates"]}
        assert tags == {("rpt", False), ("rpt", True), ("kpm", False), ("kpm", True)}
        refined = [c for c in payload["candidates"] if c["refined"]]
        # noiseless points: the measured source is the full-resolution
        # model, and the fit is exact (the thinned one misses by ~0.1 mm)
        manifest = json.loads((dataset_dir / "manifest.json").read_text())
        true_pose = compose(
            Pose.from_dict(manifest["gt_calibration"]),
            Pose.from_dict(manifest["frames"][0]["t_b_ee"]),
        )
        for c in refined:
            assert {"fitness", "inlier_rmse", "iterations_used", "converged"} <= set(
                c["icp"]
            )
            pose = Pose.from_dict(c["pose"])
            assert np.linalg.norm(pose.translation - true_pose.translation) < 1e-6
            assert math.degrees(rotation_distance(pose.rotation, true_pose.rotation)) < 1e-4

    def test_bad_index_exit_2(self, dataset_dir, capsys):
        assert main(["estimate", str(dataset_dir), "--frame", "99"]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_nan_point_changes_nothing(self, workdir, dataset_dir):
        ds = copy_dataset(dataset_dir, workdir / "ds_nan")
        ply = ds / "frame_00000.ply"
        cloud = read_ply(ply)
        write_ply(
            ply,
            PointCloud(
                np.vstack([cloud.points, np.full((1, 3), np.nan)]),
                labels=np.append(cloud.labels, LABEL_EE),
                keypoint_ids=np.append(cloud.keypoint_ids, -1),
            ),
        )
        clean, nan = workdir / "est_clean.json", workdir / "est_nan.json"
        assert main(["estimate", str(ds), "--frame", "0", "--output", str(nan)]) == 0
        assert main(["estimate", str(dataset_dir), "--frame", "0", "--output", str(clean)]) == 0
        assert nan.read_bytes() == clean.read_bytes()

    def test_non_numeric_vertex_exit_3(self, workdir, dataset_dir, capsys):
        ds = copy_dataset(dataset_dir, workdir / "ds_abc")
        ply = ds / "frame_00000.ply"
        lines = ply.read_text().splitlines(keepends=True)
        first = lines.index("end_header\n") + 1
        lines[first] = "0.1 abc 0.3 2 -1\n"
        ply.write_text("".join(lines))
        assert main(["estimate", str(ds), "--frame", "0"]) == 3
        assert "frame_00000.ply" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "header",
        ["element vertex abc", "element vertex", "element vertex -3"],
        ids=["non_numeric", "missing", "negative"],
    )
    def test_bad_vertex_count_exit_3(self, tmp_path, dataset_dir, capsys, header):
        ds = copy_dataset(dataset_dir, tmp_path / "ds")
        ply = ds / "frame_00000.ply"
        lines = ply.read_text().splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines) if line.startswith("element vertex"))
        lines[at] = header + "\n"
        ply.write_text("".join(lines))
        assert main(["estimate", str(ds), "--frame", "0"]) == 3
        assert "frame_00000.ply" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda row, tagged: row[:3] + ["7", row[4]],
            lambda row, tagged: row[:4] + ["-2"],
            lambda row, tagged: row[:4] + [tagged],
        ],
        ids=["label_seven", "keypoint_id_below_minus_one", "keypoint_id_repeated"],
    )
    def test_bad_label_or_keypoint_id_exit_3(self, tmp_path, dataset_dir, capsys, edit):
        ds = copy_dataset(dataset_dir, tmp_path / "ds")
        ply = ds / "frame_00000.ply"
        lines = ply.read_text().splitlines(keepends=True)
        body = lines.index("end_header\n") + 1
        rows = [line.split() for line in lines[body:]]
        tagged = next(row[4] for row in rows if int(row[4]) >= 0)
        at = next(i for i, row in enumerate(rows) if row[4] == "-1")
        lines[body + at] = " ".join(edit(rows[at], tagged)) + "\n"
        ply.write_text("".join(lines))
        assert main(["estimate", str(ds), "--frame", "0"]) == 3
        assert "frame_00000.ply" in capsys.readouterr().err

    def test_sanity_failure_exit_5(self, workdir, dataset_dir, capsys):
        strict = workdir / "strict.json"
        strict.write_text(json.dumps({"calibration": {"min_ee_points": 1000000}}))
        code = main(
            ["estimate", str(dataset_dir), "--frame", "0", "--config", str(strict)]
        )
        assert code == 5
        assert "sanity" in capsys.readouterr().err


class TestMalformedManifest:
    def test_frame_without_t_b_ee_exit_3(self, workdir, dataset_dir, capsys):
        ds = copy_dataset(
            dataset_dir, workdir / "ds_no_tbee", lambda m: m["frames"][0].pop("t_b_ee")
        )
        assert main(["estimate", str(ds), "--frame", "0"]) == 3
        err = capsys.readouterr().err
        assert "manifest.json" in err and "t_b_ee" in err

    def test_scalar_ee_body_exit_3(self, workdir, dataset_dir, capsys):
        ds = copy_dataset(
            dataset_dir, workdir / "ds_bad_body", lambda m: m["ee_model"].update(body=-1.0)
        )
        assert main(["estimate", str(ds), "--frame", "0"]) == 3
        assert "manifest.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: m["frames"][0]["t_b_ee"]["t"].__setitem__(0, float("nan")),
            lambda m: m["frames"][0]["t_b_ee"]["q"].__setitem__(1, float("inf")),
            lambda m: m["frames"][0]["t_b_ee"].update(q=[0.0, 0.0, 0.0, 0.0]),
            lambda m: m["gt_calibration"]["t"].__setitem__(2, float("-inf")),
            lambda m: m["gt_calibration"]["q"].__setitem__(0, float("nan")),
            lambda m: m["gt_calibration"].update(q=[0.0, 0.0, 0.0, 0.0]),
            lambda m: m.update(warnings=5),
        ],
        ids=[
            "t_b_ee_t_nan",
            "t_b_ee_q_inf",
            "t_b_ee_q_zero",
            "gt_calibration_t_inf",
            "gt_calibration_q_nan",
            "gt_calibration_q_zero",
            "warnings_not_a_list",
        ],
    )
    def test_bad_pose_value_exit_3(self, tmp_path, dataset_dir, capsys, edit):
        ds = copy_dataset(dataset_dir, tmp_path / "ds", edit)
        assert main(["calibrate", str(ds)]) == 3
        assert main(["evaluate", str(ds)]) == 3
        assert "manifest.json" in capsys.readouterr().err

    def test_non_object_manifest_exit_3(self, workdir, dataset_dir, capsys):
        ds = copy_dataset(dataset_dir, workdir / "ds_list_manifest")
        (ds / "manifest.json").write_text("[]")
        assert main(["estimate", str(ds), "--frame", "0"]) == 3
        assert "manifest.json" in capsys.readouterr().err


class TestEvaluate:
    def test_report_table_and_csv(self, workdir, dataset_dir):
        cfgpath = workdir / "eval.json"
        cfgpath.write_text(json.dumps({"evaluation": {"write_csv": True}}))
        out = workdir / "report.json"
        code = main(
            ["evaluate", str(dataset_dir), "--config", str(cfgpath), "--output", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert len(report["summary"]) == 4
        assert report["skipped_frames"] == 0
        csv_text = (workdir / "report.csv").read_text()
        assert csv_text.count("\n") == 1 + 24  # header + 6 frames x 4 variants

    def test_missing_ground_truth_exit_6(self, blind_dataset_dir):
        assert main(["evaluate", str(blind_dataset_dir)]) == 6
