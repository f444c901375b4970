"""End-to-end acceptance checks.

Every test here verifies one shipping requirement at its stated
tolerance and records a single PASS/FAIL line (replayed in the terminal
summary by conftest):

1. zero-noise exactness: final and per-frame errors, runtime bound
2. noisy calibration accuracy, median over 10 seeds
3. ICP reduces the mean ADD of both pose routes by at least 20%
4. every sanity-passing noisy frame lands at or under 2 cm ADD after ICP
5. property suites: rigid fit recovery, quaternion-average invariances,
   planted-outlier flagging, ICP inlier-RMSE monotonicity across all
   runs above, extent-translation exactness/equivariance, per-frame
   calibration round trip
6. one finger hidden: keypoint route keeps producing poses while the
   extent route degrades past 2 cm
7. repeated calibrate runs with identical config and seed emit
   byte-identical JSON

The noisy fixtures are shared across tests, so criteria 2-5 reuse one
10-seed sweep instead of re-running the pipeline per test.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from conftest import random_pose, random_quaternion
from depthcal.calibration import calibration_from_estimates, frame_calibration
from depthcal.cli import main as cli_main
from depthcal.evaluation import add_metric, rotation_error, translation_error
from depthcal.geometry import (
    Pose,
    PointCloud,
    Quaternion,
    compose,
    kabsch_fit,
    quaternion_average,
    rotation_distance,
)
from depthcal.calibration import mad_outlier_mask
from depthcal.kpm import KpmConfig
from depthcal.pipeline import PipelineConfig, estimate_frames
from depthcal.rpt import RptConfig, rotate_back, rpt_translation
from depthcal.simulator import (
    EEModelParams,
    HalfspaceCut,
    build_ee_model,
    default_scenario,
    generate_dataset,
)

MAX_UPHILL = 1e-12  # slack for "non-increasing" on accepted ICP iterations


@dataclass
class SweepData:
    """Everything criteria 2-5 need from the 10-seed noisy runs."""

    per_seed: list[tuple[float, float]] = field(default_factory=list)
    rejected: list[int] = field(default_factory=list)
    rmse_histories: list[list[float]] = field(default_factory=list)
    # per-frame ADD of the first seed, keyed by (method, refined)
    add_values: dict = field(default_factory=dict)
    sanity_passing_frames: int = 0


def _collect_histories(estimates, sink: list[list[float]]) -> None:
    for fe in estimates:
        for m in fe.estimates:
            if m.icp is not None:
                sink.append(list(m.icp.rmse_history))


@pytest.fixture(scope="module")
def zero_noise_run():
    dataset = generate_dataset(default_scenario(seed=0, frames_per_config=10))
    cfg = PipelineConfig(seed=0)
    t0 = time.perf_counter()
    estimates = estimate_frames(dataset, cfg)
    result = calibration_from_estimates(estimates, cfg.calibration, cfg.icp.enabled)
    elapsed = time.perf_counter() - t0
    return dataset, estimates, result, elapsed


@pytest.fixture(scope="module")
def noisy_sweep():
    data = SweepData()
    for seed in range(10):
        dataset = generate_dataset(
            default_scenario(
                seed=seed,
                noise_sigma_1m=0.002,
                noise_exponent=2.0,
                dropout=0.1,
                frames_per_config=10,
            )
        )
        cfg = PipelineConfig(
            seed=seed,
            rpt=RptConfig(rotation_sigma_deg=5.0),
            kpm=KpmConfig(sigma_m=0.005, dropout=0.1),
        )
        estimates = estimate_frames(dataset, cfg)
        result = calibration_from_estimates(estimates, cfg.calibration, cfg.icp.enabled)
        data.per_seed.append(
            (
                translation_error(dataset.gt_calibration, result.calibration),
                math.degrees(rotation_error(dataset.gt_calibration, result.calibration)),
            )
        )
        data.rejected.append(result.rejected_frames)
        _collect_histories(estimates, data.rmse_histories)
        if seed == 0:
            rows: dict = {}
            for fe in estimates:
                if not fe.usable:
                    continue
                data.sanity_passing_frames += 1
                gt_pose = compose(dataset.gt_calibration, fe.t_b_ee)
                for m in fe.estimates:
                    rows.setdefault((m.method, False), []).append(
                        add_metric(dataset.model.surface_cloud, gt_pose, m.pose)
                    )
                    if m.refined_pose is not None:
                        rows.setdefault((m.method, True), []).append(
                            add_metric(dataset.model.surface_cloud, gt_pose, m.refined_pose)
                        )
            data.add_values = rows
    return data


class TestZeroNoiseExactness:
    def test_final_and_per_frame_poses_exact_within_budget(self, zero_noise_run, criterion):
        dataset, estimates, result, elapsed = zero_noise_run
        final_t = translation_error(dataset.gt_calibration, result.calibration)
        final_r = math.degrees(rotation_error(dataset.gt_calibration, result.calibration))

        worst_t = worst_r = 0.0
        per_frame = 0
        for fe in estimates:
            gt_pose = compose(dataset.gt_calibration, fe.t_b_ee)
            for m in fe.estimates:
                for pose in [m.pose, m.refined_pose]:
                    if pose is None:
                        continue
                    per_frame += 1
                    worst_t = max(worst_t, translation_error(gt_pose, pose))
                    worst_r = max(worst_r, math.degrees(rotation_error(gt_pose, pose)))

        ok = (
            len(estimates) == 60
            and all(fe.usable for fe in estimates)
            and final_t < 1e-4
            and final_r < 0.01
            and worst_t < 1e-4
            and worst_r < 0.01
            and elapsed < 30.0
        )
        criterion(
            "1 zero-noise exactness",
            ok,
            f"final et={final_t:.2e} m er={final_r:.2e} deg; "
            f"worst of {per_frame} per-frame poses et={worst_t:.2e} m "
            f"er={worst_r:.2e} deg; 60 frames in {elapsed:.1f} s (< 30 s)",
        )


class TestNoisyAccuracy:
    def test_median_errors_within_bounds(self, noisy_sweep, criterion):
        ets = [et for et, _ in noisy_sweep.per_seed]
        ers = [er for _, er in noisy_sweep.per_seed]
        med_t = statistics.median(ets)
        med_r = statistics.median(ers)
        ok = len(ets) >= 10 and med_t <= 0.010 and med_r <= 2.0
        criterion(
            "2 noisy accuracy, 10-seed median",
            ok,
            f"median et={med_t * 100:.3f} cm (<= 1.0), er={med_r:.3f} deg (<= 2.0); "
            f"worst seed et={max(ets) * 100:.3f} cm er={max(ers):.3f} deg",
        )


class TestIcpImprovement:
    def test_mean_add_reduced_at_least_20_percent(self, noisy_sweep, criterion):
        rows = noisy_sweep.add_values
        means = {k: statistics.fmean(v) for k, v in rows.items()}
        red_rpt = 1.0 - means[("rpt", True)] / means[("rpt", False)]
        red_kpm = 1.0 - means[("kpm", True)] / means[("kpm", False)]
        ok = red_rpt >= 0.20 and red_kpm >= 0.20
        criterion(
            "3 icp add reduction >= 20%",
            ok,
            f"rpt {means[('rpt', False)] * 100:.2f} -> {means[('rpt', True)] * 100:.2f} cm "
            f"(-{red_rpt * 100:.0f}%), "
            f"kpm {means[('kpm', False)] * 100:.2f} -> {means[('kpm', True)] * 100:.2f} cm "
            f"(-{red_kpm * 100:.0f}%)",
        )


class TestAddThreshold:
    def test_max_refined_add_at_most_2cm(self, noisy_sweep, criterion):
        refined = noisy_sweep.add_values[("rpt", True)] + noisy_sweep.add_values[("kpm", True)]
        worst = max(refined)
        ok = noisy_sweep.sanity_passing_frames > 0 and worst <= 0.020
        criterion(
            "4 refined add <= 2 cm on all sanity-passing frames",
            ok,
            f"{noisy_sweep.sanity_passing_frames} frames, {len(refined)} refined poses, "
            f"max add={worst * 100:.2f} cm",
        )


class TestPropertySuites:
    def test_rigid_fit_recovers_random_poses(self, criterion):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(4, 60))
            src = rng.normal(size=(n, 3))
            pose = random_pose(rng)
            fit = kabsch_fit(src, pose.apply(src))
            worst = max(
                worst,
                translation_error(pose, fit),
                rotation_distance(pose.rotation, fit.rotation),
            )
        ok = worst <= 1e-8
        criterion(
            "5 rigid-fit recovery, 1000 instances",
            ok,
            f"worst pose recovery error {worst:.1e} (<= 1e-8)",
        )

    def test_quaternion_average_invariances(self, criterion):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(100):
            q = random_quaternion(rng)
            neg = Quaternion(-q.w, -q.x, -q.y, -q.z)
            worst = max(worst, rotation_distance(quaternion_average([q, neg]), q))

            qs = [random_quaternion(rng) for _ in range(int(rng.integers(2, 9)))]
            base = quaternion_average(qs)
            perm = [qs[i] for i in rng.permutation(len(qs))]
            flipped = [
                Quaternion(-p.w, -p.x, -p.y, -p.z) if rng.random() < 0.5 else p
                for p in qs
            ]
            worst = max(
                worst,
                rotation_distance(quaternion_average(perm), base),
                rotation_distance(quaternion_average(flipped), base),
            )
        ok = worst <= 1e-9
        criterion(
            "5 quaternion-average invariances",
            ok,
            f"[q,-q] -> q plus permutation and sign flips, "
            f"worst deviation {worst:.1e} rad",
        )

    def test_planted_outlier_always_flagged(self, criterion):
        flagged = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            scale = 0.5
            inliers = rng.uniform(-scale, scale, size=int(rng.integers(5, 40)))
            value = 10.0 * scale * (1.0 if rng.random() < 0.5 else -1.0)
            at = int(rng.integers(0, len(inliers) + 1))
            mask = mad_outlier_mask(np.insert(inliers, at, value))
            flagged += int(mask[at])
        ok = flagged == 100
        criterion(
            "5 planted outlier flagged",
            ok,
            f"outlier at 10x noise scale flagged in {flagged}/100 seeds",
        )

    def test_icp_rmse_history_never_increases(self, zero_noise_run, noisy_sweep, criterion):
        _, estimates, _, _ = zero_noise_run
        histories: list[list[float]] = []
        _collect_histories(estimates, histories)
        histories.extend(noisy_sweep.rmse_histories)

        max_uphill = 0.0
        for hist in histories:
            for a, b in zip(hist, hist[1:]):
                max_uphill = max(max_uphill, b - a)
        ok = len(histories) >= 240 and max_uphill <= MAX_UPHILL
        criterion(
            "5 icp inlier-rmse monotonic",
            ok,
            f"{len(histories)} refinement runs, largest uphill step {max_uphill:.1e}",
        )

    def test_extent_translation_exact_and_equivariant(self, criterion):
        model = build_ee_model(EEModelParams())
        rng = np.random.default_rng(5)
        worst_exact = worst_equi = 0.0
        for _ in range(200):
            pose = random_pose(rng)
            cloud = PointCloud(pose.apply(model.surface_cloud.points))
            de_rotated = rotate_back(cloud, pose.rotation).points
            t = rpt_translation(de_rotated, model.rpt_descriptor, pose.rotation)
            worst_exact = max(worst_exact, float(np.linalg.norm(t - pose.translation)))

            # rotating only the orientation input rotates the output
            extra = random_quaternion(rng)
            t_rot = rpt_translation(
                de_rotated, model.rpt_descriptor, extra.multiply(pose.rotation)
            )
            worst_equi = max(
                worst_equi, float(np.linalg.norm(t_rot - extra.rotate(t)))
            )
        ok = worst_exact <= 1e-9 and worst_equi <= 1e-9
        criterion(
            "5 extent translation exact and equivariant",
            ok,
            f"200 poses, worst exactness {worst_exact:.1e} m, "
            f"worst equivariance {worst_equi:.1e} m",
        )

    def test_frame_calibration_round_trip(self, criterion):
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(300):
            cam_pose = random_pose(rng)
            t_b_ee = random_pose(rng)
            back = compose(frame_calibration(cam_pose, t_b_ee), t_b_ee)
            worst = max(
                worst,
                translation_error(cam_pose, back),
                rotation_distance(cam_pose.rotation, back.rotation),
            )
        ok = worst <= 1e-9
        criterion(
            "5 frame-calibration round trip",
            ok,
            f"300 random pose pairs, worst recovery error {worst:.1e}",
        )


class TestMissingFinger:
    def test_keypoint_route_survives_extent_route_degrades(self, criterion):
        # drop everything past the +y finger root: one finger disappears
        cut = HalfspaceCut(axis=1, threshold=0.05, remove_above=True)
        dataset = generate_dataset(
            default_scenario(seed=0, frames_per_config=3, occlusion=cut)
        )
        estimates = estimate_frames(dataset, PipelineConfig(seed=0))

        usable = [fe for fe in estimates if fe.usable]
        kpm_frames = sum(
            1 for fe in usable if any(m.method == "kpm" for m in fe.estimates)
        )
        rpt_errors = []
        for fe in usable:
            gt_pose = compose(dataset.gt_calibration, fe.t_b_ee)
            for m in fe.estimates:
                if m.method == "rpt":
                    rpt_errors.append(translation_error(gt_pose, m.pose))
        bad = sum(1 for e in rpt_errors if e > 0.02)

        ok = (
            len(usable) == len(dataset.frames)
            and kpm_frames == len(usable)
            and len(rpt_errors) > 0
            and bad / len(rpt_errors) >= 0.5
        )
        criterion(
            "6 one finger hidden",
            ok,
            f"kpm poses on {kpm_frames}/{len(usable)} frames; extent-route "
            f"translation error > 2 cm on {bad}/{len(rpt_errors)} frames "
            f"(median {statistics.median(rpt_errors) * 100:.2f} cm)",
        )


class TestDeterministicOutput:
    def test_repeat_runs_byte_identical(self, tmp_path, criterion):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "seed": 3,
                    "simulator": {
                        "noise_sigma_1m": 0.002,
                        "dropout": 0.1,
                        "frames_per_config": 2,
                    },
                    "rpt": {"rotation_sigma_deg": 5.0},
                    "kpm": {"sigma_m": 0.005, "dropout": 0.1},
                }
            )
        )
        dataset = tmp_path / "dataset"
        assert cli_main(["simulate", "--config", str(config), "--output", str(dataset)]) == 0

        out_a, out_b = tmp_path / "cal_a.json", tmp_path / "cal_b.json"
        for out in [out_a, out_b]:
            code = cli_main(
                ["calibrate", str(dataset), "--config", str(config), "--output", str(out)]
            )
            assert code == 0
        a, b = out_a.read_bytes(), out_b.read_bytes()
        ok = len(a) > 0 and a == b
        criterion(
            "7 repeat calibrate byte-identical",
            ok,
            f"two runs, same config and seed: {len(a)} == {len(b)} bytes, "
            f"identical={a == b}",
        )
