"""depthcal benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {clean,noisy,cli-io} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its `src`.
Every workload is the journey a user takes through the CLI, one command
at a time in a fresh process (`--jobs 1`, BLAS/OpenMP pinned to one
thread): `depthcal simulate` writes the dataset made from the seed,
`depthcal estimate --frame 0` reads it back, `depthcal calibrate`
calibrates from it, `simulate` writes the seed again (which must give the
same bytes), and `estimate` repeats, at least MIN_ESTIMATES times and
until S seconds have passed since the start of the run.  Every
output is checked; a command that fails its check counts as failed and
none of its timings is reported.  perfbench/NOTES.md explains the
workloads and the metrics.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same
commands with every stage binding wrapped (tracing.py), runs `estimate`
exactly MIN_ESTIMATES times so that its counts repeat exactly, calibrates
once more untraced (which must write the same bytes, criterion 7, and
gives the tracing overhead), and prints the per-layer metrics.  The last
line of stdout is the result; spans and a copy of the result go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

NOISY = {
    "simulator": {"noise_sigma_1m": 0.002, "dropout": 0.1},
    "rpt": {"rotation_sigma_deg": 5.0},
    "kpm": {"sigma_m": 0.005, "dropout": 0.1},
}


@dataclass(frozen=True)
class Workload:
    config: dict
    calibrate_flags: tuple[str, ...]
    # calibration error bounds, from the acceptance criterion it reproduces
    max_trans_m: float
    max_rot_deg: float
    strict: bool  # criterion 1 says "below", criterion 2 "at most"


WORKLOADS = {
    # Acceptance criterion 1: zero sensor noise, exact oracles.  Rendering
    # is deterministic without noise, so every seed gives the same data.
    "clean": Workload({}, (), 1e-4, 0.01, True),
    # Acceptance criterion 2: sigma 2 mm at 1 m, 10% dropout, 5 deg
    # rotation noise, 5 mm keypoint noise with 10% keypoint dropout.
    "noisy": Workload(NOISY, (), 0.01, 2.0, False),
    # The noisy data with calibrate skipping ICP, so import, PLY I/O and the
    # cluster filter carry the run.  No acceptance criterion covers an
    # ICP-free calibration; its bounds only catch a broken result (seeds
    # 0-19 measured 1.7-8.6 mm and 0.26-1.84 deg).
    "cli-io": Workload(NOISY, ("--no-icp",), 0.02, 5.0, False),
}

PINNED_ENV = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
# 6 arm configurations x 5 frames.  The CLI default of 10 (60 frames) would
# take a noisy run past a minute; see NOTES.md.
FRAMES_PER_CONFIG = 5
WORKER_TIMEOUT_S = 150
# Every run, on every workload, takes at least this many `estimate`
# samples, so setup_s is a median of at least MIN_ESTIMATES + 1 (the
# calibrate's set-up counts too) even where the fixed steps outlast --seconds.
MIN_ESTIMATES = 4
# frame_ms_p66 is the highest percentile with at least ten of the 30
# frames of clean and noisy beyond it (nearest rank).
TAIL_PERCENTILE = 2 / 3


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def span_stats(results: list[dict]) -> dict[str, list[float]]:
    """name -> [calls, total seconds, self seconds] over all results."""
    stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for res in results:
        spans = res["spans"]
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _), child in zip(spans, covered):
            st = stats[name]
            st[0] += 1
            st[1] += end - start
            st[2] += end - start - child
    return stats


def span_durations(res: dict, name: str) -> list[float]:
    return [end - start for n, start, end, _ in res["spans"] if n == name]


@dataclass
class Run:
    workload: str
    work: Path
    attempted: int = 0
    failed: int = 0
    versions: dict = field(default_factory=dict)

    @property
    def wl(self) -> Workload:
        return WORKLOADS[self.workload]

    def op(self, mode: str, argv: list[str], check) -> dict | None:
        """Run one CLI command in a fresh worker; None if it failed."""
        self.attempted += 1
        result_path = self.work / f"op{self.attempted}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), mode, str(result_path), *argv]
        try:
            proc = subprocess.run(
                cmd,
                cwd=ROOT,
                env={**os.environ, **PINNED_ENV},
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                timeout=WORKER_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            problem = f"timed out after {WORKER_TIMEOUT_S} s"
        else:
            if proc.returncode != 0 or not result_path.is_file():
                problem = f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}"
            else:
                res = json.loads(result_path.read_text())
                self.versions = res["versions"]
                problem = check(res)
                if problem is None:
                    return res
        self.failed += 1
        log(f"FAILED depthcal {' '.join(argv)}: {problem}")
        return None

    # -- the commands and their checks ---------------------------------

    def common(self) -> list[str]:
        return ["--config", str(self.work / "config.json"), "--jobs", "1"]

    def simulate(self, mode: str, name: str, reference: Path | None = None) -> dict | None:
        """Write the dataset into work/<name>; a repeat must match `reference`."""
        data = self.work / name
        expected = 6 * FRAMES_PER_CONFIG

        def check(res):
            frames = json.loads((data / "manifest.json").read_text())["frames"]
            if len(frames) != expected:
                return f"wrote {len(frames)} frames, expected {expected}"
            if reference is not None:
                for path in sorted(reference.iterdir()):
                    if path.read_bytes() != (data / path.name).read_bytes():
                        return f"{path.name} differs between two writes of the same seed"
                shutil.rmtree(data)
            return None

        return self.op(mode, ["simulate", *self.common(), "--output", str(data)], check)

    def calibrate(self, mode: str, reference: str | None = None) -> dict | None:
        """Calibrate from work/dataset; a repeat must write `reference`."""
        out = self.work / f"calibration-{mode}.json"
        argv = [
            "calibrate", str(self.work / "dataset"), *self.common(),
            *self.wl.calibrate_flags, "--output", str(out),
        ]

        def check(res):
            res["output"] = out.read_text()
            # criterion 7: the same seed gives byte-identical calibration JSON
            if reference is not None and res["output"] != reference:
                return "calibration JSON differs between two runs of the same seed"
            return self.check_calibration(res)

        return self.op(mode, argv, check)

    def check_calibration(self, res: dict) -> str | None:
        s, wl = res["score"], self.wl
        et, er = s["trans_err_m"], s["rot_err_deg"]
        within = (et < wl.max_trans_m and er < wl.max_rot_deg) if wl.strict else (
            et <= wl.max_trans_m and er <= wl.max_rot_deg
        )
        if not within:
            return (
                f"calibration error et={et:.3e} m er={er:.3e} deg outside "
                f"{wl.max_trans_m} m / {wl.max_rot_deg} deg"
            )
        return None

    def estimate(self, mode: str, first: list[bytes]) -> dict | None:
        out = self.work / "estimate.json"
        argv = ["estimate", str(self.work / "dataset"), "--frame", "0", *self.common(),
                "--output", str(out)]

        def check(res):
            output = out.read_bytes()
            if json.loads(output)["candidate_count"] < 1:
                return "estimate returned no candidate"
            if not first:
                first.append(output)
            elif output != first[0]:
                return "estimate output differs between repeats"
            return None

        return self.op(mode, argv, check)


def end_to_end(sims, cal, estimates, done) -> dict:
    metrics = {}
    setups = []
    if sims:
        metrics["simulate_s"] = (statistics.median(s["import_s"] + s["main_s"] for s in sims), "s")
    if cal is not None:
        frames = [d * 1e3 for d in span_durations(cal, "pipeline.estimate_frame")]
        score = cal["score"]
        metrics["calibrate_s"] = (cal["main_s"], "s")
        metrics["frame_ms_p50"] = (statistics.median(frames), "ms")
        metrics["frame_ms_p66"] = (percentile(frames, TAIL_PERCENTILE), "ms")
        metrics["frame_accept_frac"] = (
            1.0 - score["rejected_frames"] / score["frames"], "ratio"
        )
        setups.append(cal)
    if estimates:
        metrics["estimate_s"] = (
            statistics.median(e["import_s"] + e["main_s"] for e in estimates), "s"
        )
        setups.extend(estimates)
    if setups:
        metrics["setup_s"] = (
            statistics.median(
                r["import_s"] + sum(span_durations(r, "dataset_io.load_dataset"))
                for r in setups
            ),
            "s",
        )
    if done:
        metrics["peak_rss_mb"] = (max(r["peak_rss_kb"] for r in done) / 1024.0, "MB")
    return metrics


def per_layer(traced: list[dict], cal: dict | None, untraced_cal: dict | None) -> dict:
    stats = span_stats(traced)
    counts: Counter = Counter()
    for res in traced:
        counts.update(res["counts"])

    def ms(name):
        calls, total, _ = stats.get(name, (0, 0.0, 0.0))
        return total / calls * 1e3 if calls else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    def share(name):
        return ratio(sum(span_durations(cal, name)), cal["main_s"]) if cal else 0.0

    kpm_names = ("kpm.predict_keypoints", "kpm.filter_keypoints", "kpm.kpm_pose")
    icp_calls = stats.get("icp.icp_refine", [0])[0]
    frame_calls, _, frame_self = stats.get("pipeline.estimate_frame", (0, 0.0, 0.0))
    score = cal["score"] if cal else {}
    m = {
        "cli.import.ms": (statistics.mean(r["import_s"] for r in traced) * 1e3, "ms"),
        "dataset_io.load_dataset.ms": (ms("dataset_io.load_dataset"), "ms"),
        "dataset_io.read_ply.ms": (ms("dataset_io.read_ply"), "ms"),
        "dataset_io.write_ply.ms": (ms("dataset_io.write_ply"), "ms"),
        "dataset_io.bytes_written": (counts["dataset_io.bytes_written"], "bytes"),
        "simulator.render_frame.ms": (ms("simulator.render_frame"), "ms"),
        "segmentation.predict_labels.ms": (ms("segmentation.predict_labels"), "ms"),
        "segmentation.cluster_filter.ms": (ms("segmentation.cluster_filter"), "ms"),
        "segmentation.cluster_filter.calls": (
            stats.get("segmentation.cluster_filter", [0])[0], "count"
        ),
        "segmentation.cluster_filter.kept_ratio": (
            ratio(
                counts["segmentation.cluster_filter.points_out"],
                counts["segmentation.cluster_filter.points_in"],
            ),
            "ratio",
        ),
        "segmentation.cluster_filter.fail": (counts["segmentation.cluster_filter.fail"], "count"),
        "segmentation.cluster_filter.share": (share("segmentation.cluster_filter"), "s/s"),
        "calibration.sanity_check.ms": (ms("calibration.sanity_check"), "ms"),
        "calibration.sanity_check.reject": (counts["calibration.sanity_check.reject"], "count"),
        "rpt.rpt_pose.ms": (ms("rpt.rpt_pose"), "ms"),
        "rpt.rpt_pose.fail": (counts["rpt.rpt_pose.fail"], "count"),
        "kpm.ms": (
            ratio(
                sum(stats.get(n, (0, 0.0))[1] for n in kpm_names) * 1e3,
                stats.get("kpm.predict_keypoints", [0])[0],
            ),
            "ms",
        ),
        "kpm.keypoints_kept_ratio": (
            ratio(counts["kpm.keypoints_kept"], counts["kpm.reference_keypoints"]), "ratio"
        ),
        "kpm.fail": (sum(counts[f"{n}.fail"] for n in kpm_names), "count"),
        "icp.refine_estimates.ms": (ms("icp.refine_estimates"), "ms"),
        "icp.refine_estimates.share": (share("icp.refine_estimates"), "s/s"),
        "icp.icp_refine.ms": (ms("icp.icp_refine"), "ms"),
        "icp.icp_refine.calls": (icp_calls, "count"),
        "icp.icp_refine.fail": (counts["icp.icp_refine.fail"], "count"),
        "icp.iterations": (ratio(counts["icp.iterations"], icp_calls), "count"),
        "icp.converged_ratio": (ratio(counts["icp.converged"], icp_calls), "ratio"),
        "icp.source_points": (
            ratio(counts["icp.source_points"], counts["icp.source_models"]), "count"
        ),
        "icp.prealign_ratio": (
            ratio(stats.get("icp.register", [0])[0] - icp_calls, icp_calls), "ratio"
        ),
        "icp.voxel_downsample.ms": (ms("icp.voxel_downsample"), "ms"),
        "pipeline.estimate_frame.self_ms": (ratio(frame_self * 1e3, frame_calls), "ms"),
        "pipeline.frames": (counts["pipeline.frames"], "count"),
        "pipeline.skip.segmentation": (counts["pipeline.skip.segmentation"], "count"),
        "pipeline.skip.cluster": (counts["pipeline.skip.cluster"], "count"),
        "pipeline.skip.sanity": (counts["pipeline.skip.sanity"], "count"),
        "pipeline.skip.other": (counts["pipeline.skip.other"], "count"),
        "calibration.aggregate.ms": (ms("calibration.aggregate"), "ms"),
        "calibration.aggregate.outliers_removed": (
            counts["calibration.aggregate.outliers_removed"], "count"
        ),
        "calibration.aggregate.samples_used_ratio": (
            ratio(
                counts["calibration.aggregate.samples_used"],
                counts["calibration.aggregate.samples"],
            ),
            "ratio",
        ),
        "calibration.frame_reject_frac": (
            ratio(score.get("rejected_frames", 0), score.get("frames", 0)), "ratio"
        ),
        "evaluation.calib_trans_err_mm": (score.get("trans_err_m", 0.0) * 1e3, "mm"),
        "evaluation.calib_rot_err_deg": (score.get("rot_err_deg", 0.0), "deg"),
        "trace.overhead_s": (
            cal["main_s"] - untraced_cal["main_s"] if cal and untraced_cal else 0.0, "s"
        ),
    }
    return m


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, dict]:
    wl = WORKLOADS[workload]
    work = OUT / "work" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    r = Run(workload, work)
    config = copy.deepcopy(wl.config)
    config["seed"] = seed
    config.setdefault("simulator", {})["frames_per_config"] = FRAMES_PER_CONFIG
    (work / "config.json").write_text(json.dumps(config, indent=1, sort_keys=True))

    mode = "trace" if trace else "plain"
    start = time.perf_counter()
    sims: list[dict] = []
    cal = None
    estimates: list[dict] = []
    first: list[bytes] = []

    def keep(res, into):
        if res is not None:
            into.append(res)

    try:
        # Short commands run before and after the long calibrate, so their
        # medians span the whole run rather than one moment of it.
        keep(r.simulate(mode, "dataset"), sims)
        if sims:
            keep(r.estimate(mode, first), estimates)
            cal = r.calibrate(mode)
            keep(r.simulate(mode, "dataset-repeat", reference=r.work / "dataset"), sims)
            tries = 1
            while tries < MIN_ESTIMATES or (
                not trace and time.perf_counter() - start < seconds
            ):
                tries += 1
                keep(r.estimate(mode, first), estimates)
        done = [*sims, *([cal] if cal else []), *estimates]
        if trace:
            untraced = r.calibrate("plain", reference=cal["output"]) if cal else None
            metrics = per_layer(done, cal, untraced) if done else {}
        else:
            metrics = end_to_end(sims, cal, estimates, done)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        write_trace(workload, seed, done)
    # the sample count behind each median and percentile
    samples = {
        "frames": len(span_durations(cal, "pipeline.estimate_frame")) if cal else 0,
        "estimates": len(estimates),
        "simulates": len(sims),
    }
    return {
        "correct": r.failed == 0,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, r.versions, samples


def write_trace(workload: str, seed: int, results: list[dict]) -> None:
    path = OUT / "traces" / f"{workload}-seed{seed}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for op, res in enumerate(results):
            for name, start, end, parent in res["spans"]:
                fh.write(
                    json.dumps(
                        {"op": op, "command": res["argv"][0], "name": name,
                         "start": start, "end": end, "parent": parent}
                    )
                    + "\n"
                )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "depthcal" / "cli.py").is_file():
        log(f"no depthcal sources under {ROOT / 'src'}; run from a full checkout")
        return 2
    result, versions, samples = run(args.workload, args.seed, args.seconds, bool(args.trace))
    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "jobs": 1,
        **PINNED_ENV,
    }
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "frames_per_config": FRAMES_PER_CONFIG, "samples": samples, "env": env}
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**info, **result}, indent=1, sort_keys=True) + "\n")
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
