"""In-memory spans around the calls into each depthcal module.

The package's modules import stage functions by name (`from .x import y`),
so a call is traced by replacing the name at the binding the caller reads:
`pipeline.cluster_filter`, not `segmentation.cluster_filter`.  Each span
records its name, start, end and the index of the enclosing span.  Count
hooks read the objects the wrapped call takes and returns, so every count
is exact and repeats for the same inputs.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter


def _count_frame(counts, args, frame_estimate):
    counts["pipeline.frames"] += 1
    reason = frame_estimate.skipped_reason
    if reason is None:
        if not frame_estimate.estimates:
            counts["pipeline.skip.other"] += 1
        return
    for stage in ("segmentation", "cluster", "sanity"):
        if reason.startswith(stage):
            counts[f"pipeline.skip.{stage}"] += 1
            return
    counts["pipeline.skip.other"] += 1


def _count_cluster(counts, args, kept):
    counts["segmentation.cluster_filter.points_in"] += len(args[0])
    counts["segmentation.cluster_filter.points_out"] += len(kept)


def _count_sanity(counts, args, check):
    if not check.passed:
        counts["calibration.sanity_check.reject"] += 1


def _count_predicted(counts, args, predictions):
    counts["kpm.reference_keypoints"] += len(args[2])


def _count_kept(counts, args, kept):
    counts["kpm.keypoints_kept"] += len(kept)


def _count_source(counts, args, thinned):
    counts["icp.source_points"] += len(thinned)
    counts["icp.source_models"] += 1


def _count_icp(counts, args, result):
    counts["icp.iterations"] += result.iterations_used
    counts["icp.converged"] += int(result.converged)


def _count_calibration(counts, args, result):
    counts["calibration.aggregate.outliers_removed"] += sum(
        g.outliers_removed for g in result.groups
    )
    counts["calibration.aggregate.samples_used"] += sum(g.samples_used for g in result.groups)
    counts["calibration.aggregate.samples"] += sum(result.method_counts.values())


def _count_bytes(counts, args, _):
    counts["dataset_io.bytes_written"] += os.path.getsize(args[0])


# (module, attribute the caller reads, span name, count hook)
BINDINGS = [
    ("depthcal.cli", "load_dataset", "dataset_io.load_dataset", None),
    ("depthcal.cli", "calibrate", "calibration.calibrate", _count_calibration),
    ("depthcal.cli", "estimate_frame", "pipeline.estimate_frame", _count_frame),
    ("depthcal.pipeline", "estimate_frame", "pipeline.estimate_frame", _count_frame),
    ("depthcal.pipeline", "predict_labels", "segmentation.predict_labels", None),
    ("depthcal.pipeline", "cluster_filter", "segmentation.cluster_filter", _count_cluster),
    ("depthcal.pipeline", "sanity_check", "calibration.sanity_check", _count_sanity),
    ("depthcal.pipeline", "rpt_pose", "rpt.rpt_pose", None),
    ("depthcal.pipeline", "predict_keypoints", "kpm.predict_keypoints", _count_predicted),
    ("depthcal.pipeline", "filter_keypoints", "kpm.filter_keypoints", _count_kept),
    ("depthcal.pipeline", "kpm_pose", "kpm.kpm_pose", None),
    ("depthcal.pipeline", "refine_estimates", "icp.refine_estimates", None),
    ("depthcal.icp", "voxel_downsample", "icp.voxel_downsample", _count_source),
    ("depthcal.icp", "icp_refine", "icp.icp_refine", _count_icp),
    # every ICP run registers once, plus once more when it pre-aligns
    ("depthcal.icp", "_register", "icp.register", None),
    ("depthcal.calibration", "aggregate", "calibration.aggregate", None),
    ("depthcal.dataset_io", "read_ply", "dataset_io.read_ply", None),
    ("depthcal.dataset_io", "write_ply", "dataset_io.write_ply", _count_bytes),
    ("depthcal.simulator", "render_frame", "simulator.render_frame", None),
]

# The untraced run keeps only what its end-to-end metrics need: the load
# (set-up time) and the per-frame latency inside calibrate.  Two wrappers
# on about sixty calls cost microseconds against seconds of work.
PLAIN_BINDINGS = [
    ("depthcal.cli", "load_dataset", "dataset_io.load_dataset", None),
    ("depthcal.pipeline", "estimate_frame", "pipeline.estimate_frame", None),
]


class Tracer:
    """Collects spans and counts for one process; single-threaded use."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def install(self, bindings) -> None:
        for module_name, attr, name, hook in bindings:
            module = importlib.import_module(module_name)
            setattr(module, attr, self._wrap(getattr(module, attr), name, hook))

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[f"{name}.fail"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced
