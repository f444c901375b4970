"""Run one depthcal CLI command in this process and record what it cost.

    python3 perfbench/worker.py {plain|trace} RESULT.json depthcal-args...

The clock starts before `import depthcal.cli`, so the import the user
pays for on every command is measured too.  `plain` wraps only the two
calls the end-to-end metrics need; `trace` wraps every binding in
tracing.BINDINGS.  Spans stay in memory until the command returns and are
then written, with the timings, to RESULT.json.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

from tracing import BINDINGS, PLAIN_BINDINGS, Tracer  # noqa: E402


def score(dataset_dir: str, calibration_path: str) -> dict:
    """Final calibration error against the dataset's ground truth."""
    from depthcal.evaluation import rotation_error, translation_error
    from depthcal.geometry import Pose

    manifest = json.loads((Path(dataset_dir) / "manifest.json").read_text())
    result = json.loads(Path(calibration_path).read_text())
    gt = Pose.from_dict(manifest["gt_calibration"])
    est = Pose.from_dict(result["calibration"])
    return {
        "trans_err_m": translation_error(gt, est),
        "rot_err_deg": math.degrees(rotation_error(gt, est)),
        "frames": len(manifest["frames"]),
        "rejected_frames": result["rejected_frames"],
    }


def main() -> int:
    mode, result_path, *argv = sys.argv[1:]
    # One core for the whole command: without migrations between cores the
    # timings of identical work spread less on a shared machine.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import depthcal.cli as cli

    import_s = time.perf_counter() - t0
    import numpy
    import scipy

    tracer = Tracer()
    tracer.install(BINDINGS if mode == "trace" else PLAIN_BINDINGS)
    t1 = time.perf_counter()
    code = cli.main(argv)
    main_s = time.perf_counter() - t1

    result = {
        "argv": argv,
        "exit_code": code,
        "import_s": import_s,
        "main_s": main_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": [[name, start - t1, end - t1, parent] for name, start, end, parent in tracer.spans],
        "counts": dict(tracer.counts),
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if code == 0 and argv[0] == "calibrate":
        result["score"] = score(argv[1], argv[argv.index("--output") + 1])
    Path(result_path).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
