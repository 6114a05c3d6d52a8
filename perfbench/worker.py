"""One benchmark pass in a fresh process: set up, run, check, report.

Started by ``run.py`` once per pass; prints one JSON object as its last
line of standard output.  ``--spawned-at`` is the parent's
``time.monotonic()`` just before it started this process (a
system-wide clock on Linux), so set-up time includes interpreter
start-up and imports, which is what a user waits for.

Usage (normally only through run.py)::

    python3 perfbench/worker.py --workload control-loop --seed 1 --instance 0 \
        --size full --workdir .perfbench-work/x --spawned-at 123.4 [--traced]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--instance", type=int, default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    import layers
    from spans import Recorder
    from workloads import WORKLOADS, Capture, instance_seed

    workload = WORKLOADS[args.workload]
    workload.import_modules()
    t_imported = time.monotonic()

    recorder = Recorder()
    capture = Capture()
    layers.install(recorder, capture, traced=args.traced)
    args.workdir.mkdir(parents=True, exist_ok=True)
    inputs = workload.make_inputs(
        instance_seed(args.seed, args.instance), args.size, args.workdir
    )
    t_ready = time.monotonic()

    root = recorder.open("bench.work")
    try:
        outcome = workload.run(inputs, capture, recorder)
    finally:
        recorder.close(root)
    t_done = time.monotonic()
    # the pass's own peak, before the checks below allocate
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- outside the timed region --------------------------------------
    verdict = workload.check(inputs, outcome, capture)
    work_s = t_done - t_ready
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "instance": args.instance,
        "traced": args.traced,
        "import_s": t_imported - args.spawned_at,
        "inputs_s": t_ready - t_imported,
        "setup_s": t_ready - args.spawned_at,
        "work_s": work_s,
        "wall_s": t_done - args.spawned_at,
        "rss_mb": rss_mb,
        "units": outcome.units,
        "units_per_s": outcome.units / work_s,
        "ops_ms": outcome.ops_ms,
        "extra": {k: v / work_s for k, v in outcome.extra.items()},
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "problems": verdict.problems,
        "host": host_info(args.workdir),
        "layers": (
            layers.layer_metrics(
                recorder,
                root,
                import_s=t_imported - args.spawned_at,
                inputs_s=t_ready - t_imported,
                workdir=args.workdir,
            )
            if args.traced
            else None
        ),
    }
    print(json.dumps(record, sort_keys=True))
    return 0


def host_info(workdir: Path) -> dict[str, object]:
    import networkx
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "workdir_fs": filesystem_type(workdir),
    }


def filesystem_type(path: Path) -> str:
    """The mount type holding ``path`` (longest matching mount point)."""
    try:
        lines = Path("/proc/self/mounts").read_text().splitlines()
    except OSError:
        return "unknown"
    target = str(path.resolve())
    best, kind = "", "unknown"
    for line in lines:
        parts = line.split()
        if len(parts) < 3:
            continue
        mount = parts[1]
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) >= len(best):
            best, kind = mount, parts[2]
    return kind


if __name__ == "__main__":
    sys.exit(main())
