"""The repository benchmark: one workload, measured and checked.

Run from the repository root::

    python3 perfbench/run.py --workload control-loop --seed 1 --seconds 40 --trace 0

Each *pass* is a fresh ``python3 perfbench/worker.py`` process: it
imports the program, generates the seeded inputs, runs the workload
once and checks the result outside the timed region.  Rounds of
passes, one pass per input instance, repeat for about ``--seconds``.
Timings are each instance's median pass, averaged over the instances,
and scaled by how slow the host ran during the run (``calibrate.py``);
set-up time, memory and the per-layer table are medians over passes.
Workers get a scrubbed environment: no ``REPRO_*`` variables,
``PYTHONPATH=src``, and BLAS/OpenMP pinned to one thread.  Scratch
files (the control loop's journal) live under ``.perfbench-work/`` in
the repository and are removed at exit.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer table, including
the tracing overhead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is non-zero when any correctness check failed or any pass crashed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import INSTANCES, WORKLOADS  # noqa: E402

#: end-to-end metric -> unit
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
}
#: seconds into a run after which no pass may still be running
DEADLINE_S = 165.0
#: calibrate.py's spawn-to-exit time on the reference host (the one in
#: README.md's baseline, in a calm spell); timings are scaled to it
CALIBRATION_REF_S = 0.75


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); NaN when empty."""
    if not values:
        return math.nan
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100.0 * len(ordered)), 1) - 1]


def worker_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_pass(
    root: Path,
    args: argparse.Namespace,
    workdir: Path,
    *,
    traced: bool,
    instance: int,
    timeout: float,
) -> dict:
    """One fresh worker process; a crash becomes a failed-pass record."""
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--instance", str(instance),
        "--size", args.size,
        "--workdir", str(workdir),
        "--spawned-at", repr(time.monotonic()),
    ]
    if traced:
        command.append("--traced")
    try:
        proc = subprocess.run(
            command,
            cwd=root,
            env=worker_env(root),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"crashed": f"pass timed out after {timeout:.0f} s"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        return {"crashed": f"worker exited {proc.returncode}:\n{tail}"}
    record = json.loads(lines[-1])
    start = time.monotonic()
    try:
        subprocess.run(
            [sys.executable, str(HERE / "calibrate.py")],
            cwd=root,
            env=worker_env(root),
            capture_output=True,
            check=True,
            timeout=timeout,
        )
    except subprocess.SubprocessError as exc:
        return {"crashed": f"calibration failed: {exc}"}
    record["calibration_s"] = time.monotonic() - start
    return record


def measure(root: Path, args: argparse.Namespace) -> list[dict]:
    """Whole rounds of passes for about ``--seconds``.

    A round runs each of the seed's input instances once (trace 1: an
    untraced and a traced pass, both on instance 0, so traced counts
    repeat exactly).  The first round always runs, so every instance is
    covered; a further round starts only while it is expected to end
    within ``--seconds``.
    """
    if args.trace:
        plan = [(False, 0), (True, 0)]
    else:
        plan = [(False, instance) for instance in range(INSTANCES)]
    work = root / ".perfbench-work" / str(os.getpid())
    passes: list[dict] = []
    started = time.monotonic()
    try:
        for rounds in itertools.count(1):
            for traced, instance in plan:
                timeout = DEADLINE_S - (time.monotonic() - started)
                passes.append(
                    run_pass(
                        root, args, work / f"pass-{len(passes)}",
                        traced=traced,
                        instance=instance,
                        timeout=max(timeout, 1.0),
                    )
                )
                if "crashed" in passes[-1]:
                    return passes
            elapsed = time.monotonic() - started
            per_round = elapsed / rounds
            if elapsed + per_round > args.seconds or elapsed + 2 * per_round > DEADLINE_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another invocation is still using it
    return passes


def end_to_end(passes: list[dict]) -> tuple[dict[str, float], float]:
    """Run-level values from the untraced passes of whole rounds.

    Timings take each instance's median pass and average those over the
    instances, which weigh the same; every instance must have run.
    Set-up time and memory are medians over all passes.  Timings are
    then scaled by the run's host-speed factor, the median calibration
    time over ``CALIBRATION_REF_S``: seconds on the reference host.
    Returns the values and the factor.
    """
    by_instance: dict[int, list[dict]] = {}
    for p in passes:
        by_instance.setdefault(p["instance"], []).append(p)
    assert sorted(by_instance) == list(range(INSTANCES)), sorted(by_instance)

    def balanced(key: str) -> float:
        return statistics.mean(
            statistics.median(p[key] for p in group) for group in by_instance.values()
        )

    slowdown = statistics.median(p["calibration_s"] for p in passes) / CALIBRATION_REF_S
    return {
        "wall_s": balanced("wall_s") / slowdown,
        "setup_s": statistics.median(p["setup_s"] for p in passes) / slowdown,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "work_per_s": balanced("units_per_s") * slowdown,
    }, slowdown


def report(args: argparse.Namespace, passes: list[dict]) -> tuple[dict, list[str]]:
    """The metrics block and the human-readable lines before it."""
    from layers import PER_LAYER, median_table

    plain = [p for p in passes if not p["traced"]]
    lines = [
        f"perfbench {args.workload} seed={args.seed} size={args.size} "
        f"trace={args.trace} passes={len(passes)} "
        + " ".join(f"{k}={v}" for k, v in sorted(passes[0]["host"].items()))
    ]
    if not args.trace:
        e2e, slowdown = end_to_end(plain)
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
        lines += [
            f"  {k:<24} {v['value']:>14.6g} {v['unit']}" for k, v in metrics.items()
        ]
        lines.append(
            f"  host slowdown            {slowdown:>14.6g} (median calibration "
            f"{slowdown * CALIBRATION_REF_S:.3f} s / {CALIBRATION_REF_S} s; "
            f"unscaled wall_s {e2e['wall_s'] * slowdown:.6g} s, "
            f"setup_s {e2e['setup_s'] * slowdown:.6g} s, "
            f"work_per_s {e2e['work_per_s'] / slowdown:.6g} 1/s)"
        )
        lines += workload_names(args.workload, plain, e2e)
        lines.append(
            "  per pass: "
            + " ".join(
                f"[i{p['instance']} wall {p['wall_s']:.3f} setup {p['setup_s']:.3f} "
                f"work {p['work_s']:.3f} cal {p['calibration_s']:.3f}]"
                for p in plain
            )
        )
        return metrics, lines
    traced = [p for p in passes if p["traced"]]
    table = median_table([p["layers"] for p in traced])
    # all on instance 0: median traced pass against median untraced pass
    table["trace.overhead_frac"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in plain)
        - 1.0
    )
    metrics = {k: {"value": table[k], "unit": u} for k, u in PER_LAYER.items()}
    lines += [f"  {k:<32} {v['value']:>14.6g} {v['unit']}" for k, v in metrics.items()]
    return metrics, lines


def workload_names(workload: str, passes: list[dict], e2e: dict) -> list[str]:
    """The workload-specific names the end-to-end metrics go by."""
    spec = WORKLOADS[workload]
    ops = [op for p in passes for op in p["ops_ms"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    lines = [
        f"  failed_frac              {failed}/{attempted} = {failed / attempted:g}",
        f"  {spec.rate_name:<24} {e2e['work_per_s']:>14.6g} 1/s "
        f"({spec.unit_label} per second)",
    ]
    for key in passes[0]["extra"]:
        rate = statistics.median(p["extra"][key] for p in passes)
        lines.append(f"  {key + '_per_s':<24} {rate:>14.6g} 1/s")
    for q in (50, 99):
        name = f"{spec.op_name}_p{q}_ms"
        lines.append(
            f"  {name:<24} {percentile(ops, q):>14.6g} ms "
            f"(n={len(ops)} pooled over passes)"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    # a terminated run still kills its worker and removes its scratch
    # files: subprocess.run and the finally blocks see SystemExit
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: seconds-long inputs for the benchmark's own tests",
    )
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: run from the repository root (src/repro not found)",
            file=sys.stderr,
        )
        return 2

    passes = measure(root, args)
    crashed = [p["crashed"] for p in passes if "crashed" in p]
    if crashed:
        print(f"perfbench: {crashed[0]}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics, lines = report(args, passes)
    for problem in sorted({q for p in passes for q in p["problems"]})[:20]:
        lines.append(f"  CHECK FAILED: {problem}")
    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
