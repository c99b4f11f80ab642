"""Closed-loop step benchmark for pacsim.

Run from the repository root:

  python3 perfbench/run.py --workload hexa_rules --seed 0 --seconds 40 --trace 0

The workload (see ``workloads.py``) is repeated, one pass after another, for
as many passes as fit in ``--seconds``; at least one pass always runs. With
``--trace 0`` the end-to-end metrics are reported, medians over the passes,
with timings scaled by the host speed sampled meanwhile (``hostspeed.py``).
With ``--trace 1`` untraced and traced passes alternate and the per-layer split
is reported from the traced ones (see ``tracing.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run context (code version, machine, load, config digests).

BLAS is pinned to one thread through this process's environment, set before
numpy is imported.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 7
WORK_DIR = ".perfbench_work"

# Set-up as a user pays it: a fresh interpreter imports pacsim (and numpy
# with it), then loads and validates the workload's configs.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
import workloads
workloads.load(sys.argv[1], int(sys.argv[2]), sys.argv[3])
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(root: Path, workload: str, seed: int) -> list[float]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(HERE)])}
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, workload, str(seed), str(root / "configs")],
            env=env,
            cwd=root,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return out.stdout.strip() or None


def _blas() -> dict:
    import numpy as np

    info = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            threads = int(ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            continue
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def context(root: Path, wl, load_before, problems, missing) -> dict:
    import numpy as np

    return {
        "workload": wl.name,
        "seed": wl.seed,
        "level_scale": wl.level_scale,
        "time_shift_s": wl.time_shift_s,
        "config_digests": wl.digests(),
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": list(os.getloadavg()),
        "trace_targets_missing": missing,
        "problems": problems[:20],
    }


def quality(rep) -> tuple:
    """Deterministic outcome of a pass; equal across passes and across tracing."""
    return (tuple(rep.rmse), rep.final_rules, rep.grows, rep.prunes)


def end_to_end(reps: list, slow: list[float], setup: list[float], setup_slow: float) -> dict:
    """End-to-end metrics; quality comes from the first pass.

    Timings are medians over passes, each divided by the host slowness
    measured around it (``slow[i]`` for ``reps[i]``), so they read as on the
    reference host.
    """
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    first = reps[0]
    values = {
        "setup_s": (statistics.median(setup) / setup_slow, "s"),
        "wall_s": (statistics.median(r.wall_s / k for r, k in zip(reps, slow)), "s"),
        "steps_per_s": (statistics.median(r.steps / r.sim_s * k for r, k in zip(reps, slow)), "steps/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pass_ratio": (1.0 - failed / attempted, "ratio"),
        "track_rmse": (statistics.fmean(first.rmse) if first.rmse else 0.0, "m"),
        "final_rules": (first.final_rules, "rules"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "pacsim" / "__init__.py").is_file() or not (root / "configs").is_dir():
        print(f"perfbench: {root} holds no pacsim checkout (src/pacsim, configs)", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path[:0] = [str(root / "src"), str(HERE)]
    import hostspeed
    import pacsim
    import tracing
    import workloads

    if not Path(pacsim.__file__).resolve().is_relative_to(root / "src"):
        print(f"perfbench: pacsim was imported from {pacsim.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2

    load_before = list(os.getloadavg())
    wl = workloads.load(args.workload, args.seed, root / "configs")
    work_dir = root / WORK_DIR
    work_dir.mkdir(exist_ok=True)
    tracer = tracing.Tracer()
    host = hostspeed.HostSpeed(work_dir / "host_speed.txt")
    plain, traced, problems = [], [], []
    setup, setup_span, spans, traced_spans = None, None, [], []
    try:
        with host:
            if not args.trace:
                t0 = time.monotonic()
                setup = measure_setup(root, args.workload, args.seed)
                setup_span = (t0, time.monotonic())
            t0 = time.monotonic()
            while True:
                # an untraced pass must run pacsim's own functions
                left = tracing.wrapped_targets()
                if left:
                    problems.append(f"tracing wrappers installed during an untraced pass: {left}")
                start = time.monotonic()
                plain.append(workloads.run_once(wl, work_dir))
                spans.append((start, time.monotonic()))
                if args.trace:
                    start = time.monotonic()
                    with tracer.installed():
                        traced.append(workloads.run_once(wl, work_dir))
                    traced_spans.append((start, time.monotonic()))
                # stop before a pass that would likely end past the budget
                elapsed = time.monotonic() - t0
                if elapsed * (len(plain) + 1) / len(plain) > args.seconds:
                    break
    finally:
        if work_dir.is_dir() and not any(work_dir.iterdir()):
            work_dir.rmdir()
    reps = plain + traced
    slow = [host.slowness(*span) for span in spans]
    traced_slow = [host.slowness(*span) for span in traced_spans]
    setup_slow = host.slowness(*setup_span) if setup_span else None

    problems += [p for rep in reps for p in rep.problems]
    if len({quality(rep) for rep in reps}) != 1:
        problems.append("passes disagree on rmse, rule counts or events (tracing or reruns changed the numerics)")

    if args.trace:
        untraced_s = statistics.median(r.wall_s / k for r, k in zip(plain, slow))
        traced_s = statistics.median(r.wall_s / k for r, k in zip(traced, traced_slow))
        metrics = tracing.layer_metrics(tracer.spans, traced, traced_s / untraced_s - 1.0, statistics.fmean(traced_slow))
    else:
        metrics = end_to_end(plain, slow, setup, setup_slow)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    ctx = context(root, wl, load_before, problems, tracer.missing)
    ctx["host_speed"] = {"loops": hostspeed.LOOPS, "period_s": hostspeed.PERIOD_S, "samples": len(host.samples)}
    ctx["passes"] = {
        "host_slowness": slow,
        "wall_s": [r.wall_s for r in plain],
        "steps_per_s": [r.steps / r.sim_s for r in plain],
        "traced_host_slowness": traced_slow,
        "traced_wall_s": [r.wall_s for r in traced],
    }
    if setup:
        ctx["setup"] = {"host_slowness": setup_slow, "samples_s": setup}
    print(json.dumps({"context": ctx}))
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
