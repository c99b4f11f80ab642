"""Record the benchmark of one checkout as ``BENCH_<short-sha>.json``.

Run from the repository root:

  python3 tools/bench_json.py [CHECKOUT]

For each workload named in the checkout's ``BENCHMARK.json`` it runs

  python3 perfbench/run.py --workload W --seed 0 --seconds S

inside CHECKOUT (default: the current directory), with S the file's
``run_seconds``: ``REPEATS`` rounds over the workloads, then one more run of
each with ``--trace 1`` for the per-layer split. It writes
``BENCH_<short-sha>.json`` to the current directory, holding per workload
every run's context line and result line and the per-metric medians, the
traced run kept apart. The label is the short git SHA of the checkout's HEAD
(see ``checkout_label``); a checkout whose src/, configs/ or perfbench/
differ from HEAD is labelled ``<sha>+<hash of the difference>``, and those
paths are listed as ``dirty_paths``.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

COMMAND = ["python3", "perfbench/run.py"]
REPEATS = 3  # medians of at least 3 runs, as a speed claim needs
BENCHED_PATHS = ("src", "configs", "perfbench")  # what a benchmark run builds and runs from


def _git_bytes(root: Path, *args: str) -> bytes:
    return subprocess.run(["git", "-C", str(root), *args], capture_output=True, check=True).stdout


def _git(root: Path, *args: str) -> str:
    return _git_bytes(root, *args).decode().strip()


def dirty_paths(root: Path) -> list[str]:
    """``git status --porcelain`` lines of the benched paths that differ from HEAD, untracked files included."""
    return _git(root, "status", "--porcelain", "--", *BENCHED_PATHS).splitlines()


def checkout_label(root: Path) -> str:
    """The short SHA of the checkout's HEAD, with ``+<8 hex>`` when its benched paths differ from HEAD.

    The 8 hex digits open the sha256 of ``git diff HEAD -- src configs
    perfbench``, followed by the path and bytes of each untracked file there,
    so two different uncommitted changes on one HEAD get two labels.
    """
    sha = _git(root, "rev-parse", "--short", "HEAD")
    if not dirty_paths(root):
        return sha
    digest = hashlib.sha256(_git_bytes(root, "diff", "HEAD", "--", *BENCHED_PATHS))
    for path in _git(root, "ls-files", "--others", "--exclude-standard", "--", *BENCHED_PATHS).splitlines():
        digest.update(path.encode() + b"\0" + (root / path).read_bytes())
    return f"{sha}+{digest.hexdigest()[:8]}"


def run_once(root: Path, workload: str, seconds: float, trace: int, seed: int = 0) -> dict:
    """One perfbench run: its context line and its result line."""
    cmd = [*COMMAND, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} failed in {root} (exit {proc.returncode}): {proc.stderr.strip()[-500:]}")
    return {**json.loads(lines[-2]), "result": json.loads(lines[-1])}


def medians(runs: list[dict]) -> dict:
    """Per-metric median over the runs' result lines."""
    return {
        name: {"value": statistics.median(run["result"]["metrics"][name]["value"] for run in runs), "unit": m["unit"]}
        for name, m in runs[0]["result"]["metrics"].items()
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1 or argv[:1] in (["-h"], ["--help"]):
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(argv[0] if argv else ".").resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    sha = checkout_label(root)
    dirty = dirty_paths(root)

    runs = {w: [] for w in workloads}
    for i in range(REPEATS):
        for w in workloads:
            print(f"bench_json: {sha} {w} run {i + 1}/{REPEATS}", file=sys.stderr)
            runs[w].append(run_once(root, w, seconds, trace=0))
    traced = {}
    for w in workloads:
        print(f"bench_json: {sha} {w} traced run", file=sys.stderr)
        traced[w] = run_once(root, w, seconds, trace=1)

    doc = {
        "label": sha,
        "dirty_paths": dirty,
        "command": [*COMMAND, "--workload", "W", "--seed", "0", "--seconds", str(seconds)],
        "workloads": {
            w: {"median": medians(runs[w]), "runs": runs[w], "traced_run": traced[w]} for w in workloads
        },
    }
    path = Path(f"BENCH_{sha}.json")
    path.write_text(json.dumps(doc, indent=1) + "\n")
    for w in workloads:
        m = doc["workloads"][w]["median"]
        print(f"{w}: steps_per_s {m['steps_per_s']['value']:.0f}, wall_s {m['wall_s']['value']:.3f}", file=sys.stderr)
    print(path.resolve())
    return 0


if __name__ == "__main__":
    sys.exit(main())
