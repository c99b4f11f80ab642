"""Snapshot both benchmark suites and compare two snapshots.

Run from the repository root:

  python3 tools/suite_diff.py save SNAPSHOT.npz [--checkout DIR] [--seconds 100]
  python3 tools/suite_diff.py compare OLD.npz NEW.npz

``save`` runs every experiment of ``configs/hexacopter_suite.yaml`` and
``configs/bifwmav_suite.yaml``, cut to ``--seconds``, with the pacsim and the
configs of the checkout ``DIR`` (default: the one holding this script), so a
parent commit can be snapshotted from its own clone. For each experiment it
stores the y, u and R series, the GROW/PRUNE events as (time, kind, rule
count) and the summary.csv cells. ``compare`` prints one line per experiment:
max |dy|, max |du|, whether the events and the R series are equal, and each
summary cell that differs with both values; then one line of totals. It
exits 1 when any experiment's events or R series differ, or when only one
side ran it, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np
import yaml

SUITES = ("hexacopter_suite.yaml", "bifwmav_suite.yaml")


def save(path: Path, checkout: Path, seconds: float) -> None:
    sys.path.insert(0, str(checkout / "src"))
    from pacsim.experiment import DivergenceError, ExperimentConfig, run_experiment, summary_row

    arrays, meta = {}, {}
    for suite in SUITES:
        for raw in yaml.safe_load((checkout / "configs" / suite).read_text())["experiments"]:
            name = raw["name"]
            try:
                result = run_experiment(ExperimentConfig.from_dict({**raw, "duration": seconds}))
            except DivergenceError as exc:
                meta[name] = {"error": str(exc)}
                continue
            series = result.series
            arrays[f"{name}:y"] = np.array(series["y"], dtype=float)
            arrays[f"{name}:u"] = np.array(series["u"], dtype=float)
            arrays[f"{name}:R"] = np.array([r for r in series["R"] if r is not None], dtype=int)
            events = [[t, kind, count] for t, kind, count, _, _ in getattr(result.controller, "events", [])]
            cells = {k: "" if v is None else str(v) for k, v in summary_row(result).items()}
            meta[name] = {"error": None, "events": events, "summary": cells}
            print(f"{name}: {len(series['y'])} steps", file=sys.stderr)
    np.savez_compressed(path, meta=np.array(json.dumps(meta)), **arrays)


def load(path: Path) -> tuple[dict, dict]:
    with np.load(path) as data:
        return json.loads(str(data["meta"])), {k: data[k] for k in data.files if k != "meta"}


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Largest |a - b|; inf when the series differ in length."""
    if a.shape != b.shape:
        return math.inf
    return float(np.max(np.abs(a - b), initial=0.0))


def compare(old_path: Path, new_path: Path) -> bool:
    """Print the per-experiment lines and the totals; True when no events or R series differ
    and every experiment ran on both sides or on neither."""
    old_meta, old = load(old_path)
    new_meta, new = load(new_path)
    worst_y = worst_u = 0.0
    same_events = same_r = cells_moved = 0
    same = True
    names = list(old_meta) + [n for n in new_meta if n not in old_meta]
    for name in names:
        a, b = old_meta.get(name), new_meta.get(name)
        ran_a, ran_b = bool(a and not a["error"]), bool(b and not b["error"])
        if not (ran_a and ran_b):
            print(f"{name}: old {a and (a['error'] or 'ran')}, new {b and (b['error'] or 'ran')}")
            same = same and ran_a == ran_b
            continue
        dy = max_abs_diff(old[f"{name}:y"], new[f"{name}:y"])
        du = max_abs_diff(old[f"{name}:u"], new[f"{name}:u"])
        events = a["events"] == b["events"]
        r = np.array_equal(old[f"{name}:R"], new[f"{name}:R"])
        moved = [f"{k} {a['summary'].get(k)!r} -> {v!r}" for k, v in b["summary"].items() if a["summary"].get(k) != v]
        worst_y, worst_u = max(worst_y, dy), max(worst_u, du)
        same_events += events
        same_r += r
        same = same and events and r
        cells_moved += len(moved)
        print(
            f"{name}: max |dy| {dy:.3g}, max |du| {du:.3g}, events {'equal' if events else 'DIFFER'}, "
            f"R {'equal' if r else 'DIFFER'}" + (f", cells: {'; '.join(moved)}" if moved else "")
        )
    print(
        f"{len(names)} experiments: max |dy| {worst_y:.3g}, max |du| {worst_u:.3g}, "
        f"events equal in {same_events}, R equal in {same_r}, {cells_moved} summary cells moved"
    )
    return same


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p_save = sub.add_parser("save", help="run both suites and snapshot them")
    p_save.add_argument("snapshot", type=Path)
    p_save.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent)
    p_save.add_argument("--seconds", type=float, default=100.0)
    p_cmp = sub.add_parser("compare", help="compare two snapshots")
    p_cmp.add_argument("old", type=Path)
    p_cmp.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    if args.command == "save":
        save(args.snapshot, args.checkout.resolve(), args.seconds)
        return 0
    return 0 if compare(args.old, args.new) else 1


if __name__ == "__main__":
    sys.exit(main())
