"""Snapshot both benchmark suites and compare two snapshots.

Run from the repository root:

  python3 tools/suite_diff.py save SNAPSHOT.npz [--checkout DIR] [--seconds 100]
  python3 tools/suite_diff.py compare OLD.npz NEW.npz

``save`` runs every experiment of ``configs/hexacopter_suite.yaml`` and
``configs/bifwmav_suite.yaml``, cut to ``--seconds``, with the pacsim and the
configs of the checkout ``DIR`` (default: the one holding this script), so a
parent commit can be snapshotted from its own clone. For each experiment it
stores the y, u and R series, the GROW/PRUNE events as (time, kind, rule
count) and the summary.csv cells as their JSON values.

Two runs of an experiment agree when both sides ran it or neither did, their
events, R series and non-numeric cells are equal, and every float (y, u and
the numeric cells) is within ``ATOL`` of the other side's. ``compare`` prints
one line per experiment: max |dy|, max |du|, whether the events and the R
series are equal, each summary cell that differs with both values, and what
disagrees; then one line of totals, which also counts the bit-identical
experiments: both sides ran them, their events and summary cells are equal
and every array (y, u, R) is byte-equal. It exits 1 when any experiment
disagrees, and 0 otherwise, so round-off within ``ATOL`` passes without
counting as bit-identical. ``tests/test_golden.py`` holds the suites at 20 s
to a snapshot of this format.
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
# libm sin/cos may round differently on another machine; a real metric change
# moves rise and settling times by whole samples (10 ms), far beyond this
ATOL = 1e-9


def suite_configs(checkout: Path) -> list[dict]:
    """The raw experiment mappings of both suites of ``checkout``, in suite order."""
    return [
        raw for suite in SUITES for raw in yaml.safe_load((checkout / "configs" / suite).read_text())["experiments"]
    ]


def snapshot(checkout: Path, seconds: float) -> tuple[dict, dict]:
    """Run every suite experiment of ``checkout`` cut to ``seconds`` with the pacsim
    that is importable; return the snapshot as (meta, arrays)."""
    from pacsim.experiment import DivergenceError, ExperimentConfig, run_experiment, summary_row

    arrays, meta = {}, {}
    for raw in suite_configs(checkout):
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
        meta[name] = {"error": None, "events": events, "summary": summary_row(result)}
    return meta, arrays


def write(path: Path, snap: tuple[dict, dict]) -> None:
    meta, arrays = snap
    np.savez_compressed(path, meta=np.array(json.dumps(meta)), **arrays)


def load(path: Path) -> tuple[dict, dict]:
    with np.load(path) as data:
        return json.loads(str(data["meta"])), {k: data[k] for k in data.files if k != "meta"}


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Largest |a - b|; inf when the series differ in length."""
    if a.shape != b.shape:
        return math.inf
    return float(np.max(np.abs(a - b), initial=0.0))


def compare(old: tuple[dict, dict], new: tuple[dict, dict]) -> dict[str, tuple[str, list[str]]]:
    """For each experiment of either snapshot: a line saying what moved, and the list of
    what disagrees (empty when the two runs agree)."""
    (old_meta, old_arrays), (new_meta, new_arrays) = old, new
    diffs = {}
    for name in list(old_meta) + [n for n in new_meta if n not in old_meta]:
        a, b = old_meta.get(name), new_meta.get(name)
        ran_a, ran_b = bool(a and not a["error"]), bool(b and not b["error"])
        if not (ran_a and ran_b):
            line = f"old {a and (a['error'] or 'ran')}, new {b and (b['error'] or 'ran')}"
            diffs[name] = (line, [] if ran_a == ran_b else ["ran on one side only"])
            continue
        dy = max_abs_diff(old_arrays[f"{name}:y"], new_arrays[f"{name}:y"])
        du = max_abs_diff(old_arrays[f"{name}:u"], new_arrays[f"{name}:u"])
        events = a["events"] == b["events"]
        r = np.array_equal(old_arrays[f"{name}:R"], new_arrays[f"{name}:R"])
        sa, sb = a["summary"], b["summary"]
        moved = {k: (sa.get(k), sb.get(k)) for k in {**sa, **sb} if sa.get(k) != sb.get(k)}
        problems = [k for k, d in (("y", dy), ("u", du)) if not d <= ATOL]
        problems += [k for k, same in (("events", events), ("R", r)) if not same]
        problems += [
            f"cell {k}"
            for k, (va, vb) in moved.items()
            if not (isinstance(va, float) and isinstance(vb, float) and abs(va - vb) <= ATOL)
        ]
        cells_moved = "; ".join(f"{k} {va!r} -> {vb!r}" for k, (va, vb) in moved.items())
        line = (
            f"max |dy| {dy:.3g}, max |du| {du:.3g}, events {'equal' if events else 'DIFFER'}, "
            f"R {'equal' if r else 'DIFFER'}, " + (f"cells: {cells_moved}" if moved else "no cell moved")
        )
        diffs[name] = (line, problems)
    return diffs


def bit_identical(old: tuple[dict, dict], new: tuple[dict, dict], name: str) -> bool:
    """True when both sides ran ``name`` with equal events and summary cells and byte-equal arrays."""
    (old_meta, old_arrays), (new_meta, new_arrays) = old, new
    a, b = old_meta.get(name), new_meta.get(name)
    if not (a and not a["error"] and a == b):
        return False
    arrays = [(old_arrays[f"{name}:{k}"], new_arrays[f"{name}:{k}"]) for k in ("y", "u", "R")]
    return all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in arrays)


def report(old: tuple[dict, dict], new: tuple[dict, dict]) -> bool:
    """Print ``compare``'s line for each experiment, then the totals; True when every experiment agrees."""
    diffs = compare(old, new)
    for name, (line, problems) in diffs.items():
        print(f"{name}: {line}" + (f"; DISAGREE on {', '.join(problems)}" if problems else ""))
    bad = sum(bool(problems) for _, problems in diffs.values())
    same = sum(bit_identical(old, new, name) for name in diffs)
    print(f"{len(diffs)} experiments: {len(diffs) - bad} agree within ATOL {ATOL:g}, {bad} disagree; {same} bit-identical")
    return bad == 0


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
        checkout = args.checkout.resolve()
        sys.path.insert(0, str(checkout / "src"))
        write(args.snapshot, snapshot(checkout, args.seconds))
        return 0
    return 0 if report(load(args.old), load(args.new)) else 1


if __name__ == "__main__":
    sys.exit(main())
