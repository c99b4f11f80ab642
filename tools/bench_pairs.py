"""Run the benchmark of two checkouts in alternating pairs and compare them.

Run from the repository root:

  python3 tools/bench_pairs.py PARENT CHANGE --workload W [--pairs 10] [--seed S]

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T`` once in
PARENT and once in CHANGE (two checkouts, e.g. made with ``git clone``), one
after the other; the side that runs first alternates from pair to pair, so a
slow phase of the host falls on both sides alike. ``T`` is the
``run_seconds`` of CHANGE's ``BENCHMARK.json``. For every end-to-end metric
of that file, and for the raw per-pass wall time (the median of a run's
``passes.wall_s``, not divided by the host slowness), it prints each side's
median and quartiles, the change's wins (pairs where it is strictly better),
whether the median gap exceeds the parent's interquartile range, whether
the gain rule is met (at least 9/10 of the pairs won and that gap), and,
for a metric with a ``bound``, the no-regression verdict: ``within`` when
the change's median is worse than the parent's by at most the bound (taken
as relative to the parent's median), ``worse`` when by more, and
``unresolved`` when the parent's IQR exceeds the bound times its median,
unless every change run reads better than every parent run. It writes
every run and that summary to ``PAIRS_<parent>_<change>.json`` in the
current directory, under the key "W seed S"; entries for other workloads or
seeds already in that file are kept. Each side is named by its checkout label
(``bench_json.checkout_label``): the short SHA of HEAD, with ``+<8 hex>`` when
src/, configs/ or perfbench/ differ from HEAD. Two sides with one label are
the same code, and the script exits with status 2 without running them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from bench_json import checkout_label, dirty_paths, run_once

SIDES = ("parent", "change")
# the median of a run's raw pass wall times; a change the host normalisation hides still shows here
RAW_PASS_WALL = {"name": "raw_pass_wall_s", "unit": "s", "better": "lower"}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def value(run: dict, name: str) -> float:
    """A metric of one run: from its result line, or the raw pass wall from its context line."""
    if name == RAW_PASS_WALL["name"]:
        return statistics.median(run["context"]["passes"]["wall_s"])
    return run["result"]["metrics"][name]["value"]


def regression_verdict(parent: list[float], change: list[float], lower: bool, bound: float) -> str:
    """``within``, ``worse`` or ``unresolved`` for a metric whose median may get worse by ``bound`` (relative)."""
    (q1, median, q3), change_median = quartiles(parent), quartiles(change)[1]
    all_better = max(change) < min(parent) if lower else min(change) > max(parent)
    if q3 - q1 > bound * abs(median) and not all_better:
        return "unresolved"
    worse_by = change_median - median if lower else median - change_median
    return "worse" if worse_by > bound * abs(median) else "within"


def compare(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric: both sides' quartiles, the change's wins, the gap against the parent's IQR and,
    for a metric with a bound, the no-regression verdict."""
    summary = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        values = {side: [value(p[side], name) for p in pairs] for side in SIDES}
        q = {side: quartiles(values[side]) for side in SIDES}
        gap = q["change"][1] - q["parent"][1]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
        beyond_iqr = (gap < 0 if lower else gap > 0) and abs(gap) > q["parent"][2] - q["parent"][0]
        bound = spec.get("bound")
        summary[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent": dict(zip(("q1", "median", "q3"), q["parent"])),
            "change": dict(zip(("q1", "median", "q3"), q["change"])),
            "change_wins": wins,
            "pairs": len(pairs),
            "median_gap": gap,
            "better_by_more_than_parent_iqr": beyond_iqr,
            # a tie is no win, so it counts against the nine tenths
            "claim_rule_met": 10 * wins >= 9 * len(pairs) and beyond_iqr,
            "bound": bound,
            "regression": None if bound is None else regression_verdict(values["parent"], values["change"], lower, bound),
        }
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    roots = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    sha = {side: checkout_label(root) for side, root in roots.items()}
    if sha["parent"] == sha["change"]:
        print(f"bench_pairs: both checkouts are {sha['parent']}; nothing to compare", file=sys.stderr)
        return 2
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    pairs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"first": order[0]}
        for side in order:
            print(f"bench_pairs: pair {i + 1}/{args.pairs} {side} ({sha[side]})", file=sys.stderr)
            pair[side] = run_once(roots[side], args.workload, seconds, trace=0, seed=args.seed)
        pairs.append(pair)

    summary = compare(pairs, [*spec["end_to_end"], RAW_PASS_WALL])
    path = Path(f"PAIRS_{sha['parent']}_{sha['change']}.json")
    doc = json.loads(path.read_text()) if path.exists() else {"labels": sha, "runs": {}}
    doc["runs"][f"{args.workload} seed {args.seed}"] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "dirty_paths": {side: dirty_paths(root) for side, root in roots.items()},
        "summary": summary,
        "pairs": pairs,
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {seconds:g} s: {sha['parent']} -> {sha['change']}")
    for name, s in summary.items():
        p, c = s["parent"], s["change"]
        print(
            f"  {name:15s} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]"
            f"  change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]"
            f"  wins {s['change_wins']}/{s['pairs']}  better by > parent IQR: {s['better_by_more_than_parent_iqr']}"
            f"  claim rule met: {s['claim_rule_met']}"
            + ("" if s["regression"] is None else f"  no-regression: {s['regression']} (bound {s['bound']:g})")
        )
    print(path.resolve())
    return 0


if __name__ == "__main__":
    sys.exit(main())
