"""Command-line interface.

  pacsim run <config.yaml> [--out DIR]          single experiment
  pacsim suite <config.yaml> [--out DIR]        batch with summary.csv
  pacsim compare <stepsA.csv> <stepsB.csv>      Wilcoxon on residuals

Exit status is 1 when a run diverges, and 2 when a config is invalid or a
step log given to ``compare`` is missing, malformed or shorter than 6 rows,
when the two logs differ in ``t`` on the steps both hold, or when ``--alpha``
does not lie strictly between 0 and 1.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np
import yaml

from .experiment import DivergenceError, ExperimentConfig, check_names, read_step_csv, run_experiment, run_suite, summary_row
from .stats import wilcoxon_signed_rank


def _load_yaml(path: str) -> dict:
    with open(path) as fh:
        data = yaml.safe_load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a mapping at the top level")
    return data


def _configs_from_file(path: str) -> list[ExperimentConfig]:
    data = _load_yaml(path)
    raw_list = data["experiments"] if "experiments" in data else [data]
    if not (isinstance(raw_list, list) and all(isinstance(raw, dict) for raw in raw_list)):
        raise ValueError(f"{path}: experiments must be a list of mappings")
    configs = [ExperimentConfig.from_dict(raw) for raw in raw_list]
    try:
        check_names(configs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return configs


def _cmd_run(args) -> int:
    configs = args.configs
    if len(configs) != 1:
        print("run expects a single-experiment config; use `suite` for batches", file=sys.stderr)
        return 2
    try:
        result = run_experiment(configs[0], out_dir=args.out)
    except DivergenceError as exc:
        print(f"DIVERGED: {exc}", file=sys.stderr)
        return 1
    row = summary_row(result)
    print(", ".join(f"{k}={v}" for k, v in row.items()))
    return 0


def _cmd_suite(args) -> int:
    try:
        results = run_suite(args.configs, out_dir=args.out)
    except DivergenceError as exc:
        print(f"DIVERGED: {exc}", file=sys.stderr)
        return 1
    for result in results:
        row = summary_row(result)
        print(", ".join(f"{k}={v}" for k, v in row.items()))
    print(f"summary: {Path(args.out) / 'summary.csv'}")
    return 0


def _residuals(cols: dict) -> np.ndarray:
    y = np.asarray(cols["y"], dtype=float)
    y_r = np.asarray(cols["y_r"], dtype=float)
    return np.abs(y_r - y)


def _cmd_compare(args) -> int:
    try:
        a, b = read_step_csv(args.csv_a), read_step_csv(args.csv_b)
        # rows pair by step, so both logs must share the time grid over the steps they both ran
        n = min(len(a["t"]), len(b["t"]))
        off_grid = np.flatnonzero(np.asarray(a["t"][:n]) != np.asarray(b["t"][:n]))
        if off_grid.size:
            i = int(off_grid[0])
            raise ValueError(f"the logs differ in t at step {i}: {a['t'][i]!r} in {args.csv_a}, {b['t'][i]!r} in {args.csv_b}")
        result = wilcoxon_signed_rank(_residuals(a)[:n], _residuals(b)[:n], alpha=args.alpha)
    except (OSError, ValueError) as exc:
        print(f"INPUT ERROR: {' '.join(str(exc).split())}", file=sys.stderr)
        return 2
    print(f"p={result.p:.6g}, h={result.h}, W={result.w}, n={result.n}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="pacsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single experiment")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="out")
    p_run.set_defaults(func=_cmd_run)

    p_suite = sub.add_parser("suite", help="run a batch of experiments")
    p_suite.add_argument("config")
    p_suite.add_argument("--out", default="out")
    p_suite.set_defaults(func=_cmd_suite)

    p_cmp = sub.add_parser("compare", help="Wilcoxon signed-rank test on two step logs")
    p_cmp.add_argument("csv_a")
    p_cmp.add_argument("csv_b")
    p_cmp.add_argument("--alpha", type=float, default=0.05)
    p_cmp.set_defaults(func=_cmd_compare)

    args = parser.parse_args(argv)
    if "config" in args:  # run and suite: check every experiment before the first one runs
        try:
            args.configs = _configs_from_file(args.config)
        except (OSError, yaml.YAMLError, ValueError) as exc:
            print(f"CONFIG ERROR: {' '.join(str(exc).split())}", file=sys.stderr)
            return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
