"""Benchmark workloads: fixed lists of suite experiments, run as a closed loop.

A workload names experiments of the suite files under ``configs/``. Each
experiment is loaded verbatim by name, optionally perturbed by the workload
seed, validated through ``ExperimentConfig.from_dict`` and run one at a time
through ``run_experiment``. Every run is checked: it must complete all steps,
log only finite values and, where logs are written, read back exactly.

Seed 0 runs the configs verbatim. Any other seed draws, once per workload,
  - a level scale k in [1 - LEVEL_SPREAD, 1 + LEVEL_SPREAD] applied to every
    trajectory level (levels, heights, amplitudes and biases; times and
    frequencies are kept), and
  - a shift in [-TIME_SHIFT_S, +TIME_SHIFT_S] s, rounded to whole steps,
    applied to the gust onset and impulse start.
The draws are shared by every experiment of the workload, so a PAC/PID pair
still tracks the same reference. The spread is small on purpose: the rule
count of ``hexa_sos_pac`` moves about four rules per percent of level scale,
and its run time with the rule count.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
import re
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from pacsim import experiment, metrics, stats, trajectories

LEVEL_SPREAD = 0.005
TIME_SHIFT_S = 0.5

# Trajectory fields that carry a level in metres (scaled by the seed); every
# other field is a time or a frequency and is left alone. Sine and cosine
# terms are (amplitude, angular frequency, bias) triples.
_LEVEL_FIELDS = {"level", "amplitude", "levels", "step_heights", "base", "low", "high"}
_TERM_FIELDS = {"sines", "cosines"}
# Disturbance fields that carry an onset time in seconds.
_ONSET_FIELDS = {"onset_time", "start"}


@dataclass(frozen=True)
class Spec:
    """What a workload runs: experiment names, which logs to write and compare."""

    suite: str
    experiments: tuple[str, ...]
    write_logs: bool = False
    # (a, b) experiment pairs compared like ``pacsim compare a_steps b_steps``
    pairs: tuple[tuple[str, str], ...] = ()
    # each evolving controller must end with at least this many rules
    min_final_rules: int = 0


SPECS = {
    # Plant + RK4 dominate at small R; step/event logs are written, read back
    # and compared pairwise, so a slower writer or small-R controller shows.
    "hexa_altitude": Spec(
        suite="hexacopter_suite.yaml",
        experiments=("hexa_constant_pac", "hexa_constant_pid", "hexa_staircase_pac", "hexa_staircase_pid"),
        write_logs=True,
        pairs=(("hexa_constant_pac", "hexa_constant_pid"), ("hexa_staircase_pac", "hexa_staircase_pid")),
    ),
    # The rule base grows to about a hundred rules: the controller dominates.
    "hexa_rules": Spec(suite="hexacopter_suite.yaml", experiments=("hexa_sos_pac",), min_final_rules=10),
    # Second plant (flapping MAV), gust tracker and impulse path; plant dominates.
    "bif_gust": Spec(
        suite="bifwmav_suite.yaml",
        experiments=("bif_constant_disturbed_pac", "bif_constant_disturbed_pid"),
    ),
}


@dataclass
class Workload:
    name: str
    seed: int
    spec: Spec
    configs: list
    level_scale: float = 1.0
    time_shift_s: float = 0.0

    def digests(self) -> dict:
        """SHA-256 (first 16 hex digits) of each resolved config, by experiment name."""
        out = {}
        for cfg in self.configs:
            blob = json.dumps(dataclasses.asdict(cfg), sort_keys=True, default=repr).encode()
            out[cfg.name] = hashlib.sha256(blob).hexdigest()[:16]
        return out


def _suite_experiments(configs_dir: Path, suite: str) -> dict:
    with open(configs_dir / suite) as fh:
        data = yaml.safe_load(fh)
    return {raw["name"]: raw for raw in data["experiments"]}


def _kind(obj) -> str:
    """Config kind of a trajectory object: its class name in snake case."""
    return re.sub(r"(?<!^)(?=[A-Z])", "_", type(obj).__name__).lower()


def _scale_field(name: str, value, k: float):
    if name in _TERM_FIELDS:
        return [[amp * k, freq, bias * k] for amp, freq, bias in value]
    if name not in _LEVEL_FIELDS:
        return value
    if isinstance(value, (list, tuple)):
        return [v * k for v in value]
    return value * k


def scale_trajectory(spec, k: float) -> dict:
    """Config mapping for the trajectory ``spec`` with every level scaled by k."""
    traj = trajectories.from_config(spec)
    scaled = {f.name: _scale_field(f.name, getattr(traj, f.name), k) for f in dataclasses.fields(traj)}
    out = {"kind": _kind(traj), **scaled}
    if type(trajectories.from_config(out)) is not type(traj):
        raise ValueError(f"cannot re-express trajectory {spec!r} as a config mapping")
    return out


def shift_disturbances(disturbances: dict, shift_s: float) -> dict:
    """Copy of a disturbances mapping with every onset moved by shift_s (floored at 0)."""
    return {
        kind: {key: max(0.0, value + shift_s) if key in _ONSET_FIELDS else value for key, value in params.items()}
        for kind, params in disturbances.items()
    }


def perturb(raw: dict, level_scale: float, time_shift_s: float) -> dict:
    raw = dict(raw)
    raw["trajectory"] = scale_trajectory(raw["trajectory"], level_scale)
    if raw.get("disturbances"):
        raw["disturbances"] = shift_disturbances(raw["disturbances"], time_shift_s)
    return raw


def load(name: str, seed: int, configs_dir: Path) -> Workload:
    """Resolve workload ``name`` for ``seed`` into validated experiment configs."""
    try:
        spec = SPECS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(SPECS)}") from None
    if seed < 0:
        raise ValueError("seed must be non-negative")
    suite = _suite_experiments(Path(configs_dir), spec.suite)
    raws = [suite[exp] for exp in spec.experiments]
    k, shift = 1.0, 0.0
    if seed != 0:
        rng = random.Random(f"{name}:{seed}")
        k = 1.0 + rng.uniform(-LEVEL_SPREAD, LEVEL_SPREAD)
        dt = experiment.ExperimentConfig.from_dict(raws[0]).dt
        shift = round(rng.uniform(-TIME_SHIFT_S, TIME_SHIFT_S) / dt) * dt
        raws = [perturb(raw, k, shift) for raw in raws]
    configs = [experiment.ExperimentConfig.from_dict(raw) for raw in raws]
    return Workload(name, seed, spec, configs, level_scale=k, time_shift_s=shift)


@dataclass
class Rep:
    """Outcome of one pass over a workload.

    An operation is one experiment or one pairwise compare; it fails when an
    experiment diverges or any check on its output fails.
    """

    wall_s: float = 0.0
    sim_s: float = 0.0  # summed run_experiment time
    steps: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    rmse: list = field(default_factory=list)
    final_rules: int = 0
    grows: int = 0
    prunes: int = 0
    write_bytes: int = 0


def _check_readback(result, cfg, back: dict) -> list[str]:
    problems = [
        f"{cfg.name}: column {col!r} differs after read-back"
        for col, values in result.series.items()
        if back.get(col) != values
    ]
    rep = metrics.report(back["y"], back["y_r"], cfg.dt, final_rule_count=result.report.final_rule_count)
    if rep != result.report:
        problems.append(f"{cfg.name}: metrics of the read-back log differ from the in-memory summary")
    return problems


def _residuals(cols: dict) -> np.ndarray:
    return np.abs(np.asarray(cols["y_r"], dtype=float) - np.asarray(cols["y"], dtype=float))


def _check_experiment(result, cfg, spec: Spec) -> list[str]:
    problems = []
    n = len(result.series["t"])
    if n != cfg.n_steps:
        problems.append(f"{cfg.name}: {n} of {cfg.n_steps} steps logged")
    for col, values in result.series.items():
        if not all(v is None or math.isfinite(v) for v in values):
            problems.append(f"{cfg.name}: non-finite value in column {col!r}")
    rules = result.report.final_rule_count
    if rules is not None and rules < spec.min_final_rules:
        problems.append(f"{cfg.name}: {rules} final rules, expected at least {spec.min_final_rules}")
    return problems


def run_once(wl: Workload, work_dir: Path | None = None) -> Rep:
    """Run every experiment of the workload once, with its I/O, compares and checks.

    Logs go to a temporary directory under ``work_dir`` and are removed on return.
    """
    rep = Rep()
    spec = wl.spec
    t_start = time.perf_counter()
    logs = tempfile.TemporaryDirectory(dir=work_dir) if spec.write_logs else nullcontext(None)
    with logs as out_dir:
        readback = {}
        for cfg in wl.configs:
            rep.attempted += 1
            t0 = time.perf_counter()
            try:
                result = experiment.run_experiment(cfg, out_dir=out_dir)
            except experiment.DivergenceError as exc:
                rep.failed += 1
                rep.problems.append(str(exc))
                continue
            finally:
                rep.sim_s += time.perf_counter() - t0
            problems = _check_experiment(result, cfg, spec)
            if out_dir is not None and not problems:
                back = experiment.read_step_csv(Path(out_dir) / f"{cfg.name}_steps.csv")
                problems += _check_readback(result, cfg, back)
                readback[cfg.name] = back
            if problems:
                rep.failed += 1
                rep.problems += problems
                continue
            rep.steps += cfg.n_steps
            rep.rmse.append(result.report.rmse)
            if result.report.final_rule_count is not None:
                rep.final_rules += result.report.final_rule_count
            kinds = [event[1] for event in getattr(result.controller, "events", ())]
            rep.grows += kinds.count("GROW")
            rep.prunes += kinds.count("PRUNE")
        for a, b in spec.pairs:
            rep.attempted += 1
            problem = _compare(readback, a, b)
            if problem:
                rep.failed += 1
                rep.problems.append(problem)
        if out_dir is not None:
            rep.write_bytes = sum(p.stat().st_size for p in Path(out_dir).iterdir())
    rep.wall_s = time.perf_counter() - t_start
    return rep


def _compare(readback: dict, a: str, b: str) -> str | None:
    """Paired Wilcoxon test on the read-back residuals, as ``pacsim compare`` runs it."""
    if a not in readback or b not in readback:
        return f"compare {a} {b}: a checked log is missing"
    ra, rb = _residuals(readback[a]), _residuals(readback[b])
    n = min(len(ra), len(rb))
    res = stats.wilcoxon_signed_rank(ra[:n], rb[:n])
    if not (0.0 <= res.p <= 1.0 and 0 <= res.n <= n):
        return f"compare {a} {b}: invalid result {res}"
    return None
