"""Experiment runner: wires a trajectory, a controller and a plant into the
fixed-step loop, logs per-step series to CSV and reduces them to metrics.

Loop order per step: read the reference, apply measurement disturbance, step
the controller, log the step, step the plant (which advances its gust).

A step's row holds the harness's ``STEP_COLUMNS``, which every run has, then
the cells the controller returns for its own ``log_columns``. In memory and
when read back, each column is packed: ``array('d')`` (8 B a cell, against
32 B for a float in a list) for every float column, and a list of int for
the rule count ``R``. ``np.asarray`` reads a packed column without a copy.
"""

from __future__ import annotations

import copy
import csv
import math
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
from itertools import islice
from pathlib import Path

import yaml

from . import metrics, settings, trajectories
from .controller import ControllerConfig, ParsimoniousController
from .pid import PidConfig, PidController
from .plants import BiFwmav, DoubleIntegrator, GustSpec, Hexacopter, ImpulseSpec
from .plants.disturbances import impulse_noise
from .plants.flapping import DEFAULT_INERTIA
from .plants.rigid_body import InertiaSet

STEP_COLUMNS = ("t", "y_r", "y", "e", "u")
INT_COLUMNS = ("R",)  # every other step-log column holds floats
SUMMARY_COLUMNS = ["name", "plant", "trajectory", "controller", *(f.name for f in fields(metrics.MetricsReport))]
# the longest run a config may ask for: 1000 times the longest suite run; its packed log alone takes 0.4 to 0.9 GB
MAX_STEPS = 10**7


class DivergenceError(RuntimeError):
    """Simulation produced a non-finite value; a partial log was written."""


@dataclass(frozen=True)
class ExperimentConfig:
    name: str = "experiment"
    plant: str = "hexacopter"
    channel: str = "altitude"
    controller: str = "pac"
    trajectory: str | dict = "hexacopter_constant"
    duration: float = 100.0
    dt: float = 0.01
    controller_params: dict = field(default_factory=dict)
    plant_params: dict = field(default_factory=dict)
    disturbances: dict = field(default_factory=dict)

    def __post_init__(self):
        # a config owns its sections: rows merged from one YAML anchor would otherwise share one dict
        for key in ("trajectory", "controller_params", "plant_params", "disturbances"):
            object.__setattr__(self, key, copy.deepcopy(getattr(self, key)))
        # every part is built once here, so a bad name stops the config, not a suite halfway through
        try:
            self._check()
            build(self)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{self.name}: {exc}") from exc

    def _check(self) -> None:
        # the name spells the output file names in --out, so it must not leave that directory
        if not isinstance(self.name, (str, int)) or isinstance(self.name, bool):
            raise ValueError(f"experiment name {self.name!r} must be a string or an integer")
        name = str(self.name)
        if name in ("", ".", "..") or "/" in name or "\\" in name:
            raise ValueError(f"experiment name {name!r} must be a plain file name")
        dt, duration = settings.set_numbers(self, ("dt", "duration"))
        if not dt > 0:
            raise ValueError(f"dt must be positive, not {dt!r}")
        if not duration >= 0:
            raise ValueError(f"duration must be non-negative, not {duration!r}")
        steps = duration / dt  # inf once the quotient leaves the float range
        if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9:
            raise ValueError("duration must be an integer number of steps")
        if round(steps) > MAX_STEPS:
            raise ValueError(f"duration is {steps:.15g} steps, above the limit of {MAX_STEPS}")

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.dt))

    @staticmethod
    def from_dict(raw: Mapping) -> "ExperimentConfig":
        try:
            raw = settings.section("config", raw, ExperimentConfig.__dataclass_fields__)
        except ValueError as exc:
            if not isinstance(raw, Mapping):  # it has no name to prefix
                raise
            raise ValueError(f"{raw.get('name', 'experiment')}: {exc}") from None
        return ExperimentConfig(**raw)


# name -> (config class, controller class); the harness reads step, log_columns, rule_count and write_artifacts
CONTROLLERS = {"pac": (ControllerConfig, ParsimoniousController), "pid": (PidConfig, PidController)}


def build(cfg: ExperimentConfig) -> tuple:
    """The controller, plant, trajectory and measurement impulse (None without one) that ``cfg`` runs.

    Each section of ``cfg`` is read here, once; a config is built when it is made, and once per run.
    """
    config_cls, controller_cls = settings.choice("controller", cfg.controller, CONTROLLERS)
    controller = controller_cls(settings.read("controller_params", cfg.controller_params, config_cls))
    # the vehicles' constants other than inertia are fixed in their plant modules
    plant_params = settings.section("plant_params", cfg.plant_params, ("inertia",))
    # a partial inertia takes its missing fields from the plant's own default
    inertia = settings.section("inertia", plant_params.get("inertia", {}), InertiaSet.__dataclass_fields__)
    disturbances = settings.section("disturbances", cfg.disturbances, ("gust", "impulse"))
    gust = settings.read("gust", disturbances["gust"], GustSpec) if "gust" in disturbances else None
    if cfg.plant == "hexacopter":
        plant = Hexacopter(InertiaSet(**inertia), channel=cfg.channel, gust=gust)
    elif cfg.channel != "altitude":
        # only the hexacopter has attitude channels; the other plants fly altitude
        raise ValueError(f"channel {cfg.channel!r} needs plant 'hexacopter', not {cfg.plant!r}")
    elif cfg.plant == "bifwmav":
        plant = BiFwmav(replace(DEFAULT_INERTIA, **inertia), gust=gust)
    elif cfg.plant == "double_integrator":
        # it has no inertia and no airframe for a gust; the impulse acts on the measurement, so every plant takes it
        if plant_params or gust:
            raise ValueError(f"plant 'double_integrator' takes no {'plant_params' if plant_params else 'gust'}")
        plant = DoubleIntegrator()
    else:
        raise ValueError(f"unknown plant {cfg.plant!r}")
    traj = trajectories.from_config(cfg.trajectory)
    impulse = settings.read("impulse", disturbances["impulse"], ImpulseSpec) if "impulse" in disturbances else None
    return controller, plant, traj, impulse


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    series: dict
    report: metrics.MetricsReport
    controller: object


def _empty_column(name: str) -> array | list:
    return [] if name in INT_COLUMNS else array("d")


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> ExperimentResult:
    """Run ``cfg`` step by step; ``series`` holds its step-log columns, each packed as the module says.

    The metrics are taken once the loop has ended: a numpy view of a column
    pins its buffer, and an append to a pinned ``array`` raises ``BufferError``.
    """
    controller, plant, traj, impulse = build(cfg)

    cols = {c: _empty_column(c) for c in (*STEP_COLUMNS, *controller.log_columns)}
    add_t, add_y_r, add_y, add_e, add_u = (cols[c].append for c in STEP_COLUMNS)
    add_cells = [cols[c].append for c in controller.log_columns]
    dt = cfg.dt
    cause = None
    try:
        for i in range(cfg.n_steps):
            t = i * dt
            y_r = trajectories.reference(traj, t)
            y = plant.output()
            if not math.isfinite(y):
                raise FloatingPointError("plant output diverged")
            if impulse is not None:
                y += impulse_noise(t, impulse)
            # a step is logged only once its controller step has returned
            u, cells = controller.step(y, y_r, dt)
            add_t(t)
            add_y_r(y_r)
            add_y(y)
            add_e(y_r - y)
            add_u(u)
            for add, cell in zip(add_cells, cells):
                add(cell)
            plant.step(u, dt)
    except FloatingPointError as exc:
        cause = exc

    rep = metrics.report(cols["y"], cols["y_r"], dt, final_rule_count=controller.rule_count)
    result = ExperimentResult(cfg, cols, rep, controller)

    if out_dir is not None:
        write_outputs(result, Path(out_dir))
    if cause is not None:
        raise DivergenceError(f"{cfg.name}: diverged at step {len(cols['t'])}: {cause}") from cause
    return result


# rows per block of the step-log codec: columns are converted a block at a
# time, so the memory a log takes beyond its series stays bounded
_BLOCK_ROWS = 100


def write_step_csv(result: ExperimentResult, path: Path) -> None:
    """Header row of the series' names, then one CRLF-ended row per step: the bytes
    ``csv.writer`` writes for these cells.

    A float or int ``repr`` holds no comma, quote or line end, so no cell needs quoting.
    """
    series = list(result.series.values())
    n = len(series[0])
    if any(len(values) != n for values in series):
        raise ValueError(f"{path}: step-log columns differ in length")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(result.series) + "\r\n")
        for start in range(0, n, _BLOCK_ROWS):
            cells = [list(map(repr, values[start : start + _BLOCK_ROWS])) for values in series]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def read_step_csv(path) -> dict:
    """Series of a step log by column name, in header order, packed as ``run_experiment``
    packs them: ``R`` a list of int, every other column an ``array('d')``.

    Reads CRLF and LF line ends alike. The header must name the harness's
    ``STEP_COLUMNS``; an empty or unreadable cell is a malformed log.
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        missing = [c for c in STEP_COLUMNS if c not in header]
        if missing:
            raise ValueError(f"{path}: no column {missing[0]!r} in the header")
        cols = {c: _empty_column(c) for c in header}
        if len(cols) != len(header):
            raise ValueError(f"{path}: the header names a column twice")
        converters = [(cols[c].extend, int if c in INT_COLUMNS else float) for c in header]
        while True:
            rows = [line.rstrip("\n").split(",") for line in islice(fh, _BLOCK_ROWS)]
            if not rows:
                break
            if set(map(len, rows)) != {len(header)}:
                raise ValueError(f"{path}: a row does not have the {len(header)} cells of the header")
            try:
                for (extend, convert), cells in zip(converters, zip(*rows)):
                    extend(map(convert, cells))
            except ValueError as exc:
                raise ValueError(f"{path}: malformed cell: {exc}") from exc
    return cols


def read_suite(path) -> list[ExperimentConfig]:
    """The experiments of a YAML config file, each checked and built before any of them runs.

    The top level is one experiment's mapping, or holds ``experiments:`` alone, a
    non-empty list of such mappings. A YAML error, a bad top level and a repeated
    name each raise a ValueError that names the file; a bad experiment names itself.
    """
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
        if not isinstance(data, dict):
            raise ValueError("expected a mapping at the top level")
        raw_list = settings.section("suite", data, ("experiments",))["experiments"] if "experiments" in data else [data]
        if not (isinstance(raw_list, list) and all(isinstance(raw, dict) for raw in raw_list)):
            raise ValueError("experiments must be a list of mappings")
        if not raw_list:
            raise ValueError("experiments is empty, so the suite would run nothing")
    except (yaml.YAMLError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    configs = [ExperimentConfig.from_dict(raw) for raw in raw_list]
    try:
        check_names(configs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return configs


def write_outputs(result: ExperimentResult, out_dir: Path) -> None:
    """``<name>_steps.csv`` in ``out_dir``, then the files the controller writes there itself."""
    name = result.config.name
    write_step_csv(result, out_dir / f"{name}_steps.csv")
    result.controller.write_artifacts(out_dir, name)


def summary_row(result: ExperimentResult) -> dict:
    cfg = result.config
    row = {
        "name": cfg.name,
        "plant": cfg.plant,
        "trajectory": cfg.trajectory if isinstance(cfg.trajectory, str) else cfg.trajectory.get("kind"),
        "controller": cfg.controller,
    }
    row.update(result.report.as_row())
    return row


def write_summary_csv(rows: list[dict], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def check_names(experiments: list[ExperimentConfig]) -> None:
    """Raise ValueError when two experiments share a name.

    Each experiment writes ``<name>_steps.csv``, so a repeated name would
    overwrite an earlier run's files; the names are compared as they spell
    the file names, so 1 and "1" repeat.
    """
    names = [str(cfg.name) for cfg in experiments]
    repeated = next((name for i, name in enumerate(names) if name in names[:i]), None)
    if repeated is not None:
        raise ValueError(f"experiment name {repeated!r} appears more than once")


def run_suite(experiments: list[ExperimentConfig], out_dir: str | Path) -> list[ExperimentResult]:
    check_names(experiments)  # before the first run writes a file
    out_dir = Path(out_dir)
    results = []
    failures = []
    for cfg in experiments:
        try:
            results.append(run_experiment(cfg, out_dir=out_dir))
        except DivergenceError as exc:
            failures.append(str(exc))
    write_summary_csv([summary_row(result) for result in results], out_dir / "summary.csv")
    if failures:
        raise DivergenceError("; ".join(failures))
    return results
