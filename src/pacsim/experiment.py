"""Experiment runner: wires a trajectory, a controller and a plant into the
fixed-step loop, logs per-step series to CSV and reduces them to metrics.

Loop order per step: read the reference, apply measurement disturbance, step
the controller, log the step, step the plant (which advances its gust).

A step's row holds the harness's ``STEP_COLUMNS``, which every run has, then
the cells the controller returns for its own ``log_columns``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields, replace
from itertools import islice
from pathlib import Path

from . import metrics, trajectories
from .controller import ControllerConfig, ControllerFault, ParsimoniousController
from .pid import PidConfig, PidController
from .plants import BiFwmav, DoubleIntegrator, GustSpec, Hexacopter, ImpulseSpec
from .plants.disturbances import impulse_noise
from .plants.flapping import DEFAULT_INERTIA
from .plants.rigid_body import InertiaSet

STEP_COLUMNS = ("t", "y_r", "y", "e", "u")
SUMMARY_COLUMNS = ["name", "plant", "trajectory", "controller", *(f.name for f in fields(metrics.MetricsReport))]


DISTURBANCE_KEYS = {"gust", "impulse"}
PLANT_KEYS = {"inertia"}  # the vehicles' other constants are fixed in their plant modules


class DivergenceError(RuntimeError):
    """Simulation produced a non-finite value; a partial log was written."""


@dataclass
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
        # every part is built once here, so a bad name stops the config, not a suite halfway through
        try:
            self._check()
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{self.name}: {exc}") from exc

    def _check(self) -> None:
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, not {self.dt!r}")
        if not 0 <= self.duration < math.inf:
            raise ValueError(f"duration must be non-negative and finite, not {self.duration!r}")
        steps = self.duration / self.dt
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("duration must be an integer number of steps")
        for key, valid in (("disturbances", DISTURBANCE_KEYS), ("plant_params", PLANT_KEYS)):
            value = getattr(self, key)
            if not isinstance(value, dict):
                raise ValueError(f"{key} must be a mapping, not {value!r}")
            unknown = set(value) - valid
            if unknown:
                raise ValueError(f"unknown {key} keys: {sorted(unknown)}")
        # only the hexacopter has attitude channels; the other plants fly altitude
        if self.channel != "altitude" and self.plant != "hexacopter":
            raise ValueError(f"channel {self.channel!r} needs plant 'hexacopter', not {self.plant!r}")
        # the impulse acts on the measurement, so it stays valid on every plant
        if self.plant == "double_integrator":
            for key, value in (("plant_params", self.plant_params), ("gust", self.disturbances.get("gust"))):
                if value:
                    raise ValueError(f"plant 'double_integrator' takes no {key}")
        build(self)

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.dt))

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        known = {f for f in ExperimentConfig.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"{raw.get('name', 'experiment')}: unknown config keys: {sorted(unknown)}")
        return ExperimentConfig(**raw)


# name -> (config class, controller class); the harness reads step, log_columns, rule_count and write_artifacts
CONTROLLERS = {"pac": (ControllerConfig, ParsimoniousController), "pid": (PidConfig, PidController)}


def build_controller(cfg: ExperimentConfig):
    if cfg.controller not in CONTROLLERS:
        raise ValueError(f"unknown controller {cfg.controller!r}")
    config_cls, controller_cls = CONTROLLERS[cfg.controller]
    return controller_cls(config_cls(**cfg.controller_params))


def build_plant(cfg: ExperimentConfig):
    # a partial inertia takes its missing fields from the plant's own default
    inertia = cfg.plant_params.get("inertia", {})
    gust = cfg.disturbances.get("gust")
    gust = GustSpec(**gust) if gust else None
    if cfg.plant == "hexacopter":
        return Hexacopter(InertiaSet(**inertia), channel=cfg.channel, gust=gust)
    if cfg.plant == "bifwmav":
        return BiFwmav(replace(DEFAULT_INERTIA, **inertia), gust=gust)
    if cfg.plant == "double_integrator":
        return DoubleIntegrator()
    raise ValueError(f"unknown plant {cfg.plant!r}")


def build(cfg: ExperimentConfig) -> tuple:
    """The controller, plant, trajectory and measurement impulse (None without one) that ``cfg`` runs."""
    impulse = cfg.disturbances.get("impulse")
    return (
        build_controller(cfg),
        build_plant(cfg),
        trajectories.from_config(cfg.trajectory),
        ImpulseSpec(**impulse) if impulse else None,
    )


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    series: dict
    report: metrics.MetricsReport
    controller: object


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> ExperimentResult:
    controller, plant, traj, impulse = build(cfg)

    cols: dict[str, list] = {c: [] for c in (*STEP_COLUMNS, *controller.log_columns)}
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
    except (ControllerFault, FloatingPointError) as exc:
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
_BLOCK_ROWS = 1000


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
    """Series of a step log by column name, in header order; ``R`` as int, every other column as float.

    Reads CRLF and LF line ends alike. The header must name the harness's
    ``STEP_COLUMNS``; an empty or unreadable cell is a malformed log.
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        missing = [c for c in STEP_COLUMNS if c not in header]
        if missing:
            raise ValueError(f"{path}: no column {missing[0]!r} in the header")
        cols: dict[str, list] = {c: [] for c in header}
        if len(cols) != len(header):
            raise ValueError(f"{path}: the header names a column twice")
        converters = [(cols[c].extend, int if c == "R" else float) for c in header]
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


def run_suite(experiments: list[ExperimentConfig], out_dir: str | Path) -> list[ExperimentResult]:
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
