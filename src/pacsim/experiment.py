"""Experiment runner: wires a trajectory, a controller and a plant into the
fixed-step loop, logs per-step series to CSV and reduces them to metrics.

Loop order per step: read the reference, apply measurement disturbance, step
the controller, advance the gust, step the plant, log.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from itertools import islice
from pathlib import Path

from . import metrics, trajectories
from .controller import ControllerConfig, ControllerFault, ParsimoniousController
from .palm import save_rules
from .pid import PidConfig, PidController
from .plants import BiFwmav, DoubleIntegrator, GustSpec, Hexacopter, ImpulseSpec
from .plants.disturbances import impulse_noise
from .plants.flapping import DEFAULT_INERTIA
from .plants.rigid_body import InertiaSet

STEP_COLUMNS = ["t", "y_r", "y", "e", "s_l", "u_src", "u_palm", "u", "R", "bias", "variance"]
SUMMARY_COLUMNS = [
    "name",
    "plant",
    "trajectory",
    "controller",
    "rmse",
    "rise_time_ms",
    "settling_time_ms",
    "peak",
    "final_rule_count",
]


DISTURBANCE_KEYS = {"gust", "impulse"}
OUTPUT_KEYS = {"steps_csv", "events_txt", "rules_txt"}
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
    outputs: dict = field(default_factory=dict)

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
        for key, valid in (("disturbances", DISTURBANCE_KEYS), ("outputs", OUTPUT_KEYS), ("plant_params", PLANT_KEYS)):
            unknown = set(getattr(self, key)) - valid
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
        build_controller(self)
        build_plant(self)
        trajectories.from_config(self.trajectory)
        _impulse(self)

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


def build_controller(cfg: ExperimentConfig):
    params = dict(cfg.controller_params)
    if cfg.controller == "pac":
        return ParsimoniousController(ControllerConfig(**params))
    if cfg.controller == "pid":
        return PidController(PidConfig(**params))
    raise ValueError(f"unknown controller {cfg.controller!r}")


def _gust(cfg: ExperimentConfig) -> GustSpec | None:
    raw = cfg.disturbances.get("gust")
    return GustSpec(**raw) if raw else None


def _impulse(cfg: ExperimentConfig) -> ImpulseSpec | None:
    raw = cfg.disturbances.get("impulse")
    return ImpulseSpec(**raw) if raw else None


def build_plant(cfg: ExperimentConfig):
    # a partial inertia takes its missing fields from the plant's own default
    inertia = cfg.plant_params.get("inertia", {})
    gust = _gust(cfg)
    if cfg.plant == "hexacopter":
        return Hexacopter(InertiaSet(**inertia), channel=cfg.channel, gust=gust)
    if cfg.plant == "bifwmav":
        return BiFwmav(replace(DEFAULT_INERTIA, **inertia), gust=gust)
    if cfg.plant == "double_integrator":
        return DoubleIntegrator()
    raise ValueError(f"unknown plant {cfg.plant!r}")


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    series: dict
    report: metrics.MetricsReport
    controller: object


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> ExperimentResult:
    controller = build_controller(cfg)
    plant = build_plant(cfg)
    traj = trajectories.from_config(cfg.trajectory)
    impulse = _impulse(cfg)

    cols: dict[str, list] = {c: [] for c in STEP_COLUMNS}
    add_t, add_y_r, add_y, add_e, add_s_l, add_u_src, add_u_palm, add_u, add_R, add_bias, add_variance = (
        cols[c].append for c in STEP_COLUMNS
    )
    pac = isinstance(controller, ParsimoniousController)
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
            if pac:
                u, diag = controller.step(y, y_r, dt)
                add_bias(diag.bias)
                add_e(diag.e)
                add_s_l(diag.s_l)
                add_u_src(diag.u_src)
                add_u_palm(diag.u_palm)
                add_R(controller.rule_count)
                add_variance(diag.variance)
            else:
                u = controller.step(y, y_r, dt)
                add_e(y_r - y)
            add_t(t)
            add_y_r(y_r)
            add_y(y)
            add_u(u)
            plant.step(u, dt)
    except (ControllerFault, FloatingPointError) as exc:
        cause = exc
    if not pac:
        for c in ("s_l", "u_src", "u_palm", "R", "bias", "variance"):
            cols[c] = [None] * len(cols["t"])

    rep = metrics.report(cols["y"], cols["y_r"], dt, final_rule_count=controller.rule_count if pac else None)
    result = ExperimentResult(cfg, cols, rep, controller)

    if out_dir is not None:
        write_outputs(result, Path(out_dir))
    if cause is not None:
        raise DivergenceError(f"{cfg.name}: diverged at step {len(cols['t'])}: {cause}") from cause
    return result


# rows per block of the step-log codec: columns are converted a block at a
# time, so the memory a log takes beyond its series stays bounded
_BLOCK_ROWS = 1000


def _cells(values: list) -> list:
    """One column of a block as CSV cells: ``repr`` of each value, empty for None."""
    if None in values:
        return ["" if v is None else repr(v) for v in values]
    return list(map(repr, values))


def write_step_csv(result: ExperimentResult, path: Path) -> None:
    """Header row, then one CRLF-ended row per step: the bytes ``csv.writer`` writes for these cells.

    A float or int ``repr`` holds no comma, quote or line end, so no cell needs quoting.
    """
    series = [result.series[c] for c in STEP_COLUMNS]
    n = len(series[0])
    if any(len(values) != n for values in series):
        raise ValueError(f"{path}: step-log columns differ in length")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(STEP_COLUMNS) + "\r\n")
        for start in range(0, n, _BLOCK_ROWS):
            cells = [_cells(values[start : start + _BLOCK_ROWS]) for values in series]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def _values(cells: tuple, convert) -> list:
    """One column of a block read back: ``convert`` each cell, None for an empty one."""
    if "" in cells:
        return [None if v == "" else convert(v) for v in cells]
    return list(map(convert, cells))


def read_step_csv(path) -> dict:
    """Series of a step log by column name; ``R`` as int, empty cells as None.

    Reads CRLF and LF line ends alike and finds the columns by the header.
    """
    cols: dict[str, list] = {c: [] for c in STEP_COLUMNS}
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        missing = [c for c in STEP_COLUMNS if c not in header]
        if missing:
            raise ValueError(f"{path}: no column {missing[0]!r} in the header")
        index = [(cols[c].extend, header.index(c), int if c == "R" else float) for c in STEP_COLUMNS]
        while True:
            rows = [line.rstrip("\n").split(",") for line in islice(fh, _BLOCK_ROWS)]
            if not rows:
                break
            if set(map(len, rows)) != {len(header)}:
                raise ValueError(f"{path}: a row does not have the {len(header)} cells of the header")
            cells = list(zip(*rows))
            for extend, i, convert in index:
                extend(_values(cells[i], convert))
    return cols


def write_outputs(result: ExperimentResult, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = result.config
    step_path = Path(cfg.outputs.get("steps_csv", out_dir / f"{cfg.name}_steps.csv"))
    write_step_csv(result, step_path)
    controller = result.controller
    if isinstance(controller, ParsimoniousController):
        events_path = Path(cfg.outputs.get("events_txt", out_dir / f"{cfg.name}_events.txt"))
        controller.save_evolution_log(events_path)
        rules_path = cfg.outputs.get("rules_txt")
        if rules_path:
            save_rules(controller.net, Path(rules_path))


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
    rows = []
    results = []
    failures = []
    for cfg in experiments:
        try:
            result = run_experiment(cfg, out_dir=out_dir)
        except DivergenceError as exc:
            failures.append(str(exc))
            continue
        results.append(result)
        rows.append(summary_row(result))
    write_summary_csv(rows, out_dir / "summary.csv")
    if failures:
        raise DivergenceError("; ".join(failures))
    return results
