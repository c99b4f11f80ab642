import csv
import dataclasses
import itertools
import math
import re
from array import array
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from pacsim import experiment
from pacsim.cli import main
from pacsim.controller import ParsimoniousController
from pacsim.experiment import (
    MAX_STEPS,
    STEP_COLUMNS,
    DivergenceError,
    ExperimentConfig,
    build,
    read_step_csv,
    read_suite,
    run_experiment,
    run_suite,
    summary_row,
    write_step_csv,
)
from pacsim.stats import wilcoxon_signed_rank

PAC_PARAMS = {
    "gamma": 3e-3,
    "weight_limit": 10.0,
    "actuator_limit": 20.0,
    "sat_limit": 10.0,
    "alphas": [0.5, 0.5, 0.01],
}

PID_HEXA = {"kp": 0.675, "ki": 0.05, "kd": 0.81, "output_limits": [-20.0, 20.0]}

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def hexa_config(**overrides):
    base = dict(
        name="hexa_pac",
        plant="hexacopter",
        channel="altitude",
        controller="pac",
        trajectory="hexacopter_constant",
        duration=100.0,
        dt=0.01,
        controller_params=dict(PAC_PARAMS),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_zero_duration_run_is_empty_and_undefined():
    cfg = hexa_config(name="zero", duration=0.0)
    result = run_experiment(cfg)
    assert result.series["t"] == array("d")
    assert result.report.rmse is None
    assert result.report.rise_time_ms is None


def test_pid_on_hexacopter_populates_all_metrics():
    cfg = hexa_config(name="hexa_pid", controller="pid", controller_params=dict(PID_HEXA))
    result = run_experiment(cfg)
    rep = result.report
    assert rep.rmse is not None and rep.rmse < 1.5
    assert rep.rise_time_ms is not None
    assert rep.settling_time_ms is not None
    assert rep.peak is not None
    assert rep.final_rule_count is None
    # metric oracles from this module agree with the summary row
    row = summary_row(result)
    assert row["rmse"] == rep.rmse


def test_same_config_twice_is_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg = hexa_config(name="det", duration=20.0)
    run_experiment(cfg, out_dir=out_a)
    cfg2 = hexa_config(name="det", duration=20.0)
    run_experiment(cfg2, out_dir=out_b)
    assert (out_a / "det_steps.csv").read_bytes() == (out_b / "det_steps.csv").read_bytes()
    assert (out_a / "det_events.txt").read_bytes() == (out_b / "det_events.txt").read_bytes()


def _csv_writer_step_log(series: dict, path: Path) -> None:
    # the cell-by-cell csv.writer step-log writer that the column-wise codec replaced: the byte oracle
    def fmt(v):
        if isinstance(v, float):
            return repr(v)
        return str(v)

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(series)
        for i in range(len(series["t"])):
            writer.writerow([fmt(values[i]) for values in series.values()])


def _assert_packed(cols: dict) -> None:
    # every float column packed at 8 B a cell; R a list of int (3 == 3.0, so equality alone would pass floats)
    for name, values in cols.items():
        if name == "R":
            assert type(values) is list and all(type(r) is int for r in values), name
        else:
            assert type(values) is array and values.typecode == "d" and values.itemsize == 8, name


def test_step_csv_round_trip(tmp_path):
    # a PAC and a PID log one row short of a codec block, exactly one block, and one row into the second
    for controller, params in (("pac", PAC_PARAMS), ("pid", PID_HEXA)):
        for rows in (999, 1000, 1001):
            case = f"{controller}-{rows}"
            cfg = hexa_config(name=case, controller=controller, controller_params=dict(params), duration=rows * 0.01)
            result = run_experiment(cfg, out_dir=tmp_path)
            assert len(result.series["t"]) == rows, case
            path = tmp_path / f"{case}_steps.csv"
            _csv_writer_step_log(result.series, tmp_path / f"{case}_oracle.csv")
            assert path.read_bytes() == (tmp_path / f"{case}_oracle.csv").read_bytes(), case
            # each controller logs the harness's columns, then its own
            columns = [*STEP_COLUMNS, *experiment.CONTROLLERS[controller][1].log_columns]
            assert list(result.series) == columns, case
            assert path.read_text().splitlines()[0] == ",".join(columns), case
            cols = read_step_csv(path)
            assert list(cols) == columns, case
            for key in columns:
                assert cols[key] == result.series[key], (case, key)
            _assert_packed(result.series)
            _assert_packed(cols)
    # a PID log holds the five harness columns alone
    assert list(read_step_csv(tmp_path / "pid-999_steps.csv")) == ["t", "y_r", "y", "e", "u"]


def _edge_series() -> dict:
    # float reprs a writer could get wrong, in the columns of a PAC log
    edge = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7, 0.1, math.inf, -math.inf, math.nan, 1.7976931348623157e308]
    n = len(edge)
    series = {c: [float(i) for i in range(n)] for c in (*STEP_COLUMNS, *ParsimoniousController.log_columns)}
    series["y"] = edge
    series["u"] = edge[::-1]
    series["R"] = [1, 2, 95, 10**20, 0, 3, 4, 5, 6, 7, 8]
    series["bias"] = edge[3:] + edge[:3]
    return series


def test_step_csv_bytes_match_csv_writer_on_edge_values(tmp_path):
    series = _edge_series()
    write_step_csv(SimpleNamespace(series=series), tmp_path / "log.csv")
    _csv_writer_step_log(series, tmp_path / "oracle.csv")
    assert (tmp_path / "log.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    cols = read_step_csv(tmp_path / "log.csv")
    # repr tells -0.0 from 0.0 and matches nan with nan
    assert {c: [repr(v) for v in values] for c, values in cols.items()} == {
        c: [repr(v) for v in values] for c, values in series.items()
    }


def test_step_csv_empty_log_is_the_header(tmp_path):
    write_step_csv(SimpleNamespace(series={c: [] for c in STEP_COLUMNS}), tmp_path / "log.csv")
    assert (tmp_path / "log.csv").read_bytes() == (",".join(STEP_COLUMNS) + "\r\n").encode()
    assert read_step_csv(tmp_path / "log.csv") == {c: array("d") for c in STEP_COLUMNS}


def test_step_csv_reads_lf_line_ends(tmp_path):
    series = _edge_series()
    write_step_csv(SimpleNamespace(series=series), tmp_path / "crlf.csv")
    lf = tmp_path / "lf.csv"
    lf.write_bytes((tmp_path / "crlf.csv").read_bytes().replace(b"\r\n", b"\n"))
    assert b"\r" not in lf.read_bytes()
    assert repr(read_step_csv(lf)) == repr(read_step_csv(tmp_path / "crlf.csv"))


def test_step_csv_rejects_unequal_columns(tmp_path):
    series = _edge_series()
    series["e"] = series["e"][:-1]
    with pytest.raises(ValueError, match="length"):
        write_step_csv(SimpleNamespace(series=series), tmp_path / "log.csv")


def test_step_csv_missing_column_or_cell_raises(tmp_path):
    write_step_csv(SimpleNamespace(series=_edge_series()), tmp_path / "log.csv")
    lines = (tmp_path / "log.csv").read_text().splitlines()
    # drop the "u" column from the header and from every row
    drop = lines[0].split(",").index("u")
    no_u = tmp_path / "no_u.csv"
    no_u.write_text("\n".join(",".join(c for i, c in enumerate(line.split(",")) if i != drop) for line in lines))
    with pytest.raises(ValueError, match="'u'"):
        read_step_csv(no_u)
    # a column named twice would gather both columns' cells into one series
    twice = tmp_path / "twice.csv"
    twice.write_text("\n".join([lines[0] + ",u"] + [line + ",1.0" for line in lines[1:]]) + "\n")
    with pytest.raises(ValueError, match="twice"):
        read_step_csv(twice)
    # one row loses its last cell
    short = tmp_path / "short.csv"
    short.write_text("\n".join(lines[:3] + [lines[3].rsplit(",", 1)[0]] + lines[4:]) + "\n")
    with pytest.raises(ValueError, match="cells"):
        read_step_csv(short)


@pytest.mark.parametrize("column", ["y", "R", "bias"])
def test_step_csv_empty_cell_is_malformed(tmp_path, capsys, column):
    # no step log has an empty cell, so one is a damaged log, not a missing value
    write_step_csv(SimpleNamespace(series=_edge_series()), tmp_path / "good.csv")
    lines = (tmp_path / "good.csv").read_text().splitlines()
    i = lines[0].split(",").index(column)
    row = lines[4].split(",")
    row[i] = ""
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines[:4] + [",".join(row)] + lines[5:]) + "\n")
    with pytest.raises(ValueError) as info:
        read_step_csv(bad)
    assert str(info.value).startswith(f"{bad}: malformed cell")
    assert main(["compare", str(tmp_path / "good.csv"), str(bad)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"INPUT ERROR: {bad}: malformed cell")


def test_unknown_config_key_rejected():
    # "seed" was a config key once; a stale one must fail like any other
    for key in ("bogus", "seed"):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"name": "x", "plant": "hexacopter", key: 1})


@pytest.mark.parametrize("raw", [[1, 2], None, "x"], ids=["list", "none", "str"])
def test_from_dict_rejects_a_non_mapping(raw):
    # a non-mapping has no name to prefix the message with; it gets the section rule's own message
    with pytest.raises(ValueError, match=f"^{re.escape(f'config must be a mapping, not {raw!r}')}$"):
        ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize("plant, channel", [("bifwmav", "roll"), ("bifwmav", "pitch"), ("double_integrator", "roll")])
def test_attitude_channel_needs_hexacopter(plant, channel):
    # the other plants fly altitude only and would track the attitude reference with it
    with pytest.raises(ValueError, match="channel"):
        ExperimentConfig(plant=plant, channel=channel)


def test_double_integrator_rejects_plant_params():
    with pytest.raises(ValueError, match="plant_params"):
        ExperimentConfig(plant="double_integrator", plant_params={"inertia": {"m": 2.0}})


def test_double_integrator_rejects_gust_but_keeps_impulse():
    gust = {"v_m": 4.0, "d_m": 120.0, "onset_time": 2.0}
    impulse = {"amplitude": 2.0, "start": 5.0, "duration": 0.1}
    with pytest.raises(ValueError, match="gust"):
        ExperimentConfig(plant="double_integrator", disturbances={"gust": gust, "impulse": impulse})
    # the impulse acts on the measurement, so every plant takes it
    for plant in ("hexacopter", "bifwmav", "double_integrator"):
        ExperimentConfig(plant=plant, disturbances={"impulse": impulse})


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("disturbances", {"impuls": {}}, r"^x: unknown disturbances keys: \['impuls'\]$"),
        # a run's files all go to the output directory: outputs is a stale top-level key
        ("outputs", {"steps_csv": "s.csv"}, r"^x: unknown config keys: \['outputs'\]$"),
    ],
    ids=["disturbances", "outputs"],
)
def test_unknown_disturbance_or_output_key_rejected(key, value, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_dict({"name": "x", key: value})


def test_cli_outputs_key_is_one_config_error(tmp_path, capsys):
    raw = dict(name="stale", plant="double_integrator", duration=1.0, outputs={"rules_txt": str(tmp_path / "rules.txt")})
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(raw))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["CONFIG ERROR: stale: unknown config keys: ['outputs']"]
    assert not out.exists()


def test_stale_flap_param_rejected():
    # time_step was a flapping-MAV parameter that no step read
    with pytest.raises(ValueError, match="time_step"):
        ExperimentConfig(plant="bifwmav", plant_params={"time_step": 0.001})


@pytest.mark.parametrize("plant, key", [("hexacopter", "thrust_gain"), ("bifwmav", "amplitude_gain")])
def test_vehicle_constant_is_not_a_plant_param(plant, key):
    # inertia is the one plant setting; the other vehicle constants are fixed in the plant modules
    with pytest.raises(ValueError, match=rf"^fixed: unknown plant_params keys: \['{key}'\]"):
        ExperimentConfig(name="fixed", plant=plant, plant_params={key: 0.24})


@pytest.mark.parametrize("plant, trim", [("hexacopter", "hover_trim"), ("bifwmav", "lift_gain")])
def test_plant_inertia_mass_reaches_the_plant(plant, trim):
    default = build(ExperimentConfig(plant=plant))[1]
    mass = 1.2 * default.inertia.m
    heavy = build(ExperimentConfig(plant=plant, plant_params={"inertia": {"m": mass}}))[1]
    assert heavy.inertia.m == mass
    # the hover trim (N) and the lift gain (N/rad) carry the weight at u = 0, so both scale with m
    assert getattr(heavy, trim) == pytest.approx(1.2 * getattr(default, trim), rel=1e-15)
    for _ in range(100):
        heavy.step(0.0, 0.01)
    assert abs(heavy.output()) < 1e-3


@pytest.mark.parametrize("plant", ["hexacopter", "bifwmav"])
def test_partial_inertia_keeps_the_plant_default_moments(plant):
    # the missing fields come from the plant's own default, not from InertiaSet's (the hexacopter's)
    default = build(ExperimentConfig(plant=plant))[1].inertia
    heavy = build(ExperimentConfig(plant=plant, plant_params={"inertia": {"m": 1.2 * default.m}}))[1].inertia
    assert heavy == dataclasses.replace(default, m=1.2 * default.m)
    if plant == "bifwmav":
        assert heavy.i_x == 6e-4


@pytest.mark.parametrize("plant", ["hexacopter", "bifwmav"])
@pytest.mark.parametrize("inertia", [{"m": math.nan}, {"i_xz": math.inf}, {"i_y": -math.inf}], ids=["m", "i_xz", "i_y"])
def test_cli_non_finite_inertia_is_one_config_error(tmp_path, capsys, plant, inertia):
    raw = dict(name="bad", plant=plant, plant_params={"inertia": inertia}, duration=1.0)
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(raw))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    (key,) = inertia
    assert err[0].startswith(f"CONFIG ERROR: bad: inertia {key} must be finite and a real number, not ")
    assert not out.exists()


@pytest.mark.parametrize(
    "section, value, key",
    [
        ("plant_params", {"thrust_gian": 5.0}, "thrust_gian"),
        ("controller_params", {"gamma": 1.0, "gama": 2.0}, "gama"),
        ("trajectory", "hexacopter_constnat", "hexacopter_constnat"),
        ("disturbances", {"impulse": {"amplitude": 2.0, "start": 5.0, "lenght": 0.1}}, "lenght"),
        ("disturbances", {"gust": {"v_m": 4.0, "onset": 2.0}}, "onset"),
        # eta was a controller setting once; a stale one fails like a typo
        ("controller_params", {"eta": 5.0}, "eta"),
    ],
)
def test_bad_part_name_rejected_at_construction(section, value, key):
    with pytest.raises(ValueError, match=f"^typo: .*{key}"):
        ExperimentConfig(name="typo", **{section: value})


@pytest.mark.parametrize(
    "key, value", [("dt", -0.01), ("dt", 0.0), ("dt", math.inf), ("duration", -5.0), ("duration", math.inf)]
)
def test_nonpositive_step_or_negative_duration_rejected(key, value):
    with pytest.raises(ValueError, match=f"^bad_time: {key} must be"):
        ExperimentConfig(name="bad_time", **{key: value})


_SHORT_RUN = dict(plant="double_integrator", trajectory={"kind": "constant", "level": 1.0}, duration=1.0)


_BAD_EXPERIMENTS = {
    # the misspelled plant parameter keeps the bare command as its id
    "": (
        [{**_SHORT_RUN, "name": "second", "plant": "hexacopter", "plant_params": {"thrust_gian": 5.0}}],
        "second: unknown plant_params keys: ['thrust_gian']",
    ),
    "entry_not_a_mapping-": ([[1, 2]], "suite.yaml: experiments must be a list of mappings"),
    "experiments_not_a_list-": (5, "suite.yaml: experiments must be a list of mappings"),
    # a run that could never end
    "endless-": (
        [{**_SHORT_RUN, "name": "second", "duration": 1.0e300}],
        "second: duration is 1e+302 steps, above the limit of 10000000",
    ),
}


@pytest.mark.parametrize(
    "command, experiments, want",
    [
        pytest.param(command, *case, id=prefix + command)
        for prefix, case in _BAD_EXPERIMENTS.items()
        for command in ("run", "suite")
    ],
)
def test_cli_config_error_is_one_line_before_any_run(tmp_path, capsys, command, experiments, want):
    # a suite file puts the bad entry between two good experiments; a run file holds it alone
    if command == "suite" and isinstance(experiments, list):
        experiments = [{**_SHORT_RUN, "name": "first"}, *experiments, {**_SHORT_RUN, "name": "third"}]
    path = tmp_path / "suite.yaml"
    path.write_text(yaml.safe_dump({"experiments": experiments}))
    out = tmp_path / "out"
    assert main([command, str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("CONFIG ERROR: ") and err[0].endswith(want)
    assert not out.exists()  # no step log, no summary


@pytest.mark.parametrize("command", ["run", "suite"])
@pytest.mark.parametrize(
    "top, want",
    [
        # a key beside experiments: was dropped, so this suite ran at dt 0.01
        ({"dt": 0.005, "experiments": [{**_SHORT_RUN, "name": "a"}]}, "unknown suite keys: ['dt']"),
        ({"grid": {"dt": [0.01, 0.005]}, "experiments": [{**_SHORT_RUN, "name": "a"}]}, "unknown suite keys: ['grid']"),
        # an empty suite wrote a summary.csv of its header alone and exited 0
        ({"experiments": []}, "experiments is empty, so the suite would run nothing"),
    ],
    ids=["stray_key", "grid", "empty"],
)
def test_cli_bad_suite_top_level_is_one_config_error(tmp_path, capsys, command, top, want):
    path = tmp_path / "suite.yaml"
    path.write_text(yaml.safe_dump(top))
    out = tmp_path / "out"
    assert main([command, str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"CONFIG ERROR: {path}: {want}"]
    assert not out.exists()


def test_read_suite_names_the_file_of_a_yaml_error(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text("name: [unclosed")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: while parsing "):
        read_suite(path)


@pytest.mark.parametrize("names, repeated", [(("a", "b", "a"), "a"), ((1, "b", "1"), "1")], ids=["same", "int_and_str"])
def test_cli_repeated_experiment_name_is_one_config_error(tmp_path, capsys, names, repeated):
    # the second run of a name would overwrite the first one's step log while summary.csv kept both rows
    experiments = [{**_SHORT_RUN, "name": name} for name in names]
    path = tmp_path / "suite.yaml"
    path.write_text(yaml.safe_dump({"experiments": experiments}))
    out = tmp_path / "out"
    assert main(["suite", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"CONFIG ERROR: {path}: experiment name {repeated!r} appears more than once"]
    assert not out.exists()


@pytest.mark.parametrize("names, repeated", [(("a", "b", "a"), "a"), ((1, "b", "1"), "1")], ids=["same", "int_and_str"])
def test_suite_with_a_repeated_name_raises_before_any_file(tmp_path, names, repeated):
    # the second run of a name overwrote the first one's step log, and summary.csv held both rows
    configs = [ExperimentConfig(**{**_SHORT_RUN, "name": name}) for name in names]
    with pytest.raises(ValueError, match=f"^experiment name {repeated!r} appears more than once$"):
        run_suite(configs, tmp_path / "out")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["run", "suite"])
@pytest.mark.parametrize("name", ["../escaped", "sub/name", "sub\\name", "", ".", ".."])
def test_cli_name_that_is_no_plain_file_name_is_one_config_error(tmp_path, capsys, command, name):
    # the name spells <name>_steps.csv, _events.txt and _rules.txt in --out; "../escaped" wrote them beside the config
    path = tmp_path / "suite.yaml"
    path.write_text(yaml.safe_dump({"experiments": [{**_SHORT_RUN, "name": name}]}))
    out = tmp_path / "out"
    assert main([command, str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"CONFIG ERROR: {name}: experiment name {name!r} must be a plain file name"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["suite.yaml"]


def test_integer_experiment_name_stays_valid(tmp_path):
    result = run_experiment(ExperimentConfig(name=1, **_SHORT_RUN), out_dir=tmp_path)
    assert result.config.name == 1
    assert (tmp_path / "1_steps.csv").exists()


_STALE = "unknown controller_params keys: {!r}"
_ALPHAS = "alphas takes three values, each a real number: alpha1 and alpha2 must be positive and alpha3 non-negative, all finite,"


@pytest.mark.parametrize(
    "controller, params, key",
    [
        ("pac", {"weight_limit": -1.0}, "weight_limit"),
        ("pac", {"sat_limit": float("nan")}, "sat_limit"),
        ("pac", {"actuator_limit": -2.5}, "actuator_limit"),
        # the sliding coefficients are fixed: a config that still sets their self-evolution fails
        ("pac", {"learn_rates": [0.1, 0.5, 0.001]}, _STALE.format(["learn_rates"])),
        ("pac", {"alphas": [0.5, 0.5, 0.01], "alpha_max": [0.5, 0.5, 0.01]}, _STALE.format(["alpha_max"])),
        ("pid", {"kp": 1.0, "output_limits": [2.5, -2.5]}, "output_limits"),
        ("pac", {"alphas": [math.nan, 1e-3, 1e-9]}, _ALPHAS),
        ("pac", {"alphas": [1e-2, 1e-3, -1.0]}, _ALPHAS),
        ("pac", {"gamma": math.nan}, "gamma"),
        ("pid", {"kp": math.nan}, "kp must be finite"),
        ("pac", {"evolution_enabled": "false"}, "evolution_enabled"),
        ("pac", {"gamma": True}, "gamma"),
        # one line names every unknown key, where Python's own message named the first alone
        ("pid", {"kq": 1, "kz": 2}, "unknown controller_params keys: ['kq', 'kz']"),
    ],
    ids=[
        "weight_limit",
        "sat_limit",
        "actuator_limit",
        "learn_rates",
        "alpha_max",
        "output_limits",
        "nan_alpha1",
        "negative_alpha3",
        "nan_gamma",
        "nan_kp",
        "evolution_enabled_string",
        "bool_gamma",
        "two_unknown_keys",
    ],
)
def test_cli_bad_controller_setting_is_one_config_error(tmp_path, capsys, controller, params, key):
    raw = dict(name="bad", plant="double_integrator", controller=controller, controller_params=params, duration=1.0)
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(raw))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0] == f"CONFIG ERROR: bad: {key}" or err[0].startswith(f"CONFIG ERROR: bad: {key} ")
    assert not out.exists()


@pytest.mark.parametrize(
    "section, value, key",
    [
        ("trajectory", {"kind": "sharp_steps", "levels": [], "dwell": 20.0}, "levels"),
        ("trajectory", {"kind": "sum_of_sines", "sines": [[1.0, 2.0]]}, "sines"),
        ("trajectory", {"kind": "sharp_steps", "levels": [1.0, 2.0], "dwell": 0.0}, "dwell"),
        ("trajectory", {"kind": "staircase", "step_heights": [1.0], "dwell": 0.0}, "dwell"),
        ("trajectory", {"kind": "smooth_steps", "levels": [1.0, 2.0], "dwell": 20.0, "ramp": 0.0}, "ramp"),
        ("trajectory", {"kind": "sharp_steps", "levels": [1.0, 2.0], "dwell": -0.5}, "dwell"),
        ("disturbances", {"impulse": {"amplitude": 2.0, "start": 0.5, "duration": math.nan}}, "impulse duration"),
        ("disturbances", {"gust": {"v_m": math.nan}}, "gust v_m"),
        ("trajectory", {"level": 3.0}, "trajectory"),
        ("trajectory", [["kind", "constant"], ["level", 3.0]], "trajectory"),
        ("plant_params", ["inertia"], "plant_params"),
        ("disturbances", ["gust"], "disturbances"),
        # i_x i_z - i_xz^2 = -0.0076 with the default i_x and i_z
        ("plant_params", {"inertia": {"i_xz": 0.1}}, "inertia must be positive"),
        ("dt", True, "dt"),
        ("disturbances", {"gust": {"v_m": True}}, "gust v_m"),
        ("trajectory", {"kind": "constant", "level": 1.0, "lvl": 2.0}, "unknown trajectory keys: ['lvl']"),
        # a gust key that is present must hold a gust; {} used to run with none
        ("disturbances", {"gust": {}}, "missing gust keys: ['v_m']"),
        # 1 s over the smallest subnormal step is more steps than a float holds; it escaped as an OverflowError
        ("dt", 5.0e-324, "duration must be an integer number of steps"),
    ],
    ids=[
        "empty_levels",
        "sine_pair",
        "zero_dwell",
        "zero_staircase_dwell",
        "zero_ramp",
        "negative_dwell",
        "nan_impulse",
        "nan_gust",
        "trajectory_without_kind",
        "trajectory_list",
        "plant_params_list",
        "disturbances_list",
        "inertia_not_positive_definite",
        "bool_dt",
        "bool_gust",
        "unknown_trajectory_key",
        "empty_gust",
        "subnormal_dt",
    ],
)
def test_cli_bad_trajectory_or_disturbance_is_one_config_error(tmp_path, capsys, section, value, key):
    raw = dict(name="bad", plant="hexacopter", duration=1.0, **{section: value})
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(raw))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0] == f"CONFIG ERROR: bad: {key}" or err[0].startswith(f"CONFIG ERROR: bad: {key} ")
    assert not out.exists()


_PYTHON_CALL_TEXT = (
    "unexpected keyword argument",
    "required positional argument",
    "argument after ** must be a mapping",
    "unhashable type",
)


@pytest.mark.parametrize(
    "changes",
    [
        {"controller_params": None},
        {"controller_params": {"gamma": 1.0, "kq": 1}},
        {"controller": "pid", "controller_params": {"kq": 1}},
        {"controller": "pid", "controller_params": []},
        {"plant_params": {"inertia": {"mass": 1.0}}},
        {"plant_params": {"inertia": None}},
        {"plant": "bifwmav", "plant_params": {"inertia": {"mass": 1.0}}},
        {"disturbances": {"gust": None}},
        {"disturbances": {"gust": {"v_m": 1.0, "onset": 2.0}}},
        {"disturbances": {"impulse": {}}},
        {"disturbances": {"impulse": ["amplitude", 1.0]}},
        {"trajectory": {"kind": "step"}},
        {"trajectory": {"kind": "constant", "level": 1.0, "lvl": 2.0}},
        {"trajectory": {"kind": "sum_of_sines", "sines": 5}},
        # a name is looked up by pacsim.settings, which takes a string alone
        {"controller": ["pac"]},
        {"trajectory": {"kind": ["constant"], "level": 1.0}},
        {"name": None},
        {"name": True},
    ],
)
def test_cli_config_error_never_carries_python_call_text(tmp_path, capsys, changes):
    # every section is read by pacsim.settings, so no bad key or shape reaches a constructor call
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump({**_SHORT_RUN, "name": "bad", "plant": "hexacopter", **changes}))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("CONFIG ERROR: ")
    assert not any(text in err[0] for text in _PYTHON_CALL_TEXT), err[0]
    assert not out.exists()


@pytest.mark.parametrize("text", [None, "name: [unclosed"], ids=["missing", "malformed"])
def test_cli_unreadable_config_file_is_one_line(tmp_path, capsys, text):
    path = tmp_path / "exp.yaml"
    if text is not None:
        path.write_text(text)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("CONFIG ERROR: ")


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.name)
def test_every_config_file_loads_and_builds(path):
    configs = read_suite(path)
    assert configs
    for cfg in configs:
        build(cfg)


def test_non_integer_step_count_rejected():
    with pytest.raises(ValueError):
        ExperimentConfig(duration=1.005, dt=0.01)


def test_step_count_is_at_most_max_steps():
    # the configs are only built: a run of MAX_STEPS steps would take minutes
    dt = 0.01
    assert ExperimentConfig(plant="double_integrator", duration=MAX_STEPS * dt, dt=dt).n_steps == MAX_STEPS
    with pytest.raises(ValueError, match=f"^longest: duration is {MAX_STEPS + 1} steps, above the limit of {MAX_STEPS}$"):
        ExperimentConfig(name="longest", plant="double_integrator", duration=(MAX_STEPS + 1) * dt, dt=dt)


def test_each_config_owns_its_sections():
    # the suite's rows merge one YAML anchor, whose controller_params dict they would otherwise share
    path = CONFIGS / "hexacopter_suite.yaml"
    cfgs = read_suite(path)
    for a, b in itertools.combinations(cfgs, 2):
        for key in ("trajectory", "controller_params", "plant_params", "disturbances"):
            assert getattr(a, key) is not getattr(b, key) or isinstance(getattr(a, key), str)
    first, sibling = cfgs[0], next(cfg for cfg in cfgs[1:] if cfg.controller_params == cfgs[0].controller_params)
    first.controller_params["gamma"] = 10 * first.controller_params["gamma"]
    fresh = next(cfg for cfg in read_suite(path) if cfg.name == sibling.name)
    got, want = (run_experiment(dataclasses.replace(cfg, duration=1.0)) for cfg in (sibling, fresh))
    assert got.series == want.series


def test_divergence_aborts_with_partial_log(tmp_path):
    cfg = ExperimentConfig(
        name="boom",
        plant="double_integrator",
        controller="pid",
        trajectory={"kind": "constant", "level": 1.0},
        duration=400.0,
        dt=0.01,
        controller_params={"kp": -50.0},  # positive feedback
    )
    with pytest.raises(DivergenceError):
        run_experiment(cfg, out_dir=tmp_path)
    log = tmp_path / "boom_steps.csv"
    assert log.exists()
    assert len(log.read_text().splitlines()) > 1


def test_divergence_keeps_the_cause():
    roll = next(cfg for cfg in read_suite(CONFIGS / "hexacopter_suite.yaml") if cfg.name == "hexa_roll_pid")
    # a roll PID with a huge negative gain drives the rigid body off the finite range
    cfg = dataclasses.replace(roll, duration=20.0, controller_params={"kp": -1e6})
    with pytest.raises(DivergenceError) as info:
        run_experiment(cfg)
    cause = info.value.__cause__
    assert isinstance(cause, FloatingPointError)
    assert "non-finite v" in str(cause)
    assert str(info.value).startswith("hexa_roll_pid: diverged at step ")
    assert str(info.value).endswith(f": {cause}")


def test_bias_overflow_diverges_with_partial_log(tmp_path):
    # a negative adaptation gain drives the network output past the range where its bias can be squared
    cfg = ExperimentConfig(
        name="bias_overflow",
        plant="double_integrator",
        controller="pac",
        trajectory={"kind": "constant", "level": 1.0},
        duration=100.0,
        dt=0.01,
        controller_params={"gamma": -50.0},
    )
    with pytest.raises(DivergenceError) as info:
        run_experiment(cfg, out_dir=tmp_path)
    cause = info.value.__cause__
    assert isinstance(cause, FloatingPointError)
    assert str(cause).startswith("bias signal overflowed")
    log = tmp_path / "bias_overflow_steps.csv"
    assert len(log.read_text().splitlines()) > 1


def test_controller_divergence_keeps_the_cause_and_a_partial_log(tmp_path):
    # unbounded weights under a negative gain drive the network output to inf at the control step
    cfg = ExperimentConfig(
        name="control_overflow",
        plant="double_integrator",
        controller="pac",
        trajectory={"kind": "constant", "level": 1.0},
        duration=100.0,
        dt=0.01,
        controller_params={"gamma": -50.0, "weight_limit": math.inf, "evolution_enabled": False},
    )
    with pytest.raises(DivergenceError) as info:
        run_experiment(cfg, out_dir=tmp_path)
    cause = info.value.__cause__
    assert isinstance(cause, FloatingPointError)
    assert str(cause).startswith("non-finite control at step ")
    log = tmp_path / "control_overflow_steps.csv"
    assert len(log.read_text().splitlines()) > 1


@pytest.mark.parametrize(
    "trajectory",
    [
        {"kind": "square_wave", "low": 0.0, "high": 1.0, "freq_rad_s": 1.0e308},
        {"kind": "sum_of_sines", "sines": [[1.0, 1.0e308, 0.0]]},
    ],
    ids=lambda trajectory: trajectory["kind"],
)
def test_reference_overflow_diverges_with_partial_log(tmp_path, capsys, trajectory):
    # freq * t leaves the float range at t = 1.8 s, where math.sin raised a domain error and no log was written
    path = tmp_path / "run.yaml"
    raw = dict(name="overflow", plant="double_integrator", controller="pid", duration=3.0, trajectory=trajectory)
    path.write_text(yaml.safe_dump(raw))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    cause = f"{trajectory['kind']} reference left the float range at t = 1.8"
    assert capsys.readouterr().err == f"DIVERGED: overflow: diverged at step 180: {cause}\n"
    log = read_step_csv(tmp_path / "out" / "overflow_steps.csv")
    assert list(log["t"]) == [i * 0.01 for i in range(180)]


def test_rule_snapshot_output(tmp_path):
    cfg = hexa_config(name="snap", duration=5.0)
    run_experiment(cfg, out_dir=tmp_path)
    lines = (tmp_path / "snap_rules.txt").read_text().splitlines()
    assert len(lines) >= 1
    assert lines[0].startswith("0, ")


def test_event_times_equal_step_log_times(tmp_path):
    # a GROW/PRUNE event carries the t = i * dt of the step row it happened
    # in, so events join to steps on equal times (a running sum of dt drifts:
    # 0.79000000000000048 against a row's 0.79)
    (cfg,) = [c for c in read_suite(CONFIGS / "hexacopter_suite.yaml") if c.name == "hexa_sos_pac"]
    cfg = dataclasses.replace(cfg, duration=20.0)
    result = run_experiment(cfg, out_dir=tmp_path)
    events = result.controller.events
    assert len(events) > 10
    t = result.series["t"]
    for time, _, count, _, _ in events:
        step = round(time / cfg.dt)
        assert time == t[step] == step * cfg.dt
        assert result.series["R"][step] == count
    rows = (tmp_path / "hexa_sos_pac_events.txt").read_text().splitlines()
    assert [row.split(", ")[0] for row in rows] == [f"{time:.17g}" for time, *_ in events]


def test_suite_writes_summary(tmp_path):
    configs = [
        hexa_config(name="pac_short", duration=10.0),
        hexa_config(name="pid_short", duration=10.0, controller="pid", controller_params=dict(PID_HEXA)),
    ]
    results = run_suite(configs, out_dir=tmp_path)
    assert len(results) == 2
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0] == "name,plant,trajectory,controller,rmse,rise_time_ms,settling_time_ms,peak,final_rule_count"
    assert len(summary) == 3
    # a PID run has no rule count: its last cell is empty
    assert summary[1].split(",")[-1] == str(results[0].report.final_rule_count)
    assert summary[2].endswith(",")


@dataclasses.dataclass
class _ToyConfig:
    gain: float = 1.0


class _ToyController:
    """Proportional control plus an offset, with step-log columns, a fixed rule count and a file of its own."""

    log_columns = ("p_term", "offset")
    rule_count = 7

    def __init__(self, config: _ToyConfig):
        self.config = config

    def step(self, y, y_r, dt):
        p_term = self.config.gain * (y_r - y)
        return p_term + 0.5, (p_term, 0.5)

    def write_artifacts(self, out_dir, name):
        (out_dir / f"{name}_gain.txt").write_text(f"{self.config.gain!r}\n")


def test_a_controller_plugs_in_through_the_table(tmp_path, monkeypatch):
    monkeypatch.setitem(experiment.CONTROLLERS, "toy", (_ToyConfig, _ToyController))
    cfg = ExperimentConfig(
        name="toy",
        plant="double_integrator",
        controller="toy",
        controller_params={"gain": 2.0},
        trajectory={"kind": "constant", "level": 1.0},
        duration=0.5,
    )
    result = run_experiment(cfg, out_dir=tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["toy_gain.txt", "toy_steps.csv"]
    assert (tmp_path / "toy_gain.txt").read_text() == "2.0\n"
    # the log holds the harness's columns, then the toy's own, and none of PAC's
    assert (tmp_path / "toy_steps.csv").read_text().splitlines()[0] == "t,y_r,y,e,u,p_term,offset"
    log = read_step_csv(tmp_path / "toy_steps.csv")
    assert log == result.series
    _assert_packed(result.series)
    _assert_packed(log)
    assert list(log) == ["t", "y_r", "y", "e", "u", "p_term", "offset"]
    p_term = log["p_term"]
    assert len(p_term) == 50 and list(p_term) == [2.0 * (y_r - y) for y_r, y in zip(log["y_r"], log["y"])]
    assert list(log["offset"]) == [0.5] * 50 and list(log["u"]) == [p + 0.5 for p in p_term]
    assert result.report.final_rule_count == 7
    assert summary_row(result)["controller"] == "toy"


def test_run_writes_its_files_to_the_output_directory(tmp_path):
    pac = hexa_config(name="pac", duration=2.0)
    pid = hexa_config(name="pid", duration=2.0, controller="pid", controller_params=dict(PID_HEXA))
    run_experiment(pac, out_dir=tmp_path / "pac")
    run_experiment(pid, out_dir=tmp_path / "pid")
    assert sorted(p.name for p in (tmp_path / "pac").iterdir()) == ["pac_events.txt", "pac_rules.txt", "pac_steps.csv"]
    assert [p.name for p in (tmp_path / "pid").iterdir()] == ["pid_steps.csv"]


def test_cli_run_and_compare(tmp_path, capsys):
    cfg = dict(
        name="cli_pac",
        plant="double_integrator",
        controller="pac",
        trajectory={"kind": "constant", "level": 1.0},
        duration=20.0,
        dt=0.01,
        controller_params={**PAC_PARAMS, "gamma": 1e-3, "actuator_limit": 10.0},
    )
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "cli_pac_steps.csv").exists()

    cfg2 = {**cfg, "name": "cli_pid", "controller": "pid", "controller_params": {"kp": 1.0, "kd": 2.0}}
    cfg2_path = tmp_path / "exp2.yaml"
    cfg2_path.write_text(yaml.safe_dump(cfg2))
    assert main(["run", str(cfg2_path), "--out", str(out)]) == 0

    assert main(["compare", str(out / "cli_pac_steps.csv"), str(out / "cli_pid_steps.csv")]) == 0
    captured = capsys.readouterr()
    assert "p=" in captured.out and "h=" in captured.out


_LOG_HEADER = ",".join(STEP_COLUMNS) + "\n"
_LOG_ROW = ",".join(["1"] * len(STEP_COLUMNS)) + "\n"


@pytest.mark.parametrize(
    "text", [None, "t,y_r\n0.0,1.0\n", _LOG_HEADER + _LOG_ROW * 5], ids=["missing", "malformed", "fewer-than-6-pairs"]
)
def test_cli_compare_input_error_is_one_line(tmp_path, capsys, text):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text(_LOG_HEADER + _LOG_ROW * 10)
    if text is not None:
        bad.write_text(text)
    assert main(["compare", str(good), str(bad)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("INPUT ERROR: ")


@pytest.mark.parametrize("alpha", ["2", "0", "-0.05", "nan"])
def test_cli_compare_alpha_outside_the_unit_interval_is_one_input_error(tmp_path, capsys, alpha):
    a, b = _pid_log(tmp_path, "a", 0.01, 1.0), _pid_log(tmp_path, "b", 0.01, 1.0, kp=2.0)
    assert main(["compare", str(a), str(b), "--alpha", alpha]) == 2
    assert capsys.readouterr().err == f"INPUT ERROR: alpha must lie strictly between 0 and 1, not {float(alpha)!r}\n"


def test_cli_compare_non_finite_residual_is_one_input_error(tmp_path, capsys):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text(_LOG_HEADER + _LOG_ROW * 8)
    nan_row = ",".join(["nan" if c == "y" else "1" for c in STEP_COLUMNS]) + "\n"
    bad.write_text(_LOG_HEADER + _LOG_ROW * 3 + nan_row + _LOG_ROW * 4)
    assert main(["compare", str(good), str(bad)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["INPUT ERROR: paired samples and their differences must be finite"]


def _pid_log(out: Path, name: str, dt: float, duration: float, kp: float = 1.0) -> Path:
    cfg = ExperimentConfig(
        name=name,
        plant="double_integrator",
        controller="pid",
        trajectory={"kind": "constant", "level": 1.0},
        duration=duration,
        dt=dt,
        controller_params={"kp": kp, "kd": 2.0},
    )
    try:
        run_experiment(cfg, out_dir=out)
    except DivergenceError:
        pass
    return out / f"{name}_steps.csv"


def test_cli_compare_rejects_logs_on_different_time_grids(tmp_path, capsys):
    # one config at two step sizes: row 1 is t = 0.01 in one log and t = 0.005 in the other
    coarse, fine = _pid_log(tmp_path, "coarse", 0.01, 2.0), _pid_log(tmp_path, "fine", 0.005, 2.0)
    assert main(["compare", str(coarse), str(fine)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"INPUT ERROR: the logs differ in t at step 1: 0.01 in {coarse}, 0.005 in {fine}"]


def test_cli_compare_pairs_a_partial_log_with_a_full_one(tmp_path, capsys):
    # a diverged run's log is cut short on the same grid; the two compare on the steps both hold
    full = _pid_log(tmp_path, "full", 0.01, 200.0)
    partial = _pid_log(tmp_path, "boom", 0.01, 400.0, kp=-50.0)  # positive feedback
    a, b = read_step_csv(partial), read_step_csv(full)
    n = len(a["t"])
    assert 6 <= n < len(b["t"])
    ra, rb = (np.abs(np.subtract(log["y_r"][:n], log["y"][:n])) for log in (a, b))
    want = wilcoxon_signed_rank(ra, rb)
    assert main(["compare", str(partial), str(full)]) == 0
    assert capsys.readouterr().out == f"p={want.p:.6g}, h={want.h}, W={want.w}, n={want.n}\n"


def test_cli_suite_and_divergence_exit_code(tmp_path):
    suite = {
        "experiments": [
            dict(
                name="diverges",
                plant="double_integrator",
                controller="pid",
                trajectory={"kind": "constant", "level": 1.0},
                duration=400.0,
                dt=0.01,
                controller_params={"kp": -50.0},
            )
        ]
    }
    path = tmp_path / "suite.yaml"
    path.write_text(yaml.safe_dump(suite))
    assert main(["suite", str(path), "--out", str(tmp_path / "out")]) == 1
