import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from pacsim import trajectories
from pacsim.cli import _configs_from_file, main
from pacsim.experiment import (
    DivergenceError,
    ExperimentConfig,
    build_controller,
    build_plant,
    read_step_csv,
    run_experiment,
    run_suite,
    summary_row,
    write_step_csv,
)

PAC_PARAMS = {
    "gamma": 3e-3,
    "eta": 5.0,
    "weight_limit": 10.0,
    "actuator_limit": 20.0,
    "sat_limit": 10.0,
    "learn_rates": [0.1, 0.5, 0.001],
    "alpha_max": [0.5, 0.5, 0.01],
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
    assert result.series["t"] == []
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


def test_step_csv_round_trip(tmp_path):
    cfg = hexa_config(name="rt", duration=5.0)
    result = run_experiment(cfg, out_dir=tmp_path)
    cols = read_step_csv(tmp_path / "rt_steps.csv")
    for key in ("t", "y_r", "y", "e", "u"):
        assert cols[key] == result.series[key]
    assert cols["R"] == result.series["R"]


def test_unknown_config_key_rejected():
    # "seed" was a config key once; a stale one must fail like any other
    for key in ("bogus", "seed"):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"name": "x", "plant": "hexacopter", key: 1})


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
    "key, value", [("disturbances", {"impuls": {}}), ("outputs", {"step_csv": "s.csv"})], ids=["disturbances", "outputs"]
)
def test_unknown_disturbance_or_output_key_rejected(key, value):
    with pytest.raises(ValueError, match=next(iter(value))):
        ExperimentConfig.from_dict({"name": "x", key: value})


def test_stale_flap_param_rejected():
    # time_step was a FlapParams field that no step read
    with pytest.raises(ValueError, match="time_step"):
        ExperimentConfig(plant="bifwmav", plant_params={"time_step": 0.001})


@pytest.mark.parametrize(
    "section, value, key",
    [
        ("plant_params", {"thrust_gian": 5.0}, "thrust_gian"),
        ("controller_params", {"gamma": 1.0, "gama": 2.0}, "gama"),
        ("trajectory", "hexacopter_constnat", "hexacopter_constnat"),
        ("disturbances", {"impulse": {"amplitude": 2.0, "start": 5.0, "lenght": 0.1}}, "lenght"),
        ("disturbances", {"gust": {"v_m": 4.0, "onset": 2.0}}, "onset"),
    ],
)
def test_bad_part_name_rejected_at_construction(section, value, key):
    with pytest.raises(ValueError, match=f"^typo: .*{key}"):
        ExperimentConfig(name="typo", **{section: value})


@pytest.mark.parametrize("key, value", [("dt", -0.01), ("dt", 0.0), ("duration", -5.0)])
def test_nonpositive_step_or_negative_duration_rejected(key, value):
    with pytest.raises(ValueError, match=f"^bad_time: {key} must be"):
        ExperimentConfig(name="bad_time", **{key: value})


@pytest.mark.parametrize("command", ["run", "suite"])
def test_cli_config_error_is_one_line_before_any_run(tmp_path, capsys, command):
    # the second of three experiments misspells a plant parameter
    experiments = [
        dict(name=name, plant="double_integrator", trajectory={"kind": "constant", "level": 1.0}, duration=1.0)
        for name in ("first", "second", "third")
    ]
    experiments[1].update(plant="hexacopter", plant_params={"thrust_gian": 5.0})
    raw = {"experiments": experiments} if command == "suite" else experiments[1]
    path = tmp_path / "suite.yaml"
    path.write_text(yaml.safe_dump(raw))
    out = tmp_path / "out"
    assert main([command, str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("CONFIG ERROR: second: ") and "thrust_gian" in err[0]
    assert not out.exists()  # no step log, no summary


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
    configs = _configs_from_file(str(path))
    assert configs
    for cfg in configs:
        build_controller(cfg)
        build_plant(cfg)
        trajectories.from_config(cfg.trajectory)


def test_non_integer_step_count_rejected():
    with pytest.raises(ValueError):
        ExperimentConfig(duration=1.005, dt=0.01)


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
    suite = yaml.safe_load((Path(__file__).parent.parent / "configs" / "hexacopter_suite.yaml").read_text())
    raw = next(e for e in suite["experiments"] if e["name"] == "hexa_roll_pid")
    # a roll PID with a huge negative gain drives the rigid body off the finite range
    cfg = ExperimentConfig.from_dict(dict(raw, duration=20.0, controller_params={"kp": -1e6}))
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
        controller_params={"gamma": -50.0, "learn_rates": [0.1, 0.5, 0.001]},
    )
    with pytest.raises(DivergenceError) as info:
        run_experiment(cfg, out_dir=tmp_path)
    cause = info.value.__cause__
    assert isinstance(cause, FloatingPointError)
    assert str(cause).startswith("bias signal overflowed")
    log = tmp_path / "bias_overflow_steps.csv"
    assert len(log.read_text().splitlines()) > 1


def test_rule_snapshot_output(tmp_path):
    cfg = hexa_config(
        name="snap",
        duration=5.0,
        outputs={"rules_txt": str(tmp_path / "rules.txt")},
    )
    run_experiment(cfg, out_dir=tmp_path)
    lines = (tmp_path / "rules.txt").read_text().splitlines()
    assert len(lines) >= 1
    assert lines[0].startswith("0, ")


def test_suite_writes_summary(tmp_path):
    configs = [
        hexa_config(name="pac_short", duration=10.0),
        hexa_config(name="pid_short", duration=10.0, controller="pid", controller_params=dict(PID_HEXA)),
    ]
    results = run_suite(configs, out_dir=tmp_path)
    assert len(results) == 2
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("name,plant,trajectory,controller,rmse")
    assert len(summary) == 3


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
