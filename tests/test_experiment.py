import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from pacsim.cli import main
from pacsim.experiment import (
    DivergenceError,
    ExperimentConfig,
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
