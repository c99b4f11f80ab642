"""Frozen golden reference for short runs of the benchmark suites.

Every evolving (PAC) experiment of both suites, plus one PID run per plant,
is cut to 20 s and compared against ``tests/golden/suites_20s.json``:

- the GROW/PRUNE events as (time, kind, rule count) and the step-log rule
  count R at each event, exactly;
- y and u at every 10th step, within ``ATOL`` (round-off of reordered
  floating-point sums stays far below it).

Regenerate after a deliberate behaviour change with

    PYTHONPATH=src python tests/test_golden.py

which prints, per experiment, max |dy| and max |du| against the golden it
replaces and whether the events are equal, so a declared regeneration can
quote what moved.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from pacsim.experiment import ExperimentConfig, run_experiment

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "suites_20s.json"
SUITES = ("hexacopter_suite.yaml", "bifwmav_suite.yaml")
EXTRA_PID = ("hexa_constant_pid", "bif_constant_disturbed_pid")
DURATION = 20.0
EVERY = 10
ATOL = 1e-9


def golden_configs() -> dict:
    configs = {}
    for suite in SUITES:
        with open(ROOT / "configs" / suite) as fh:
            for raw in yaml.safe_load(fh)["experiments"]:
                if raw["controller"] == "pac" or raw["name"] in EXTRA_PID:
                    configs[raw["name"]] = ExperimentConfig.from_dict({**raw, "duration": DURATION})
    return configs


def capture(cfg: ExperimentConfig) -> dict:
    result = run_experiment(cfg)
    series = result.series
    events = []
    for t, kind, count, _, _ in getattr(result.controller, "events", []):
        step = int(round(t / cfg.dt))  # events carry the time at the start of their step
        events.append([t, kind, count, series["R"][step]])
    return {"events": events, "y": series["y"][::EVERY], "u": series["u"][::EVERY]}


CONFIGS = golden_configs()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_pac_experiment(golden):
    assert sorted(golden) == sorted(CONFIGS)
    assert sum(CONFIGS[n].controller == "pac" for n in golden) == 16


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_matches_golden(name, golden):
    want, got = golden[name], capture(CONFIGS[name])
    assert got["events"] == want["events"]
    np.testing.assert_allclose(got["y"], want["y"], rtol=0.0, atol=ATOL)
    np.testing.assert_allclose(got["u"], want["u"], rtol=0.0, atol=ATOL)


def report_moves(old: dict, new: dict) -> None:
    """Print max |dy|, max |du| and event equality for each experiment against the old golden."""
    for name, run in new.items():
        if name not in old:
            print(f"{name}: new experiment")
            continue
        dy = float(np.max(np.abs(np.subtract(run["y"], old[name]["y"]))))
        du = float(np.max(np.abs(np.subtract(run["u"], old[name]["u"]))))
        same = "equal" if run["events"] == old[name]["events"] else "DIFFER"
        print(f"{name}: max |dy| {dy:.3g}, max |du| {du:.3g}, events {same}")


if __name__ == "__main__":
    data = {name: capture(cfg) for name, cfg in CONFIGS.items()}
    if GOLDEN.exists():
        report_moves(json.loads(GOLDEN.read_text()), data)
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = [f"{json.dumps(name)}: {json.dumps(run)}" for name, run in data.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDEN} ({len(data)} experiments)", file=sys.stderr)
