"""The one-row rule base flies what PALM's R-row rule base flies.

PALM appends a copy of the highest-firing rule on a grow. The copy has the
same point-to-plane distance as its original, so from then on both get the
same firing share and the same update, and the rule base stays R copies of
one row. ``pacsim`` therefore holds the rule base as that one row and a rule
count, and adapts the row at gain gamma / R. These tests fly the suite
experiments with PALM's R-row rule base (``palm_oracles.PalmReference``) and
hold the controller to it. A grow that gives a new rule capacity of its own
is meant to make them fail.
"""

import dataclasses
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from palm_oracles import PalmReference
from pacsim import trajectories
from pacsim.experiment import ExperimentConfig, build, read_suite, run_experiment

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SUITE_OF = {"hexa_sos_pac": "hexacopter_suite.yaml", "hexa_constant_pac": "hexacopter_suite.yaml",
            "bif_sos_pac": "bifwmav_suite.yaml"}
DURATION = 30.0


def suite_config(name: str) -> ExperimentConfig:
    cfg = next(cfg for cfg in read_suite(CONFIGS / SUITE_OF[name]) if cfg.name == name)
    return dataclasses.replace(cfg, duration=DURATION)


@lru_cache(maxsize=None)
def suite_run(name: str):
    return run_experiment(suite_config(name))


@pytest.mark.parametrize("name", sorted(SUITE_OF))
def test_evolved_network_matches_one_row_at_gain_over_r(name):
    cfg = suite_config(name)
    result = suite_run(name)
    controller, plant, traj, _ = build(cfg)
    ref = PalmReference(controller.config)
    ys, rs = [], []
    for i in range(cfg.n_steps):
        y = plant.output()
        u = ref.step(y, trajectories.reference(traj, i * cfg.dt), cfg.dt)
        ys.append(y)
        rs.append(ref.R)
        plant.step(u, cfg.dt)
    np.testing.assert_allclose(ys, result.series["y"], rtol=0, atol=1e-12)
    assert rs == result.series["R"]
    if name != "hexa_constant_pac":
        assert ref.R > 1
    # PALM's grown rows are all the one row the controller holds
    assert len(np.unique(ref.rows, axis=0)) == 1
    np.testing.assert_allclose(ref.rows[0], result.controller.net.w, rtol=0, atol=1e-12)
