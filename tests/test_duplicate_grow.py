"""The duplicate grow leaves the rule base R copies of one row.

A grow appends a copy of the highest-firing rule. The copy has the same
point-to-plane distance as its original, so from then on both get the same
firing share and the same update. An evolved network of R rules therefore
computes what one row does with its adaptation gain divided by R, and the
structure learning only rescales that gain. These tests pin this on suite
experiments. A grow that gives a new rule capacity of its own is meant to
make them fail.
"""

import math
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
import yaml

from pacsim import trajectories
from pacsim.controller import (
    ControllerConfig,
    SlidingState,
    adapt_sliding_params,
    p_matrix,
    robustifying_term,
    sliding_value,
)
from pacsim.evolution import EvolutionState, check_grow, check_prune, update_input_mean
from pacsim.experiment import ExperimentConfig, build_controller, build_plant, run_experiment
from pacsim.palm import DIM, extended_input

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SUITE_OF = {"hexa_sos_pac": "hexacopter_suite.yaml", "hexa_constant_pac": "hexacopter_suite.yaml",
            "bif_sos_pac": "bifwmav_suite.yaml"}
DURATION = 30.0


class OneRowReference:
    """PAC with the rule base held as one weight row and a rule counter R.

    A grow adds 1 to R and a prune subtracts 1. The bias and variance come
    from R * (w . mu_e), and the weight update runs at gain gamma / R.
    """

    def __init__(self, c: ControllerConfig):
        self.c = c
        self.w = np.zeros(DIM)
        self.R = 1
        self.s = SlidingState(c.alpha1, c.alpha2, c.alpha3)
        self.P = p_matrix(c.alpha1, c.alpha2)
        self.evo = EvolutionState()
        self.e_prev = None

    def step(self, y: float, y_r: float, dt: float) -> float:
        c, s = self.c, self.s
        e = y_r - y
        e_dot = 0.0 if self.e_prev is None else (e - self.e_prev) / dt
        self.e_prev = e
        s.err_integral += e * dt
        s_l = sliding_value(e, e_dot, s.err_integral, s)
        x_e = extended_input(e, e_dot, y_r)
        # R equal rows fire equally, so the network output is the one row's consequent
        u = robustifying_term(s_l, s, c) - float(x_e @ self.w)

        update_input_mean(self.evo, x_e)
        mu = self.evo.mu_e
        e_y = self.R * float(self.w @ mu)
        e_y2 = self.R * float(self.w @ (mu * mu))
        grow = check_grow(self.evo, math.sqrt((e_y - y_r) ** 2))
        prune = check_prune(self.evo, max(e_y2 - e_y * e_y, 0.0))
        if grow or (prune and self.R >= 2):
            self.R += 1 if grow else -1
            self.evo.restart_detectors()

        g = e * self.P.p12 + e_dot * self.P.p22
        self.w = np.clip(self.w - dt * (c.gamma / self.R) * g * x_e, -c.weight_limit, c.weight_limit)
        if adapt_sliding_params(s, c, e, e_dot, s_l, dt):
            self.P = p_matrix(s.alpha1, s.alpha2)
        return min(max(u, -c.actuator_limit), c.actuator_limit)


def suite_config(name: str) -> ExperimentConfig:
    raws = yaml.safe_load((CONFIGS / SUITE_OF[name]).read_text())["experiments"]
    raw = next(r for r in raws if r["name"] == name)
    return ExperimentConfig.from_dict({**raw, "duration": DURATION})


@lru_cache(maxsize=None)
def suite_run(name: str):
    return run_experiment(suite_config(name))


@pytest.mark.parametrize("name", sorted(SUITE_OF))
def test_evolved_network_matches_one_row_at_gain_over_r(name):
    cfg = suite_config(name)
    result = suite_run(name)
    ref = OneRowReference(build_controller(cfg).config)
    plant = build_plant(cfg)
    traj = trajectories.from_config(cfg.trajectory)
    ys, rs = [], []
    for i in range(cfg.n_steps):
        y = plant.output()
        u = ref.step(y, trajectories.reference(traj, i * cfg.dt), cfg.dt)
        ys.append(y)
        rs.append(ref.R)
        plant.step(u, cfg.dt)
    np.testing.assert_allclose(ys, result.series["y"], rtol=0, atol=1e-12)
    assert rs == result.series["R"]


@pytest.mark.parametrize("name", ["hexa_sos_pac", "bif_sos_pac"])
def test_grown_rule_base_has_one_distinct_row(name):
    net = suite_run(name).controller.net
    assert net.rule_count > 1
    assert len(np.unique(net.weights, axis=0)) == 1
