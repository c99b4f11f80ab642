"""Step-size convergence of suite rows.

A tracking RMSE is a property of the controller and the plant only if it
barely moves when the step size is halved or doubled. Each row runs its
suite config at its full 100 s at dt 0.02, 0.01 and 0.005 and bounds the
relative spread of the three RMSEs, (max - min) / min. The PID rows
converge, and so does ``hexa_sos_pac``, whose reference never jumps.
``bif_sharp_pac`` does not yet: a reference jump kicks the weights by an
amount that grows as 1/dt.
"""

import dataclasses
from pathlib import Path

import pytest

from pacsim.experiment import read_suite, run_experiment

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SUITES = {"bif": "bifwmav_suite.yaml", "hexa": "hexacopter_suite.yaml"}
STEP_SIZES = (0.02, 0.01, 0.005)
MAX_SPREAD = 0.05


def _pac_drifts(rmse: str):
    reason = f"PAC's RMSE depends on dt (the reference jump kicks the weights as 1/dt): RMSE {rmse} at dt {STEP_SIZES}"
    return pytest.mark.xfail(strict=True, reason=reason)


@pytest.mark.parametrize(
    "name",
    [
        "bif_sharp_pid",
        "hexa_sos_pid",
        pytest.param("bif_sharp_pac", marks=_pac_drifts("0.957 / 1.278 / 1.853")),
        "hexa_sos_pac",
    ],
)
def test_rmse_spread_across_step_sizes(name):
    suite = CONFIGS / SUITES[name.split("_")[0]]
    (cfg,) = [c for c in read_suite(suite) if c.name == name]
    assert cfg.duration == 100.0
    rmse = [run_experiment(dataclasses.replace(cfg, dt=dt)).report.rmse for dt in STEP_SIZES]
    spread = (max(rmse) - min(rmse)) / min(rmse)
    assert spread <= MAX_SPREAD, f"{name}: RMSE {' / '.join(f'{r:.3f}' for r in rmse)} at dt {STEP_SIZES}"
