"""One valid set of keyword arguments for every settings class, for the tests
that hold each class to the rules of ``pacsim.settings``."""

from pacsim import trajectories as tj
from pacsim.controller import ControllerConfig
from pacsim.experiment import ExperimentConfig
from pacsim.pid import PidConfig
from pacsim.plants import GustSpec, ImpulseSpec, InertiaSet

SETTINGS = {
    ControllerConfig: {},
    PidConfig: {"output_limits": (-1.0, 1.0)},
    GustSpec: {"v_m": 4.0},
    ImpulseSpec: {"amplitude": 2.0, "start": 1.0, "duration": 0.1},
    InertiaSet: {},
    tj.Constant: {"level": 1.0},
    tj.Step: {"amplitude": 1.0, "start": 1.0},
    tj.SharpSteps: {"levels": (1.0, 2.0), "dwell": 5.0},
    tj.SmoothSteps: {"levels": (1.0, 2.0), "dwell": 5.0, "ramp": 1.0},
    tj.SumOfSines: {"sines": ((1.0, 0.5, 0.0),), "cosines": ((1.0, 0.5, 0.0),)},
    tj.SquareWave: {"low": 0.0, "high": 1.0, "freq_rad_s": 0.2},
    tj.Staircase: {"step_heights": (1.0,), "dwell": 5.0, "base": 1.0},
    ExperimentConfig: {"plant": "double_integrator", "duration": 1.0},
}
