import math

import numpy as np
import pytest

from pacsim import trajectories as tj


def test_constant():
    traj = tj.from_config("bifwmav_constant")
    for t in (0.0, 1.0, 50.0, 99.99):
        assert tj.reference(traj, t) == 10.0
    assert tj.reference(tj.from_config("hexacopter_constant"), 12.3) == 4.0


def test_step_edges():
    traj = tj.from_config("hexacopter_step")
    assert traj(2.999) == 0.0
    assert traj(3.0) == 3.0
    assert traj(80.0) == 3.0


def test_sharp_steps_schedule():
    traj = tj.from_config("sharp_steps")
    assert traj(0.0) == 3.0
    assert traj(19.99) == 3.0
    assert traj(20.0) == 6.0
    assert traj(40.0) == 9.0
    assert traj(60.0) == 6.0
    assert traj(80.0) == 3.0
    assert traj(99.99) == 3.0


def test_smooth_steps_endpoints_and_ramp():
    traj = tj.from_config("smooth_steps")
    assert traj(0.0) == 3.0
    assert traj(19.99) == 3.0
    assert traj(20.0) == pytest.approx(3.0)  # ramp starts at the boundary
    assert traj(23.0) == pytest.approx(8.0)  # ramp complete
    assert traj(21.5) == pytest.approx(5.5)  # smoothstep midpoint
    assert max(traj(t) for t in np.arange(0, 100, 0.01)) == pytest.approx(13.0)


def test_sum_of_sines_value_at_zero():
    traj = tj.from_config("sum_of_sines")
    assert traj(0.0) == pytest.approx(9.0)
    # amalgamation of 4 sin(0.3 t) + 6 and 3 cos(0.5 t)
    t = 7.13
    assert traj(t) == pytest.approx(4 * math.sin(0.3 * t) + 6 + 3 * math.cos(0.5 * t))


def test_sum_of_sines_pointwise_formula():
    traj = tj.from_config("sum_of_sines")
    for t in np.arange(0, 100, 0.37):
        assert traj(t) == pytest.approx(4 * math.sin(0.3 * t) + 3 * math.cos(0.5 * t) + 6, abs=1e-12)
    peak = max(traj(t) for t in np.arange(0, 100, 0.001))
    assert 9.0 < peak < 13.0


def test_square_wave_period_duty_and_bounds():
    traj = tj.from_config("square_wave")
    period = 2 * math.pi / 0.2
    ts = np.arange(0, 4 * period, 0.001)
    vals = np.array([traj(t) for t in ts])
    assert set(np.unique(vals)) == {1.0, 11.0}
    # 50% duty over whole periods
    frac_high = np.mean(vals[ts < 4 * period] == 11.0)
    assert frac_high == pytest.approx(0.5, abs=0.01)
    # periodicity
    for t in (0.3, 5.0, 12.7):
        assert traj(t) == traj(t + period)


def test_staircase_schedule_and_peak():
    traj = tj.from_config("staircase")
    assert traj(0.0) == 1.0
    assert traj(19.99) == 1.0
    assert traj(20.0) == 4.0
    assert traj(40.0) == 7.0
    assert traj(60.0) == 10.0
    assert traj(80.0) == 12.0
    assert traj(99.9) == 12.0
    assert sum(traj.step_heights) == 11.0  # cumulative height over the base


def test_attitude_sum_of_sines():
    pitch = tj.from_config("attitude_pitch")
    roll = tj.from_config("attitude_roll")
    t = 3.7
    assert pitch(t) == pytest.approx(0.3 * math.sin(0.3 * t) + 0.5 * math.cos(0.5 * t))
    assert roll(t) == pytest.approx(0.3 * math.sin(0.3 * t) + 0.4 * math.cos(0.5 * t))


def test_purity():
    for traj in (tj.from_config("sharp_steps"), tj.from_config("square_wave"), tj.from_config("sum_of_sines")):
        for t in (0.0, 1.23, 55.5):
            assert traj(t) == traj(t)


def test_reference_rejects_negative_time():
    with pytest.raises(ValueError):
        tj.reference(tj.from_config("hexacopter_constant"), -0.1)


def test_from_config_by_name_and_mapping():
    assert tj.from_config("hexacopter_constant")(0.0) == 4.0
    traj = tj.from_config({"kind": "constant", "level": 2.5})
    assert traj(9.0) == 2.5
    traj = tj.from_config({"kind": "staircase", "step_heights": [1, 1], "dwell": 5.0, "base": 0.0})
    assert traj(0.0) == 0.0 and traj(5.0) == 1.0 and traj(10.0) == 2.0
    with pytest.raises(ValueError):
        tj.from_config("nope")
    with pytest.raises(ValueError):
        tj.from_config({"kind": "nope"})


@pytest.mark.parametrize(
    "spec, key",
    [
        ({"kind": "sharp_steps", "levels": [], "dwell": 20.0}, "levels"),
        ({"kind": "smooth_steps", "levels": [], "dwell": 20.0}, "levels"),
        ({"kind": "sharp_steps", "levels": [1.0], "dwell": 0.0}, "dwell"),
        ({"kind": "sharp_steps", "levels": [1.0], "dwell": -0.5}, "dwell"),
        ({"kind": "sharp_steps", "levels": [1.0], "dwell": math.inf}, "dwell"),
        ({"kind": "sharp_steps", "levels": [1.0, math.nan], "dwell": 20.0}, "levels"),
        ({"kind": "smooth_steps", "levels": [1.0, 2.0], "dwell": 20.0, "ramp": 0.0}, "ramp"),
        ({"kind": "smooth_steps", "levels": [1.0, 2.0], "dwell": math.nan}, "dwell"),
        ({"kind": "staircase", "step_heights": [1.0], "dwell": 0.0}, "dwell"),
        ({"kind": "staircase", "step_heights": [math.inf], "dwell": 5.0}, "step_heights"),
        ({"kind": "sum_of_sines", "sines": [[1.0, 2.0]]}, "sines"),
        ({"kind": "sum_of_sines", "cosines": [[1.0, 2.0, 3.0, 4.0]]}, "cosines"),
        ({"kind": "sum_of_sines", "sines": [1.0]}, "sines"),
        ({"kind": "sum_of_sines", "sines": [[1.0, math.nan, 0.0]]}, "sines"),
        ({"kind": "constant", "level": math.nan}, "level"),
        ({"kind": "step", "amplitude": 1.0, "start": math.inf}, "start"),
        ({"kind": "square_wave", "low": 0.0, "high": 1.0, "freq_rad_s": math.nan}, "freq_rad_s"),
    ],
)
def test_bad_trajectory_setting_rejected_when_built(spec, key):
    # each used to fail mid-run (IndexError, ZeroDivisionError, an unpacking error) or fly a wrong reference
    with pytest.raises(ValueError, match=key):
        tj.from_config(spec)


def test_named_trajectories_pass_their_checks():
    for name in tj._NAMED:
        tj.from_config(name)
