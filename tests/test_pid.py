import math

import numpy as np
import pytest

from pacsim.pid import PidConfig, PidController
from pacsim.plants import DoubleIntegrator


def test_zero_error_zero_output():
    pid = PidController(PidConfig(kp=2.0, ki=1.0, kd=0.5))
    for _ in range(10):
        u, _ = pid.step(1.0, 1.0, 0.01)
        assert u == 0.0


def test_pure_proportional():
    pid = PidController(PidConfig(kp=1.0, ki=0.0, kd=0.0))
    u, _ = pid.step(0.0, 2.0, 0.01)
    assert u == pytest.approx(2.0)


def test_output_respects_limits():
    pid = PidController(PidConfig(kp=100.0, output_limits=(-1.0, 1.0)))
    assert pid.step(0.0, 10.0, 0.01)[0] == 1.0
    assert pid.step(10.0, 0.0, 0.01)[0] == -1.0


def test_integer_limits_saturate_to_a_float():
    # limits as YAML gives them, as a list of ints: the saturated output is still a float
    for limits in ((-1, 1), [-1, 1]):
        pid = PidController(PidConfig(kp=100, output_limits=limits))
        assert pid.config.output_limits == (-1.0, 1.0)
        for y_r, want in ((1.0, 1.0), (-1.0, -1.0)):
            u, _ = pid.step(0.0, y_r, 0.01)
            assert type(u) is float and u == want


@pytest.mark.parametrize("limits", [(1.0, -1.0), (0.5, float("nan")), (float("nan"), 0.5), ["10", "9"], (False, True)])
def test_inverted_or_nan_limits_rejected(limits):
    # lo > hi used to saturate every output to a limit; strings were ordered as strings, so "10" < "9"
    with pytest.raises(ValueError, match="^output_limits must be"):
        PidConfig(output_limits=limits)


@pytest.mark.parametrize("gain", ["kp", "ki", "kd"])
@pytest.mark.parametrize("value", [math.nan, math.inf, True, "1"])
def test_non_finite_gain_rejected(gain, value):
    # a NaN kp used to pin every output to the low limit; a bool gain ran as a gain of 1
    with pytest.raises(ValueError, match=f"^{gain} must be finite and a real number, not "):
        PidConfig(**{gain: value}, output_limits=(-1.0, 1.0))


def test_equal_limits_accepted():
    assert PidConfig(output_limits=(1, 1)).output_limits == (1.0, 1.0)


@pytest.mark.parametrize("limits", [(-1.0, 1.0), (float("-inf"), float("inf"))], ids=["saturating", "unbounded"])
def test_numpy_dt_keeps_the_output_float(limits):
    pid = PidController(PidConfig(kp=2.0, ki=1.0, kd=0.5, output_limits=limits))
    for y in (0.1, 0.2, 0.25, 5.0):  # from the second step on, the derivative divides by dt
        u, _ = pid.step(y, 0.3, np.float64(0.01))
        assert type(u) is float and type(pid.err_integral) is float


def test_anti_windup_freezes_integral_when_saturated():
    pid = PidController(PidConfig(kp=0.0, ki=1.0, output_limits=(-0.5, 0.5)))
    for _ in range(100):
        pid.step(0.0, 10.0, 0.01)
    # 0.5 s of integration saturates the output at ki*int(e) = 0.5
    assert pid.err_integral == pytest.approx(0.5)
    for _ in range(100):
        pid.step(0.0, 10.0, 0.01)
    assert pid.err_integral == pytest.approx(0.5)


def test_linearity_of_proportional_and_derivative_terms():
    def run(scale):
        pid = PidController(PidConfig(kp=2.0, ki=0.0, kd=0.5))
        outs = []
        for e in [1.0, 2.0, -1.0, 0.5]:
            u, _ = pid.step(0.0, scale * e, 0.1)
            outs.append(u)
        return outs

    ones = run(1.0)
    threes = run(3.0)
    for u1, u3 in zip(ones, threes):
        assert u3 == pytest.approx(3.0 * u1, rel=1e-12)


def test_critically_damped_step_response_matches_closed_form():
    # plant d2x/dt2 = u with u = 4e + 4 de/dt gives x(t) = 1 - (1+2t) exp(-2t)
    dt = 1e-3
    pid = PidController(PidConfig(kp=4.0, ki=0.0, kd=4.0))
    plant = DoubleIntegrator()
    n = 5000
    xs = np.empty(n)
    for i in range(n):
        u, _ = pid.step(plant.output(), 1.0, dt)
        plant.step(u, dt)
        xs[i] = plant.output()
    t = (np.arange(n) + 1) * dt
    analytic = 1.0 - (1.0 + 2.0 * t) * np.exp(-2.0 * t)
    idx = np.linspace(0, n - 1, 1000).astype(int)
    np.testing.assert_allclose(xs[idx], analytic[idx], atol=0.01)


def test_every_step_returns_the_one_empty_diagnostics_object():
    # the PID logs no column beyond the harness's own: every step returns the empty tuple, which no step allocates anew
    pid = PidController(PidConfig(kp=100.0, ki=1.0, kd=0.5, output_limits=(-1.0, 1.0)))
    cells = [pid.step(y, 0.3, 0.01)[1] for y in (0.0, 0.1, 5.0, -5.0)]  # unsaturated and saturated steps
    assert cells == [()] * 4 and len(set(map(id, cells))) == 1
    assert PidController.log_columns == ()
    assert PidController.rule_count is None


def test_nan_sum_raises_naming_the_error_and_its_rate():
    # an infinite error makes ki * (I + e dt) = 0 * inf a NaN, which fails both limit comparisons:
    # the step used to command the low limit, of the wrong sign
    pid = PidController(PidConfig(kp=1.0, kd=1.0, output_limits=(-2.0, 2.0)))
    pid.step(0.0, 1.0, 0.01)
    with pytest.raises(FloatingPointError, match=r"^PID sum is NaN at e=inf, e_dot=inf$"):
        pid.step(-1e308, 1e308, 0.01)
