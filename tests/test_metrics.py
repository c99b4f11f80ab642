import math
import warnings
from array import array
from fractions import Fraction

import numpy as np
import pytest

from pacsim.metrics import compute_rmse, compute_step_metrics, report


def test_rmse_perfect():
    y = np.linspace(0, 1, 50)
    assert compute_rmse(y, y) == 0.0


def test_rmse_constant_offset():
    y = np.zeros(100)
    assert compute_rmse(y, y + 1.0) == pytest.approx(1.0)


def test_rmse_hand_arithmetic():
    # errors {3, 4} -> sqrt((9 + 16) / 2)
    assert compute_rmse(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(math.sqrt(12.5))


def test_rmse_empty_is_undefined():
    assert compute_rmse(np.array([]), np.array([])) is None


def test_rmse_length_mismatch():
    with pytest.raises(ValueError):
        compute_rmse(np.zeros(3), np.zeros(4))


def test_rmse_of_huge_finite_errors_is_finite_without_warning():
    # a diverged log: errors of about 1e200 overflow when squared
    y = np.array([3e200, -4e200, 0.0, 1e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rmse = compute_rmse(y, np.zeros(4))
    assert rmse == pytest.approx(1e200 * math.sqrt(26.0 / 4.0), rel=1e-14)


def test_rmse_bits_unchanged_when_squares_fit():
    rng = np.random.default_rng(3)
    for n in (1, 7, 1000, 10_001):
        y, y_r = rng.normal(0, 10, n), rng.normal(0, 10, n)
        assert compute_rmse(y, y_r) == float(np.sqrt(np.mean((y_r - y) ** 2)))


def test_near_perfect_step_tracking():
    dt = 0.01
    y_r = np.ones(1000)
    y = np.ones(1000)
    y[0] = 0.0
    rise, settle, peak = compute_step_metrics(y, y_r, dt)
    assert rise == 0.0
    assert settle == pytest.approx(dt * 1e3)
    assert peak == 1.0


def test_second_order_response_against_closed_form():
    # unit step of a zeta = 0.5, wn = 1 system; peak 1 + exp(-pi zeta / sqrt(1 - zeta^2))
    zeta, wn, dt = 0.5, 1.0, 0.001
    wd = wn * math.sqrt(1 - zeta**2)
    t = np.arange(0, 20, dt)
    y = 1.0 - np.exp(-zeta * wn * t) * (np.cos(wd * t) + zeta / math.sqrt(1 - zeta**2) * np.sin(wd * t))
    y_r = np.ones_like(y)
    rise, settle, peak = compute_step_metrics(y, y_r, dt)
    peak_expected = 1.0 + math.exp(-math.pi * zeta / math.sqrt(1 - zeta**2))
    assert peak == pytest.approx(peak_expected, abs=1e-4)
    assert peak_expected == pytest.approx(1.163, abs=1e-3)
    t_peak = float(t[np.argmax(y)])
    assert t_peak == pytest.approx(math.pi / wd, abs=2 * dt)
    assert t_peak == pytest.approx(3.63, abs=0.01)
    # 10-90 rise of this normalized response
    t10 = t[np.nonzero(y >= 0.1)[0][0]]
    t90 = t[np.nonzero(y >= 0.9)[0][0]]
    assert rise == pytest.approx((t90 - t10) * 1e3, abs=2 * dt * 1e3)
    assert settle >= rise


def test_monotone_first_order_peak_is_final_value():
    dt = 0.01
    t = np.arange(0, 10, dt)
    y = 1.0 - np.exp(-t)
    rise, settle, peak = compute_step_metrics(y, np.ones_like(y), dt)
    assert peak == pytest.approx(y[-1])
    assert rise is not None and settle is not None and settle >= rise


def test_never_rising_response_marks_rise_undefined():
    dt = 0.01
    y = np.zeros(500)
    y_r = np.ones(500)
    rise, settle, peak = compute_step_metrics(y, y_r, dt)
    assert rise is None
    assert settle is None  # never enters the band


def test_response_settling_on_its_last_sample_keeps_its_time():
    dt = 0.01
    y = np.concatenate([np.zeros(500), [1.0]])
    rise, settle, peak = compute_step_metrics(y, np.ones(501), dt)
    assert settle == pytest.approx(500 * dt * 1e3)


def test_report_of_a_run_that_never_settles():
    # rises through 90 % and still swings 10 % about the reference at the end
    t = np.arange(0, 5, 0.01)
    y = 1.0 - np.exp(-3.0 * t) + 0.1 * np.sin(2.0 * np.pi * t + 0.5)
    assert abs(y[-1] - 1.0) > 0.02
    rep = report(y, np.ones_like(y), 0.01)
    assert rep.rise_time_ms is not None
    assert rep.settling_time_ms is None
    assert rep.as_row()["settling_time_ms"] == ""


@pytest.mark.parametrize("n", [0, 1, 500])
def test_report_is_equal_on_packed_and_list_series(n):
    # step logs hold array('d') columns; the report must not depend on the container
    t = np.arange(n) * 0.01
    y_r = np.where(t < 1.0, 0.0, 2.0)
    y = y_r * (1.0 - np.exp(-3.0 * np.maximum(t - 1.0, 0.0))) + 0.05 * np.sin(7.0 * t)
    packed = report(array("d", y), array("d", y_r), 0.01, final_rule_count=3)
    assert packed == report(y.tolist(), y_r.tolist(), 0.01, final_rule_count=3)
    if n == 500:
        assert packed.rise_time_ms is not None and packed.settling_time_ms is not None


def test_first_commanded_step_midway():
    dt = 0.01
    y_r = np.concatenate([np.zeros(100), np.ones(400)])
    y = np.concatenate([np.zeros(150), np.ones(350)])  # responds 0.5 s late
    rise, settle, peak = compute_step_metrics(y, y_r, dt)
    assert rise == 0.0  # jumps through both thresholds in one sample
    assert settle == pytest.approx(150 * dt * 1e3)
    assert peak == 1.0


def test_report_empty_run_marks_all_undefined():
    rep = report(np.array([]), np.array([]), 0.01, final_rule_count=None)
    assert rep.rmse is None and rep.rise_time_ms is None and rep.settling_time_ms is None and rep.peak is None


def test_report_rise_not_after_settle():
    rng = np.random.default_rng(5)
    t = np.arange(0, 20, 0.01)
    y = 1 - np.exp(-t) + 0.001 * rng.standard_normal(len(t))
    rep = report(y, np.ones_like(y), 0.01)
    assert rep.rise_time_ms <= rep.settling_time_ms


def test_ramp_rise_is_measured_to_the_level_the_reference_holds():
    # 1 s at 0, a 1 s ramp to 2 m in steps of 0.02 m (0.01, 0.03, ..., 1.99),
    # then 2 m held; the response lags the reference by 0.2 s
    dt = 0.01
    y_r = np.concatenate([np.zeros(100), np.arange(1, 101) * 0.02 - 0.01, np.full(300, 2.0)])
    y = np.concatenate([np.zeros(20), y_r[:-20]])
    rise, settle, peak = compute_step_metrics(y, y_r, dt)
    # 10 % (0.2 m) is first passed at 0.21 m and 90 % (1.8 m) at 1.81 m, 80 samples later
    assert rise == pytest.approx(80 * dt * 1e3)
    # the last sample outside 2 m +/- 2 % is 1.95 m, 20 + 98 samples after the ramp starts
    assert settle == pytest.approx((100 + 20 + 98) * dt * 1e3)
    assert peak == 2.0


def test_sine_reference_has_no_rise_or_settling_time():
    # the reference never holds a level and still moves on its last step
    dt = 0.01
    t = np.arange(0, 20, dt)
    y_r = 1.0 + 0.5 * np.sin(t)
    for y in (y_r, 1.0 + 0.5 * np.sin(t - 0.1)):
        rise, settle, peak = compute_step_metrics(y, y_r, dt)
        assert rise is None
        assert settle is None
        assert peak == float(np.max(y))
    rep = report(y_r, y_r, dt)
    assert rep.as_row()["rise_time_ms"] == "" and rep.as_row()["settling_time_ms"] == ""


def test_reference_that_moves_on_its_last_step_never_settles():
    # the response sits on the reference, which steps on the very last sample
    dt = 0.01
    y_r = np.concatenate([np.zeros(100), np.ones(399), [1.5]])
    rise, settle, _ = compute_step_metrics(y_r.copy(), y_r, dt)
    assert rise == 0.0
    assert settle is None
    # held for one more sample, the same step settles when the response reaches it
    y_r = np.append(y_r, 1.5)
    y = np.append(y_r[:-2], [1.0, 1.5])
    _, settle, _ = compute_step_metrics(y, y_r, dt)
    assert settle == pytest.approx(500 * dt * 1e3)


@pytest.mark.parametrize("dt", [0.005, 0.01, 0.02])
def test_whole_sample_times_read_as_decimal_milliseconds(dt):
    # a rise of n samples and a settle after m samples read exactly n and m
    # times the step in ms: 164 samples at dt 0.01 are 1640.0 ms
    step_ms = Fraction(str(dt)) * 1000
    for n in (1, 3, 164, 999, 4321):
        m = n + 7
        y_r = np.ones(m + 50)
        y = np.ones(m + 50)
        y[:m] = 0.5  # inside 10 % .. 90 %, outside the 2 % band
        y[0] = 0.0  # below 10 %: 10 % is reached at sample 1
        y[n + 1 :] = np.where(np.arange(n + 1, m + 50) < m, 0.95, 1.0)
        rise, settle, _ = compute_step_metrics(y, y_r, dt)
        assert rise == float(n * step_ms)
        assert settle == float(m * step_ms)
