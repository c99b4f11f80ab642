import math
import warnings

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
    assert settle == pytest.approx(500 * dt * 1e3)  # never enters the band


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
