import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from pacsim import controller, evolution
from pacsim.controller import (
    ControllerConfig,
    ControllerFault,
    ParsimoniousController,
    PMatrix,
    SlidingState,
    adapt_sliding_params,
    adapt_weights,
    lyapunov_p_matrix,
    p_matrix,
)
from pacsim.palm import PalmNetwork
from pacsim.pid import PidConfig, PidController
from pacsim.plants import DoubleIntegrator
from controller_oracles import extended_input, robustifying_term, sliding_value, staged_step
from palm_oracles import PalmReference


# the type of each cell a PAC step returns: R counts rules, every other cell is a float
CELL_TYPES = [int if c == "R" else float for c in ParsimoniousController.log_columns]


def _named(cells) -> dict:
    """A PAC step's log cells by column name."""
    return dict(zip(ParsimoniousController.log_columns, cells))


def _initial_sliding(**config) -> SlidingState:
    c = ControllerConfig(**config)
    return SlidingState(c.alpha1, c.alpha2, c.alpha3)


def test_sliding_value_zero():
    s = _initial_sliding()
    assert sliding_value(0.0, 0.0, 0.0, s) == 0.0


def test_sliding_value_initial_coefficients():
    s = _initial_sliding()  # alpha1=1e-2, alpha2=1e-3, alpha3~0
    assert sliding_value(1.0, 1.0, 0.0, s) == pytest.approx(1.1, abs=1e-6)


def test_sliding_value_ratio_invariance():
    s1 = SlidingState(alpha1=0.02, alpha2=0.004, alpha3=0.0002)
    s2 = SlidingState(alpha1=0.04, alpha2=0.008, alpha3=0.0004)
    for e, ed, ei in [(1.0, -2.0, 3.0), (0.5, 0.1, -0.7)]:
        assert sliding_value(e, ed, ei, s1) == pytest.approx(sliding_value(e, ed, ei, s2), rel=1e-12)


def test_robustifying_term():
    c = ControllerConfig(sat_limit=10.0)
    s = _initial_sliding()
    assert robustifying_term(0.0, s, c) == 0.0
    assert robustifying_term(1.1, s, c) == pytest.approx(0.011)
    assert robustifying_term(1e8, s, c) == 10.0
    assert robustifying_term(-1e8, s, c) == -10.0


@pytest.mark.parametrize("key, value", [("alpha1", 0.0), ("alpha2", -1e-3)])
def test_nonpositive_starting_alpha_rejected(key, value):
    with pytest.raises(ValueError, match="alpha1 and alpha2 must be positive"):
        ControllerConfig(**{key: value})


@pytest.mark.parametrize(
    "params, message",
    [
        ({"alpha1": math.nan}, "alpha1 and alpha2 must be positive and alpha3 non-negative, all finite"),
        ({"alpha2": math.inf}, "alpha1 and alpha2 must be positive and alpha3 non-negative, all finite"),
        ({"alpha3": -1.0}, "alpha1 and alpha2 must be positive and alpha3 non-negative, all finite"),
        ({"alpha3": math.nan}, "alpha1 and alpha2 must be positive and alpha3 non-negative, all finite"),
        ({"gamma": math.nan}, "gamma must be finite"),
        ({"gamma": -math.inf}, "gamma must be finite"),
        # the clamp to [start, alpha_max] would drop alpha1 to 1.0 on its first adapting step
        ({"alpha1": 2.0}, "alpha_max"),
        ({"alpha3": 0.02, "alpha_max": (1.0, 0.5, 0.01)}, "alpha_max"),
        ({"alpha_max": (1.0, math.nan, 0.01)}, "alpha_max"),
    ],
)
def test_bad_sliding_setting_rejected(params, message):
    with pytest.raises(ValueError, match=message):
        ControllerConfig(**params)


def test_negative_gamma_and_start_at_the_ceiling_accepted():
    # a negative gamma adapts the other way; it is how a bias overflow is provoked on purpose
    ControllerConfig(gamma=-50.0)
    ControllerConfig(alpha1=0.5, alpha2=0.5, alpha3=0.01, alpha_max=(0.5, 0.5, 0.01))
    ControllerConfig(alpha3=0.0)


def test_p_matrix_published_values():
    P = p_matrix(1e-2, 1e-3)
    assert P.p11 == pytest.approx(500.1, abs=1e-9)
    assert P.p12 == pytest.approx(50.0, abs=1e-9)
    assert P.p21 == pytest.approx(50.0, abs=1e-9)
    assert P.p22 == pytest.approx(50500.0, abs=1e-9)


def test_p_matrix_symmetric_case():
    P = p_matrix(0.5, 0.5)
    assert (P.p11, P.p12, P.p22) == pytest.approx((2.0, 1.0, 3.0))
    assert P.p11 > 0 and P.p11 * P.p22 - P.p12 * P.p21 > 0


def test_p_matrix_rejects_nonpositive():
    with pytest.raises(ValueError):
        p_matrix(0.0, 1e-3)


def test_lyapunov_p_matrix_solves_lyapunov_equation():
    rng = np.random.default_rng(21)
    for _ in range(100):
        a1, a2 = rng.uniform(1e-3, 2.0, size=2)
        P = lyapunov_p_matrix(a1, a2)
        A = np.array([[0.0, 1.0], [-a1, -a2]])
        M = np.array([[P.p11, P.p12], [P.p21, P.p22]])
        residual = A.T @ M + M @ A + np.eye(2)
        assert np.abs(residual).max() < 1e-9
        assert P.p11 > 0 and P.p11 * P.p22 - P.p12 * P.p21 > 0


def test_lyapunov_p_matrix_matches_scipy_solver():
    rng = np.random.default_rng(22)
    for _ in range(20):
        a1, a2 = rng.uniform(1e-3, 2.0, size=2)
        A = np.array([[0.0, 1.0], [-a1, -a2]])
        ref = scipy.linalg.solve_continuous_lyapunov(A.T, -np.eye(2))
        P = lyapunov_p_matrix(a1, a2)
        np.testing.assert_allclose([[P.p11, P.p12], [P.p21, P.p22]], ref, rtol=1e-9)


def test_published_p_agrees_with_lyapunov_solution_on_adaptation_entries():
    # only p12 and p22 enter the adaptation law; those the two formulas share
    rng = np.random.default_rng(23)
    for _ in range(50):
        a1, a2 = rng.uniform(1e-3, 2.0, size=2)
        pub, exact = p_matrix(a1, a2), lyapunov_p_matrix(a1, a2)
        assert pub.p12 == pytest.approx(exact.p12, rel=1e-14)
        assert pub.p22 == pytest.approx(exact.p22, rel=1e-14)


def test_adapt_weights_no_error_no_change():
    net = PalmNetwork(w=np.array([0.1, 0.2, 0.3, 0.4]))
    before = net.w.copy()
    adapt_weights(net, 0.0, 0.0, ControllerConfig(gamma=1.0, weight_limit=10.0), p_matrix(1e-2, 1e-3), np.array([1.0, 0, 0, 1.0]), 1.0)
    np.testing.assert_array_equal(net.w, before)


def test_adapt_weights_hand_arithmetic():
    # g = e*p12 + de*p22 = 2 with the crafted P below
    net = PalmNetwork()
    P = PMatrix(p11=1.0, p12=1.0, p21=1.0, p22=1.0)
    x_e = np.array([1.0, 0.0, 0.0, 1.0])
    adapt_weights(net, 2.0, 0.0, ControllerConfig(gamma=1.0, weight_limit=10.0), P, x_e, 1.0)
    np.testing.assert_allclose(net.w, [-2.0, 0.0, 0.0, -2.0])
    # four rules share the row, so it moves at a quarter of the gain
    net = PalmNetwork(rule_count=4)
    adapt_weights(net, 2.0, 0.0, ControllerConfig(gamma=1.0, weight_limit=10.0), P, x_e, 1.0)
    np.testing.assert_allclose(net.w, [-0.5, 0.0, 0.0, -0.5])


def test_adapt_weights_direction_opposes_g():
    rng = np.random.default_rng(31)
    for _ in range(50):
        net = PalmNetwork()
        e, ed = rng.uniform(-1, 1, size=2)
        P = p_matrix(1e-2, 1e-3)
        g = e * P.p12 + ed * P.p22
        x_e = np.array([1.0, abs(e), abs(ed), 2.0])  # positive entries
        adapt_weights(net, e, ed, ControllerConfig(gamma=1.0, weight_limit=10.0), P, x_e, 0.01)
        if g != 0:
            assert np.all(np.sign(net.w) == -np.sign(g) * np.sign(x_e))


def test_adapt_weights_clipped_to_limit():
    net = PalmNetwork()
    adapt_weights(net, 100.0, 0.0, ControllerConfig(gamma=100.0, weight_limit=10.0), p_matrix(1e-2, 1e-3), np.ones(4), 1.0)
    assert np.all(np.abs(net.w) <= 10.0)


def test_adapt_weights_many_rules_match_per_row_update():
    # PALM moves each of R equal rows by its firing share 1/R
    rng = np.random.default_rng(33)
    for r in (2, 7, 40):
        w0 = rng.uniform(-3, 3, size=4)
        net = PalmNetwork(w=w0.copy(), rule_count=r)
        e, ed = rng.uniform(-2, 2, size=2)
        P = p_matrix(1e-2, 1e-3)
        x_e = np.concatenate([[1.0], rng.uniform(-2, 2, size=3)])
        adapt_weights(net, e, ed, ControllerConfig(gamma=0.5, weight_limit=2.5), P, x_e, 0.01)
        g = e * P.p12 + ed * P.p22
        want = [max(-2.5, min(2.5, w0[q] - 0.01 * 0.5 * g * (1.0 / r) * x_e[q])) for q in range(4)]
        np.testing.assert_allclose(net.w, want, rtol=0.0, atol=1e-12)


def test_adapt_weights_bit_equal_to_outer_and_clip_reference():
    # the update is one scaled input, then np.clip, bit for bit
    rng = np.random.default_rng(34)
    P = p_matrix(1e-2, 1e-3)
    for r in (1, 3, 95):
        for gamma in (0.5, 5e3):  # the large gain drives entries past both bounds
            w0 = rng.uniform(-3, 3, size=4)
            e, ed = rng.uniform(-2, 2, size=2)
            x_e = np.concatenate([[1.0], rng.uniform(-2, 2, size=3)])
            net = PalmNetwork(w=w0.copy(), rule_count=r)
            adapt_weights(net, e, ed, ControllerConfig(gamma=gamma, weight_limit=2.5), P, x_e, 0.01)
            g = e * P.p12 + ed * P.p22
            want = np.clip(w0 - (0.01 * gamma * g / r) * x_e, -2.5, 2.5)
            assert np.array_equal(net.w, want)
            if gamma > 1.0:
                assert 2.5 in net.w and -2.5 in net.w


def test_adapt_weights_nan_input_raises():
    for r in (1, 3):
        net = PalmNetwork(rule_count=r)
        with pytest.raises(ControllerFault):
            adapt_weights(net, 1.0, 0.0, ControllerConfig(gamma=1.0, weight_limit=10.0), p_matrix(1e-2, 1e-3), np.array([1.0, np.nan, 0, 1.0]), 0.01)


def test_weights_stay_python_floats_after_adaptation():
    # a numpy row in, an integer bound from YAML that clips some entries: every entry stays a float
    rng = np.random.default_rng(35)
    P = p_matrix(1e-2, 1e-3)
    net = PalmNetwork(w=rng.uniform(-1, 1, size=4), rule_count=3)
    for _ in range(50):
        e, ed, y_r = rng.uniform(-2, 2, size=3).tolist()
        adapt_weights(net, e, ed, ControllerConfig(gamma=5e3, weight_limit=2), P, extended_input(e, ed, y_r), 0.01)
        assert all(type(v) is float for v in net.w)
    assert 2.0 in net.w or -2.0 in net.w
    ctl = ParsimoniousController()
    for y in np.linspace(0.0, 1.0, 20).tolist():
        ctl.step(y, 1.0, 0.01)
    assert all(type(v) is float for v in ctl.net.w) and all(type(v) is float for v in ctl.evo.mu_e)


def test_numpy_scalar_inputs_leave_python_floats_in_both_controllers():
    # the controllers take y and y_r as floats at entry, so a caller's numpy scalar
    # reaches neither their state, nor their output, nor a step log cell
    pac, pid = ParsimoniousController(), PidController(PidConfig(kp=2.0, ki=0.5, kd=0.1))
    for y in np.linspace(0.0, 1.0, 20):
        u, cells = pac.step(y, np.float64(1.0), 0.01)
        values = [u, *pac.evo.mu_e, *pac.net.w, pac.sliding.err_integral, pac._e_prev]
        assert [type(v) for v in values] == [float] * len(values)
        assert [type(v) for v in cells] == CELL_TYPES
        u, _ = pid.step(y, np.float64(1.0), 0.01)
        values = [u, pid.err_integral, pid._e_prev]
        assert [type(v) for v in values] == [float] * len(values)


def test_adapt_weights_finite_check_is_entrywise():
    # entries at a bound near the float max would overflow their sum, but are finite: no fault and no warning
    net = PalmNetwork(w=np.full(4, 1e308), rule_count=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        adapt_weights(net, 0.0, 0.0, ControllerConfig(gamma=1.0, weight_limit=1e308), p_matrix(1e-2, 1e-3), np.ones(4), 0.01)
    assert net.w == [1e308] * 4
    # an infinite bound lets an infinite entry through, which is a fault
    for r in (1, 2):
        net = PalmNetwork(rule_count=r)
        net.w[2] = np.inf
        with pytest.raises(ControllerFault):
            adapt_weights(net, 0.0, 0.0, ControllerConfig(gamma=1.0, weight_limit=float("inf")), p_matrix(1e-2, 1e-3), np.ones(4), 0.01)


def test_clamps_match_np_clip():
    values = [0.0, -0.0, 0.3, -0.3, 7.0, -7.0, 1e8, -1e8, float("inf"), float("-inf")]
    for limit in (5, 5.0, float("inf")):
        c = ControllerConfig(alpha1=1.0, sat_limit=limit)
        s = SlidingState(c.alpha1, c.alpha2, c.alpha3)
        for v in values:
            got = robustifying_term(v, s, c)
            want = float(np.clip(v, -limit, limit))
            assert type(got) is float
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
        # the applied u: a bias rule of +-1e3 pushes u past either bound
        for bias in (1e3, -1e3, 0.3, 0.0):
            ctl = ParsimoniousController(ControllerConfig(actuator_limit=limit, evolution_enabled=False))
            ctl.net.w[0] = bias
            u, cells = ctl.step(1.0, 1.0, 0.01)
            assert type(u) is float
            assert u == float(np.clip(_named(cells)["u_src"] - _named(cells)["u_palm"], -limit, limit))


def test_adapt_sliding_params_fixed_mode():
    c = ControllerConfig(learn_rates=(0.0, 0.0, 0.0))
    s = SlidingState(c.alpha1, c.alpha2, c.alpha3)
    before = (s.alpha1, s.alpha2, s.alpha3)
    assert not adapt_sliding_params(s, c, 1.0, 1.0, 2.0, 0.01)
    assert (s.alpha1, s.alpha2, s.alpha3) == before


def test_adapt_sliding_params_grows_and_clamps():
    c = ControllerConfig(learn_rates=(10.0, 10.0, 10.0), alpha_max=(0.05, 0.02, 0.001))
    s = SlidingState(c.alpha1, c.alpha2, c.alpha3)
    s.err_integral = 3.0
    for _ in range(1000):
        adapt_sliding_params(s, c, 1.0, 1.0, 2.0, 0.01)
    assert s.alpha1 == pytest.approx(0.05)
    assert s.alpha2 == pytest.approx(0.02)
    assert s.alpha3 == pytest.approx(0.001)


def test_adapt_sliding_params_frozen_at_zero_error():
    c = ControllerConfig(learn_rates=(1.0, 1.0, 1.0))
    s = SlidingState(c.alpha1, c.alpha2, c.alpha3)
    before = (s.alpha1, s.alpha2, s.alpha3)
    adapt_sliding_params(s, c, 0.0, 0.0, 0.0, 0.01)
    assert (s.alpha1, s.alpha2, s.alpha3) == before


def test_negative_learn_rate_rejected():
    with pytest.raises(ValueError, match="learn_rates"):
        ControllerConfig(learn_rates=(0.1, -0.5, 0.001))


@pytest.mark.parametrize("name", ["learn_rates", "alpha_max"])
@pytest.mark.parametrize("values", [(0.1, 0.5), (0.1, 0.5, 0.001, 0.2)], ids=["two", "four"])
def test_learn_rates_and_alpha_max_need_three_values(name, values):
    # each holds one value per alpha; a wrong count would only fail to unpack on the first step
    with pytest.raises(ValueError, match=f"^{name} takes three values"):
        ControllerConfig(**{name: values})


@pytest.mark.parametrize("name", ["weight_limit", "sat_limit", "actuator_limit"])
@pytest.mark.parametrize("value", [-1.0, -1, float("nan"), float("-inf")])
def test_negative_or_nan_limit_rejected(name, value):
    # the clamp would return the limit itself for every input
    with pytest.raises(ValueError, match=f"^{name} must be non-negative"):
        ControllerConfig(**{name: value})


def test_zero_and_infinite_limits_accepted():
    c = ControllerConfig(weight_limit=0, sat_limit=0.0, actuator_limit=float("inf"))
    assert (c.weight_limit, c.sat_limit, c.actuator_limit) == (0.0, 0.0, float("inf"))
    assert type(c.weight_limit) is float


def test_numpy_dt_keeps_the_step_float():
    ctl = ParsimoniousController(ControllerConfig(learn_rates=(0.1, 0.5, 0.001)))
    for y in (0.2, 0.5, 0.7):  # from the second step on, e_dot divides by dt
        u, cells = ctl.step(y, 1.0, np.float64(0.01))
        values = [u, ctl.sliding.err_integral, *ctl.net.w]
        assert [type(v) for v in values] == [float] * len(values)
        assert [type(v) for v in cells] == CELL_TYPES


def _count_calls(monkeypatch, name, module=controller):
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_saturated_alphas_skip_the_sliding_adaptation(monkeypatch):
    # the alphas only grow, so once all three reach alpha_max the adaptation
    # and the P rebuild are skipped; a controller made to run them every step
    # flies the same loop bit for bit
    adapt_calls = _count_calls(monkeypatch, "adapt_sliding_params")
    p_calls = _count_calls(monkeypatch, "p_matrix")
    cfg = ControllerConfig(gamma=1e-3, learn_rates=(10.0, 10.0, 10.0), alpha_max=(0.05, 0.02, 0.001))
    loops = {}
    for skip in (True, False):
        ctl = ParsimoniousController(cfg)
        plant = DoubleIntegrator()
        trace, saturated_at, calls_then = [], None, None
        for i in range(2000):
            if not skip:
                ctl._alphas_at_max = False
            u, cells = ctl.step(plant.output(), 1.0 + math.sin(0.01 * i), 0.01)
            plant.step(u, 0.01)
            trace.append(tuple(v.hex() for v in (plant.output(), u, _named(cells)["u_palm"])))
            if saturated_at is None and (ctl.sliding.alpha1, ctl.sliding.alpha2, ctl.sliding.alpha3) == cfg.alpha_max:
                saturated_at, calls_then = i, (len(adapt_calls), len(p_calls))
        loops[skip] = trace, saturated_at, calls_then, (len(adapt_calls), len(p_calls)), (ctl.P.p12, ctl.P.p22)
        del adapt_calls[:], p_calls[:]
    trace, saturated_at, calls_then, calls_end, p = loops[True]
    assert saturated_at is not None and saturated_at < 1000
    assert calls_then == calls_end  # no adaptation and no P rebuild after the step that reached the ceiling
    assert calls_end[0] == saturated_at + 1
    ref_trace, ref_saturated_at, _, ref_calls_end, ref_p = loops[False]
    assert ref_calls_end[0] == 2000 and ref_saturated_at == saturated_at
    assert trace == ref_trace
    assert p == ref_p


def test_alphas_starting_at_the_ceiling_never_adapt(monkeypatch):
    adapt_calls = _count_calls(monkeypatch, "adapt_sliding_params")
    ctl = ParsimoniousController(ControllerConfig(learn_rates=(1.0, 1.0, 1.0), alpha_max=(1e-2, 1e-3, 1e-9)))
    for i in range(50):
        ctl.step(0.1 * i, 1.0, 0.01)
    assert adapt_calls == []
    assert (ctl.sliding.alpha1, ctl.sliding.alpha2, ctl.sliding.alpha3) == (1e-2, 1e-3, 1e-9)


def test_control_step_zero_error_zero_output():
    ctl = ParsimoniousController(ControllerConfig(gamma=1.0))
    for _ in range(200):
        u, cells = ctl.step(5.0, 5.0, 0.01)
        assert u == 0.0
        assert _named(cells)["u_src"] - _named(cells)["u_palm"] == 0.0
    assert ctl.rule_count == 1


def test_control_step_first_step_sign():
    ctl = ParsimoniousController(ControllerConfig(gamma=1.0))
    u, cells = ctl.step(0.0, 10.0, 0.01)
    # e = y_r - y = 10 on the first step, with no rate and one step of integral
    assert _named(cells)["s_l"] == sliding_value(10.0, 0.0, 10.0 * 0.01, ctl.sliding)
    assert u > 0.0


def test_control_step_u_identity():
    ctl = ParsimoniousController(ControllerConfig(gamma=1.0, actuator_limit=0.05))
    rng = np.random.default_rng(41)
    for _ in range(100):
        u, cells = ctl.step(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)), 0.01)
        cells = _named(cells)
        assert u == min(max(cells["u_src"] - cells["u_palm"], -0.05), 0.05)
        assert abs(u) <= 0.05


def test_prune_never_fires_on_single_rule_controller():
    ctl = ParsimoniousController(ControllerConfig(gamma=1e-3))
    rng = np.random.default_rng(43)
    for _ in range(500):
        ctl.step(float(rng.uniform(-1, 1)), 1.0, 0.01)
        assert ctl.rule_count >= 1


def _reference_loop(n, dt, y_r, cfg):
    """PALM's R-row controller (``palm_oracles.PalmReference``) flying a
    straight-line double integrator."""
    ref = PalmReference(cfg)
    y, v = 0.0, 0.0
    out = []
    for _ in range(n):
        u = ref.step(y, y_r, dt)
        y += v * dt + 0.5 * u * dt * dt
        v += u * dt
        out.append(y)
    return out


def test_closed_loop_matches_independent_reference_simulation():
    dt, n = 0.01, 10_000
    cfg = ControllerConfig(
        gamma=1e-3,
        weight_limit=10.0,
        actuator_limit=10.0,
        sat_limit=10.0,
        learn_rates=(0.1, 0.5, 0.001),
        alpha_max=(1.0, 0.5, 0.01),
    )
    ctl = ParsimoniousController(cfg)
    plant = DoubleIntegrator()
    ys = []
    for _ in range(n):
        u, _ = ctl.step(plant.output(), 1.0, dt)
        u = max(-10.0, min(10.0, u))
        plant.step(u, dt)
        ys.append(plant.output())
    np.testing.assert_allclose(ys, _reference_loop(n, dt, 1.0, cfg), atol=1e-9)


def test_antecedent_exponent_bounded_by_eta():
    # the membership exponent argument of PALM's rows stays in [-eta, 0]
    ref = PalmReference(ControllerConfig(gamma=1e-3), eta=7.0)
    rng = np.random.default_rng(47)
    for _ in range(500):
        ref.step(float(rng.uniform(-2, 2)), 1.0, 0.01)
        exponents = np.log(np.clip(ref.raw, 1e-300, None))
        assert np.all(exponents >= -7.0 - 1e-12)
        assert np.all(exponents <= 1e-12)
    assert ref.R > 1


def test_controller_run_is_deterministic():
    def run():
        ctl = ParsimoniousController(ControllerConfig(gamma=3e-3, learn_rates=(0.1, 0.5, 0.001)))
        plant = DoubleIntegrator()
        trace = []
        for _ in range(2000):
            u, _ = ctl.step(plant.output(), 2.0, 0.01)
            plant.step(max(-10, min(10, u)), 0.01)
            trace.append((plant.output(), ctl.rule_count))
        return trace, list(ctl.events)

    a, ev_a = run()
    b, ev_b = run()
    assert a == b
    assert ev_a == ev_b


def _bits(value):
    """Floats as their hex form, recursively through tuples, lists and dataclasses, so -0.0 and NaN compare exactly."""
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        return type(value).__name__, _bits(dataclasses.astuple(value))
    if isinstance(value, (tuple, list)):
        return type(value).__name__, [_bits(v) for v in value]
    return value


def _controller_bits(ctl):
    """Every value a PAC step reads or writes; of the events, the count and the newest."""
    evo = ctl.evo
    return _bits(
        (ctl.net.w, ctl.net.rule_count, ctl.sliding, ctl.P, ctl._alphas_at_max, ctl._e_prev, ctl.steps,
         len(ctl.events), ctl.events[-1:], evo.mu_e, evo.k, evo.grow, evo.prune)
    )


def _lockstep(fused, staged, y, y_r, dt):
    """One step of each controller on the same inputs; both must agree to the bit, state included."""
    got, want = fused.step(y, y_r, dt), staged_step(staged, y, y_r, dt)
    assert _bits(got) == _bits(want)
    assert _controller_bits(fused) == _controller_bits(staged)
    return got


@pytest.mark.parametrize(
    "cfg",
    [
        ControllerConfig(),
        ControllerConfig(gamma=3e-3, actuator_limit=0.2, sat_limit=0.05, learn_rates=(0.1, 0.5, 0.001)),
        ControllerConfig(weight_limit=0.3, evolution_enabled=False),
    ],
    ids=["default", "limits-and-learning", "no-evolution"],
)
def test_fused_step_bit_equal_to_staged_oracle_on_random_inputs(cfg):
    rng = np.random.default_rng(61)
    fused, staged = ParsimoniousController(cfg), ParsimoniousController(cfg)
    for _ in range(1500):
        y, y_r = (rng.uniform(-3.0, 3.0, size=2) * 10.0 ** rng.integers(-3, 2)).tolist()
        _lockstep(fused, staged, y, y_r, float(rng.choice([0.005, 0.01, 0.02])))


def test_fused_step_bit_equal_to_staged_oracle_through_grow_prune_clip_and_ceiling():
    # a closed loop on a staircase that grows and prunes rules, drives the
    # weights onto both bounds and the sliding coefficients onto their ceiling
    lim = 0.05
    cfg = ControllerConfig(gamma=0.01, weight_limit=lim, actuator_limit=5.0, learn_rates=(5.0, 5.0, 5.0),
                           alpha_max=(0.05, 0.02, 0.001))
    fused, staged = ParsimoniousController(cfg), ParsimoniousController(cfg)
    plant = DoubleIntegrator()
    clipped, at_ceiling = set(), False
    for i in range(3000):
        y_r = (0.0, 2.0, -1.0, 0.5, 3.0)[(i // 300) % 5] + math.sin(0.05 * i)
        u, _ = _lockstep(fused, staged, plant.output(), y_r, 0.01)
        plant.step(u, 0.01)
        clipped.update(v for v in fused.net.w if abs(v) == lim)
        at_ceiling = at_ceiling or (fused.sliding.alpha1, fused.sliding.alpha2, fused.sliding.alpha3) == cfg.alpha_max
    kinds = {kind for _, kind, *_ in fused.events}
    assert kinds == {"GROW", "PRUNE"}
    assert clipped == {lim, -lim}
    assert at_ceiling


def test_fused_step_bit_equal_to_staged_oracle_on_numpy_scalars():
    cfg = ControllerConfig(gamma=3e-3, learn_rates=(0.1, 0.5, 0.001))
    fused, staged = ParsimoniousController(cfg), ParsimoniousController(cfg)
    rng = np.random.default_rng(62)
    for y, y_r in rng.uniform(-2.0, 2.0, size=(300, 2)):
        u, cells = _lockstep(fused, staged, y, np.float32(y_r), 0.01)
        values = [u, *fused.net.w, *fused.evo.mu_e, fused.sliding.err_integral]
        assert [type(v) for v in values] == [float] * len(values)
        assert [type(v) for v in cells] == CELL_TYPES


@pytest.mark.parametrize("evolution_enabled", [True, False])
def test_one_step_calls_each_traced_function_once(monkeypatch, evolution_enabled):
    # the benchmark's tracer replaces these five names in their modules and
    # times the step by them: a fused step must keep calling each through
    # that module attribute, once a step
    calls = {
        name: _count_calls(monkeypatch, name, module)
        for module, name in [
            (controller, "network_output"),
            (controller, "adapt_weights"),
            (evolution, "network_bias_variance"),
            (evolution, "check_grow"),
            (evolution, "check_prune"),
        ]
    }
    ctl = ParsimoniousController(ControllerConfig(evolution_enabled=evolution_enabled))
    for i in range(1, 4):
        ctl.step(0.1 * i, 1.0, 0.01)
        counts = {name: len(c) for name, c in calls.items()}
        evolving = i if evolution_enabled else 0
        assert counts == {
            "network_output": i,
            "adapt_weights": i,
            "network_bias_variance": evolving,
            "check_grow": evolving,
            "check_prune": evolving,
        }
