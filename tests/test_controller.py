import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from pacsim import controller, evolution
from pacsim.controller import (
    ControllerConfig,
    PalmNetwork,
    ParsimoniousController,
    adapt_weights,
    p_matrix,
)
from pacsim.pid import PidConfig, PidController
from pacsim.plants import DoubleIntegrator
from controller_oracles import extended_input, robustifying_term, sliding_value, staged_step
from palm_oracles import PalmReference


# the type of each cell a PAC step returns: R counts rules, every other cell is a float
CELL_TYPES = [int if c == "R" else float for c in ParsimoniousController.log_columns]


def _named(cells) -> dict:
    """A PAC step's log cells by column name."""
    return dict(zip(ParsimoniousController.log_columns, cells))


def _alphas(**changes) -> tuple[float, float, float]:
    """The default starting alphas with the named ones (alpha1..alpha3) replaced."""
    named = dict(zip(("alpha1", "alpha2", "alpha3"), ControllerConfig().alphas), **changes)
    return tuple(named.values())


def test_sliding_value_zero():
    s = ControllerConfig().alphas
    assert sliding_value(0.0, 0.0, 0.0, s) == 0.0


def test_sliding_value_initial_coefficients():
    s = (1e-2, 1e-3, 1e-9)  # alpha3 ~ 0
    assert sliding_value(1.0, 1.0, 0.0, s) == pytest.approx(1.1, abs=1e-6)


def test_sliding_value_ratio_invariance():
    s1 = (0.02, 0.004, 0.0002)
    s2 = (0.04, 0.008, 0.0004)
    for e, ed, ei in [(1.0, -2.0, 3.0), (0.5, 0.1, -0.7)]:
        assert sliding_value(e, ed, ei, s1) == pytest.approx(sliding_value(e, ed, ei, s2), rel=1e-12)


def test_robustifying_term():
    c = ControllerConfig(sat_limit=10.0, alphas=(1e-2, 1e-3, 1e-9))
    s = c.alphas
    assert robustifying_term(0.0, s, c) == 0.0
    assert robustifying_term(1.1, s, c) == pytest.approx(0.011)
    assert robustifying_term(1e8, s, c) == 10.0
    assert robustifying_term(-1e8, s, c) == -10.0


@pytest.mark.parametrize("key, value", [("alpha1", 0.0), ("alpha2", -1e-3)])
def test_nonpositive_starting_alpha_rejected(key, value):
    with pytest.raises(ValueError, match="alpha1 and alpha2 must be positive"):
        ControllerConfig(alphas=_alphas(**{key: value}))


@pytest.mark.parametrize(
    "params, message",
    [
        ({"alphas": (math.nan, 1e-3, 1e-9)}, "alpha1 and alpha2 must be positive and alpha3 non-negative, all finite"),
        ({"alphas": (1e-2, math.inf, 1e-9)}, "alpha1 and alpha2 must be positive and alpha3 non-negative, all finite"),
        ({"alphas": (1e-2, 1e-3, -1.0)}, "alpha1 and alpha2 must be positive and alpha3 non-negative, all finite"),
        ({"alphas": (1e-2, 1e-3, math.nan)}, "alpha1 and alpha2 must be positive and alpha3 non-negative, all finite"),
        ({"gamma": math.nan}, "gamma must be finite"),
        ({"gamma": -math.inf}, "gamma must be finite"),
        # a string or a bool is no number, though float() would take it; a bool gamma was a gain of 1
        ({"gamma": True}, "^gamma must be finite and a real number"),
        ({"gamma": "50"}, "^gamma must be finite and a real number"),
        ({"gamma": None}, "^gamma must be finite and a real number"),
        ({"alphas": ["0.01", "1e-3", "0"]}, "^alphas takes three values"),
        ({"alphas": [True, 1e-3, 0.0]}, "^alphas takes three values"),
    ],
)
def test_bad_sliding_setting_rejected(params, message):
    with pytest.raises(ValueError, match=message):
        ControllerConfig(**params)


def test_negative_gamma_and_start_at_the_ceiling_accepted():
    # a negative gamma adapts the other way; it is how a bias overflow is provoked on purpose
    ControllerConfig(gamma=-50.0)
    # the default alphas sit at the ceiling that the removed self-evolution grew them to
    assert ControllerConfig().alphas == (0.5, 0.5, 0.01)
    ControllerConfig(alphas=(1e-2, 1e-3, 0.0))
    # fixed alphas have no ceiling: a PID's attitude gains (kp, kd, ki) are valid alphas
    ControllerConfig(alphas=(5.0, 0.1, 0.5))


def test_p_matrix_published_values():
    p11, p12, p22 = p_matrix(1e-2, 1e-3)
    # the exact p11; the paper prints 500.1, its p11 form being exact only when alpha1 == alpha2
    assert p11 == pytest.approx(505.05, abs=1e-9)
    assert p12 == pytest.approx(50.0, abs=1e-9)
    assert p22 == pytest.approx(50500.0, abs=1e-9)


def test_p_matrix_symmetric_case():
    p11, p12, p22 = p_matrix(0.5, 0.5)
    assert (p11, p12, p22) == pytest.approx((2.0, 1.0, 3.0))
    assert p11 > 0 and p11 * p22 - p12 * p12 > 0


def test_p_matrix_rejects_nonpositive():
    with pytest.raises(ValueError):
        p_matrix(0.0, 1e-3)


def test_p_matrix_solves_lyapunov_equation():
    rng = np.random.default_rng(21)
    for _ in range(100):
        a1, a2 = rng.uniform(1e-3, 2.0, size=2)
        p11, p12, p22 = p_matrix(a1, a2)
        A = np.array([[0.0, 1.0], [-a1, -a2]])
        M = np.array([[p11, p12], [p12, p22]])
        residual = A.T @ M + M @ A + np.eye(2)
        assert np.abs(residual).max() < 1e-9
        assert p11 > 0 and p11 * p22 - p12 * p12 > 0


def test_p_matrix_matches_scipy_solver():
    rng = np.random.default_rng(22)
    for _ in range(20):
        a1, a2 = rng.uniform(1e-3, 2.0, size=2)
        A = np.array([[0.0, 1.0], [-a1, -a2]])
        ref = scipy.linalg.solve_continuous_lyapunov(A.T, -np.eye(2))
        p11, p12, p22 = p_matrix(a1, a2)
        np.testing.assert_allclose([[p11, p12], [p12, p22]], ref, rtol=1e-9)


def printed_p_matrix(a1: float, a2: float) -> tuple[float, float, float]:
    """(p11, p12, p22) as the paper prints them, kept as a reference."""
    return a2 / a1 + 1.0 / (2.0 * a2), 1.0 / (2.0 * a1), (1.0 + a1) / (2.0 * a1 * a2)


def test_p_matrix_against_the_printed_form():
    # the adaptation law reads only p12 and p22, which are the printed ones;
    # the printed p11 is exact only when alpha1 == alpha2
    rng = np.random.default_rng(23)
    for _ in range(100):
        a1, a2 = rng.uniform(1e-3, 2.0, size=2)
        (pub_p11, pub_p12, pub_p22), (p11, p12, p22) = printed_p_matrix(a1, a2), p_matrix(a1, a2)
        assert pub_p12 == pytest.approx(p12, rel=1e-14)
        assert pub_p22 == pytest.approx(p22, rel=1e-14)
        assert p11 != pytest.approx(pub_p11, rel=1e-9)
        assert printed_p_matrix(a1, a1)[0] == pytest.approx(p_matrix(a1, a1)[0], rel=1e-14)


def test_adapt_weights_no_error_no_change():
    net = PalmNetwork(w=np.array([0.1, 0.2, 0.3, 0.4]))
    before = net.w.copy()
    adapt_weights(net, 0.0, 0.0, ControllerConfig(gamma=1.0, weight_limit=10.0), p_matrix(1e-2, 1e-3), np.array([1.0, 0, 0, 1.0]), 1.0)
    np.testing.assert_array_equal(net.w, before)


def test_adapt_weights_hand_arithmetic():
    # g = e*p12 + de*p22 = 2 with the crafted P below
    net = PalmNetwork()
    P = (1.0, 1.0, 1.0)
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
        P = _, p12, p22 = p_matrix(1e-2, 1e-3)
        g = e * p12 + ed * p22
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
        P = _, p12, p22 = p_matrix(1e-2, 1e-3)
        x_e = np.concatenate([[1.0], rng.uniform(-2, 2, size=3)])
        adapt_weights(net, e, ed, ControllerConfig(gamma=0.5, weight_limit=2.5), P, x_e, 0.01)
        g = e * p12 + ed * p22
        want = [max(-2.5, min(2.5, w0[q] - 0.01 * 0.5 * g * (1.0 / r) * x_e[q])) for q in range(4)]
        np.testing.assert_allclose(net.w, want, rtol=0.0, atol=1e-12)


def test_adapt_weights_bit_equal_to_outer_and_clip_reference():
    # the update is one scaled input, then np.clip, bit for bit
    rng = np.random.default_rng(34)
    P = _, p12, p22 = p_matrix(1e-2, 1e-3)
    for r in (1, 3, 95):
        for gamma in (0.5, 5e3):  # the large gain drives entries past both bounds
            w0 = rng.uniform(-3, 3, size=4)
            e, ed = rng.uniform(-2, 2, size=2)
            x_e = np.concatenate([[1.0], rng.uniform(-2, 2, size=3)])
            net = PalmNetwork(w=w0.copy(), rule_count=r)
            adapt_weights(net, e, ed, ControllerConfig(gamma=gamma, weight_limit=2.5), P, x_e, 0.01)
            g = e * p12 + ed * p22
            want = np.clip(w0 - (0.01 * gamma * g / r) * x_e, -2.5, 2.5)
            assert np.array_equal(net.w, want)
            if gamma > 1.0:
                assert 2.5 in net.w and -2.5 in net.w


def test_adapt_weights_nan_input_raises():
    for r in (1, 3):
        net = PalmNetwork(rule_count=r)
        with pytest.raises(FloatingPointError):
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
    assert all(type(v) is float for v in ctl.net.w) and all(type(v) is float for v in ctl.mu_e)


def test_numpy_scalar_inputs_leave_python_floats_in_both_controllers():
    # the controllers take y and y_r as floats at entry, so a caller's numpy scalar
    # reaches neither their state, nor their output, nor a step log cell
    pac, pid = ParsimoniousController(), PidController(PidConfig(kp=2.0, ki=0.5, kd=0.1))
    for y in np.linspace(0.0, 1.0, 20):
        u, cells = pac.step(y, np.float64(1.0), 0.01)
        values = [u, *pac.mu_e, *pac.net.w, pac.err_integral, pac._e_prev]
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
        with pytest.raises(FloatingPointError):
            adapt_weights(net, 0.0, 0.0, ControllerConfig(gamma=1.0, weight_limit=float("inf")), p_matrix(1e-2, 1e-3), np.ones(4), 0.01)


def test_clamps_match_np_clip():
    values = [0.0, -0.0, 0.3, -0.3, 7.0, -7.0, 1e8, -1e8, float("inf"), float("-inf")]
    for limit in (5, 5.0, float("inf")):
        c = ControllerConfig(alphas=(1.0, 1e-3, 1e-9), sat_limit=limit)
        s = c.alphas
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


@pytest.mark.parametrize("values", [(0.1, 0.5), (0.1, 0.5, 0.001, 0.2), 0.01], ids=["two", "four", "scalar"])
def test_alphas_need_three_values(values):
    # one value per alpha; a wrong count would only fail to unpack on the first step
    with pytest.raises(ValueError, match="^alphas takes three values"):
        ControllerConfig(alphas=values)


@pytest.mark.parametrize("name", ["weight_limit", "sat_limit", "actuator_limit"])
@pytest.mark.parametrize("value", [-1.0, -1, float("nan"), float("-inf"), "10", True])
def test_negative_or_nan_limit_rejected(name, value):
    # the clamp would return the limit itself for every input; a string or a bool is no number, though float() takes it
    with pytest.raises(ValueError, match=f"^{name} must be (non-negative|a real number or inf), not "):
        ControllerConfig(**{name: value})


def test_zero_and_infinite_limits_accepted():
    c = ControllerConfig(weight_limit=0, sat_limit=0.0, actuator_limit=float("inf"))
    assert (c.weight_limit, c.sat_limit, c.actuator_limit) == (0.0, 0.0, float("inf"))
    assert type(c.weight_limit) is float


def test_numpy_dt_keeps_the_step_float():
    ctl = ParsimoniousController()
    for y in (0.2, 0.5, 0.7):  # from the second step on, e_dot divides by dt
        u, cells = ctl.step(y, 1.0, np.float64(0.01))
        values = [u, ctl.err_integral, *ctl.net.w]
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


def test_alphas_starting_at_the_ceiling_never_adapt(monkeypatch):
    # the default alphas are the ceiling the self-evolution used to reach; they
    # stay fixed, so P is built once, before the first step, and never again
    p_calls = _count_calls(monkeypatch, "p_matrix")
    ctl = ParsimoniousController()
    assert len(p_calls) == 1
    for i in range(50):
        ctl.step(0.1 * i, 1.0, 0.01)
    assert len(p_calls) == 1
    assert ctl.config.alphas == (0.5, 0.5, 0.01)
    assert ctl.P == p_matrix(0.5, 0.5) == (2.0, 1.0, 3.0)


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
    assert _named(cells)["s_l"] == sliding_value(10.0, 0.0, 10.0 * 0.01, ctl.config.alphas)
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
        ctl = ParsimoniousController(ControllerConfig(gamma=3e-3))
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
    return _bits(
        (ctl.net.w, ctl.net.rule_count, ctl.err_integral, ctl.P, ctl._e_prev, ctl.steps,
         len(ctl.events), ctl.events[-1:], ctl.mu_e, ctl.grow, ctl.prune)
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
        ControllerConfig(gamma=3e-3, actuator_limit=0.2, sat_limit=0.05, alphas=(1e-2, 1e-3, 1e-9)),
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


def test_fused_step_bit_equal_to_staged_oracle_through_grow_prune_and_clip():
    # a closed loop on a staircase that grows and prunes rules and drives the weights onto both bounds
    lim = 0.05
    cfg = ControllerConfig(gamma=0.01, weight_limit=lim, actuator_limit=5.0, alphas=(0.05, 0.02, 0.001))
    fused, staged = ParsimoniousController(cfg), ParsimoniousController(cfg)
    plant = DoubleIntegrator()
    clipped = set()
    for i in range(3000):
        y_r = (0.0, 2.0, -1.0, 0.5, 3.0)[(i // 300) % 5] + math.sin(0.05 * i)
        u, _ = _lockstep(fused, staged, plant.output(), y_r, 0.01)
        plant.step(u, 0.01)
        clipped.update(v for v in fused.net.w if abs(v) == lim)
    kinds = {kind for _, kind, *_ in fused.events}
    assert kinds == {"GROW", "PRUNE"}
    assert clipped == {lim, -lim}


def test_fused_step_bit_equal_to_staged_oracle_on_numpy_scalars():
    cfg = ControllerConfig(gamma=3e-3)
    fused, staged = ParsimoniousController(cfg), ParsimoniousController(cfg)
    rng = np.random.default_rng(62)
    for y, y_r in rng.uniform(-2.0, 2.0, size=(300, 2)):
        u, cells = _lockstep(fused, staged, y, np.float32(y_r), 0.01)
        values = [u, *fused.net.w, *fused.mu_e, fused.err_integral]
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
