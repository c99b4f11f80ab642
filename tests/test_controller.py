import math

import numpy as np
import pytest
import scipy.linalg

from pacsim.controller import (
    ControlStep,
    ControllerConfig,
    ControllerFault,
    ParsimoniousController,
    PMatrix,
    SlidingState,
    adapt_sliding_params,
    adapt_weights,
    lyapunov_p_matrix,
    p_matrix,
    robustifying_term,
    sliding_value,
)
from pacsim.palm import FiringVector, PalmNetwork
from pacsim.plants import DoubleIntegrator


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


def test_p_matrix_published_values():
    P = p_matrix(1e-2, 1e-3)
    assert P.p11 == pytest.approx(500.1, abs=1e-9)
    assert P.p12 == pytest.approx(50.0, abs=1e-9)
    assert P.p21 == pytest.approx(50.0, abs=1e-9)
    assert P.p22 == pytest.approx(50500.0, abs=1e-9)


def test_p_matrix_symmetric_case():
    P = p_matrix(0.5, 0.5)
    assert (P.p11, P.p12, P.p22) == pytest.approx((2.0, 1.0, 3.0))
    assert P.is_positive_definite()


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
        assert P.is_positive_definite()


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


def _firing(lams):
    lams = np.asarray(lams, dtype=float)
    return FiringVector(raw=lams.copy(), normalized=lams)


def test_adapt_weights_no_error_no_change():
    net = PalmNetwork(weights=[[0.1, 0.2, 0.3, 0.4]])
    step = ControlStep(e=0.0, e_dot=0.0, s_l=0.0, u_src=0.0, u_palm=0.0, u=0.0, firing=_firing([1.0]))
    before = net.weights[0].copy()
    adapt_weights(net, step, ControllerConfig(gamma=1.0, weight_limit=10.0), p_matrix(1e-2, 1e-3), np.array([1.0, 0, 0, 1.0]), 1.0)
    np.testing.assert_array_equal(net.weights[0], before)


def test_adapt_weights_hand_arithmetic():
    # g = e*p12 + de*p22 = 2 with the crafted P below
    net = PalmNetwork(weights=np.zeros((1, 4)))
    step = ControlStep(e=2.0, e_dot=0.0, s_l=0.0, u_src=0.0, u_palm=0.0, u=0.0, firing=_firing([1.0]))
    P = PMatrix(p11=1.0, p12=1.0, p21=1.0, p22=1.0)
    x_e = np.array([1.0, 0.0, 0.0, 1.0])
    adapt_weights(net, step, ControllerConfig(gamma=1.0, weight_limit=10.0), P, x_e, 1.0)
    np.testing.assert_allclose(net.weights[0], [-2.0, 0.0, 0.0, -2.0])


def test_adapt_weights_direction_opposes_g():
    rng = np.random.default_rng(31)
    for _ in range(50):
        net = PalmNetwork(weights=np.zeros((1, 4)))
        e, ed = rng.uniform(-1, 1, size=2)
        P = p_matrix(1e-2, 1e-3)
        g = e * P.p12 + ed * P.p22
        x_e = np.array([1.0, abs(e), abs(ed), 2.0])  # positive entries
        step = ControlStep(e=e, e_dot=ed, s_l=0, u_src=0, u_palm=0, u=0, firing=_firing([1.0]))
        adapt_weights(net, step, ControllerConfig(gamma=1.0, weight_limit=10.0), P, x_e, 0.01)
        if g != 0:
            assert np.all(np.sign(net.weights[0]) == -np.sign(g) * np.sign(x_e))


def test_adapt_weights_clipped_to_limit():
    net = PalmNetwork(weights=np.zeros((1, 4)))
    step = ControlStep(e=100.0, e_dot=0.0, s_l=0, u_src=0, u_palm=0, u=0, firing=_firing([1.0]))
    adapt_weights(net, step, ControllerConfig(gamma=100.0, weight_limit=10.0), p_matrix(1e-2, 1e-3), np.ones(4), 1.0)
    assert np.all(np.abs(net.weights[0]) <= 10.0)


def test_adapt_weights_many_rules_match_per_row_update():
    rng = np.random.default_rng(33)
    for r in (2, 7, 40):
        w0 = rng.uniform(-3, 3, size=(r, 4))
        net = PalmNetwork(weights=w0)
        lam = rng.dirichlet(np.ones(r))
        e, ed = rng.uniform(-2, 2, size=2)
        step = ControlStep(e=e, e_dot=ed, s_l=0, u_src=0, u_palm=0, u=0, firing=_firing(lam))
        P = p_matrix(1e-2, 1e-3)
        x_e = np.concatenate([[1.0], rng.uniform(-2, 2, size=3)])
        adapt_weights(net, step, ControllerConfig(gamma=0.5, weight_limit=2.5), P, x_e, 0.01)
        g = e * P.p12 + ed * P.p22
        for j in range(r):
            want = [max(-2.5, min(2.5, w0[j, q] - 0.01 * 0.5 * g * lam[j] * x_e[q])) for q in range(4)]
            np.testing.assert_allclose(net.weights[j], want, rtol=0.0, atol=1e-12)


def test_adapt_weights_bit_equal_to_outer_and_clip_reference():
    rng = np.random.default_rng(34)
    P = p_matrix(1e-2, 1e-3)
    for r in (1, 3, 95):
        for gamma in (0.5, 5e3):  # the large gain drives entries past both bounds
            w0 = rng.uniform(-3, 3, size=(r, 4))
            lam = rng.dirichlet(np.ones(r))
            e, ed = rng.uniform(-2, 2, size=2)
            x_e = np.concatenate([[1.0], rng.uniform(-2, 2, size=3)])
            net = PalmNetwork(weights=w0)
            step = ControlStep(e=e, e_dot=ed, s_l=0, u_src=0, u_palm=0, u=0, firing=_firing(lam))
            adapt_weights(net, step, ControllerConfig(gamma=gamma, weight_limit=2.5), P, x_e, 0.01)
            g = e * P.p12 + ed * P.p22
            want = np.clip(w0 - np.outer(0.01 * gamma * g * lam, x_e), -2.5, 2.5)
            assert np.array_equal(net.weights, want)
            if gamma > 1.0:
                assert (net.weights == 2.5).any() and (net.weights == -2.5).any()


def test_adapt_weights_nan_input_raises():
    net = PalmNetwork(weights=np.zeros((3, 4)))
    step = ControlStep(e=1.0, e_dot=0.0, s_l=0, u_src=0, u_palm=0, u=0, firing=_firing([0.2, 0.3, 0.5]))
    with pytest.raises(ControllerFault):
        adapt_weights(net, step, ControllerConfig(gamma=1.0, weight_limit=10.0), p_matrix(1e-2, 1e-3), np.array([1.0, np.nan, 0, 1.0]), 0.01)


def test_adapt_weights_finite_check_is_entrywise():
    # entries at a bound near the float max overflow their sum (numpy warns)
    # but are finite: no fault
    net = PalmNetwork(weights=np.full((2, 4), 1e308))
    step = ControlStep(e=0.0, e_dot=0.0, s_l=0, u_src=0, u_palm=0, u=0, firing=_firing([0.5, 0.5]))
    with pytest.warns(RuntimeWarning, match="overflow"):
        adapt_weights(net, step, ControllerConfig(gamma=1.0, weight_limit=1e308), p_matrix(1e-2, 1e-3), np.ones(4), 0.01)
    assert np.all(net.weights == 1e308)
    # an infinite bound lets an infinite entry through, which is a fault
    net = PalmNetwork(weights=np.zeros((2, 4)))
    net.weights[1, 2] = np.inf
    with pytest.raises(ControllerFault):
        adapt_weights(net, step, ControllerConfig(gamma=1.0, weight_limit=float("inf")), p_matrix(1e-2, 1e-3), np.ones(4), 0.01)


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
            ctl.net.weights[0, 0] = bias
            u, diag = ctl.step(1.0, 1.0, 0.01)
            assert type(u) is float
            assert u == float(np.clip(diag.u, -limit, limit))


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


def test_control_step_zero_error_zero_output():
    ctl = ParsimoniousController(ControllerConfig(gamma=1.0))
    for _ in range(200):
        u, diag = ctl.step(5.0, 5.0, 0.01)
        assert u == 0.0
        assert diag.u == 0.0
    assert ctl.rule_count == 1


def test_control_step_first_step_sign():
    ctl = ParsimoniousController(ControllerConfig(gamma=1.0))
    u, diag = ctl.step(0.0, 10.0, 0.01)
    assert diag.e == 10.0
    assert u > 0.0


def test_control_step_u_identity():
    ctl = ParsimoniousController(ControllerConfig(gamma=1.0, actuator_limit=0.05))
    rng = np.random.default_rng(41)
    for _ in range(100):
        u, diag = ctl.step(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)), 0.01)
        assert diag.u == diag.u_src - diag.u_palm
        assert abs(u) <= 0.05


def test_prune_never_fires_on_single_rule_controller():
    ctl = ParsimoniousController(ControllerConfig(gamma=1e-3))
    rng = np.random.default_rng(43)
    for _ in range(500):
        ctl.step(float(rng.uniform(-1, 1)), 1.0, 0.01)
        assert ctl.rule_count >= 1


def _reference_loop(n, dt, y_r, gamma, eta, m_w, m_u, sat, rho, amax):
    """Independent straight-line reimplementation of controller + plant."""
    a1, a2, a3 = 1e-2, 1e-3, 1e-9
    lo = (a1, a2, a3)
    rules = [[0.0, 0.0, 0.0, 0.0]]
    mu_e = [0.0] * 4
    k = 0
    mb_n, mb_mean, mb_m2 = 0, 0.0, 0.0
    mv_n, mv_mean, mv_m2 = 0, 0.0, 0.0
    mbmin = sbmin = mvmin = svmin = None
    floor = 0.2
    y, v = 0.0, 0.0
    e_prev = None
    ei = 0.0
    out = []
    for i in range(n):
        e = y_r - y
        ed = 0.0 if e_prev is None else (e - e_prev) / dt
        e_prev = e
        ei += e * dt
        p12, p22 = 1 / (2 * a1), (1 + a1) / (2 * a1 * a2)
        sl = e + (a2 / a1) * ed + (a3 / a1) * ei
        usrc = max(-sat, min(sat, a1 * sl))
        xe = [1.0, e, ed, y_r]
        dists = []
        for w in rules:
            plane = w[1] * xe[1] + w[2] * xe[2] + w[3] * xe[3] + w[0]
            dists.append(abs(y_r - plane) / math.sqrt(1 + w[1] ** 2 + w[2] ** 2 + w[3] ** 2))
        dmax = max(dists)
        raw = [1.0] * len(rules) if dmax == 0 else [math.exp(-eta * d / dmax) for d in dists]
        tot = sum(raw)
        lam = [r / tot for r in raw]
        upalm = sum(l * sum(wi * xi for wi, xi in zip(w, xe)) for l, w in zip(lam, rules))
        u = usrc - upalm
        # evolution
        k += 1
        for q in range(4):
            mu_e[q] += (xe[q] - mu_e[q]) / k
        ey = sum(sum(wi * mi for wi, mi in zip(w, mu_e)) for w in rules)
        ey2 = sum(sum(wi * mi * mi for wi, mi in zip(w, mu_e)) for w in rules)
        bias2 = (ey - y_r) ** 2
        var = max(ey2 - ey * ey, 0.0)
        b = math.sqrt(bias2)
        mb_n += 1
        d_ = b - mb_mean
        mb_mean += d_ / mb_n
        mb_m2 += d_ * (b - mb_mean)
        sdb = math.sqrt(max(mb_m2, 0.0) / mb_n)
        if mbmin is None or mb_mean < mbmin:
            mbmin = mb_mean
        if sbmin is None or sdb < sbmin:
            sbmin = sdb
        g_f = 1.3 * math.exp(-bias2) + 0.7
        grew = (mb_mean + sdb) > (mbmin + g_f * max(sbmin, floor * abs(mbmin), 0.01))
        mv_n += 1
        d_ = var - mv_mean
        mv_mean += d_ / mv_n
        mv_m2 += d_ * (var - mv_mean)
        sdv = math.sqrt(max(mv_m2, 0.0) / mv_n)
        if mvmin is None or mv_mean < mvmin:
            mvmin = mv_mean
        if svmin is None or sdv < svmin:
            svmin = sdv
        p_f = 1.3 * math.exp(-var) + 0.7
        pruned = (mv_mean + sdv) > (mvmin + 2 * p_f * max(svmin, floor * abs(mvmin), 0.01))
        if pruned:
            mvmin, svmin = mv_mean, sdv
        acted = False
        if grew:
            mbmin, sbmin = mb_mean, sdb
            win = max(range(len(rules)), key=lambda j: lam[j])
            rules.append(list(rules[win]))
            acted = True
        elif pruned and len(rules) >= 2:
            hs = [abs(sum(wi * mi for wi, mi in zip(w, mu_e))) for w in rules]
            rules.pop(hs.index(min(hs)))
            acted = True
        if acted:
            # detector restart after a structural edit
            mb_n, mb_mean, mb_m2 = 0, 0.0, 0.0
            mv_n, mv_mean, mv_m2 = 0, 0.0, 0.0
            mbmin = sbmin = mvmin = svmin = None
            dists = []
            for w in rules:
                plane = w[1] * xe[1] + w[2] * xe[2] + w[3] * xe[3] + w[0]
                dists.append(abs(y_r - plane) / math.sqrt(1 + w[1] ** 2 + w[2] ** 2 + w[3] ** 2))
            dmax = max(dists)
            raw = [1.0] * len(rules) if dmax == 0 else [math.exp(-eta * d / dmax) for d in dists]
            tot = sum(raw)
            lam = [r / tot for r in raw]
        g = e * p12 + ed * p22
        for j, w in enumerate(rules):
            for q in range(4):
                w[q] = max(-m_w, min(m_w, w[q] - dt * gamma * g * lam[j] * xe[q]))
        a1 = min(amax[0], max(lo[0], a1 + dt * rho[0] * abs(sl) * abs(e)))
        a2 = min(amax[1], max(lo[1], a2 + dt * rho[1] * abs(sl) * abs(ed)))
        a3 = min(amax[2], max(lo[2], a3 + dt * rho[2] * abs(sl) * abs(ei)))
        ua = max(-m_u, min(m_u, u))
        y += v * dt + 0.5 * ua * dt * dt
        v += ua * dt
        out.append(y)
    return out


def test_closed_loop_matches_independent_reference_simulation():
    dt, n = 0.01, 10_000
    rho, amax = (0.1, 0.5, 0.001), (1.0, 0.5, 0.01)
    cfg = ControllerConfig(
        gamma=1e-3,
        eta=5.0,
        weight_limit=10.0,
        actuator_limit=10.0,
        sat_limit=10.0,
        learn_rates=rho,
        alpha_max=amax,
    )
    ctl = ParsimoniousController(cfg)
    plant = DoubleIntegrator()
    ys = []
    for _ in range(n):
        u, _ = ctl.step(plant.output(), 1.0, dt)
        u = max(-10.0, min(10.0, u))
        plant.step(u, dt)
        ys.append(plant.output())
    ref = _reference_loop(n, dt, 1.0, 1e-3, 5.0, 10.0, 10.0, 10.0, rho, amax)
    np.testing.assert_allclose(ys, ref, atol=1e-9)


def test_antecedent_exponent_bounded_by_eta():
    # the membership exponent argument stays in [-eta, 0]
    ctl = ParsimoniousController(ControllerConfig(gamma=1e-3, eta=7.0))
    rng = np.random.default_rng(47)
    for _ in range(500):
        _, diag = ctl.step(float(rng.uniform(-2, 2)), 1.0, 0.01)
        raw = diag.firing.raw
        exponents = np.log(np.clip(raw, 1e-300, None))
        assert np.all(exponents >= -7.0 - 1e-12)
        assert np.all(exponents <= 1e-12)


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
