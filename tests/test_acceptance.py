"""Acceptance gate: every criterion is one test that prints a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The Lyapunov-identity criterion for the published P matrix is known
to be unsatisfiable as stated (the published closed form solves the equation
only when alpha1 == alpha2); it is implemented faithfully and left red, with
the analysis printed. See notes in the README.
"""

import itertools
import math
import time

import numpy as np
import pytest

from pacsim.controller import ControllerConfig, PalmNetwork, ParsimoniousController, network_output, p_matrix
from pacsim.evolution import SigmaRule, check_grow, check_prune, growth_factor, pruning_factor
from pacsim.experiment import ExperimentConfig, run_experiment, run_suite
from palm_oracles import matrix_network_output, point_to_plane_distance
from plant_oracles import bifwmav_force_moment, kinetic_energy
from pacsim.pid import PidConfig, PidController
from pacsim.plants import (
    DoubleIntegrator,
    GustSpec,
    InertiaSet,
    gust_velocity,
    rigid_body_step,
)
from pacsim.plants.hexacopter import Hexacopter
from pacsim.stats import _midranks, wilcoxon_signed_rank

PAC_PARAMS = dict(
    gamma=3e-3,
    weight_limit=10.0,
    actuator_limit=20.0,
    sat_limit=10.0,
    alphas=(0.5, 0.5, 0.01),
)

DINT_PARAMS = dict(PAC_PARAMS, gamma=1e-3, actuator_limit=10.0)


def _report(name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


# --- fuzzy core ---------------------------------------------------------------

def test_fuzzy_core_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_partition = 0.0
    worst_dup = 0.0
    bounds_ok = True
    for _ in range(10_000):
        r = int(rng.integers(1, 5))
        eta = float(rng.uniform(1, 100))
        weights = rng.uniform(-3, 3, size=(r, 4))
        x_e = np.concatenate([[1.0], rng.uniform(-4, 4, size=3)])
        y_r = float(rng.uniform(-8, 8))
        # PALM's R-row network
        _, raw, normalized = matrix_network_output(x_e, weights, eta, y_r)
        worst_partition = max(worst_partition, abs(normalized.sum() - 1.0))
        if np.any(raw < math.exp(-eta) - 1e-15) or np.any(raw > 1.0 + 1e-15):
            bounds_ok = False
        # duplicate invariance: PALM's copies of one rule act as that single
        # rule, which is the shared-row network the controller holds
        u1 = network_output(x_e, PalmNetwork(w=weights[0], rule_count=r + 1))
        u2, _, _ = matrix_network_output(x_e, np.repeat(weights[:1], r + 1, axis=0), eta, y_r)
        worst_dup = max(worst_dup, abs(u1 - u2))

    # Monte-Carlo plane-sampling oracle for the distance formula
    mc_ok = True
    for _ in range(3):
        w = rng.uniform(-1, 1, size=4)
        x = rng.uniform(-2, 2, size=3)
        y_r = float(rng.uniform(2, 5))
        x_e = np.concatenate([[1.0], x])
        d_formula = point_to_plane_distance(x_e, w, y_r)
        point = np.concatenate([x, [y_r]])
        center, width = x, 5.0
        best = None
        for n_samp in (300_000, 300_000, 200_000):
            q = center + rng.uniform(-width, width, size=(n_samp, 3))
            pts = np.column_stack([q, q @ w[1:] + w[0]])
            dists = np.linalg.norm(pts - point, axis=1)
            j = int(np.argmin(dists))
            best, center, width = float(dists[j]), q[j], width * 0.02
        if d_formula > best + 1e-12 or (best - d_formula) / max(d_formula, 1e-9) > 1e-3:
            mc_ok = False

    elapsed = time.perf_counter() - start
    ok = worst_partition < 1e-9 and bounds_ok and worst_dup < 1e-12 and mc_ok and elapsed < 5.0
    _report(
        "fuzzy core: partition 1e-9, bounds, duplicate 1e-12, MC distance, <5 s",
        ok,
        f"partition={worst_partition:.2e}, dup={worst_dup:.2e}, t={elapsed:.2f}s",
    )


# --- evolution ----------------------------------------------------------------

def test_evolution_suite():
    rng = np.random.default_rng(103)
    # strict (0.7, 2.0] within the float-representable band; the factor parks
    # exactly at 0.7 once 1.3 exp(-s^2) is absorbed below the ulp of 0.7
    signals = rng.uniform(0, 6, size=10_000)
    factors_ok = all(0.7 < growth_factor(s) <= 2.0 and 0.7 < pruning_factor(s) <= 2.0 for s in signals)
    factors_ok &= all(0.7 <= growth_factor(s) <= 2.0 for s in rng.uniform(6, 100, size=1000))
    exact_ok = growth_factor(0.0) == 2.0 and pruning_factor(0.0) == 2.0

    grow, prune = SigmaRule(), SigmaRule()
    constant_ok = not any(check_grow(grow, 2.5) or check_prune(prune, 0.8) for _ in range(100))

    ctl = ParsimoniousController(ControllerConfig(**PAC_PARAMS))
    plant = DoubleIntegrator()
    r_ok = True
    for _ in range(3000):
        u, _ = ctl.step(plant.output(), 1.0, 0.01)
        plant.step(u, 0.01)
        if ctl.rule_count < 1:
            r_ok = False

    def run_events():
        c = ParsimoniousController(ControllerConfig(**PAC_PARAMS))
        p = DoubleIntegrator()
        for _ in range(3000):
            u, _ = c.step(p.output(), 1.0, 0.01)
            p.step(u, 0.01)
        return list(c.events)

    determinism_ok = run_events() == run_events()

    ok = factors_ok and exact_ok and constant_ok and r_ok and determinism_ok
    _report("evolution: factor ranges, exact 2.0, constant-stream quiet, R>=1, determinism", ok)


# --- sliding-mode suite -------------------------------------------------------

def test_smc_p_matrix_published_values():
    p11, p12, p22 = p_matrix(1e-2, 1e-3)
    got = (p11, p12, p12, p22)
    # the exact p11; the paper prints 500.1, its p11 form being exact only when alpha1 == alpha2
    want = (505.05, 50.0, 50.0, 50500.0)
    ok = all(abs(g - w) < 1e-9 for g, w in zip(got, want))
    _report("SMC: P(1e-2, 1e-3) = (505.05, 50, 50, 50500) within 1e-9", ok, f"got {got}")


def test_smc_p_matrix_lyapunov_identity():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(100):
        a1, a2 = rng.uniform(1e-3, 2.0, size=2)
        p11, p12, p22 = p_matrix(a1, a2)
        A = np.array([[0.0, 1.0], [-a1, -a2]])
        M = np.array([[p11, p12], [p12, p22]])
        worst = max(worst, float(np.abs(A.T @ M + M @ A + np.eye(2)).max()))
    _report("SMC: P satisfies A'P + PA = -I within 1e-9 for 100 random alphas", worst < 1e-9,
            f"max residual {worst:.3e}")


def _run_double_integrator(params, seconds=100.0, dt=0.01, y_r=1.0):
    cfg = ControllerConfig(**params)
    ctl = ParsimoniousController(cfg)
    plant = DoubleIntegrator()
    n = int(seconds / dt)
    log = {"e": [], "e_dot": [], "u": [], "w": [], "t": [], "y": []}
    for i in range(n):
        y = plant.output()
        u, _ = ctl.step(y, y_r, dt)
        plant.step(u, dt)
        # e and its rate as the controller forms them: no rate on the first step
        e = y_r - y
        log["t"].append(i * dt)
        log["e"].append(e)
        log["e_dot"].append((e - log["e"][-2]) / dt if i else 0.0)
        log["u"].append(u)
        log["w"].append(np.array(ctl.net.w))
        log["y"].append(plant.output())
    return ctl, log


def test_smc_boundedness_double_integrator():
    ctl, log = _run_double_integrator(DINT_PARAMS)
    max_w = max(float(np.abs(w).max()) for w in log["w"])
    max_u = max(abs(u) for u in log["u"])
    e0 = abs(log["e"][0])
    tail = [abs(e) for e, t in zip(log["e"], log["t"]) if t >= 80.0]
    after_transient = [abs(e) for e, t in zip(log["e"], log["t"]) if t >= 20.0]
    ok = (
        max_w <= DINT_PARAMS["weight_limit"] + 1e-12
        and max_u <= DINT_PARAMS["actuator_limit"] + 1e-12
        and max(after_transient) <= e0 + 0.1
        and max(tail) < 0.05
    )
    _report(
        "SMC: bounds respected and |e| < 0.05 after 80 s on the double integrator",
        ok,
        f"max|w|={max_w:.3f}, max|u|={max_u:.3f}, tail|e|={max(tail):.4f}",
    )


def test_smc_energy_descent_frozen_structure():
    params = dict(DINT_PARAMS, evolution_enabled=False)
    ctl, log = _run_double_integrator(params)
    p11, p12, p22 = ctl.P  # alpha growth saturates early; P is constant over the tail
    w_final = log["w"][-1]
    gamma = params["gamma"]
    n = len(log["t"])
    v = np.empty(n)
    for i in range(n):
        e_vec = np.array([log["e"][i], log["e_dot"][i]])
        m = np.array([[p11, p12], [p12, p22]])
        w_err = log["w"][i] - w_final
        v[i] = 0.5 * e_vec @ m @ e_vec + 0.5 / gamma * float(np.sum(w_err * w_err))
    tail = v[n // 2 :]
    increments = np.diff(tail)
    ok = bool(np.all(increments <= 1e-6))
    _report(
        "SMC: post-hoc V non-increasing over final 50% (tol 1e-6/step)",
        ok,
        f"max increment {increments.max():.2e}",
    )


# --- plant suite ---------------------------------------------------------------

def test_plant_suite():
    rng = np.random.default_rng(109)
    inertia = InertiaSet(i_xz=0.004)
    velocity, rates = rng.uniform(-2, 2, 3).tolist(), rng.uniform(-1, 1, 3).tolist()
    state = [0.0, 0.0, 0.0, *velocity, 0.0, 0.0, 0.0, *rates]
    e0 = kinetic_energy(state, inertia)
    for _ in range(1000):
        state = rigid_body_step(state, inertia, np.zeros(3), np.zeros(3), 0.01)
    energy_ok = abs(kinetic_energy(state, inertia) - e0) / e0 < 1e-6

    plant = Hexacopter(channel="altitude")
    for _ in range(1000):
        plant.step(0.0, 0.01)
    hover_ok = abs(plant.output()) < 1e-3

    spec = GustSpec(v_m=4.0, d_m=120.0)
    # the half-length point compares against the formula's own evaluation
    # (cos(pi/2) is 6e-17 in floats, not zero)
    half = 0.5 * spec.v_m * (1.0 - math.cos(math.pi * 60.0 / spec.d_m))
    gust_ok = (
        gust_velocity(-1.0, spec) == 0.0
        and gust_velocity(0.0, spec) == 0.0
        and gust_velocity(60.0, spec) == half
        and gust_velocity(120.0, spec) == 4.0
        and gust_velocity(240.0, spec) == 4.0
    )

    lifts = np.zeros(4)
    lifts[0] = 1.0  # a unit lift, i.e. the force (0, 0, -1)
    _, m = bifwmav_force_moment(lifts, (0.0, 0.0, 0.0), 0.06)
    moment_ok = m[0] == 0.05 and m[1] == -0.08 and m[2] == 0.0

    ok = energy_ok and hover_ok and gust_ok and moment_ok
    _report(
        "plants: energy 1e-6, hover drift <1e-3 m, gust exact, moment [0.05,-0.08,0] exact",
        ok,
        f"hover drift {abs(plant.output()):.2e}",
    )


# --- closed loop ---------------------------------------------------------------

def _hexa_cfg(**overrides):
    base = dict(
        name="accept_hexa",
        plant="hexacopter",
        channel="altitude",
        controller="pac",
        trajectory="hexacopter_constant",
        duration=100.0,
        dt=0.01,
        controller_params={**PAC_PARAMS, "alphas": list(PAC_PARAMS["alphas"])},
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_closed_loop_hexacopter_constant_altitude():
    start = time.perf_counter()
    result = run_experiment(_hexa_cfg())
    elapsed = time.perf_counter() - start
    e = np.array(result.series["e"])
    t = np.array(result.series["t"])
    tail = np.abs(e[t >= 80.0])
    rep = result.report
    ok = (
        tail.max() < 0.1
        and rep.final_rule_count <= 10
        and elapsed < 60.0
        and rep.rmse < 1.0
    )
    _report(
        "closed loop: hexacopter 4 m, |e|<0.1 after 80 s, rules<=10, <60 s, RMSE<1",
        ok,
        f"tail|e|={tail.max():.4f}, R={rep.final_rule_count}, RMSE={rep.rmse:.4f}, t={elapsed:.1f}s",
    )


def test_impulse_noise_rejection():
    spike_start, spike_len = 50.0, 0.1
    cfg = _hexa_cfg(
        name="accept_impulse",
        disturbances={"impulse": {"amplitude": 2.0, "start": spike_start, "duration": spike_len}},
    )
    result = run_experiment(cfg)
    t = np.array(result.series["t"])
    y = np.array(result.series["y"])
    r_series = np.array(result.series["R"])
    y_ref = 4.0

    r_before = int(r_series[t < spike_start][-1])
    r_peak = int(r_series[(t >= spike_start) & (t <= spike_start + 10.0)].max())
    spike_end = spike_start + spike_len
    after = (t >= spike_end) & (t <= spike_end + 5.0)
    inside = np.abs(y[after] - y_ref) <= 0.05 * y_ref
    recovery_ok = bool(inside.any()) and bool(inside[-1])
    ok = recovery_ok and (r_peak - r_before) <= 3
    _report(
        "impulse: back inside +/-5% within 5 s of spike end, dR <= 3",
        ok,
        f"dR={r_peak - r_before}",
    )


def test_parameter_count_identity():
    ctl = ParsimoniousController(ControllerConfig(**PAC_PARAMS))
    ctl.net.rule_count = 3
    ok = ctl.rule_count == 3 and ctl.parameter_count == 12
    _report("snapshot with 3 rules reports exactly 12 adaptable parameters", ok)


# --- statistics and baselines --------------------------------------------------

def _enumeration_p(diff):
    diff = np.asarray(diff, dtype=float)
    diff = diff[diff != 0]
    ranks, _ = _midranks(np.abs(diff))
    w = min(ranks[diff > 0].sum(), ranks[diff < 0].sum())
    total = ranks.sum()
    count = 0
    for signs in itertools.product((0, 1), repeat=len(diff)):
        wp = sum(r for r, s in zip(ranks, signs) if s)
        if wp <= w + 1e-12 or wp >= total - w - 1e-12:
            count += 1
    return count / 2.0 ** len(diff)


def test_wilcoxon_acceptance():
    rng = np.random.default_rng(113)
    exact_ok = True
    for _ in range(20):
        n = int(rng.integers(6, 13))
        a = rng.integers(-4, 5, size=n).astype(float)
        b = rng.integers(-4, 5, size=n).astype(float)
        if np.all(a == b):
            continue
        res = wilcoxon_signed_rank(a, b)
        if abs(res.p - _enumeration_p(a - b)) > 1e-12:
            exact_ok = False

    same = np.linspace(0, 1, 40)
    identical_ok = wilcoxon_signed_rank(same, same).h == 0

    a = np.array([-1.0, -2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    res = wilcoxon_signed_rank(a, np.zeros(10))
    textbook_ok = res.w == 3.0 and res.p < 0.05 and res.h == 1

    ok = exact_ok and identical_ok and textbook_ok
    _report("Wilcoxon: exact enumeration match (n<=12), identical h=0, W=3 rejects", ok)


def test_pid_analytic_oracle():
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
    err = np.abs(xs[idx] - analytic[idx]).max()
    _report("PID: critically-damped analytic response within 1% at 1000 points", err < 0.01, f"max err {err:.4f}")


def test_end_to_end_determinism(tmp_path):
    def configs():
        return [
            _hexa_cfg(name="det_a", duration=20.0),
            _hexa_cfg(
                name="det_b",
                duration=20.0,
                controller="pid",
                controller_params={"kp": 0.675, "ki": 0.05, "kd": 0.81, "output_limits": [-20.0, 20.0]},
            ),
        ]

    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    run_suite(configs(), out_dir=out1)
    run_suite(configs(), out_dir=out2)
    files = sorted(p.name for p in out1.iterdir())
    ok = bool(files)
    for name in files:
        if (out1 / name).read_bytes() != (out2 / name).read_bytes():
            ok = False
    _report("repeated suite runs produce byte-identical CSV outputs", ok, f"{len(files)} files compared")
