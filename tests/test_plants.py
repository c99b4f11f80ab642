import dataclasses
import math

import numpy as np
import pytest

from plant_oracles import (
    bifwmav_force_moment,
    dcm_inertial_to_body,
    flapping_actuator,
    hexacopter_mixing,
    rotor_forces_moments,
    stroke_plane_trim_moment,
)

from pacsim.plants import (
    CG,
    CP,
    BiFwmav,
    GustSpec,
    GustTracker,
    Hexacopter,
    ImpulseSpec,
    InertiaSet,
    gust_velocity,
    impulse_noise,
)
from pacsim.plants import flapping, hexacopter
from pacsim.plants.rigid_body import GRAVITY, body_gravity, rigid_body_step


# --- hexacopter mixing --------------------------------------------------------

def test_mixing_pure_thrust_symmetric():
    speeds = hexacopter_mixing(20.0, 0.0, 0.0, 0.0)
    assert np.allclose(speeds, speeds[0])
    force, moments = rotor_forces_moments(speeds)
    assert force[2] == pytest.approx(-20.0, rel=1e-9)
    np.testing.assert_allclose(moments, np.zeros(3), atol=1e-12)


def test_mixing_pure_yaw_preserves_thrust():
    speeds = hexacopter_mixing(20.0, 0.0, 0.0, 0.05)
    force, moments = rotor_forces_moments(speeds)
    assert force[2] == pytest.approx(-20.0, rel=1e-6)
    assert abs(moments[2]) > 1e-6
    np.testing.assert_allclose(moments[:2], np.zeros(2), atol=1e-9)


def test_mixing_clamps_speeds():
    speeds = np.asarray(hexacopter_mixing(1e6, 0.0, 0.0, 0.0))
    assert np.all(speeds <= hexacopter.ROTOR_SPEED_MAX)
    speeds = np.asarray(hexacopter_mixing(-50.0, 0.0, 0.0, 0.0))
    assert np.all(speeds >= 0.0)


def test_hover_equilibrium_holds_altitude():
    # thrust command solving 6 kT w^2 = m g keeps the plant still
    plant = Hexacopter(channel="altitude")
    assert plant.hover_trim == plant.inertia.m * GRAVITY
    for _ in range(1000):  # 10 s
        plant.step(0.0, 0.01)  # u = 0 -> thrust = hover trim
    assert abs(plant.output()) < 1e-3


def test_roll_channel_produces_roll():
    plant = Hexacopter(channel="roll")
    for _ in range(200):
        plant.step(0.5, 0.01)
    assert plant.state[6] > 0.01  # phi
    assert abs(plant.state[7]) < 1e-3  # theta


def _rotor_sum_oracle(speeds):
    # per-rotor sum: thrust k_t w^2 along -z at the arm tip, reaction torque
    # k_q w^2 about z with alternating spin
    h = hexacopter
    force, moment = np.zeros(3), np.zeros(3)
    for i, w in enumerate(speeds):
        angle = math.radians(60.0 * i)
        arm = np.array([h.ARM_LENGTH * math.cos(angle), h.ARM_LENGTH * math.sin(angle), 0.0])
        f = np.array([0.0, 0.0, -h.K_THRUST * w * w])
        force += f
        moment += np.cross(arm, f) + np.array([0.0, 0.0, (1.0 if i % 2 == 0 else -1.0) * h.K_TORQUE * w * w])
    return force, moment


def test_forward_allocation_matches_per_rotor_sum():
    rng = np.random.default_rng(41)
    for _ in range(200):
        speeds = rng.uniform(0.0, hexacopter.ROTOR_SPEED_MAX, size=6)
        force, moment = rotor_forces_moments(speeds)
        want_f, want_m = _rotor_sum_oracle(speeds)
        # atol covers components that cancel across rotors
        scale = hexacopter.K_THRUST * float(speeds @ speeds)
        np.testing.assert_allclose(force, want_f, rtol=1e-12, atol=1e-14 * scale)
        np.testing.assert_allclose(moment, want_m, rtol=1e-12, atol=1e-14 * scale)


# --- flapping-wing plant ------------------------------------------------------

def test_bifwmav_gravity_only():
    mass = flapping.DEFAULT_INERTIA.m
    f, m = bifwmav_force_moment(np.zeros(4), (0.0, 0.0, 0.0), mass)
    np.testing.assert_allclose(f, [0.0, 0.0, mass * GRAVITY], atol=1e-15)
    np.testing.assert_allclose(m, np.zeros(3), atol=1e-15)


def test_bifwmav_single_wing_moment_hand_cross_product():
    lifts = np.zeros(4)
    lifts[0] = 1.0  # a unit lift, i.e. the force (0, 0, -1)
    _, m = bifwmav_force_moment(lifts, (0.0, 0.0, 0.0), 0.06)
    np.testing.assert_allclose(m, [0.05, -0.08, 0.0], atol=1e-15)


def test_bifwmav_symmetric_forces_fore_aft_asymmetry():
    # three CPs sit at x = +0.08 and one at -0.08: equal vertical forces
    # cancel in roll but not in pitch
    lifts = np.full(4, 0.5)
    _, m = bifwmav_force_moment(lifts, (0.0, 0.0, 0.0), 0.06)
    assert m[0] == pytest.approx(0.0, abs=1e-15)
    assert abs(m[1]) > 1e-6


def test_geometry_constants():
    np.testing.assert_allclose(CG, np.zeros(3))
    np.testing.assert_allclose(
        CP,
        [[0.08, 0.05, 0.0], [0.08, 0.05, 0.0], [0.08, -0.05, 0.0], [-0.08, -0.05, 0.0]],
    )


def test_flapping_actuator_zero_amplitude():
    np.testing.assert_allclose(flapping_actuator(0.0, BiFwmav().lift_gain), 0.0)


def test_flapping_actuator_linear_in_amplitude():
    k = BiFwmav().lift_gain
    f1 = np.asarray(flapping_actuator(0.2, k))
    f2 = np.asarray(flapping_actuator(0.4, k))
    np.testing.assert_allclose(f2, 2.0 * f1, rtol=1e-12)


def test_flapping_hover_balance():
    # four wings at the hover amplitude carry exactly the weight
    plant = BiFwmav()
    lift = 4.0 * flapping_actuator(flapping.HOVER_AMPLITUDE, plant.lift_gain)
    assert lift == pytest.approx(plant.inertia.m * GRAVITY, rel=1e-12)


def test_flapping_amplitude_clamped():
    k, a_max = BiFwmav().lift_gain, flapping.AMPLITUDE_MAX
    np.testing.assert_allclose(flapping_actuator(10.0 * a_max, k), flapping_actuator(a_max, k))


def test_bifwmav_hover_near_equilibrium():
    plant = BiFwmav()
    for _ in range(1000):
        plant.step(0.0, 0.01)
    # collective allocation trims the pitch moment; altitude stays close
    assert abs(plant.output()) < 0.05
    assert abs(plant.state[7]) < 0.05  # theta


class _FixedOutput:
    """Stands in for an attitude PID: returns a fixed trim moment."""

    def __init__(self, value):
        self.value = value

    def step(self, y, y_r, dt):
        return self.value, None


def _record_rigid_body_step(monkeypatch, module):
    calls = []

    def recorder(state, inertia, forces, moments, dt):
        calls.append((list(state), np.array(forces, dtype=float), np.array(moments, dtype=float)))
        return rigid_body_step(state, inertia, forces, moments, dt)

    monkeypatch.setattr(module, "rigid_body_step", recorder)
    return calls


def _flapping_oracle(u, attitude, m_x, m_y, mass):
    # lift gain from the hover balance, pinv allocation of (collective, M_x, M_y)
    # to clamped amplitudes, per-wing lift, gravity through the DCM, per-wing
    # np.cross moments, and the stroke-plane trim cancelling the moment of the
    # mean lift on every wing
    f = flapping
    k = mass * GRAVITY / (4.0 * f.HOVER_AMPLITUDE)
    collective = 4.0 * k * np.clip(f.HOVER_AMPLITUDE + f.AMPLITUDE_GAIN * u, 0.0, f.AMPLITUDE_MAX)
    cx_dev = CP[:, 0] - CP[:, 0].mean()
    rows = np.vstack([np.ones(4), CP[:, 1], -cx_dev]) * k
    amps = np.clip(np.linalg.pinv(rows) @ [collective, m_x, m_y], 0.0, f.AMPLITUDE_MAX)
    wing = [np.array([0.0, 0.0, -k * a]) for a in amps]
    force = sum(wing) + dcm_inertial_to_body(*attitude) @ np.array([0.0, 0.0, mass * GRAVITY])
    mean_wing = np.array([0.0, 0.0, -k * amps.mean()])
    moment = sum(np.cross(CG - CP[i], wing[i]) - np.cross(CG - CP[i], mean_wing) for i in range(4))
    return force, moment


def test_flapping_force_moment_matches_per_wing_cross_oracle(monkeypatch):
    calls = _record_rigid_body_step(monkeypatch, flapping)
    rng = np.random.default_rng(43)
    for _ in range(200):
        plant = BiFwmav()
        mass = plant.inertia.m
        u = rng.uniform(-15.0, 15.0)  # the amplitude command clamps at both ends
        attitude = (rng.uniform(-math.pi, math.pi), rng.uniform(-1.4, 1.4), rng.uniform(-math.pi, math.pi))
        m_x, m_y = rng.uniform(-0.1, 0.1, size=2)
        plant.state[6:9] = attitude
        plant._att_pids = [_FixedOutput(m_x), _FixedOutput(m_y)]
        plant.step(u, 0.01)
        _, force, moment = calls[-1]
        want_f, want_m = _flapping_oracle(u, attitude, m_x, m_y, mass)
        # atol covers components that cancel across wings
        np.testing.assert_allclose(force, want_f, rtol=1e-12, atol=1e-14 * mass * GRAVITY)
        np.testing.assert_allclose(moment, want_m, rtol=1e-12, atol=1e-14 * mass * GRAVITY)
    assert len(calls) == 200


@pytest.mark.parametrize(
    "make_plant, module",
    [
        (lambda gust: Hexacopter(channel="altitude", gust=gust), hexacopter),
        (lambda gust: BiFwmav(gust=gust), flapping),
    ],
    ids=["hexacopter", "bifwmav"],
)
def test_gust_path_matches_direct_rigid_body_step(monkeypatch, make_plant, module):
    calls = _record_rigid_body_step(monkeypatch, module)
    plant = make_plant(GustSpec(v_m=3.0, d_m=120.0))
    plant.state[3:6] = [1.0, -0.2, 0.1]
    plant.gust.x = 60.0  # half way into the gust: it blows from the first step
    inertia = plant.inertia
    for _ in range(5):
        before = list(plant.state)
        plant.step(0.3, 0.01)
        wind = plant.gust.wind
        assert wind > 0.0
        seen, forces, moments = calls[-1]
        # the rigid body sees the body-x airspeed with the wind added
        assert seen[3] == before[3] + wind
        state = list(before)
        state[3] += wind
        want = rigid_body_step(state, inertia, forces, moments, 0.01)
        want[3] -= wind
        assert plant.state == want


def test_fused_rotor_loop_equals_mixing_then_forces(monkeypatch):
    # Hexacopter.step fuses hexacopter_mixing and rotor_forces_moments; the two staged functions are the reference
    calls = []

    def recorder(state, inertia, forces, moments, dt):
        calls.append((list(forces), list(moments)))
        return rigid_body_step(state, inertia, forces, moments, dt)

    def step_and_compare(mass, attitude, cmds, u):
        plant = Hexacopter(InertiaSet(m=mass), channel="altitude")
        plant.state[6:9] = attitude
        plant._rate_pids = [_FixedOutput(c) for c in cmds]
        try:
            plant.step(u, 0.01)
        except FloatingPointError:
            assert not all(map(math.isfinite, [*cmds, u]))  # only a NaN command diverges here
        speeds = hexacopter_mixing(mass * GRAVITY + hexacopter.THRUST_GAIN * u, *cmds)
        force, moments = rotor_forces_moments(speeds)
        want = [f + g for f, g in zip(force, body_gravity(attitude[0], attitude[1], mass))]
        got_forces, got_moments = calls[-1]  # recorded before the RK4 step runs
        assert [v.hex() for v in got_forces] == [v.hex() for v in want]
        assert [v.hex() for v in got_moments] == [v.hex() for v in moments]
        return speeds

    monkeypatch.setattr(hexacopter, "rigid_body_step", recorder)
    rng = np.random.default_rng(47)
    at_zero = at_max = between = 0
    w_max = hexacopter.ROTOR_SPEED_MAX
    for _ in range(300):
        mass = float(rng.uniform(0.5, 6.0))  # the hover trim m*g is the thrust command at u = 0
        attitude = [float(a) for a in (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-math.pi, math.pi))]
        cmds = [float(c) for c in rng.uniform(-2.0, 2.0, size=3)]  # inner-loop moment commands
        u = float(rng.uniform(-5.0, 30.0))  # thrust from below zero to above every rotor's limit
        speeds = step_and_compare(mass, attitude, cmds, u)
        at_zero += speeds.count(0.0)
        at_max += speeds.count(w_max)
        between += sum(0.0 < w < w_max for w in speeds)
    assert at_zero and at_max and between
    # a NaN command passes both clamps, as it passes max and min
    for cmds, u in (([0.1, -0.2, 0.3], math.nan), ([0.1, math.nan, 0.3], 1.0)):
        assert all(math.isnan(w) for w in step_and_compare(3.0, [0.1, -0.2, 0.3], cmds, u))


def test_fused_wing_pass_equals_actuator_then_force_moment(monkeypatch):
    # BiFwmav.step fuses flapping_actuator, bifwmav_force_moment and stroke_plane_trim_moment;
    # the three functions are the reference
    calls = _record_rigid_body_step(monkeypatch, flapping)
    a_max = flapping.AMPLITUDE_MAX

    def step_and_compare(mass, attitude, cmds, u):
        plant = BiFwmav(dataclasses.replace(flapping.DEFAULT_INERTIA, m=mass))
        plant.state[6:9] = attitude
        plant._att_pids = [_FixedOutput(c) for c in cmds]
        try:
            plant.step(u, 0.01)
        except FloatingPointError:
            assert not all(map(math.isfinite, [*cmds, u]))  # only a NaN command diverges here
        k = mass * GRAVITY / (4.0 * flapping.FREQUENCY**2 * flapping.HOVER_AMPLITUDE) * flapping.FREQUENCY**2
        assert plant.lift_gain == k
        collective = 4.0 * k * min(max(flapping.HOVER_AMPLITUDE + flapping.AMPLITUDE_GAIN * u, 0.0), a_max)
        amps = [a * collective + b * cmds[0] + c * cmds[1] for a, b, c in plant._allocation]
        lifts = [flapping_actuator(a, k) for a in amps]
        want_f, m_wings = bifwmav_force_moment(lifts, attitude, mass)
        want_m = [m + t for m, t in zip(m_wings, stroke_plane_trim_moment(lifts))]
        _, got_f, got_m = calls[-1]  # recorded before the RK4 step runs
        assert [float(v).hex() for v in got_f] == [v.hex() for v in want_f]
        assert [float(v).hex() for v in got_m] == [v.hex() for v in want_m]
        return amps

    rng = np.random.default_rng(59)
    at_zero = at_max = between = 0
    for _ in range(300):
        mass = float(rng.uniform(0.02, 0.2))  # sets the lift gain, so every lift and the weight
        attitude = [float(a) for a in (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-math.pi, math.pi))]
        cmds = [float(c) for c in rng.uniform(-0.2, 0.2, size=2)]  # attitude-trim moments
        u = float(rng.uniform(-15.0, 15.0))  # the collective clamps at both ends
        amps = step_and_compare(mass, attitude, cmds, u)
        at_zero += sum(a <= 0.0 for a in amps)
        at_max += sum(a >= a_max for a in amps)
        between += sum(0.0 < a < a_max for a in amps)
    assert at_zero and at_max and between
    # a NaN command passes the collective and the wing clamps, as it passes max and min
    for cmds, u in (([0.01, -0.02], math.nan), ([math.nan, 0.02], 0.5)):
        assert all(math.isnan(a) for a in step_and_compare(0.06, [0.1, -0.2, 0.3], cmds, u))


# --- disturbances -------------------------------------------------------------

def test_gust_onset_on_the_step_clock():
    # 500 steps of 0.01 s sum to 4.99999999999992 s; the step clock reads 500 * 0.01 = 5.0 s, the onset
    tracker = GustTracker(GustSpec(v_m=4.0, onset_time=5.0))
    for _ in range(500):
        assert tracker.advance(1.0, 0.01) == 0.0
    assert tracker.x == 0.0
    tracker.advance(1.0, 0.01)  # step 500: the gust starts and penetration grows
    assert tracker.x == 0.01


def test_gust_piecewise_values():
    spec = GustSpec(v_m=4.0, d_m=120.0)
    assert gust_velocity(-1.0, spec) == 0.0
    assert gust_velocity(0.0, spec) == 0.0
    assert gust_velocity(60.0, spec) == pytest.approx(2.0)
    assert gust_velocity(120.0, spec) == pytest.approx(4.0)
    assert gust_velocity(240.0, spec) == 4.0


def test_gust_continuity_at_joints():
    spec = GustSpec(v_m=4.0, d_m=120.0)
    assert gust_velocity(0.0, spec) == gust_velocity(-1e-300, spec)
    assert gust_velocity(spec.d_m, spec) == spec.v_m  # cos(pi) = -1 exactly


def test_gust_validation():
    with pytest.raises(ValueError):
        GustSpec(v_m=-1.0)
    with pytest.raises(ValueError):
        GustSpec(v_m=1.0, d_m=0.0)


@pytest.mark.parametrize("field", ["v_m", "d_m", "onset_time"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_gust_rejects_non_finite_field(field, value):
    # a NaN amplitude used to pass the sign rule and diverge at the first step
    with pytest.raises(ValueError, match=rf"^gust {field} must be finite and a real number, not "):
        GustSpec(**{"v_m": 4.0, field: value})


@pytest.mark.parametrize("field", ["amplitude", "start", "duration"])
@pytest.mark.parametrize("value", [math.nan, -math.inf])
def test_impulse_rejects_non_finite_field(field, value):
    # a NaN duration used to run with a spike that never fired
    with pytest.raises(ValueError, match=rf"^impulse {field} must be finite and a real number, not "):
        ImpulseSpec(**{"amplitude": 2.0, "start": 1.0, "duration": 0.1, field: value})


def test_impulse_window():
    spec = ImpulseSpec(amplitude=7.0, start=2.0, duration=0.1)
    assert impulse_noise(1.999, spec) == 0.0
    assert impulse_noise(2.0, spec) == 7.0
    assert impulse_noise(2.0999, spec) == 7.0
    assert impulse_noise(2.1, spec) == 0.0


def test_impulse_benchmark_specs():
    bif = ImpulseSpec(amplitude=7.0, start=2.0, duration=0.1)
    hexa = ImpulseSpec(amplitude=2.0, start=2.0, duration=0.1)
    assert bif.amplitude == 7.0 and bif.duration == 0.1
    assert hexa.amplitude == 2.0 and hexa.duration == 0.1
