import math

import numpy as np
import pytest

from pacsim.plants import (
    CG,
    CP,
    BiFwmav,
    FlapParams,
    GustSpec,
    Hexacopter,
    HexacopterParams,
    ImpulseSpec,
    bifwmav_force_moment,
    flapping_actuator,
    gust_velocity,
    hexacopter_mixing,
    impulse_noise,
    rotor_forces_moments,
)
from pacsim.plants import flapping, hexacopter
from pacsim.plants.rigid_body import GRAVITY, RigidBodyState, dcm_inertial_to_body, rigid_body_step


# --- hexacopter mixing --------------------------------------------------------

def test_mixing_pure_thrust_symmetric():
    p = HexacopterParams()
    speeds = hexacopter_mixing(20.0, 0.0, 0.0, 0.0, p)
    assert np.allclose(speeds, speeds[0])
    force, moments = rotor_forces_moments(speeds, p)
    assert force[2] == pytest.approx(-20.0, rel=1e-9)
    np.testing.assert_allclose(moments, np.zeros(3), atol=1e-12)


def test_mixing_pure_yaw_preserves_thrust():
    p = HexacopterParams()
    speeds = hexacopter_mixing(20.0, 0.0, 0.0, 0.05, p)
    force, moments = rotor_forces_moments(speeds, p)
    assert force[2] == pytest.approx(-20.0, rel=1e-6)
    assert abs(moments[2]) > 1e-6
    np.testing.assert_allclose(moments[:2], np.zeros(2), atol=1e-9)


def test_mixing_clamps_speeds():
    p = HexacopterParams()
    speeds = np.asarray(hexacopter_mixing(1e6, 0.0, 0.0, 0.0, p))
    assert np.all(speeds <= p.rotor_speed_max)
    speeds = np.asarray(hexacopter_mixing(-50.0, 0.0, 0.0, 0.0, p))
    assert np.all(speeds >= 0.0)


def test_hover_equilibrium_holds_altitude():
    # thrust command solving 6 kT w^2 = m g keeps the plant still
    plant = Hexacopter(channel="altitude")
    p = plant.params
    assert p.hover_thrust() == pytest.approx(p.inertia.m * GRAVITY)
    for _ in range(1000):  # 10 s
        plant.step(0.0, 0.01)  # u = 0 -> thrust = hover trim
    assert abs(plant.output()) < 1e-3


def test_roll_channel_produces_roll():
    plant = Hexacopter(channel="roll")
    for _ in range(200):
        plant.step(0.5, 0.01)
    assert plant.state.attitude[0] > 0.01
    assert abs(plant.state.attitude[1]) < 1e-3


def _rotor_sum_oracle(speeds, p):
    # per-rotor sum: thrust k_t w^2 along -z at the arm tip, reaction torque
    # k_q w^2 about z with alternating spin
    force, moment = np.zeros(3), np.zeros(3)
    for i, w in enumerate(speeds):
        angle = math.radians(60.0 * i)
        arm = np.array([p.arm_length * math.cos(angle), p.arm_length * math.sin(angle), 0.0])
        f = np.array([0.0, 0.0, -p.k_thrust * w * w])
        force += f
        moment += np.cross(arm, f) + np.array([0.0, 0.0, (1.0 if i % 2 == 0 else -1.0) * p.k_torque * w * w])
    return force, moment


def test_forward_allocation_matches_per_rotor_sum():
    rng = np.random.default_rng(41)
    for _ in range(200):
        p = HexacopterParams(
            arm_length=rng.uniform(0.1, 0.5), k_thrust=rng.uniform(5e-6, 2e-5), k_torque=rng.uniform(1e-7, 4e-7)
        )
        speeds = rng.uniform(0.0, p.rotor_speed_max, size=6)
        force, moment = rotor_forces_moments(speeds, p)
        want_f, want_m = _rotor_sum_oracle(speeds, p)
        # atol covers components that cancel across rotors
        scale = p.k_thrust * float(speeds @ speeds)
        np.testing.assert_allclose(force, want_f, rtol=1e-12, atol=1e-14 * scale)
        np.testing.assert_allclose(moment, want_m, rtol=1e-12, atol=1e-14 * scale)


# --- flapping-wing plant ------------------------------------------------------

def test_bifwmav_gravity_only():
    p = FlapParams()
    f, m = bifwmav_force_moment(np.zeros((4, 3)), (0.0, 0.0, 0.0), p.inertia.m)
    np.testing.assert_allclose(f, [0.0, 0.0, p.inertia.m * GRAVITY], atol=1e-15)
    np.testing.assert_allclose(m, np.zeros(3), atol=1e-15)


def test_bifwmav_single_wing_moment_hand_cross_product():
    forces = np.zeros((4, 3))
    forces[0] = [0.0, 0.0, -1.0]
    _, m = bifwmav_force_moment(forces, (0.0, 0.0, 0.0), 0.06)
    np.testing.assert_allclose(m, [0.05, -0.08, 0.0], atol=1e-15)


def test_bifwmav_symmetric_forces_fore_aft_asymmetry():
    # three CPs sit at x = +0.08 and one at -0.08: equal vertical forces
    # cancel in roll but not in pitch
    forces = np.tile([0.0, 0.0, -0.5], (4, 1))
    _, m = bifwmav_force_moment(forces, (0.0, 0.0, 0.0), 0.06)
    assert m[0] == pytest.approx(0.0, abs=1e-15)
    assert abs(m[1]) > 1e-6


def test_geometry_constants():
    np.testing.assert_allclose(CG, np.zeros(3))
    np.testing.assert_allclose(
        CP,
        [[0.08, 0.05, 0.0], [0.08, 0.05, 0.0], [0.08, -0.05, 0.0], [-0.08, -0.05, 0.0]],
    )


def test_flapping_actuator_zero_amplitude():
    p = FlapParams()
    np.testing.assert_allclose(flapping_actuator(0.0, p.k_lift() * p.frequency**2, p.amplitude_max), np.zeros(3))


def test_flapping_actuator_linear_in_amplitude():
    p = FlapParams()
    f1 = np.asarray(flapping_actuator(0.2, p.k_lift() * p.frequency**2, p.amplitude_max))
    f2 = np.asarray(flapping_actuator(0.4, p.k_lift() * p.frequency**2, p.amplitude_max))
    np.testing.assert_allclose(f2, 2.0 * f1, rtol=1e-12)


def test_flapping_hover_balance():
    # four wings at the hover amplitude carry exactly the weight
    p = FlapParams()
    lift = -4.0 * flapping_actuator(p.hover_amplitude(), p.k_lift() * p.frequency**2, p.amplitude_max)[2]
    assert lift == pytest.approx(p.inertia.m * GRAVITY, rel=1e-12)


def test_flapping_amplitude_clamped():
    p = FlapParams()
    f_max = flapping_actuator(p.amplitude_max, p.k_lift() * p.frequency**2, p.amplitude_max)
    f_over = flapping_actuator(10.0 * p.amplitude_max, p.k_lift() * p.frequency**2, p.amplitude_max)
    np.testing.assert_allclose(f_over, f_max)


def test_bifwmav_hover_near_equilibrium():
    plant = BiFwmav()
    for _ in range(1000):
        plant.step(0.0, 0.01)
    # collective allocation trims the pitch moment; altitude stays close
    assert abs(plant.output()) < 0.05
    assert abs(plant.state.attitude[1]) < 0.05


class _FixedOutput:
    """Stands in for an attitude PID: returns a fixed trim moment."""

    def __init__(self, value):
        self.value = value

    def step(self, y, y_r, dt):
        return self.value


def _record_rigid_body_step(monkeypatch, module):
    calls = []

    def recorder(state, inertia, forces, moments, dt):
        calls.append((state.as_vector(), np.array(forces, dtype=float), np.array(moments, dtype=float)))
        return rigid_body_step(state, inertia, forces, moments, dt)

    monkeypatch.setattr(module, "rigid_body_step", recorder)
    return calls


def _flapping_oracle(u, attitude, m_x, m_y, p):
    # pinv allocation of (collective, M_x, M_y) to clamped amplitudes, per-wing
    # lift, gravity through the DCM, per-wing np.cross moments, and the
    # stroke-plane trim cancelling the moment of the mean lift on every wing
    k = p.k_lift() * p.frequency**2
    collective = 4.0 * k * np.clip(p.hover_amplitude() + p.amplitude_gain * u, 0.0, p.amplitude_max)
    cx_dev = CP[:, 0] - CP[:, 0].mean()
    rows = np.vstack([np.ones(4), CP[:, 1], -cx_dev]) * k
    amps = np.clip(np.linalg.pinv(rows) @ [collective, m_x, m_y], 0.0, p.amplitude_max)
    wing = [np.array([0.0, 0.0, -k * a]) for a in amps]
    force = sum(wing) + dcm_inertial_to_body(*attitude) @ np.array([0.0, 0.0, p.inertia.m * GRAVITY])
    mean_wing = np.array([0.0, 0.0, -k * amps.mean()])
    moment = sum(np.cross(CG - CP[i], wing[i]) - np.cross(CG - CP[i], mean_wing) for i in range(4))
    return force, moment


def test_flapping_force_moment_matches_per_wing_cross_oracle(monkeypatch):
    calls = _record_rigid_body_step(monkeypatch, flapping)
    rng = np.random.default_rng(43)
    for _ in range(200):
        plant = BiFwmav()
        p = plant.params
        u = rng.uniform(-15.0, 15.0)  # the amplitude command clamps at both ends
        attitude = (rng.uniform(-math.pi, math.pi), rng.uniform(-1.4, 1.4), rng.uniform(-math.pi, math.pi))
        m_x, m_y = rng.uniform(-0.1, 0.1, size=2)
        plant.state.attitude[:] = attitude
        plant._att_pids = [_FixedOutput(m_x), _FixedOutput(m_y)]
        plant.step(u, 0.01)
        _, force, moment = calls[-1]
        want_f, want_m = _flapping_oracle(u, attitude, m_x, m_y, p)
        # atol covers components that cancel across wings
        np.testing.assert_allclose(force, want_f, rtol=1e-12, atol=1e-14 * p.inertia.m * GRAVITY)
        np.testing.assert_allclose(moment, want_m, rtol=1e-12, atol=1e-14 * p.inertia.m * GRAVITY)
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
    plant.state.velocity[:] = [1.0, -0.2, 0.1]
    plant.gust.x = 60.0  # half way into the gust: it blows from the first step
    inertia = plant.params.inertia
    for _ in range(5):
        before = plant.state.as_vector()
        plant.step(0.3, 0.01)
        wind = plant.gust.wind
        assert wind > 0.0
        seen, forces, moments = calls[-1]
        # the rigid body sees the body-x airspeed with the wind added
        assert seen[3] == before[3] + wind
        state = RigidBodyState(before[0:3].copy(), before[3:6].copy(), before[6:9].copy(), before[9:12].copy())
        state.velocity[0] += wind
        want = rigid_body_step(state, inertia, forces, moments, 0.01)
        want.velocity[0] -= wind
        np.testing.assert_array_equal(plant.state.as_vector(), want.as_vector())


# --- disturbances -------------------------------------------------------------

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
