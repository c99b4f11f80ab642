import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from pacsim.plants.rigid_body import (
    GRAVITY,
    InertiaSet,
    RigidBodyState,
    dcm_inertial_to_body,
    kinetic_energy,
    rigid_body_step,
)


def test_equilibrium_is_fixed_point():
    inertia = InertiaSet()
    state = RigidBodyState()
    for _ in range(100):
        state = rigid_body_step(state, inertia, np.zeros(3), np.zeros(3), 0.01)
    np.testing.assert_allclose(state.as_vector(), np.zeros(12), atol=1e-15)


def test_pure_roll_moment_decouples_without_ixz():
    inertia = InertiaSet(i_xz=0.0)
    state = RigidBodyState()
    dt = 1e-3
    L = 0.02
    state = rigid_body_step(state, inertia, np.zeros(3), np.array([L, 0.0, 0.0]), dt)
    # with q = r = 0 the roll acceleration is exactly L / I_x
    assert state.rates[0] == pytest.approx(L / inertia.i_x * dt, rel=1e-12)
    assert state.rates[1] == 0.0
    assert state.rates[2] == 0.0


def test_matches_adaptive_reference_integrator():
    # same piecewise-constant force/moment profile fed to solve_ivp at tight
    # tolerance; checks the fixed-step RK4 integration error
    rng = np.random.default_rng(13)
    inertia = InertiaSet(i_xz=0.005)
    dt = 0.01
    n = 1000  # 10 s
    forces = rng.uniform(-1.0, 1.0, size=(n, 3))
    moments = rng.uniform(-0.01, 0.01, size=(n, 3))

    state = RigidBodyState()
    for i in range(n):
        state = rigid_body_step(state, inertia, forces[i], moments[i], dt)

    def deriv(_t, x, f, m):
        u, v, w = x[3:6]
        phi, theta, psi = x[6:9]
        p, q, r = x[9:12]
        du = f[0] / inertia.m - q * w + r * v
        dv = f[1] / inertia.m - r * u + p * w
        dw = f[2] / inertia.m - p * v + q * u
        dq = (m[1] - r * p * (inertia.i_x - inertia.i_z) - inertia.i_xz * (p * p - r * r)) / inertia.i_y
        det = inertia.i_x * inertia.i_z - inertia.i_xz**2
        rhs_l = m[0] - q * r * (inertia.i_z - inertia.i_y) + inertia.i_xz * p * q
        rhs_n = m[2] - p * q * (inertia.i_y - inertia.i_x) - inertia.i_xz * q * r
        dp = (inertia.i_z * rhs_l + inertia.i_xz * rhs_n) / det
        dr = (inertia.i_xz * rhs_l + inertia.i_x * rhs_n) / det
        dphi = p + (q * math.sin(phi) + r * math.cos(phi)) * math.tan(theta)
        dtheta = q * math.cos(phi) - r * math.sin(phi)
        dpsi = (q * math.sin(phi) + r * math.cos(phi)) / math.cos(theta)
        dpos = dcm_inertial_to_body(phi, theta, psi).T @ x[3:6]
        return np.concatenate([dpos, [du, dv, dw, dphi, dtheta, dpsi, dp, dq, dr]])

    x = np.zeros(12)
    for i in range(n):
        sol = solve_ivp(deriv, (0.0, dt), x, args=(forces[i], moments[i]), rtol=1e-11, atol=1e-12)
        x = sol.y[:, -1]

    got = state.as_vector()
    scale = max(1.0, float(np.abs(x).max()))
    assert np.abs(got - x).max() / scale < 1e-5


def test_torque_free_energy_conservation():
    rng = np.random.default_rng(29)
    inertia = InertiaSet(i_xz=0.004)
    state = RigidBodyState(
        velocity=rng.uniform(-2, 2, size=3),
        rates=rng.uniform(-1, 1, size=3),
    )
    e0 = kinetic_energy(state, inertia)
    for _ in range(1000):  # 10 s at dt = 0.01
        state = rigid_body_step(state, inertia, np.zeros(3), np.zeros(3), 0.01)
    e1 = kinetic_energy(state, inertia)
    assert abs(e1 - e0) / e0 < 1e-6


def test_dcm_orthonormal():
    rng = np.random.default_rng(37)
    for _ in range(200):
        phi, psi = rng.uniform(-math.pi, math.pi, size=2)
        theta = rng.uniform(-1.4, 1.4)
        R = dcm_inertial_to_body(phi, theta, psi)
        np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)


def test_attitude_wraps_to_pi_interval():
    inertia = InertiaSet()
    state = RigidBodyState(rates=np.array([0.0, 0.0, 2.0]))
    for _ in range(400):  # yaw winds through several turns
        state = rigid_body_step(state, inertia, np.zeros(3), np.zeros(3), 0.01)
        assert -math.pi < state.attitude[2] <= math.pi


def test_singular_inertia_rejected():
    with pytest.raises(ValueError):
        InertiaSet(i_x=0.04, i_z=0.04, i_xz=0.04)


def test_divergence_aborts():
    inertia = InertiaSet()
    state = RigidBodyState()
    with pytest.raises(FloatingPointError):
        for _ in range(20):
            state = rigid_body_step(state, inertia, np.array([1e308, 0, 0]), np.zeros(3), 1.0)


def test_overflowed_stage_angle_raises_floating_point_error():
    # finite inputs whose RK4 stage angles overflow: math.cos of an infinite
    # angle must surface as FloatingPointError (caught by run_experiment),
    # not as ValueError, and name the non-finite components
    inertia = InertiaSet(i_xz=0.01)
    state = RigidBodyState(velocity=np.full(3, 1e160), rates=np.array([1e160, 0.0, 0.0]))
    with pytest.raises(FloatingPointError, match=r"non-finite .*\bphi\b"):
        rigid_body_step(state, inertia, np.zeros(3), np.full(3, 1e160), 0.01)
