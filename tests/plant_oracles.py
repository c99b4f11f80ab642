"""Staged oracles for the plants.

``Hexacopter.step`` and ``BiFwmav.step`` each run their actuator and force
path in one pass over the rotors or wings, and ``rigid_body_step`` rotates
the body velocity by the DCM written out inline. These are the functions
those passes were built from, one concern each: the hexacopter's mixer and
rotor law, the flapping MAV's wing actuator, force and moment sum and
stroke-plane trim, and the rigid body's DCM and kinetic energy. The tests
hold the fused steps bit-equal to them and check the physics through them.
"""

import math
from math import sqrt

import numpy as np

from pacsim.plants.flapping import _CP_SUM_X, _CP_SUM_Y, _WING_ARMS, AMPLITUDE_MAX
from pacsim.plants.hexacopter import _ROTORS, K_THRUST, ROTOR_SPEED_MAX
from pacsim.plants.rigid_body import InertiaSet, body_gravity

# --- hexacopter ---------------------------------------------------------------


def hexacopter_mixing(thrust_cmd: float, roll_cmd: float, pitch_cmd: float, yaw_cmd: float) -> tuple[float, ...]:
    """Allocate total thrust (N) and body moments (N*m) to six rotor speeds.

    Pseudo-inverse of the linear allocation in per-rotor thrust space, then
    converted to speeds through the quadratic law and clamped to [0, max].
    """
    w_max = ROTOR_SPEED_MAX
    return tuple(
        [
            min(sqrt(max(a * thrust_cmd + b * roll_cmd + c * pitch_cmd + d * yaw_cmd, 0.0) / K_THRUST), w_max)
            for a, b, c, d, *_ in _ROTORS
        ]
    )


def rotor_forces_moments(speeds) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """Body-frame force and moment produced by the given six rotor speeds."""
    total = roll = pitch = yaw = 0.0
    for w, (*_, a, b, c, d) in zip(speeds, _ROTORS):
        w2 = w * w
        total += a * w2
        roll += b * w2
        pitch += c * w2
        yaw += d * w2
    return (0.0, 0.0, -total), (roll, pitch, yaw)


# --- flapping MAV -------------------------------------------------------------


def flapping_actuator(amplitude: float, lift_gain: float) -> float:
    """Cycle-averaged lift of one wing for the given flapping amplitude, acting along -z.

    The lift is ``lift_gain * amplitude`` with the amplitude clamped to
    [0, AMPLITUDE_MAX]; ``lift_gain`` is ``BiFwmav.lift_gain``.
    """
    return lift_gain * min(max(amplitude, 0.0), AMPLITUDE_MAX)


def bifwmav_force_moment(
    wing_lifts, attitude: tuple[float, float, float], mass: float
) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """Total body force (wing lifts + gravity through the DCM) and moment.

    ``wing_lifts`` holds the four lifts as ``flapping_actuator`` gives them,
    each acting along -z. With the lift at the CP offset r_i = CP_i - CG, the
    per-wing moment cross(CG - CP_i, (0, 0, -lift)) is (r_y * lift, -r_x * lift, 0).
    """
    fz = m_x = m_y = 0.0
    for lift, (r_x, r_y) in zip(wing_lifts, _WING_ARMS):
        fz -= lift
        m_x += r_y * lift
        m_y -= r_x * lift
    g_x, g_y, g_z = body_gravity(attitude[0], attitude[1], mass)
    return (g_x, g_y, fz + g_z), (m_x, m_y, 0.0)


def stroke_plane_trim_moment(wing_lifts) -> tuple[float, float, float]:
    """Counter-moment from the stroke-plane trim.

    The fixed CP table is fore/aft asymmetric, so a pure collective produces
    a standing pitch moment; on the vehicle this is trimmed by the stroke
    plane angle. The surrogate cancels exactly the collective-mean part,
    leaving differential amplitudes as the attitude control authority.
    """
    mean_lift = sum(wing_lifts) / len(wing_lifts)
    return (-_CP_SUM_Y * mean_lift, _CP_SUM_X * mean_lift, 0.0)


# --- rigid body ---------------------------------------------------------------


def dcm_inertial_to_body(phi: float, theta: float, psi: float) -> np.ndarray:
    """Z-Y-X Euler direction cosine matrix mapping inertial vectors into the body frame."""
    cph, sph = math.cos(phi), math.sin(phi)
    cth, sth = math.cos(theta), math.sin(theta)
    cps, sps = math.cos(psi), math.sin(psi)
    return np.array(
        [
            [cth * cps, cth * sps, -sth],
            [sph * sth * cps - cph * sps, sph * sth * sps + cph * cps, sph * cth],
            [cph * sth * cps + sph * sps, cph * sth * sps - sph * cps, cph * cth],
        ]
    )


def kinetic_energy(x: list[float], inertia: InertiaSet) -> float:
    """Translational plus rotational kinetic energy of the 12-float state."""
    _, _, _, u, v, w, _, _, _, p, q, r = x
    rot = inertia.i_x * p * p + inertia.i_y * q * q + inertia.i_z * r * r - 2.0 * inertia.i_xz * p * r
    return 0.5 * inertia.m * (u * u + v * v + w * w) + 0.5 * rot
