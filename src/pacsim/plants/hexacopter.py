"""Hexacopter plant: linear rotor mixing, quadratic thrust/torque law, inner
rate-stabilizing PIDs, 6-DOF rigid body.

The outer controller drives one channel (altitude thrust, or roll/pitch rate
reference).
"""

from __future__ import annotations

from math import sqrt

import numpy as np

from ..pid import PidConfig, PidController
from .disturbances import GustSpec, GustTracker
from .rigid_body import GRAVITY, InertiaSet, body_gravity, rigid_body_step

ARM_LENGTH = 0.25  # m
K_THRUST = 1e-5  # N per (rad/s)^2
K_TORQUE = 2e-7  # N*m per (rad/s)^2
ROTOR_SPEED_MAX = 1400.0  # rad/s
# altitude channel: mixer thrust command = hover trim m*g + THRUST_GAIN * u
THRUST_GAIN = 10.0  # N per unit controller output
# inner-loop rate PIDs (roll, pitch, yaw): N*m per rad/s, per rad, per rad/s^2
RATE_KP = 0.4
RATE_KI = 0.05
RATE_KD = 0.01
ANGLE_KP = 6.0  # rad/s per rad: outer attitude-angle loop on the axes the outer controller leaves
RATE_GAIN = 1.0  # rad/s per unit controller output: rate reference of the roll and pitch channels

# rotor layout: arms every 60 degrees, alternating spin direction
_ROTOR_ANGLES = np.deg2rad(np.arange(6) * 60.0)
_SPIN = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
# (thrust, roll, pitch, yaw) rows of the linear map from the six rotor thrusts
_ARM_X = ARM_LENGTH * np.cos(_ROTOR_ANGLES)
_ARM_Y = ARM_LENGTH * np.sin(_ROTOR_ANGLES)
_ALLOCATION = np.vstack([np.ones(6), -_ARM_Y, _ARM_X, _SPIN * (K_TORQUE / K_THRUST)])
# per rotor: its row of the mixer's pseudo-inverse ((thrust, roll, pitch, yaw) -> rotor thrust),
# then its column of the forward map (squared rotor speed -> thrust, roll, pitch, yaw)
_ROTORS = tuple(
    tuple(row + column)
    for row, column in zip(np.linalg.pinv(_ALLOCATION).tolist(), (K_THRUST * _ALLOCATION).T.tolist())
)


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


class Hexacopter:
    """Closed inner loops around the rigid body; exposes one outer channel.

    channel: 'altitude' (u scales thrust about hover trim), 'roll' or
    'pitch' (u is a body-rate reference for the inner PID while thrust
    holds the hover trim).
    """

    def __init__(self, inertia: InertiaSet | None = None, channel: str = "altitude", gust: GustSpec | None = None):
        if channel not in ("altitude", "roll", "pitch"):
            raise ValueError(f"unknown hexacopter channel {channel!r}")
        self.inertia = inertia or InertiaSet()
        self.channel = channel
        self.state = [0.0] * 12  # x y z u v w phi theta psi p q r, see rigid_body
        self.gust = GustTracker(gust) if gust else None
        self.hover_trim = self.inertia.m * GRAVITY  # N
        pid_cfg = PidConfig(kp=RATE_KP, ki=RATE_KI, kd=RATE_KD, output_limits=(-5.0, 5.0))
        self._rate_pids = [PidController(pid_cfg) for _ in range(3)]

    def output(self) -> float:
        if self.channel == "altitude":
            return -self.state[2]
        if self.channel == "roll":
            return self.state[6]
        return self.state[7]

    def step(self, u: float, dt: float) -> None:
        x = self.state
        trim = self.hover_trim
        phi, theta, psi, p, q, r = x[6:12]

        if self.channel == "altitude":
            thrust_cmd = trim + THRUST_GAIN * u
            p_ref, q_ref = ANGLE_KP * -phi, ANGLE_KP * -theta
        elif self.channel == "roll":
            thrust_cmd = trim
            p_ref, q_ref = RATE_GAIN * u, ANGLE_KP * -theta
        else:
            thrust_cmd = trim
            p_ref, q_ref = ANGLE_KP * -phi, RATE_GAIN * u

        pid_p, pid_q, pid_r = self._rate_pids
        roll_cmd = pid_p.step(p, p_ref, dt)[0]
        pitch_cmd = pid_q.step(q, q_ref, dt)[0]
        yaw_cmd = pid_r.step(r, -psi, dt)[0]
        # hexacopter_mixing and rotor_forces_moments in one pass, with their operations in their order;
        # each clamp is the comparison max/min make, so -0.0 and NaN come out as they do there
        k_t, w_max = K_THRUST, ROTOR_SPEED_MAX
        total = roll = pitch = yaw = 0.0
        for a, b, c, d, fa, fb, fc, fd in _ROTORS:
            thrust = a * thrust_cmd + b * roll_cmd + c * pitch_cmd + d * yaw_cmd
            w = sqrt((0.0 if 0.0 > thrust else thrust) / k_t)
            if w_max < w:
                w = w_max
            w2 = w * w
            total += fa * w2
            roll += fb * w2
            pitch += fc * w2
            yaw += fd * w2
        moments = (roll, pitch, yaw)
        # rotor force (0, 0, -total) plus gravity in the body frame; 0.0 + -0.0 is 0.0, so the zeros stay summed
        gx, gy, gz = body_gravity(phi, theta, self.inertia.m)
        forces = [0.0 + gx, 0.0 + gy, -total + gz]

        # additive body-x velocity perturbation ahead of the force computation
        wind = 0.0 if self.gust is None else self.gust.advance(x[3], dt)
        x[3] += wind
        x = rigid_body_step(x, self.inertia, forces, moments, dt)
        x[3] -= wind
        self.state = x
