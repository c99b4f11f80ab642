"""Hexacopter plant: linear rotor mixing, quadratic thrust/torque law, inner
rate-stabilizing PIDs, 6-DOF rigid body.

The outer controller drives one channel (altitude thrust, or roll/pitch rate
reference).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..pid import PidConfig, PidController
from .disturbances import GustSpec, GustTracker
from .rigid_body import GRAVITY, InertiaSet, body_gravity, rigid_body_step


@dataclass
class HexacopterParams:
    inertia: InertiaSet = field(default_factory=InertiaSet)
    arm_length: float = 0.25  # m
    k_thrust: float = 1e-5  # N per (rad/s)^2
    k_torque: float = 2e-7  # N*m per (rad/s)^2
    rotor_speed_max: float = 1400.0  # rad/s
    # throttle channel: mixer thrust command = trim + gain * u
    thrust_gain: float = 10.0  # N per unit controller output
    thrust_trim: float | None = None  # None -> hover trim m*g
    # inner-loop rate PIDs (roll, pitch, yaw)
    rate_kp: float = 0.4
    rate_ki: float = 0.05
    rate_kd: float = 0.01
    # outer attitude-angle loop used when the test channel is altitude
    angle_kp: float = 6.0
    # rate reference scaling for attitude channels, rad/s per unit u
    rate_gain: float = 1.0

    def hover_thrust(self) -> float:
        return self.inertia.m * GRAVITY


# rotor layout: arms every 60 degrees, alternating spin direction
_ROTOR_ANGLES = np.deg2rad(np.arange(6) * 60.0)
_SPIN = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])


def _allocation_matrix(arm_length: float, kq_over_kt: float) -> np.ndarray:
    """(thrust, roll, pitch, yaw) rows of the linear map from the six rotor thrusts."""
    x = arm_length * np.cos(_ROTOR_ANGLES)
    y = arm_length * np.sin(_ROTOR_ANGLES)
    return np.vstack([np.ones(6), -y, x, _SPIN * kq_over_kt])


@lru_cache(maxsize=8)
def _allocator(arm_length: float, kq_over_kt: float) -> tuple:
    """Per-rotor rows of the pseudo-inverse: (thrust, roll, pitch, yaw) -> rotor thrust."""
    return tuple(map(tuple, np.linalg.pinv(_allocation_matrix(arm_length, kq_over_kt)).tolist()))


@lru_cache(maxsize=8)
def _forward_allocation(arm_length: float, k_thrust: float, k_torque: float) -> tuple:
    """Per-rotor columns of the forward map: squared rotor speed -> (thrust, roll, pitch, yaw)."""
    forward = k_thrust * _allocation_matrix(arm_length, k_torque / k_thrust)
    return tuple(map(tuple, forward.T.tolist()))


def hexacopter_mixing(
    thrust_cmd: float,
    roll_cmd: float,
    pitch_cmd: float,
    yaw_cmd: float,
    params: HexacopterParams,
) -> tuple[float, ...]:
    """Allocate total thrust (N) and body moments (N*m) to six rotor speeds.

    Pseudo-inverse of the linear allocation in per-rotor thrust space, then
    converted to speeds through the quadratic law and clamped to [0, max].
    """
    k_t, w_max = params.k_thrust, params.rotor_speed_max
    return tuple(
        [
            min(math.sqrt(max(a * thrust_cmd + b * roll_cmd + c * pitch_cmd + d * yaw_cmd, 0.0) / k_t), w_max)
            for a, b, c, d in _allocator(params.arm_length, params.k_torque / k_t)
        ]
    )


def rotor_forces_moments(
    speeds, params: HexacopterParams
) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """Body-frame force and moment produced by the given six rotor speeds."""
    total = roll = pitch = yaw = 0.0
    for w, (a, b, c, d) in zip(speeds, _forward_allocation(params.arm_length, params.k_thrust, params.k_torque)):
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

    def __init__(
        self,
        params: HexacopterParams | None = None,
        channel: str = "altitude",
        gust: GustSpec | None = None,
    ):
        self.params = params or HexacopterParams()
        if channel not in ("altitude", "roll", "pitch"):
            raise ValueError(f"unknown hexacopter channel {channel!r}")
        self.channel = channel
        self.state = [0.0] * 12  # x y z u v w phi theta psi p q r, see rigid_body
        self.gust = GustTracker(gust) if gust else None
        p = self.params
        self._trim = p.hover_thrust() if p.thrust_trim is None else p.thrust_trim
        pid_cfg = PidConfig(kp=p.rate_kp, ki=p.rate_ki, kd=p.rate_kd, output_limits=(-5.0, 5.0))
        self._rate_pids = [PidController(pid_cfg) for _ in range(3)]
        # per rotor: its inverse-allocation row, then its forward-allocation column
        inverse = _allocator(p.arm_length, p.k_torque / p.k_thrust)
        forward = _forward_allocation(p.arm_length, p.k_thrust, p.k_torque)
        self._rotors = tuple(row + column for row, column in zip(inverse, forward))

    def output(self) -> float:
        if self.channel == "altitude":
            return -self.state[2]
        if self.channel == "roll":
            return self.state[6]
        return self.state[7]

    def step(self, u: float, dt: float) -> None:
        p = self.params
        x = self.state
        trim = self._trim
        phi, theta, psi = x[6:9]

        if self.channel == "altitude":
            thrust_cmd = trim + p.thrust_gain * u
            rate_ref = (p.angle_kp * -phi, p.angle_kp * -theta, -psi)
        elif self.channel == "roll":
            thrust_cmd = trim
            rate_ref = (p.rate_gain * u, p.angle_kp * -theta, -psi)
        else:
            thrust_cmd = trim
            rate_ref = (p.angle_kp * -phi, p.rate_gain * u, -psi)

        loops = zip(self._rate_pids, x[9:12], rate_ref)
        roll_cmd, pitch_cmd, yaw_cmd = [pid.step(rate, ref, dt) for pid, rate, ref in loops]
        # hexacopter_mixing and rotor_forces_moments in one pass, with their operations in their order
        k_t, w_max = p.k_thrust, p.rotor_speed_max
        total = roll = pitch = yaw = 0.0
        for a, b, c, d, fa, fb, fc, fd in self._rotors:
            w = min(math.sqrt(max(a * thrust_cmd + b * roll_cmd + c * pitch_cmd + d * yaw_cmd, 0.0) / k_t), w_max)
            w2 = w * w
            total += fa * w2
            roll += fb * w2
            pitch += fc * w2
            yaw += fd * w2
        moments = (roll, pitch, yaw)
        # rotor force (0, 0, -total) plus gravity in the body frame; 0.0 + -0.0 is 0.0, so the zeros stay summed
        gx, gy, gz = body_gravity(phi, theta, p.inertia.m)
        forces = [0.0 + gx, 0.0 + gy, -total + gz]

        # additive body-x velocity perturbation ahead of the force computation
        wind = 0.0 if self.gust is None else self.gust.advance(x[3], dt)
        x[3] += wind
        x = rigid_body_step(x, p.inertia, forces, moments, dt)
        x[3] -= wind
        self.state = x
