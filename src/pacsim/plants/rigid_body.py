"""6-DOF rigid body: Newton-Euler force/moment equations with an XZ plane of
symmetry (only the I_xz product of inertia is nonzero), integrated with
fixed-step RK4. Frames follow the aerospace NED convention, Z positive down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

GRAVITY = 9.81  # m/s^2


@dataclass
class InertiaSet:
    m: float = 3.0
    i_x: float = 0.04
    i_y: float = 0.04
    i_z: float = 0.06
    i_xz: float = 0.0

    def __post_init__(self):
        if self.m <= 0 or self.i_x <= 0 or self.i_y <= 0 or self.i_z <= 0:
            raise ValueError("mass and principal inertias must be positive")
        if abs(self.i_x * self.i_z - self.i_xz**2) < 1e-15:
            raise ValueError("singular roll/yaw inertia coupling")


@dataclass
class RigidBodyState:
    """position (inertial, m), velocity (body, m/s), attitude (rad), rates (rad/s)."""

    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))
    attitude: np.ndarray = field(default_factory=lambda: np.zeros(3))
    rates: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.position, self.velocity, self.attitude, self.rates])

    def altitude(self) -> float:
        return -float(self.position[2])


# names of the 12 state components, in as_vector order
_STATE_NAMES = ("x", "y", "z", "u", "v", "w", "phi", "theta", "psi", "p", "q", "r")


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


def body_gravity(phi: float, theta: float, mass: float) -> tuple[float, float, float]:
    """Weight m*g (inertial +Z) in the body frame: the last DCM column times m*g."""
    mg = mass * GRAVITY
    cth = math.cos(theta)
    return (-math.sin(theta) * mg, math.sin(phi) * cth * mg, math.cos(phi) * cth * mg)


def _derivatives(x, inertia: InertiaSet, forces, moments) -> tuple:
    """State derivative of the 12 floats ``x`` (as_vector order) under body forces/moments."""
    _, _, _, u, v, w, phi, theta, psi, p, q, r = x
    m, i_x, i_y, i_z, i_xz = inertia.m, inertia.i_x, inertia.i_y, inertia.i_z, inertia.i_xz

    # translational: F = m(dv/dt + omega x v), solved for dv/dt
    du = forces[0] / m - q * w + r * v
    dv = forces[1] / m - r * u + p * w
    dw = forces[2] / m - p * v + q * u

    # rotational: q decouples; (p, r) couple through I_xz
    dq = (moments[1] - r * p * (i_x - i_z) - i_xz * (p * p - r * r)) / i_y
    rhs_l = moments[0] - q * r * (i_z - i_y) + i_xz * p * q
    rhs_n = moments[2] - p * q * (i_y - i_x) - i_xz * q * r
    det = i_x * i_z - i_xz * i_xz
    dp = (i_z * rhs_l + i_xz * rhs_n) / det
    dr = (i_xz * rhs_l + i_x * rhs_n) / det

    # Euler-angle kinematics
    cph, sph = math.cos(phi), math.sin(phi)
    cth, sth = math.cos(theta), math.sin(theta)
    cps, sps = math.cos(psi), math.sin(psi)
    dphi = p + (q * sph + r * cph) * math.tan(theta)
    dtheta = q * cph - r * sph
    dpsi = (q * sph + r * cph) / cth

    # position: body velocity rotated into the inertial frame by the DCM transpose
    dx = cth * cps * u + (sph * sth * cps - cph * sps) * v + (cph * sth * cps + sph * sps) * w
    dy = cth * sps * u + (sph * sth * sps + cph * cps) * v + (cph * sth * sps - sph * cps) * w
    dz = -sth * u + sph * cth * v + cph * cth * w
    return (dx, dy, dz, du, dv, dw, dphi, dtheta, dpsi, dp, dq, dr)


def _non_finite(x) -> str:
    """Names of the non-finite components of the 12 floats ``x``."""
    return ", ".join(name for name, value in zip(_STATE_NAMES, x) if not math.isfinite(value))


def _wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    a = math.fmod(a + math.pi, 2.0 * math.pi)
    if a <= 0.0:
        a += 2.0 * math.pi
    return a - math.pi


def rigid_body_step(
    state: RigidBodyState,
    inertia: InertiaSet,
    forces,
    moments,
    dt: float,
) -> RigidBodyState:
    """One RK4 step under zero-order-hold body-frame forces and moments (3-sequences).

    Raises FloatingPointError naming the non-finite state components when a
    stage or the new state leaves the finite range.
    """
    forces = tuple(map(float, forces))
    moments = tuple(map(float, moments))
    x = [*state.position.tolist(), *state.velocity.tolist(), *state.attitude.tolist(), *state.rates.tolist()]
    h = 0.5 * dt
    stage = x
    try:
        k1 = _derivatives(stage, inertia, forces, moments)
        stage = [a + h * b for a, b in zip(x, k1)]
        k2 = _derivatives(stage, inertia, forces, moments)
        stage = [a + h * b for a, b in zip(x, k2)]
        k3 = _derivatives(stage, inertia, forces, moments)
        stage = [a + dt * b for a, b in zip(x, k3)]
        k4 = _derivatives(stage, inertia, forces, moments)
    except ValueError:
        # math.sin/cos/tan of an infinite stage angle
        raise FloatingPointError(f"rigid body RK4 stage diverged: non-finite {_non_finite(stage)}") from None
    c = dt / 6.0
    x_new = [a + c * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
    if not all(map(math.isfinite, x_new)):
        raise FloatingPointError(f"rigid body state diverged: non-finite {_non_finite(x_new)}")
    x_new[6:9] = [_wrap_angle(a) for a in x_new[6:9]]
    x_new = np.array(x_new)
    return RigidBodyState(x_new[0:3], x_new[3:6], x_new[6:9], x_new[9:12])


def kinetic_energy(state: RigidBodyState, inertia: InertiaSet) -> float:
    v = state.velocity
    p, q, r = state.rates
    rot = inertia.i_x * p * p + inertia.i_y * q * q + inertia.i_z * r * r - 2.0 * inertia.i_xz * p * r
    return 0.5 * inertia.m * float(np.dot(v, v)) + 0.5 * rot
