"""6-DOF rigid body: Newton-Euler force/moment equations with an XZ plane of
symmetry (only the I_xz product of inertia is nonzero), integrated with
fixed-step RK4. Frames follow the aerospace NED convention, Z positive down.
"""

from __future__ import annotations

import math
from math import cos, isfinite, pi, sin, tan
from dataclasses import dataclass

from .. import settings

GRAVITY = 9.81  # m/s^2


@dataclass(frozen=True)
class InertiaSet:
    """Mass (kg) and inertia (kg*m^2). ``terms``, set at construction and not a
    field, holds what ``rigid_body_step`` reads: (m, i_x, i_y, i_z, i_xz,
    i_x - i_z, i_z - i_y, i_y - i_x, i_x i_z - i_xz^2)."""

    m: float = 3.0
    i_x: float = 0.04
    i_y: float = 0.04
    i_z: float = 0.06
    i_xz: float = 0.0

    def __post_init__(self):
        m, i_x, i_y, i_z, i_xz = settings.set_numbers(self, ("m", "i_x", "i_y", "i_z", "i_xz"), "inertia ")
        if not (m > 0 and i_x > 0 and i_y > 0 and i_z > 0):
            raise ValueError("mass and principal inertias must be positive")
        det = i_x * i_z - i_xz * i_xz
        if not det > 1e-15:
            raise ValueError(f"inertia must be positive definite: i_x i_z - i_xz^2 = {det!r} is not above 1e-15")
        object.__setattr__(self, "terms", (m, i_x, i_y, i_z, i_xz, i_x - i_z, i_z - i_y, i_y - i_x, det))


# The state is one list of 12 Python floats: position (inertial, m), velocity
# (body, m/s), attitude (rad) and rates (rad/s), in this order.
_STATE_NAMES = ("x", "y", "z", "u", "v", "w", "phi", "theta", "psi", "p", "q", "r")


def body_gravity(phi: float, theta: float, mass: float) -> tuple[float, float, float]:
    """Weight m*g (inertial +Z) in the body frame: the last DCM column times m*g."""
    mg = mass * GRAVITY
    cth = math.cos(theta)
    return (-math.sin(theta) * mg, math.sin(phi) * cth * mg, math.cos(phi) * cth * mg)


def _non_finite(x, names=_STATE_NAMES) -> str:
    """Names of the non-finite components of ``x``, one per name."""
    return ", ".join(name for name, value in zip(names, x) if not math.isfinite(value))


def _wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]; an angle already in range is returned unchanged
    (the shift by pi and back would round it)."""
    if -math.pi < a <= math.pi:
        return a
    a = math.fmod(a + math.pi, 2.0 * math.pi)
    if a <= 0.0:
        a += 2.0 * math.pi
    return a - math.pi


def rigid_body_step(x: list[float], inertia: InertiaSet, forces, moments, dt: float) -> list[float]:
    """One RK4 step of the 12-float state ``x`` under zero-order-hold body-frame
    forces and moments (3-sequences); returns the new state as a new list.

    One loop takes the four stages on local floats: passes 2-4 first move
    the 9 components u .. r (the only ones a derivative reads) to their
    stage; each pass then evaluates the derivative there and adds it with its
    RK4 weight to the combine's sum b1 + 2 b2 + 2 b3 + b4 (started from stage
    1's derivative itself, since 0.0 + -0.0 is 0.0). The final combine covers
    all 12. The inertia terms come from ``inertia.terms``. Raises
    FloatingPointError naming the non-finite state components when a stage
    or the new state leaves the finite range.
    """
    f_x, f_y, f_z = map(float, forces)
    l, m, n = map(float, moments)
    mass, i_x, i_y, i_z, i_xz, d_xz, d_zy, d_yx, det = inertia.terms
    # the force per unit mass, computed once per step
    a_x, a_y, a_z = f_x / mass, f_y / mass, f_z / mass
    x0, y0, z0, u0, v0, w0, phi0, theta0, psi0, p0, q0, r0 = x
    u, v, w, phi, theta, psi, p, q, r = u0, v0, w0, phi0, theta0, psi0, p0, q0, r0
    h = 0.5 * dt
    try:
        # each pass: the move to this stage (none for stage 1), the derivative
        # there, and its weighted add to the sums
        for step, weight in ((None, None), (h, 2.0), (h, 2.0), (dt, 1.0)):
            if step is not None:
                u, v, w = u0 + step * du, v0 + step * dv, w0 + step * dw
                phi, theta, psi = phi0 + step * dphi, theta0 + step * dtheta, psi0 + step * dpsi
                p, q, r = p0 + step * dp, q0 + step * dq, r0 + step * dr

            # translational: F = m(dv/dt + omega x v), solved for dv/dt
            du = a_x - q * w + r * v
            dv = a_y - r * u + p * w
            dw = a_z - p * v + q * u

            # rotational: q decouples; (p, r) couple through I_xz
            dq = (m - r * p * d_xz - i_xz * (p * p - r * r)) / i_y
            rhs_l = l - q * r * d_zy + i_xz * p * q
            rhs_n = n - p * q * d_yx - i_xz * q * r
            dp = (i_z * rhs_l + i_xz * rhs_n) / det
            dr = (i_xz * rhs_l + i_x * rhs_n) / det

            # Euler-angle kinematics
            cph, sph = cos(phi), sin(phi)
            cth, sth = cos(theta), sin(theta)
            cps, sps = cos(psi), sin(psi)
            qr = q * sph + r * cph
            dphi = p + qr * tan(theta)
            dtheta = q * cph - r * sph
            dpsi = qr / cth

            # position: body velocity rotated into the inertial frame by the DCM transpose
            sph_sth, cph_sth = sph * sth, cph * sth
            dx = cth * cps * u + (sph_sth * cps - cph * sps) * v + (cph_sth * cps + sph * sps) * w
            dy = cth * sps * u + (sph_sth * sps + cph * cps) * v + (cph_sth * sps - sph * cps) * w
            dz = -sth * u + sph * cth * v + cph * cth * w

            if weight is None:
                sx, sy, sz, su, sv, sw = dx, dy, dz, du, dv, dw
                sphi, stheta, spsi, sp, sq, sr = dphi, dtheta, dpsi, dp, dq, dr
            else:
                sx, sy, sz = sx + weight * dx, sy + weight * dy, sz + weight * dz
                su, sv, sw = su + weight * du, sv + weight * dv, sw + weight * dw
                sphi, stheta, spsi = sphi + weight * dphi, stheta + weight * dtheta, spsi + weight * dpsi
                sp, sq, sr = sp + weight * dp, sq + weight * dq, sr + weight * dr
    except ValueError:
        # math.sin/cos/tan of an infinite stage angle
        stage = (u, v, w, phi, theta, psi, p, q, r)
        raise FloatingPointError(
            f"rigid body RK4 stage diverged: non-finite {_non_finite(stage, _STATE_NAMES[3:])}"
        ) from None
    c = dt / 6.0
    phi, theta, psi = phi0 + c * sphi, theta0 + c * stheta, psi0 + c * spsi
    x_new = [x0 + c * sx, y0 + c * sy, z0 + c * sz, u0 + c * su, v0 + c * sv, w0 + c * sw,
             phi, theta, psi, p0 + c * sp, q0 + c * sq, r0 + c * sr]
    if not all(map(isfinite, x_new)):
        raise FloatingPointError(f"rigid body state diverged: non-finite {_non_finite(x_new)}")
    if not (-pi < phi <= pi and -pi < theta <= pi and -pi < psi <= pi):
        x_new[6:9] = map(_wrap_angle, x_new[6:9])
    return x_new
