"""Staged RK4 oracle for the rigid body.

``pacsim.plants.rigid_body.rigid_body_step`` takes the four RK4 stages in one
loop on local floats. This is the same integration written stage by stage, a
derivative function and an advance function, so the tests can hold the loop
bit-equal to it.
"""

import math

from pacsim.plants.rigid_body import _wrap_angle


def derivatives(s, k) -> tuple:
    """Derivative of the 12-float state.

    ``s`` holds the 9 components it reads, u .. r; ``k`` the constants of one
    step: force per unit mass, the roll/pitch/yaw moments L, M, N and the
    inertia terms.
    """
    u, v, w, phi, theta, psi, p, q, r = s
    a_x, a_y, a_z, l, m, n, i_x, i_y, i_z, i_xz, d_xz, d_zy, d_yx, det = k

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
    cph, sph = math.cos(phi), math.sin(phi)
    cth, sth = math.cos(theta), math.sin(theta)
    cps, sps = math.cos(psi), math.sin(psi)
    qr = q * sph + r * cph
    dphi = p + qr * math.tan(theta)
    dtheta = q * cph - r * sph
    dpsi = qr / cth

    # position: body velocity rotated into the inertial frame by the DCM transpose
    sph_sth, cph_sth = sph * sth, cph * sth
    dx = cth * cps * u + (sph_sth * cps - cph * sps) * v + (cph_sth * cps + sph * sps) * w
    dy = cth * sps * u + (sph_sth * sps + cph * cps) * v + (cph_sth * sps - sph * cps) * w
    dz = -sth * u + sph * cth * v + cph * cth * w
    return (dx, dy, dz, du, dv, dw, dphi, dtheta, dpsi, dp, dq, dr)


def advance(s, d, h: float) -> tuple:
    """RK4 stage: the 9 components u .. r of ``s`` moved by ``h`` along the derivative ``d``."""
    u, v, w, phi, theta, psi, p, q, r = s
    _, _, _, du, dv, dw, dphi, dtheta, dpsi, dp, dq, dr = d
    return (u + h * du, v + h * dv, w + h * dw, phi + h * dphi, theta + h * dtheta, psi + h * dpsi,
            p + h * dp, q + h * dq, r + h * dr)


def staged_rk4_step(x, inertia, forces, moments, dt: float) -> list:
    """One RK4 step, stage by stage: four derivatives, three advances, then the combine and the angle wrap."""
    f_x, f_y, f_z = map(float, forces)
    l, m, n = map(float, moments)
    mass, i_x, i_y, i_z, i_xz = inertia.m, inertia.i_x, inertia.i_y, inertia.i_z, inertia.i_xz
    k = (f_x / mass, f_y / mass, f_z / mass, l, m, n, i_x, i_y, i_z, i_xz,
         i_x - i_z, i_z - i_y, i_y - i_x, i_x * i_z - i_xz * i_xz)
    s = x[3:]
    h = 0.5 * dt
    k1 = derivatives(s, k)
    k2 = derivatives(advance(s, k1, h), k)
    k3 = derivatives(advance(s, k2, h), k)
    k4 = derivatives(advance(s, k3, dt), k)
    c = dt / 6.0
    x_new = [a + c * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
    x_new[6:9] = map(_wrap_angle, x_new[6:9])
    return x_new
