"""Four-wing flapping MAV surrogate.

Wing aerodynamics are reduced to a cycle-averaged lift that is linear in the
flapping amplitude and quadratic in the flapping frequency; the fixed
center-of-pressure geometry turns per-wing forces into body moments. An
inner least-squares allocator trims the fore/aft CP asymmetry and
stabilizes attitude with differential amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..pid import PidConfig, PidController
from .disturbances import GustSpec, GustTracker
from .rigid_body import GRAVITY, InertiaSet, RigidBodyState, body_gravity, rigid_body_step

CG = np.zeros(3)
CP = np.array(
    [
        [0.08, 0.05, 0.0],
        [0.08, 0.05, 0.0],
        [0.08, -0.05, 0.0],
        [-0.08, -0.05, 0.0],
    ]
)
# float copies for the per-step force path: CP offsets (x, y) from the CG
# (every CP and the CG lie at z = 0) and the CP coordinate sums
_WING_ARMS = tuple((x, y) for x, y, _ in (CP - CG).tolist())
_CP_SUM_X = float(CP[:, 0].sum())
_CP_SUM_Y = float(CP[:, 1].sum())


@dataclass
class FlapParams:
    """Flapping parameters; amplitude is the altitude-dominant control input."""

    frequency: float = 20.0  # Hz
    amplitude_max: float = 1.2  # rad
    inertia: InertiaSet = field(
        default_factory=lambda: InertiaSet(m=0.06, i_x=6e-4, i_y=6e-4, i_z=1e-3, i_xz=0.0)
    )
    lift_coeff: float | None = None  # None -> calibrated for hover at mid-range amplitude
    amplitude_gain: float = 0.06  # rad per unit controller output

    def hover_amplitude(self) -> float:
        return 0.5 * self.amplitude_max

    def k_lift(self) -> float:
        """Per-wing lift coefficient; hover occurs at mid-range amplitude."""
        if self.lift_coeff is not None:
            return self.lift_coeff
        return self.inertia.m * GRAVITY / (4.0 * self.frequency**2 * self.hover_amplitude())


def flapping_actuator(amplitude: float, lift_gain: float, amplitude_max: float) -> tuple[float, float, float]:
    """Cycle-averaged force of one wing for the given flapping amplitude: pure lift along -z.

    The lift is ``lift_gain * amplitude`` with the amplitude clamped to
    [0, amplitude_max]; ``lift_gain`` is ``FlapParams.k_lift() * frequency**2``.
    """
    return (0.0, 0.0, -lift_gain * min(max(amplitude, 0.0), amplitude_max))


def bifwmav_force_moment(
    actuator_forces, attitude: tuple[float, float, float], mass: float
) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """Total body force (wing forces + gravity through the DCM) and moment.

    ``actuator_forces`` holds the four wing forces, pure lift along -z as
    ``flapping_actuator`` gives them; only their z components are read. With
    the lift at the CP offset r_i = CP_i - CG, the per-wing moment
    cross(CG - CP_i, F_i) reduces to (r_y * lift, -r_x * lift, 0).
    """
    fz = m_x = m_y = 0.0
    for (_, _, f), (r_x, r_y) in zip(actuator_forces, _WING_ARMS):
        fz += f
        m_x -= r_y * f
        m_y += r_x * f
    g_x, g_y, g_z = body_gravity(attitude[0], attitude[1], mass)
    return (g_x, g_y, fz + g_z), (m_x, m_y, 0.0)


def stroke_plane_trim_moment(wing_forces) -> tuple[float, float, float]:
    """Counter-moment from the stroke-plane trim.

    The fixed CP table is fore/aft asymmetric, so a pure collective produces
    a standing pitch moment; on the vehicle this is trimmed by the stroke
    plane angle. The surrogate cancels exactly the collective-mean part,
    leaving differential amplitudes as the attitude control authority.
    """
    mean_f = -sum(f[2] for f in wing_forces) / len(wing_forces)
    return (-_CP_SUM_Y * mean_f, _CP_SUM_X * mean_f, 0.0)


class BiFwmav:
    """Altitude-channel flapping MAV: u commands collective amplitude about hover."""

    def __init__(self, params: FlapParams | None = None, gust: GustSpec | None = None):
        self.params = params or FlapParams()
        self.state = RigidBodyState()
        self.gust = GustTracker(gust) if gust else None
        pid_cfg = PidConfig(kp=0.015, ki=1e-3, kd=4.8e-3, output_limits=(-0.1, 0.1))
        self._att_pids = [PidController(pid_cfg) for _ in range(2)]
        p = self.params
        self._lift_gain = p.k_lift() * p.frequency**2
        # per-wing amplitude allocation: minimum-norm inverse of the map from
        # amplitudes to (sum of lifts, net M_x, net M_y). Lift is k * a_i
        # (downward -z); after the stroke-plane trim removes the
        # collective-mean part, M_x = cy_i f_i (mean cy is 0) and
        # M_y = -(cx_i - mean cx) f_i, so equal amplitudes carry zero moment.
        k = self._lift_gain
        cx_dev = CP[:, 0] - CP[:, 0].mean()
        rows = np.vstack([np.ones(4) * k, CP[:, 1] * k, -cx_dev * k])
        self._allocation = tuple(map(tuple, np.linalg.pinv(rows).tolist()))

    def output(self) -> float:
        return self.state.altitude()

    def step(self, u: float, dt: float) -> None:
        p = self.params
        a_max = p.amplitude_max
        collective = 4.0 * self._lift_gain * min(max(p.hover_amplitude() + p.amplitude_gain * u, 0.0), a_max)
        # attitude trim: drive roll/pitch moments toward level
        phi, theta, psi = self.state.attitude.tolist()
        m_x = self._att_pids[0].step(phi, 0.0, dt)
        m_y = self._att_pids[1].step(theta, 0.0, dt)
        # flapping_actuator clamps negative or over-range amplitudes
        amps = [a * collective + b * m_x + c * m_y for a, b, c in self._allocation]
        forces = [flapping_actuator(a, self._lift_gain, a_max) for a in amps]
        f_total, m_wings = bifwmav_force_moment(forces, (phi, theta, psi), p.inertia.m)
        m_total = [m + t for m, t in zip(m_wings, stroke_plane_trim_moment(forces))]

        # additive body-x velocity perturbation ahead of the force computation
        wind = 0.0 if self.gust is None else self.gust.advance(float(self.state.velocity[0]), dt)
        self.state.velocity[0] += wind
        self.state = rigid_body_step(self.state, p.inertia, f_total, m_total, dt)
        self.state.velocity[0] -= wind


class DoubleIntegrator:
    """Minimal test plant: d2y/dt2 = u with exact zero-order-hold discretization."""

    def __init__(self):
        self.y = 0.0
        self.v = 0.0

    def output(self) -> float:
        return self.y

    def step(self, u: float, dt: float) -> None:
        self.y += self.v * dt + 0.5 * u * dt * dt
        self.v += u * dt
