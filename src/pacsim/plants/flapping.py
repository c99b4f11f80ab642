"""Four-wing flapping MAV surrogate.

Wing aerodynamics are reduced to a cycle-averaged lift that is linear in the
flapping amplitude and quadratic in the flapping frequency; the fixed
center-of-pressure geometry turns per-wing forces into body moments. An
inner least-squares allocator trims the fore/aft CP asymmetry and
stabilizes attitude with differential amplitudes.
"""

from __future__ import annotations

import numpy as np

from ..pid import PidConfig, PidController
from .disturbances import GustSpec, GustTracker
from .rigid_body import GRAVITY, InertiaSet, body_gravity, rigid_body_step

FREQUENCY = 20.0  # Hz
AMPLITUDE_MAX = 1.2  # rad
HOVER_AMPLITUDE = 0.5 * AMPLITUDE_MAX  # rad; the lift gain is calibrated so that four wings hover here
AMPLITUDE_GAIN = 0.24  # rad per unit controller output
DEFAULT_INERTIA = InertiaSet(m=0.06, i_x=6e-4, i_y=6e-4, i_z=1e-3, i_xz=0.0)  # kg, kg*m^2

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


class BiFwmav:
    """Altitude-channel flapping MAV: u commands collective amplitude about hover."""

    def __init__(self, inertia: InertiaSet | None = None, gust: GustSpec | None = None):
        self.inertia = inertia or DEFAULT_INERTIA
        self.state = [0.0] * 12  # x y z u v w phi theta psi p q r, see rigid_body
        self.gust = GustTracker(gust) if gust else None
        pid_cfg = PidConfig(kp=0.015, ki=1e-3, kd=4.8e-3, output_limits=(-0.1, 0.1))
        self._att_pids = [PidController(pid_cfg) for _ in range(2)]
        # per-wing lift per rad of amplitude, N/rad: the weight over four wings at the hover amplitude
        self.lift_gain = self.inertia.m * GRAVITY / (4.0 * FREQUENCY**2 * HOVER_AMPLITUDE) * FREQUENCY**2
        # per-wing amplitude allocation: minimum-norm inverse of the map from
        # amplitudes to (sum of lifts, net M_x, net M_y). Lift is k * a_i
        # (downward -z); after the stroke-plane trim removes the
        # collective-mean part, M_x = cy_i f_i (mean cy is 0) and
        # M_y = -(cx_i - mean cx) f_i, so equal amplitudes carry zero moment.
        k = self.lift_gain
        cx_dev = CP[:, 0] - CP[:, 0].mean()
        rows = np.vstack([np.ones(4) * k, CP[:, 1] * k, -cx_dev * k])
        self._allocation = tuple(map(tuple, np.linalg.pinv(rows).tolist()))

    def output(self) -> float:
        return -self.state[2]

    def step(self, u: float, dt: float) -> None:
        x = self.state
        k, a_max = self.lift_gain, AMPLITUDE_MAX
        # each amplitude clamp is the comparison max/min make, so -0.0 and NaN come out as they do there
        amp = HOVER_AMPLITUDE + AMPLITUDE_GAIN * u
        amp = 0.0 if 0.0 > amp else amp
        collective = 4.0 * k * (a_max if a_max < amp else amp)
        # attitude trim: drive roll/pitch moments toward level
        phi, theta = x[6:8]
        pid_roll, pid_pitch = self._att_pids
        roll_cmd = pid_roll.step(phi, 0.0, dt)[0]
        pitch_cmd = pid_pitch.step(theta, 0.0, dt)[0]
        # one pass over the wings (the staged actuator, force/moment and trim functions are in
        # tests/plant_oracles.py): each lift, k times the clamped amplitude, acts along -z at the CP
        # offset r = CP - CG, so its moment is (r_y lift, -r_x lift, 0); the stroke-plane trim then
        # cancels the collective-mean moment that the fore/aft asymmetric CP table leaves standing
        lift_sum = fz = m_x = m_y = 0.0
        for (a, b, c), (r_x, r_y) in zip(self._allocation, _WING_ARMS):
            amp = a * collective + b * roll_cmd + c * pitch_cmd
            amp = 0.0 if 0.0 > amp else amp
            lift = k * (a_max if a_max < amp else amp)
            lift_sum += lift
            fz -= lift
            m_x += r_y * lift
            m_y -= r_x * lift
        mean_lift = lift_sum / 4
        g_x, g_y, g_z = body_gravity(phi, theta, self.inertia.m)
        f_total = (g_x, g_y, fz + g_z)
        m_total = (m_x + -_CP_SUM_Y * mean_lift, m_y + _CP_SUM_X * mean_lift, 0.0)

        # additive body-x velocity perturbation ahead of the force computation
        wind = 0.0 if self.gust is None else self.gust.advance(x[3], dt)
        x[3] += wind
        x = rigid_body_step(x, self.inertia, f_total, m_total, dt)
        x[3] -= wind
        self.state = x


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
