"""Disturbance models: one-minus-cosine discrete gust and impulse measurement noise."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass
class GustSpec:
    v_m: float  # gust amplitude, m/s
    d_m: float = 120.0  # gust length, m
    onset_time: float = 0.0  # s

    def __post_init__(self):
        if not (0 <= self.v_m < math.inf and 0 < self.d_m < math.inf and math.isfinite(self.onset_time)):
            raise ValueError(f"gust v_m must be >= 0, d_m > 0 and every field finite, not {self!r}")


def gust_velocity(x: float, spec: GustSpec) -> float:
    """Wind speed after penetrating distance x into the gust field."""
    if x < 0.0:
        return 0.0
    if x > spec.d_m:
        return spec.v_m
    return 0.5 * spec.v_m * (1.0 - math.cos(math.pi * x / spec.d_m))


@dataclass
class ImpulseSpec:
    amplitude: float  # added to the measured output
    start: float  # s
    duration: float  # s

    def __post_init__(self):
        if not (0 < self.duration < math.inf and math.isfinite(self.amplitude) and math.isfinite(self.start)):
            raise ValueError(f"impulse duration must be positive and every field finite, not {self!r}")


def impulse_noise(t: float, spec: ImpulseSpec) -> float:
    if spec.start <= t < spec.start + spec.duration:
        return spec.amplitude
    return 0.0


class GustTracker:
    """Integrates penetration distance from gust onset using relative airspeed.

    Compares the step clock ``steps * dt``, the ``t`` of the step log, against
    the onset time; a running sum of ``dt`` would drift from it.
    """

    def __init__(self, spec: GustSpec):
        self.spec = spec
        self.steps = 0
        self.x = 0.0
        self.wind = 0.0

    def advance(self, body_u: float, dt: float) -> float:
        """Advance by one step; returns the body-x wind speed for this step."""
        if self.steps * dt < self.spec.onset_time:
            self.wind = 0.0
        else:
            self.wind = gust_velocity(self.x, self.spec)
            self.x += abs(body_u + self.wind) * dt
        self.steps += 1
        return self.wind
