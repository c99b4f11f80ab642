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
        if self.v_m < 0 or self.d_m <= 0:
            raise ValueError("gust amplitude must be >= 0 and length > 0")


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
        if self.duration <= 0:
            raise ValueError("impulse duration must be positive")


def impulse_noise(t: float, spec: ImpulseSpec) -> float:
    if spec.start <= t < spec.start + spec.duration:
        return spec.amplitude
    return 0.0


class GustTracker:
    """Integrates penetration distance from gust onset using relative airspeed.

    Keeps its own clock, the sum of the step sizes, against the onset time.
    """

    def __init__(self, spec: GustSpec):
        self.spec = spec
        self.t = 0.0
        self.x = 0.0
        self.wind = 0.0

    def advance(self, body_u: float, dt: float) -> float:
        """Advance by one step; returns the body-x wind speed for this step."""
        if self.t < self.spec.onset_time:
            self.wind = 0.0
        else:
            self.wind = gust_velocity(self.x, self.spec)
            self.x += abs(body_u + self.wind) * dt
        self.t += dt
        return self.wind
