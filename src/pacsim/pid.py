"""PID baseline with conditional anti-windup.

Shares the (y, y_r, dt) -> u step interface with the fuzzy controller so the
harness can swap controllers by name.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class PidConfig:
    kp: float = 1.0
    ki: float = 0.0
    kd: float = 0.0
    output_limits: tuple[float, float] = (float("-inf"), float("inf"))

    def __post_init__(self):
        # a saturated step returns a limit itself, so an integer limit from YAML must not reach it
        lo, hi = self.output_limits
        self.output_limits = (float(lo), float(hi))
        if not lo <= hi:
            raise ValueError(f"output_limits must be (lo, hi) with lo <= hi, not {self.output_limits!r}")


class PidController:
    def __init__(self, config: PidConfig | None = None):
        self.config = config or PidConfig()
        self.err_integral = 0.0
        self._e_prev: float | None = None

    def step(self, y: float, y_r: float, dt: float) -> float:
        dt = float(dt)  # a caller's numpy scalar stays out of the float path, like y and y_r
        if dt <= 0:
            raise ValueError("dt must be positive")
        c = self.config
        e = float(y_r) - float(y)
        e_dot = 0.0 if self._e_prev is None else (e - self._e_prev) / dt
        self._e_prev = e
        lo, hi = c.output_limits
        u_unclamped = c.kp * e + c.ki * (self.err_integral + e * dt) + c.kd * e_dot
        if lo <= u_unclamped <= hi:
            # integrate only while the output is unsaturated
            self.err_integral += e * dt
            return u_unclamped
        return hi if u_unclamped > hi else lo
