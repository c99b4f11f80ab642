"""PID baseline with conditional anti-windup.

Offers the harness the controller surface: it logs no column beyond the
harness's own (``log_columns`` is empty), and its ``rule_count`` is None.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import settings


@dataclass(frozen=True)
class PidConfig:
    kp: float = 1.0
    ki: float = 0.0
    kd: float = 0.0
    output_limits: tuple[float, float] = (float("-inf"), float("inf"))

    def __post_init__(self):
        settings.set_numbers(self, ("kp", "ki", "kd"))
        # the limits are floats before they are ordered, since a saturated step returns one
        lo, hi = limits = settings.number_list("output_limits", self.output_limits, 2, limit=True)
        if not lo <= hi:
            raise ValueError(f"output_limits must be (lo, hi) with lo <= hi, not {limits!r}")
        object.__setattr__(self, "output_limits", limits)


class PidController:
    log_columns = ()
    rule_count = None

    def __init__(self, config: PidConfig | None = None):
        self.config = config or PidConfig()
        self.err_integral = 0.0
        self._e_prev: float | None = None

    def step(self, y: float, y_r: float, dt: float) -> tuple[float, tuple]:
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
            return u_unclamped, ()
        return (hi if u_unclamped > hi else lo), ()

    def write_artifacts(self, out_dir, name: str) -> None:
        """A PID run writes no file beyond its step log."""
