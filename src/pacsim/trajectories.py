"""Reference trajectory generators.

Every trajectory is a pure function of time, and its settings are checked
when it is built. The instances used in the benchmark suites (constant hover
heights, stepped heights, sum of sines, square wave, staircase, attitude
sinusoids) are named config mappings that ``from_config`` builds like any
other ``{kind: ..., params}`` mapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class _Checked:
    """Base of every trajectory: checks its settings when it is built. Each
    number must be finite, a dwell or ramp positive, levels not empty and
    each sine or cosine term an (amplitude, angular frequency, bias) triple."""

    def __post_init__(self):
        for name, value in vars(self).items():
            numbers = value if isinstance(value, (tuple, list)) else (value,)
            if name in ("sines", "cosines"):
                if not all(isinstance(term, (tuple, list)) and len(term) == 3 for term in value):
                    raise ValueError(f"{name} must hold (amplitude, angular frequency, bias) triples, not {value!r}")
                numbers = [x for term in value for x in term]
            if name == "levels" and not value:
                raise ValueError("levels must hold at least one level")
            if name in ("dwell", "ramp") and not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, not {value!r}")
            if not all(map(math.isfinite, numbers)):
                raise ValueError(f"{name} must be finite, not {value!r}")


@dataclass(frozen=True)
class Constant(_Checked):
    level: float

    def __call__(self, t: float) -> float:
        return self.level


@dataclass(frozen=True)
class Step(_Checked):
    amplitude: float
    start: float

    def __call__(self, t: float) -> float:
        return self.amplitude if t >= self.start else 0.0


@dataclass(frozen=True)
class SharpSteps(_Checked):
    """Piecewise-constant levels, each held for `dwell` seconds."""

    levels: tuple[float, ...]
    dwell: float

    def __call__(self, t: float) -> float:
        idx = min(int(t / self.dwell), len(self.levels) - 1)
        return self.levels[idx]


def _smoothstep(s: float) -> float:
    s = min(max(s, 0.0), 1.0)
    return s * s * (3.0 - 2.0 * s)


@dataclass(frozen=True)
class SmoothSteps(_Checked):
    """Like SharpSteps but each level change is a cubic ramp of `ramp` seconds."""

    levels: tuple[float, ...]
    dwell: float
    ramp: float = 3.0

    def __call__(self, t: float) -> float:
        idx = min(int(t / self.dwell), len(self.levels) - 1)
        level = self.levels[idx]
        if idx == 0:
            return level
        prev = self.levels[idx - 1]
        s = _smoothstep((t - idx * self.dwell) / self.ramp)
        return prev + s * (level - prev)


@dataclass(frozen=True)
class SumOfSines(_Checked):
    """Sum of (amplitude, angular frequency, bias) sine terms plus cosine terms."""

    sines: tuple[tuple[float, float, float], ...] = ()
    cosines: tuple[tuple[float, float, float], ...] = ()

    def __call__(self, t: float) -> float:
        total = 0.0
        for amp, freq, bias in self.sines:
            total += amp * math.sin(freq * t) + bias
        for amp, freq, bias in self.cosines:
            total += amp * math.cos(freq * t) + bias
        return total


@dataclass(frozen=True)
class SquareWave(_Checked):
    low: float
    high: float
    freq_rad_s: float

    def __call__(self, t: float) -> float:
        return self.high if math.sin(self.freq_rad_s * t) >= 0.0 else self.low


@dataclass(frozen=True)
class Staircase(_Checked):
    """Steps of the given heights at multiples of `dwell`, on top of `base`.

    The first `dwell` seconds hold the base level; step k lifts the level by
    step_heights[k] at t = (k+1)*dwell.
    """

    step_heights: tuple[float, ...]
    dwell: float
    base: float = 1.0

    def __call__(self, t: float) -> float:
        idx = min(int(t / self.dwell), len(self.step_heights))
        return self.base + sum(self.step_heights[:idx])


def reference(spec, t: float) -> float:
    """Reference of trajectory ``spec`` at time t >= 0: the harness reads every
    step's reference through this module attribute, so a tracer can wrap it."""
    if t < 0:
        raise ValueError("time must be non-negative")
    return spec(t)


# Suite trajectories by name, each a config mapping resolved through its kind.
_NAMED = {
    "bifwmav_constant": {"kind": "constant", "level": 10.0},
    "hexacopter_constant": {"kind": "constant", "level": 4.0},
    "sharp_steps": {"kind": "sharp_steps", "levels": (3.0, 6.0, 9.0, 6.0, 3.0), "dwell": 20.0},
    "smooth_steps": {"kind": "smooth_steps", "levels": (3.0, 8.0, 13.0, 8.0, 3.0), "dwell": 20.0, "ramp": 3.0},
    # 4 sin(0.3 t) + 6 plus 3 cos(0.5 t): value 9 at t = 0, peak just above 11 m
    "sum_of_sines": {"kind": "sum_of_sines", "sines": ((4.0, 0.3, 6.0),), "cosines": ((3.0, 0.5, 0.0),)},
    "square_wave": {"kind": "square_wave", "low": 1.0, "high": 11.0, "freq_rad_s": 0.2},
    # three 3 m steps and one 2 m step on a 1 m base: peak 12 m
    "staircase": {"kind": "staircase", "step_heights": (3.0, 3.0, 3.0, 2.0), "dwell": 20.0, "base": 1.0},
    "hexacopter_step": {"kind": "step", "amplitude": 3.0, "start": 3.0},
    "attitude_pitch": {"kind": "sum_of_sines", "sines": ((0.3, 0.3, 0.0),), "cosines": ((0.5, 0.5, 0.0),)},
    "attitude_roll": {"kind": "sum_of_sines", "sines": ((0.3, 0.3, 0.0),), "cosines": ((0.4, 0.5, 0.0),)},
}

_CLASSES = {
    "constant": Constant,
    "step": Step,
    "sharp_steps": SharpSteps,
    "smooth_steps": SmoothSteps,
    "sum_of_sines": SumOfSines,
    "square_wave": SquareWave,
    "staircase": Staircase,
}


def from_config(spec: str | dict):
    """Build a trajectory from a suite name or a {kind: ..., params...} mapping."""
    if isinstance(spec, str):
        if spec not in _NAMED:
            raise ValueError(f"unknown trajectory {spec!r}")
        spec = _NAMED[spec]
    if not isinstance(spec, dict):
        raise ValueError(f"trajectory must be a name or a mapping, not {spec!r}")
    spec = dict(spec)
    kind = spec.pop("kind", None)
    if kind not in _CLASSES:
        raise ValueError(f"trajectory {spec!r} has no kind" if kind is None else f"unknown trajectory kind {kind!r}")
    for key in ("levels", "step_heights", "sines", "cosines"):
        if key in spec:
            value = spec[key]
            spec[key] = tuple(tuple(v) if isinstance(v, (list, tuple)) else v for v in value)
    return _CLASSES[kind](**spec)
