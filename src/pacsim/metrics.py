"""Tracking metrics computed from logged time series.

Conventions: rise time is the first RISE_LO -> RISE_HI (10% -> 90%)
traversal of the first commanded step, from the level before it to the first
level the reference then holds (None when it never holds one again), settling
time is the last instant the response leaves a +/-SETTLE_BAND (2%) band around
the final reference (None when the last sample lies outside the band, or when
the reference still changes on its last step: the run never settles), peak is
the maximum response value over the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

RISE_LO = 0.1
RISE_HI = 0.9
SETTLE_BAND = 0.02


@dataclass
class MetricsReport:
    rmse: float | None
    rise_time_ms: float | None
    settling_time_ms: float | None
    peak: float | None
    final_rule_count: int | None = None

    def as_row(self) -> dict:
        def fmt(v):
            return "" if v is None else v

        return {
            "rmse": fmt(self.rmse),
            "rise_time_ms": fmt(self.rise_time_ms),
            "settling_time_ms": fmt(self.settling_time_ms),
            "peak": fmt(self.peak),
            "final_rule_count": fmt(self.final_rule_count),
        }


def compute_rmse(y: np.ndarray, y_r: np.ndarray) -> float | None:
    y = np.asarray(y, dtype=float)
    y_r = np.asarray(y_r, dtype=float)
    if y.size == 0:
        return None
    if y.shape != y_r.shape:
        raise ValueError("series lengths differ")
    with np.errstate(over="ignore"):
        d = y_r - y
        rmse = float(np.sqrt(np.mean(d**2)))
    scale = float(np.max(np.abs(d)))
    if math.isinf(rmse) and math.isfinite(scale):
        # a diverged log can be finite yet too large to square: scale by the largest error
        rmse = scale * float(np.sqrt(np.mean((d / scale) ** 2)))
    return rmse


def _first_step(y: np.ndarray, y_r: np.ndarray) -> tuple[int, float, float | None]:
    """Start index, base level and target level of the first commanded step.

    The target is the first level the reference holds (two equal samples in
    a row) once it has changed, so a ramp is measured to the level it ends
    at; a reference that never holds a level again has no target (None). A
    reference that never changes is treated as a step at t=0 from the
    initial response value to the reference level.
    """
    changes = np.nonzero(np.diff(y_r))[0]
    if changes.size == 0:
        return 0, float(y[0]), float(y_r[0])
    k = int(changes[0]) + 1
    holds = np.nonzero(np.diff(y_r[k:]) == 0.0)[0]
    return k, float(y_r[k - 1]), float(y_r[k + holds[0]]) if holds.size else None


def compute_step_metrics(
    y: np.ndarray, y_r: np.ndarray, dt: float
) -> tuple[float | None, float | None, float | None]:
    """(rise_ms, settle_ms, peak) for a logged response against its reference.

    Times are whole samples n, in ms as n * 1e3 * dt: n * 1e3 is exact, so
    one rounding remains (164 samples at dt 0.01 read 1640.0, where
    n * dt * 1e3 rounds twice to 1640.0000000000002).
    """
    y = np.asarray(y, dtype=float)
    y_r = np.asarray(y_r, dtype=float)
    if y.size == 0:
        return None, None, None

    peak = float(np.max(y))

    k0, base, target = _first_step(y, y_r)
    rise_ms = None
    span = 0.0 if target is None else target - base
    if span != 0.0:
        lo = base + RISE_LO * span
        hi = base + RISE_HI * span
        seg = y[k0:]
        if span > 0:
            lo_hits = np.nonzero(seg >= lo)[0]
            hi_hits = np.nonzero(seg >= hi)[0]
        else:
            lo_hits = np.nonzero(seg <= lo)[0]
            hi_hits = np.nonzero(seg <= hi)[0]
        if lo_hits.size and hi_hits.size:
            t_lo, t_hi = int(lo_hits[0]), int(hi_hits[0])
            if t_hi >= t_lo:
                rise_ms = (t_hi - t_lo) * 1e3 * dt

    if y.size > 1 and y_r[-1] != y_r[-2]:
        # the reference still moves on its last step: there is no level to settle to
        return rise_ms, None, peak
    final_ref = float(y_r[-1])
    band = SETTLE_BAND * abs(final_ref) if final_ref != 0.0 else SETTLE_BAND
    outside = np.nonzero(np.abs(y - final_ref) > band)[0]
    if outside.size == 0:
        settle_ms = 0.0
    elif outside[-1] == y.size - 1:
        settle_ms = None
    else:
        settle_ms = (int(outside[-1]) + 1) * 1e3 * dt

    return rise_ms, settle_ms, peak


def report(y, y_r, dt, final_rule_count: int | None = None) -> MetricsReport:
    y = np.asarray(y, dtype=float)
    y_r = np.asarray(y_r, dtype=float)
    if y.size == 0:
        return MetricsReport(None, None, None, None, final_rule_count)
    rise, settle, peak = compute_step_metrics(y, y_r, dt)
    rep = MetricsReport(
        rmse=compute_rmse(y, y_r),
        rise_time_ms=rise,
        settling_time_ms=settle,
        peak=peak,
        final_rule_count=final_rule_count,
    )
    if rep.rise_time_ms is not None and rep.settling_time_ms is not None:
        # by convention the response cannot settle before it has risen
        rep.settling_time_ms = max(rep.settling_time_ms, rep.rise_time_ms)
    return rep
