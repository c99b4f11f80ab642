"""Hyperplane-clustered fuzzy network (PALM core).

Each fuzzy rule is a single weight vector over the extended input
[1, e, de/dt, y_r]; the rule's hyperplane doubles as antecedent (via a
point-to-plane distance) and consequent (via a dot product), so there are
no separate premise parameters. A network of R rules is one (R, DIM) weight
matrix, and every network operation is a matrix operation over its rows; a
one-rule network takes a scalar shortcut that gives the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

N_INPUTS = 3  # e, de/dt, y_r
DIM = N_INPUTS + 1  # leading intercept slot


def extended_input(e: float, e_dot: float, y_r: float) -> np.ndarray:
    """Build the extended input vector [1, e, de/dt, y_r]."""
    return np.array([1.0, e, e_dot, y_r])


@dataclass
class FiringVector:
    """Raw memberships and their normalized (sum-to-one) counterparts."""

    raw: np.ndarray
    normalized: np.ndarray


@dataclass
class PalmNetwork:
    """Rule base as one (R, DIM) weight matrix (a row per rule) plus the fuzziness
    regulator eta (valid range [1, 100])."""

    eta: float = 5.0
    weights: np.ndarray = field(default_factory=lambda: np.zeros((0, DIM)))

    def __post_init__(self):
        if not (1.0 <= self.eta <= 100.0):
            raise ValueError(f"eta must lie in [1, 100], got {self.eta}")
        self.weights = np.array(self.weights, dtype=float)
        if self.weights.ndim != 2 or self.weights.shape[1] != DIM:
            raise ValueError(f"rule weights must have shape (R, {DIM}), got {self.weights.shape}")

    @property
    def rule_count(self) -> int:
        return len(self.weights)

    @property
    def parameter_count(self) -> int:
        return self.weights.size

    def add_rule(self, w) -> None:
        """Append one rule; w must be a DIM-vector."""
        row = np.asarray(w, dtype=float)
        if row.shape != (DIM,):
            raise ValueError(f"rule weights must have shape ({DIM},), got {row.shape}")
        self.weights = np.vstack([self.weights, row])

    def remove_rule(self, index: int) -> None:
        if self.rule_count <= 1:
            raise ValueError("cannot remove the last rule")
        self.weights = np.delete(self.weights, index, axis=0)


def network_output(x_e: np.ndarray, net: PalmNetwork, y_r: float) -> tuple[float, FiringVector]:
    """Defuzzified network output and the firing vector it was built from."""
    if net.rule_count < 1:
        raise ValueError("network has no rules")
    w = net.weights
    if len(w) == 1:
        # One rule: its normalized firing raw / raw is exactly 1.0 for any finite raw > 0,
        # so the output is its consequent. Each float operation is the matrix path's own
        # (BLAS consequent, which is never -0.0; row norm summed left to right; np.exp),
        # so the bits agree. Any other raw takes the matrix path.
        consequent = float((w @ x_e)[0])
        _, a1, a2, a3 = w.tolist()[0]
        d = abs(y_r - consequent) / math.sqrt(1.0 + ((a1 * a1 + a2 * a2) + a3 * a3))
        raw = 1.0 if d == 0.0 else float(np.exp(d * (-net.eta / d)))
        if 0.0 < raw < math.inf:
            return consequent, FiringVector(raw=np.array([raw]), normalized=np.array([1.0]))
    # a rule's consequent is also its plane height at the input
    consequents = np.dot(w, x_e)
    # the row norms of w[:, 1:], summed left to right as numpy's 3-term axis-1 reduce does
    ww = w * w
    norms = ww[:, 1] + ww[:, 2]
    norms += ww[:, 3]
    norms += 1.0
    # one temporary carries the distance, its scaling and the firing
    t = y_r - consequents
    np.abs(t, out=t)
    t /= np.sqrt(norms, out=norms)
    d_max = float(np.maximum.reduce(t))
    if d_max == 0.0:
        raw = np.ones(len(t))
    else:
        t *= -net.eta / d_max
        raw = np.exp(t, out=t)
    # the nearest plane fires at least exp(-eta) >= exp(-100), so the sum never underflows
    normalized = raw / float(np.add.reduce(raw))
    u_palm = float(np.dot(normalized, consequents))
    return u_palm, FiringVector(raw=raw, normalized=normalized)


def save_rules(net: PalmNetwork, path) -> None:
    """Write the rule set as plain-text rows: rule_index, w0, ..., wN."""
    rows = np.column_stack([np.arange(net.rule_count), net.weights])
    np.savetxt(path, rows, fmt=["%d"] + ["%.17g"] * DIM, delimiter=", ")
