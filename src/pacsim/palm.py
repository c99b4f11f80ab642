"""Hyperplane-clustered fuzzy network (PALM core).

Each fuzzy rule is a single weight vector over the extended input
[1, e, de/dt, y_r]; the rule's hyperplane doubles as antecedent (via a
point-to-plane distance) and consequent (via a dot product), so there are
no separate premise parameters. A network of R rules is one (R, DIM) weight
matrix, and every network operation is a matrix operation over its rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

N_INPUTS = 3  # e, de/dt, y_r
DIM = N_INPUTS + 1  # leading intercept slot

# Normalization denominators below this are treated as total underflow and
# replaced with uniform firing. Unreachable for eta <= 100, kept defensive.
_UNDERFLOW = 1e-300


def extended_input(e: float, e_dot: float, y_r: float) -> np.ndarray:
    """Build the extended input vector [1, e, de/dt, y_r]."""
    return np.array([1.0, e, e_dot, y_r])


@dataclass
class FiringVector:
    """Raw memberships and their normalized (sum-to-one) counterparts."""

    raw: np.ndarray
    normalized: np.ndarray


def point_to_plane_distance(x_e: np.ndarray, w: np.ndarray, y_r: float) -> float:
    """Distance from the point (x_1..x_N, y_r) to the hyperplane of weights w.

    The plane is z = sum(a_i * x_i) + b0 with b0 = w[0] and a = w[1:]; the
    numerator compares y_r against the plane height at the non-intercept
    input entries.
    """
    a = w[1:]
    plane = float(np.dot(a, x_e[1:])) + w[0]
    return abs(y_r - plane) / math.sqrt(1.0 + float(np.dot(a, a)))


def membership(d_j: float, d_max: float, eta: float) -> float:
    """exp(-eta * d_j / d_max); all planes through the point (d_max == 0) fire fully."""
    if d_max == 0.0:
        return 1.0
    return math.exp(-eta * d_j / d_max)


def rule_consequent(x_e: np.ndarray, w: np.ndarray) -> float:
    """Hyperplane output: dot(extended input, rule weights)."""
    if x_e.shape != np.shape(w):
        raise ValueError("extended input and rule weights disagree in dimension")
    return float(np.dot(x_e, w))


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
    a = w[:, 1:]
    # a rule's consequent is also its plane height at the input
    consequents = w @ x_e
    dists = np.abs(y_r - consequents) / np.sqrt(1.0 + np.add.reduce(a * a, axis=1))
    d_max = float(np.maximum.reduce(dists))
    if d_max == 0.0:
        raw = np.ones(len(dists))
    else:
        raw = np.exp(dists * (-net.eta / d_max))
    total = float(np.add.reduce(raw))
    if total < _UNDERFLOW:
        normalized = np.full(len(raw), 1.0 / len(raw))
    else:
        normalized = raw / total
    u_palm = float(normalized @ consequents)
    return u_palm, FiringVector(raw=raw, normalized=normalized)


def save_rules(net: PalmNetwork, path) -> None:
    """Write the rule set as plain-text rows: rule_index, w0, ..., wN."""
    rows = np.column_stack([np.arange(net.rule_count), net.weights])
    np.savetxt(path, rows, fmt=["%d"] + ["%.17g"] * DIM, delimiter=", ")


def load_rules(path) -> np.ndarray:
    """Read a rule snapshot back into an (R, DIM) weight matrix."""
    return np.loadtxt(path, delimiter=",", ndmin=2)[:, 1:]
