"""Scalar oracles for one rule of the hyperplane network.

``pacsim.palm.network_output`` computes these for every rule at once; the
tests check the matrix path against them one rule at a time.
"""

import math

import numpy as np


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
