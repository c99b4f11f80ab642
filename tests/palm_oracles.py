"""Oracles for the hyperplane network: PALM's rules one at a time, its R-row
network output, and a PAC controller that keeps PALM's R-row rule base.

``pacsim.controller`` holds the rule base as one shared hyperplane and a rule
count. The tests check it against PALM written out in full: rows in a list,
each firing ``exp(-eta * d / d_max)`` on its point-to-plane distance, a grow
that copies the highest-firing row and a prune that drops the row of least
significance.
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
    x_e = np.asarray(x_e)
    if x_e.shape != np.shape(w):
        raise ValueError("extended input and rule weights disagree in dimension")
    return float(np.dot(x_e, w))


def matrix_network_output(x_e, weights, eta, y_r):
    """PALM's network output over an (R, 4) weight matrix with numpy's array
    methods: (output, raw firing, normalized firing)."""
    a = weights[:, 1:]
    consequents = weights @ x_e
    dists = np.abs(y_r - consequents) / np.sqrt(1.0 + (a * a).sum(axis=1))
    d_max = float(dists.max())
    raw = np.ones(len(dists)) if d_max == 0.0 else np.exp(dists * (-eta / d_max))
    normalized = raw / float(raw.sum())
    return float(normalized @ consequents), raw, normalized


def palm_network_output(x_e, rows, eta, y_r):
    """PALM's network output written out on Python floats, rule by rule:
    (output, raw firing, normalized firing)."""
    x = [float(v) for v in x_e]
    dists = []
    for w in rows:
        plane = w[1] * x[1] + w[2] * x[2] + w[3] * x[3] + w[0]
        dists.append(abs(y_r - plane) / math.sqrt(1.0 + w[1] ** 2 + w[2] ** 2 + w[3] ** 2))
    d_max = max(dists)
    raw = [membership(d, d_max, eta) for d in dists]
    total = sum(raw)
    lam = [r / total for r in raw]
    u = sum(l * sum(wi * xi for wi, xi in zip(w, x)) for l, w in zip(lam, rows))
    return u, raw, lam


class _SigmaRule:
    """Welford mean and population std of a signal, their minima, and the floored sigma rule."""

    def __init__(self):
        self.n, self.mean, self.m2 = 0, 0.0, 0.0
        self.mu_min = self.sd_min = None

    def fires(self, x: float, factor: float) -> bool:
        self.n += 1
        d = x - self.mean
        self.mean += d / self.n
        self.m2 += d * (x - self.mean)
        sd = math.sqrt(max(self.m2, 0.0) / self.n)
        if self.mu_min is None or self.mean < self.mu_min:
            self.mu_min = self.mean
        if self.sd_min is None or sd < self.sd_min:
            self.sd_min = sd
        fired = self.mean + sd > self.mu_min + factor * max(self.sd_min, 0.2 * abs(self.mu_min), 0.01)
        if fired:
            self.mu_min, self.sd_min = self.mean, sd
        return fired


class PalmReference:
    """PAC with PALM's R-row rule base, written out straight-line on Python floats.

    Only the settings are read from ``c`` (a ``ControllerConfig``): the
    sliding-mode law as a PID sum (a1 e + a3 int(e) + a2 de/dt, in that
    order) whose integral holds on a step where the sum saturates, the P
    matrix, the input mean and both sigma rules are written out here. The
    rows are kept in a list and each step fires them through
    ``palm_network_output``. Under evolution a grow appends a copy of the
    highest-firing row and a prune, never of the last row, drops the row of
    least |w_j . mu_e|; ties go to the lowest index, and either edit restarts
    both detectors and fires the edited rows again. Each row then moves by
    dt * gamma * (e p12 + de p22) * lam_j * x_e, clipped.
    """

    def __init__(self, c, eta: float = 5.0):
        self.c, self.eta = c, eta
        self.rows = [[0.0] * 4]
        a1, a2 = c.alphas[:2]
        self.p12, self.p22 = 1.0 / (2.0 * a1), (1.0 + a1) / (2.0 * a1 * a2)
        self.e_prev = None
        self.ei = 0.0
        self.mu = [0.0] * 4
        self.k = 0
        self.grow, self.prune = _SigmaRule(), _SigmaRule()
        self.raw = [1.0]

    @property
    def R(self) -> int:
        return len(self.rows)

    def step(self, y: float, y_r: float, dt: float) -> float:
        c = self.c
        e = y_r - y
        ed = 0.0 if self.e_prev is None else (e - self.e_prev) / dt
        self.e_prev = e
        a1, a2, a3 = c.alphas
        ei = self.ei + e * dt
        u_sum = a1 * e + a3 * ei + a2 * ed
        u_src = min(max(u_sum, -c.sat_limit), c.sat_limit)
        if abs(u_sum) <= c.sat_limit:
            self.ei = ei
        x = [1.0, e, ed, y_r]
        u_palm, self.raw, lam = palm_network_output(x, self.rows, self.eta, y_r)
        u = u_src - u_palm
        if c.evolution_enabled and self._evolve(x, y_r):
            _, self.raw, lam = palm_network_output(x, self.rows, self.eta, y_r)
        g = e * self.p12 + ed * self.p22
        m = c.weight_limit
        for w, l in zip(self.rows, lam):
            for q in range(4):
                w[q] = min(max(w[q] - dt * c.gamma * g * l * x[q], -m), m)
        return min(max(u, -c.actuator_limit), c.actuator_limit)

    def _evolve(self, x, y_r: float) -> bool:
        """Grow or prune on the bias and variance of the rows under unity firing; True on an edit."""
        self.k += 1
        self.mu = [m + (v - m) / self.k for m, v in zip(self.mu, x)]
        e_y = sum(sum(wi * mi for wi, mi in zip(w, self.mu)) for w in self.rows)
        e_y2 = sum(sum(wi * mi * mi for wi, mi in zip(w, self.mu)) for w in self.rows)
        bias = math.sqrt((e_y - y_r) ** 2)
        variance = max(e_y2 - e_y * e_y, 0.0)
        grow = self.grow.fires(bias, 1.3 * math.exp(-bias * bias) + 0.7)
        prune = self.prune.fires(variance, 2.0 * (1.3 * math.exp(-variance) + 0.7))
        if grow:
            winner = max(range(self.R), key=lambda j: self.raw[j])
            self.rows.append(list(self.rows[winner]))
        elif prune and self.R >= 2:
            significance = [abs(sum(wi * mi for wi, mi in zip(w, self.mu))) for w in self.rows]
            self.rows.pop(significance.index(min(significance)))
        else:
            return False
        self.grow, self.prune = _SigmaRule(), _SigmaRule()
        return True
