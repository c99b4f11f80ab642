"""Hyperplane-clustered fuzzy network (PALM core).

Each fuzzy rule is a single weight vector over the extended input
[1, e, de/dt, y_r]. In PALM the rule's hyperplane doubles as antecedent (via a
point-to-plane distance) and consequent (via a dot product). Here the network
starts from one zero rule and a grow copies a rule, so all R rules share one
hyperplane: they fire equally, the antecedent drops out, and the network
output is that hyperplane's consequent. The network is that one weight row
and the rule count R.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

N_INPUTS = 3  # e, de/dt, y_r
DIM = N_INPUTS + 1  # leading intercept slot


def extended_input(e: float, e_dot: float, y_r: float) -> np.ndarray:
    """Build the extended input vector [1, e, de/dt, y_r]."""
    return np.array([1.0, e, e_dot, y_r])


@dataclass
class PalmNetwork:
    """R rules that share one hyperplane: the weight row w (a DIM-vector) and the rule count."""

    w: np.ndarray = field(default_factory=lambda: np.zeros(DIM))
    rule_count: int = 1

    @property
    def parameter_count(self) -> int:
        """DIM per rule, as the paper counts a rule base; DIM of them are free."""
        return DIM * self.rule_count


def network_output(x_e: np.ndarray, net: PalmNetwork) -> float:
    """Defuzzified network output: the shared hyperplane's consequent w . x_e."""
    return float(np.dot(net.w, x_e))


def save_rules(net: PalmNetwork, path) -> None:
    """Write the rule set as plain-text rows: rule_index, w0, ..., wN (R equal rows)."""
    rows = np.column_stack([np.arange(net.rule_count), np.tile(net.w, (net.rule_count, 1))])
    np.savetxt(path, rows, fmt=["%d"] + ["%.17g"] * DIM, delimiter=", ")
