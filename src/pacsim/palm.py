"""Hyperplane-clustered fuzzy network (PALM core).

Each fuzzy rule is a single weight vector over the extended input
[1, e, de/dt, y_r]. In PALM the rule's hyperplane doubles as antecedent (via a
point-to-plane distance) and consequent (via a dot product). Here the network
starts from one zero rule and a grow copies a rule, so all R rules share one
hyperplane: they fire equally, the antecedent drops out, and the network
output is that hyperplane's consequent. The network is that one weight row,
four Python floats, and the rule count R.
"""

from __future__ import annotations

from dataclasses import dataclass, field

N_INPUTS = 3  # e, de/dt, y_r
DIM = N_INPUTS + 1  # leading intercept slot


@dataclass
class PalmNetwork:
    """R rules that share one hyperplane: the weight row w (DIM Python floats) and the rule count."""

    w: list[float] = field(default_factory=lambda: [0.0] * DIM)
    rule_count: int = 1

    def __post_init__(self):
        # coerced once, so a numpy row leaves no numpy scalar in the step
        self.w = [float(v) for v in self.w]

    @property
    def parameter_count(self) -> int:
        """DIM per rule, as the paper counts a rule base; DIM of them are free."""
        return DIM * self.rule_count


def network_output(x_e, net: PalmNetwork) -> float:
    """Defuzzified network output: the shared hyperplane's consequent w . x_e, summed left to right."""
    w0, w1, w2, w3 = net.w
    x0, x1, x2, x3 = x_e
    return w0 * x0 + w1 * x1 + w2 * x2 + w3 * x3


def save_rules(net: PalmNetwork, path) -> None:
    """Write the rule set as plain-text rows: rule_index, w0, ..., wN (R equal rows)."""
    row = ", ".join("%.17g" % v for v in net.w)
    with open(path, "w") as fh:
        fh.writelines("%d, " % i + row + "\n" for i in range(net.rule_count))
