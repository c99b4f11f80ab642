"""Bias/variance-driven rule growing and pruning (network significance).

All statistics are strictly one-pass: a Welford recurrence tracks the running
mean/std of the bias and variance signals, and only the recorded minima are
reset when a grow/prune condition fires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .palm import DIM, PalmNetwork

# Floors of the sigma-rule spread. The stored minimum of a standard deviation
# starts at zero (the first Welford sample always has zero spread), and
# without a floor any later fluctuation fires the rule immediately. The
# relative floor scales with the matching mean minimum.
SIGMA_FLOOR_REL = 0.2
SIGMA_FLOOR_ABS = 0.01


class RunningStat:
    """One-pass mean / population std (Welford)."""

    __slots__ = ("count", "mean", "_m2")

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def push(self, x: float) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (x - self.mean)

    @property
    def std(self) -> float:
        if self.count == 0:
            return 0.0
        return math.sqrt(max(self._m2, 0.0) / self.count)


@dataclass
class SigmaRule:
    """Drift detector on one signal: running statistics and their recorded minima."""

    stat: RunningStat = field(default_factory=RunningStat)
    mu_min: float | None = None
    sigma_min: float | None = None

    def fires(self, x: float, factor: float) -> bool:
        """Push x and test mean + std > mu_min + factor * floored sigma_min.

        On fire the minima reset to the current statistics.
        """
        self.stat.push(x)
        mu, sigma = self.stat.mean, self.stat.std
        if self.mu_min is None or mu < self.mu_min:
            self.mu_min = mu
        if self.sigma_min is None or sigma < self.sigma_min:
            self.sigma_min = sigma
        spread = max(self.sigma_min, SIGMA_FLOOR_REL * abs(self.mu_min), SIGMA_FLOOR_ABS)
        fired = mu + sigma > self.mu_min + factor * spread
        if fired:
            self.mu_min, self.sigma_min = mu, sigma
        return fired


@dataclass
class EvolutionState:
    """Running input mean plus the grow and prune detectors."""

    mu_e: np.ndarray = field(default_factory=lambda: np.zeros(DIM))
    k: int = 0
    grow: SigmaRule = field(default_factory=SigmaRule)
    prune: SigmaRule = field(default_factory=SigmaRule)

    def restart_detectors(self) -> None:
        """Re-baseline both drift detectors after a structural edit.

        The edited network changes the bias/variance signal regimes; stale
        multi-regime history otherwise keeps their spread permanently above
        any threshold. The input mean is not touched.
        """
        self.grow = SigmaRule()
        self.prune = SigmaRule()


def update_input_mean(state: EvolutionState, x_e: np.ndarray) -> None:
    """Incremental mean of the extended input; increments the sample counter."""
    state.k += 1
    state.mu_e += (x_e - state.mu_e) / state.k


def network_bias_variance(net: PalmNetwork, state: EvolutionState, y_r: float) -> tuple[float, float]:
    """Squared bias and variance of the network output under unity firing.

    E[Y] sums each rule's consequent at the input mean; E[Y^2] uses the
    elementwise-squared input mean. The variance estimate can go negative
    under this approximation and is clamped at zero.
    """
    if state.k < 1:
        raise ValueError("input mean not yet populated")
    w = net.weights
    e_y = float(np.add.reduce(w @ state.mu_e))
    e_y2 = float(np.add.reduce(w @ (state.mu_e * state.mu_e)))
    bias2 = (e_y - y_r) ** 2
    variance = max(e_y2 - e_y * e_y, 0.0)
    return bias2, variance


def growth_factor(bias: float) -> float:
    """Dynamic confidence factor for growing, in (0.7, 2.0]."""
    return 1.3 * math.exp(-bias * bias) + 0.7


def pruning_factor(variance: float) -> float:
    """Dynamic confidence factor for pruning, in (0.7, 2.0]."""
    return 1.3 * math.exp(-variance) + 0.7


def check_grow(state: EvolutionState, bias: float) -> bool:
    """Sigma rule on the bias signal, scaled by the growth factor."""
    return state.grow.fires(bias, growth_factor(bias))


def check_prune(state: EvolutionState, variance: float) -> bool:
    """Sigma rule on the variance signal with factor 2 * pruning factor.

    The extra 2 keeps a prune from chasing directly after a grow.
    """
    return state.prune.fires(variance, 2.0 * pruning_factor(variance))


def grow_rule(net: PalmNetwork, firing: np.ndarray) -> None:
    """Append a copy of the highest-firing rule; ties go to the lowest index.

    The defuzzified output only moves toward the duplicated consequent by
    that rule's firing share, so the new degree of freedom arrives without a
    large control transient; the copies then specialize under
    firing-weighted adaptation.
    """
    net.add_rule(net.weights[int(np.argmax(firing))])


def rule_significances(net: PalmNetwork, state: EvolutionState) -> np.ndarray:
    """Expected contribution of each rule: dot(weights, input mean)."""
    return net.weights @ state.mu_e


def prune_rule(net: PalmNetwork, state: EvolutionState) -> int:
    """Remove the rule with the smallest |significance|; ties go to the lowest index."""
    if net.rule_count < 2:
        raise ValueError("refusing to prune the last rule")
    idx = int(np.argmin(np.abs(rule_significances(net, state))))  # argmin returns the first minimum
    net.remove_rule(idx)
    return idx
