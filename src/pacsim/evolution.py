"""Bias/variance-driven rule growing and pruning (network significance).

All statistics are strictly one-pass: a Welford recurrence tracks the running
mean/std of the bias and variance signals, and only the recorded minima are
reset when a grow/prune condition fires. A grow adds a copy of the shared
rule and a prune drops one, never the last (see ``pacsim.controller``).
The controller holds the state: the input mean ``mu_e`` and the detectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .controller import PalmNetwork

# Floors of the sigma-rule spread. The stored minimum of a standard deviation
# starts at zero (the first Welford sample always has zero spread), and
# without a floor any later fluctuation fires the rule immediately. The
# relative floor scales with the matching mean minimum.
SIGMA_FLOOR_REL = 0.2
SIGMA_FLOOR_ABS = 0.01


@dataclass
class SigmaRule:
    """Drift detector on one signal: Welford running mean / population std and their recorded minima."""

    count: int = 0
    mean: float = 0.0
    std: float = 0.0
    _m2: float = 0.0
    mu_min: float | None = None
    sigma_min: float | None = None

    def fires(self, x: float, factor: float) -> bool:
        """Push x and test mean + std > mu_min + factor * floored sigma_min.

        On fire the minima reset to the current statistics. Each field is
        read once; the clamp of the sum of squares at 0 and the floored
        spread are the comparisons ``max`` makes, in its argument order (it
        keeps the first of equal or unordered arguments, so a NaN in front
        stays).
        """
        count = self.count = self.count + 1
        mean = self.mean
        delta = x - mean
        mu = self.mean = mean + delta / count
        m2 = self._m2 = self._m2 + delta * (x - mu)
        sigma = self.std = math.sqrt((0.0 if 0.0 > m2 else m2) / count)
        mu_min, sigma_min = self.mu_min, self.sigma_min
        if mu_min is None or mu < mu_min:
            mu_min = self.mu_min = mu
        if sigma_min is None or sigma < sigma_min:
            sigma_min = self.sigma_min = sigma
        spread = SIGMA_FLOOR_REL * abs(mu_min)
        spread = spread if spread > sigma_min else sigma_min
        spread = SIGMA_FLOOR_ABS if SIGMA_FLOOR_ABS > spread else spread
        if mu + sigma > mu_min + factor * spread:
            self.mu_min, self.sigma_min = mu, sigma
            return True
        return False


def network_bias_variance(net: PalmNetwork, mu_e: tuple[float, ...], y_r: float) -> tuple[float, float]:
    """Squared bias and variance of the network output under unity firing.

    E[Y] sums each rule's consequent at the input mean, and E[Y^2] each
    rule's consequent at the elementwise-squared input mean. Both are linear
    in the weights, so they are the column sum s = R * w of the R equal rows
    dotted with mu_e and with mu_e * mu_e: E[Y] = sum_k s_k mu_k and E[Y^2] =
    sum_k (s_k mu_k) mu_k, left to right. The variance estimate can go
    negative under this approximation and is clamped at zero. A bias too
    large to square raises FloatingPointError.
    """
    r = net.rule_count
    w0, w1, w2, w3 = net.w
    m0, m1, m2, m3 = mu_e
    t0, t1, t2, t3 = (r * w0) * m0, (r * w1) * m1, (r * w2) * m2, (r * w3) * m3
    e_y = ((t0 + t1) + t2) + t3
    e_y2 = ((t0 * m0 + t1 * m1) + t2 * m2) + t3 * m3
    try:
        bias2 = (e_y - y_r) ** 2
    except OverflowError:
        raise FloatingPointError(f"bias signal overflowed: E[Y] = {e_y!r} against y_r = {y_r!r}") from None
    variance = max(e_y2 - e_y * e_y, 0.0)
    return bias2, variance


def growth_factor(bias: float) -> float:
    """Dynamic confidence factor for growing, in (0.7, 2.0]."""
    return 1.3 * math.exp(-bias * bias) + 0.7


def pruning_factor(variance: float) -> float:
    """Dynamic confidence factor for pruning, in (0.7, 2.0]."""
    return 1.3 * math.exp(-variance) + 0.7


def check_grow(rule: SigmaRule, bias: float) -> bool:
    """Sigma rule on the bias signal, scaled by the growth factor."""
    return rule.fires(bias, growth_factor(bias))


def check_prune(rule: SigmaRule, variance: float) -> bool:
    """Sigma rule on the variance signal with factor 2 * pruning factor.

    The extra 2 keeps a prune from chasing directly after a grow.
    """
    return rule.fires(variance, 2.0 * pruning_factor(variance))
