"""Closed-loop parsimonious controller.

Combines the hyperplane-fuzzy network with sliding-mode weight adaptation
and the bias/variance structure learning. The control signal splits into a
robustifying term u_src = alpha1 * s_l (saturated) and the learned network
term, u = u_src - u_palm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import evolution
from .palm import PalmNetwork, extended_input, network_output


class ControllerFault(RuntimeError):
    """Raised when a non-finite value appears anywhere in the control step."""


@dataclass
class PMatrix:
    """Symmetric 2x2 Lyapunov weighting for the adaptation law."""

    p11: float
    p12: float
    p21: float
    p22: float


def p_matrix(alpha1: float, alpha2: float) -> PMatrix:
    """P for Q = I2 as published: p11 = a2/a1 + 1/(2 a2), p12 = 1/(2 a1),
    p22 = (1 + a1)/(2 a1 a2).

    Note: this published p11 solves the Lyapunov equation only when
    alpha1 == alpha2; see lyapunov_p_matrix for the exact solution. The
    adaptation law reads only p12 and p22, which the two agree on.
    """
    if alpha1 <= 0 or alpha2 <= 0:
        raise ValueError("sliding coefficients must be positive")
    p12 = 1.0 / (2.0 * alpha1)
    return PMatrix(
        p11=alpha2 / alpha1 + 1.0 / (2.0 * alpha2),
        p12=p12,
        p21=p12,
        p22=(1.0 + alpha1) / (2.0 * alpha1 * alpha2),
    )


def lyapunov_p_matrix(alpha1: float, alpha2: float) -> PMatrix:
    """Exact solution of A'P + PA = -I2 for A = [[0, 1], [-a1, -a2]]."""
    if alpha1 <= 0 or alpha2 <= 0:
        raise ValueError("sliding coefficients must be positive")
    p12 = 1.0 / (2.0 * alpha1)
    return PMatrix(
        p11=alpha2 / (2.0 * alpha1) + (1.0 + alpha1) / (2.0 * alpha2),
        p12=p12,
        p21=p12,
        p22=(1.0 + alpha1) / (2.0 * alpha1 * alpha2),
    )


@dataclass
class SlidingState:
    """The sliding-mode values that change during a run: the coefficients
    alpha1..alpha3 and the error integral. Their settings (starting values,
    learning rates, ceilings, gain and saturation) live in ControllerConfig.
    """

    alpha1: float
    alpha2: float
    alpha3: float
    err_integral: float = 0.0


@dataclass
class ControlStep:
    """Per-step diagnostics. u preserves the exact identity u_src - u_palm;
    the value applied to the plant is separately clamped to the actuator limit."""

    e: float
    e_dot: float
    s_l: float
    u_src: float
    u_palm: float
    u: float
    bias: float = 0.0
    variance: float = 0.0


def sliding_value(e: float, e_dot: float, err_integral: float, s: SlidingState) -> float:
    """s_l = e + (a2/a1) de/dt + (a3/a1) int(e)."""
    return e + (s.alpha2 / s.alpha1) * e_dot + (s.alpha3 / s.alpha1) * err_integral


def robustifying_term(s_l: float, s: SlidingState, c: ControllerConfig) -> float:
    """alpha1 * s_l, saturated to suppress chattering."""
    return min(max(s.alpha1 * s_l, -c.sat_limit), c.sat_limit)


def adapt_weights(
    net: PalmNetwork,
    step: ControlStep,
    c: ControllerConfig,
    P: PMatrix,
    x_e,
    dt: float,
) -> None:
    """Sliding-mode update: w <- w - dt * (gamma / R) * (e p12 + de p22) * x_e.

    PALM moves rule j by lam_j * x_e; each of the R equal rules fires
    lam_j = 1/R, so the shared row moves at gain gamma / R. Entries are
    clipped to the weight bound afterwards.
    """
    g = step.e * P.p12 + step.e_dot * P.p22
    k = dt * c.gamma * g / net.rule_count
    lim = c.weight_limit
    w = net.w = [min(max(v - k * x, -lim), lim) for v, x in zip(net.w, x_e)]
    if not all(map(math.isfinite, w)):
        raise ControllerFault("non-finite rule weights after adaptation")


def adapt_sliding_params(s: SlidingState, c: ControllerConfig, e: float, e_dot: float, s_l: float, dt: float) -> bool:
    """Self-evolve the sliding coefficients with dissimilar learning rates.

    a1 grows with |s_l||e|, a2 with |s_l||de|, a3 with |s_l||int(e)|, each
    clamped to [starting value, alpha_max]. Returns True when any value changed.
    """
    r1, r2, r3 = c.learn_rates
    if r1 == 0.0 and r2 == 0.0 and r3 == 0.0:
        return False
    hi1, hi2, hi3 = c.alpha_max
    a1 = min(hi1, max(c.alpha1, s.alpha1 + dt * r1 * abs(s_l) * abs(e)))
    a2 = min(hi2, max(c.alpha2, s.alpha2 + dt * r2 * abs(s_l) * abs(e_dot)))
    a3 = min(hi3, max(c.alpha3, s.alpha3 + dt * r3 * abs(s_l) * abs(s.err_integral)))
    changed = (a1, a2, a3) != (s.alpha1, s.alpha2, s.alpha3)
    s.alpha1, s.alpha2, s.alpha3 = a1, a2, a3
    return changed


@dataclass
class ControllerConfig:
    """Controller settings. alpha1..alpha3 are the starting sliding
    coefficients: they stay fixed while learn_rates are all zero (the
    default) and otherwise self-evolve upward, clamped to [start, alpha_max].
    The learn rates must be non-negative.
    """

    gamma: float = 50.0
    weight_limit: float = 10.0
    actuator_limit: float = float("inf")
    sat_limit: float = 10.0
    alpha1: float = 1e-2
    alpha2: float = 1e-3
    alpha3: float = 1e-9
    learn_rates: tuple[float, float, float] = (0.0, 0.0, 0.0)
    alpha_max: tuple[float, float, float] = (1.0, 0.5, 0.01)
    evolution_enabled: bool = True

    def __post_init__(self):
        if self.alpha1 <= 0 or self.alpha2 <= 0:
            raise ValueError("alpha1 and alpha2 must be positive")
        self.learn_rates = tuple(map(float, self.learn_rates))
        self.alpha_max = tuple(map(float, self.alpha_max))
        if not all(r >= 0.0 for r in self.learn_rates):
            raise ValueError("learn_rates must be non-negative: the sliding coefficients only grow")
        # keeps the min/max clamps on u, u_src and the weights float-valued
        self.actuator_limit = float(self.actuator_limit)
        self.sat_limit = float(self.sat_limit)
        self.weight_limit = float(self.weight_limit)


class ParsimoniousController:
    """Evolving fuzzy controller with the step interface (y, y_r, dt) -> u."""

    def __init__(self, config: ControllerConfig | None = None):
        self.config = config or ControllerConfig()
        c = self.config
        self.net = PalmNetwork()
        self.sliding = SlidingState(c.alpha1, c.alpha2, c.alpha3)
        self.evo = evolution.EvolutionState()
        self.P = p_matrix(c.alpha1, c.alpha2)
        # the alphas only grow and the clamp holds each at its ceiling, so once
        # all three sit there no step moves them and their adaptation is skipped
        self._alphas_at_max = (c.alpha1, c.alpha2, c.alpha3) == c.alpha_max
        self._e_prev: float | None = None
        self.steps = 0
        self.events: list[tuple[float, str, int, float, float]] = []

    @property
    def rule_count(self) -> int:
        return self.net.rule_count

    @property
    def parameter_count(self) -> int:
        return self.net.parameter_count

    def step(self, y: float, y_r: float, dt: float) -> tuple[float, ControlStep]:
        if dt <= 0:
            raise ValueError("dt must be positive")
        c = self.config
        s = self.sliding

        y, y_r = float(y), float(y_r)  # a caller's numpy scalar stays out of the float path
        e = y_r - y
        e_dot = 0.0 if self._e_prev is None else (e - self._e_prev) / dt
        self._e_prev = e
        s.err_integral += e * dt

        s_l = sliding_value(e, e_dot, s.err_integral, s)
        u_src = robustifying_term(s_l, s, c)

        x_e = extended_input(e, e_dot, y_r)
        u_palm = network_output(x_e, self.net)
        u = u_src - u_palm

        if not math.isfinite(u):
            raise ControllerFault(f"non-finite control at step {self.steps}: u_palm={u_palm}")

        diag = ControlStep(e=e, e_dot=e_dot, s_l=s_l, u_src=u_src, u_palm=u_palm, u=u)

        if c.evolution_enabled:
            self._evolve(diag, x_e, y_r, self.steps * dt)

        adapt_weights(self.net, diag, c, self.P, x_e, dt)
        if not self._alphas_at_max and adapt_sliding_params(s, c, e, e_dot, s_l, dt):
            self.P = p_matrix(s.alpha1, s.alpha2)
            self._alphas_at_max = (s.alpha1, s.alpha2, s.alpha3) == c.alpha_max

        self.steps += 1
        return min(max(u, -c.actuator_limit), c.actuator_limit), diag

    def _evolve(self, diag: ControlStep, x_e: tuple, y_r: float, t: float) -> None:
        """Structure learning: grow first, prune otherwise (never both); ``t`` stamps the event."""
        evolution.update_input_mean(self.evo, x_e)
        bias2, variance = evolution.network_bias_variance(self.net, self.evo, y_r)
        bias = diag.bias = math.sqrt(bias2)
        diag.variance = variance
        grow = evolution.check_grow(self.evo, bias)
        prune = evolution.check_prune(self.evo, variance)
        if grow:
            self.net.rule_count += 1
        elif prune and self.net.rule_count >= 2:
            self.net.rule_count -= 1
        else:
            return
        self.events.append((t, "GROW" if grow else "PRUNE", self.net.rule_count, bias, variance))
        # re-baseline the drift detectors, as the underlying
        # process-control method does after a detection
        self.evo.restart_detectors()

    def save_evolution_log(self, path) -> None:
        """Plain-text rows: time_s, event, rule_count, bias, variance."""
        with open(path, "w") as fh:
            for t, kind, count, bias, variance in self.events:
                fh.write(f"{t:.17g}, {kind}, {count}, {bias:.17g}, {variance:.17g}\n")
