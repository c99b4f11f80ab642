"""Closed-loop parsimonious controller.

Combines the hyperplane-fuzzy network with sliding-mode weight adaptation
and the bias/variance structure learning. The control signal splits into a
robustifying term u_src = alpha1 * s_l (saturated) and the learned network
term, u = u_src - u_palm.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite, sqrt

from . import evolution
from .palm import PalmNetwork, network_output


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


def adapt_weights(
    net: PalmNetwork,
    e: float,
    e_dot: float,
    c: ControllerConfig,
    P: PMatrix,
    x_e,
    dt: float,
) -> None:
    """Sliding-mode update: w <- w - dt * (gamma / R) * (e p12 + de p22) * x_e.

    PALM moves rule j by lam_j * x_e; each of the R equal rules fires
    lam_j = 1/R, so the shared row moves at gain gamma / R. Entries are
    clipped to the weight bound afterwards, by the two comparisons of
    ``min(max(v, -lim), lim)``, so a NaN passes through as it does there.
    """
    g = e * P.p12 + e_dot * P.p22
    k = dt * c.gamma * g / net.rule_count
    hi = c.weight_limit
    lo = -hi
    w0, w1, w2, w3 = net.w
    x0, x1, x2, x3 = x_e
    w0, w1, w2, w3 = w0 - k * x0, w1 - k * x1, w2 - k * x2, w3 - k * x3
    w0, w1, w2, w3 = lo if lo > w0 else w0, lo if lo > w1 else w1, lo if lo > w2 else w2, lo if lo > w3 else w3
    w0, w1, w2, w3 = hi if hi < w0 else w0, hi if hi < w1 else w1, hi if hi < w2 else w2, hi if hi < w3 else w3
    net.w = [w0, w1, w2, w3]
    if not (isfinite(w0) and isfinite(w1) and isfinite(w2) and isfinite(w3)):
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
    learn_rates and alpha_max hold one value per alpha; the learn rates and
    the three limits must be non-negative. Each alpha is finite and at most
    its alpha_max, and gamma is finite; a negative gamma is allowed.
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
        alphas = (self.alpha1, self.alpha2, self.alpha3)
        if not (0 < self.alpha1 < inf and 0 < self.alpha2 < inf and 0 <= self.alpha3 < inf):
            raise ValueError(f"alpha1 and alpha2 must be positive and alpha3 non-negative, all finite, not {alphas!r}")
        if not isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, not {self.gamma!r}")
        # one value per sliding coefficient, alpha1..alpha3
        for name in ("learn_rates", "alpha_max"):
            values = tuple(map(float, getattr(self, name)))
            if len(values) != 3:
                raise ValueError(f"{name} takes three values, one per alpha, not {len(values)}")
            setattr(self, name, values)
        if not all(r >= 0.0 for r in self.learn_rates):
            raise ValueError("learn_rates must be non-negative: the sliding coefficients only grow")
        # the adaptation clamps each alpha to [start, alpha_max], an empty range when start > alpha_max
        if not all(a <= hi for a, hi in zip(alphas, self.alpha_max)):
            raise ValueError(f"alpha_max {self.alpha_max!r} must be at least each starting alpha {alphas!r}")
        # float keeps the clamps on u, u_src and the weights float-valued; a negative
        # or NaN limit would make each clamp return the limit whatever its input
        for name in ("weight_limit", "sat_limit", "actuator_limit"):
            limit = float(getattr(self, name))
            if not limit >= 0.0:
                raise ValueError(f"{name} must be non-negative, not {limit!r}")
            setattr(self, name, limit)


class ParsimoniousController:
    """Evolving fuzzy controller; the harness reads it through step, log_columns, rule_count and write_artifacts.

    ``step`` returns u clamped to the actuator limit and the cells of ``log_columns``;
    before the clamp u is exactly ``u_src - u_palm``, and ``R`` is the rule count after the step.
    """

    log_columns = ("s_l", "u_src", "u_palm", "R", "bias", "variance")

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

    def step(self, y: float, y_r: float, dt: float) -> tuple[float, tuple]:
        """One control step in one pass: sliding surface, network output,
        structure learning (grow first, prune otherwise, never both and
        never the last rule), then the adaptation.

        The network output, the weight adaptation, the bias/variance and the
        two drift detectors stay calls through the ``pacsim.controller`` and
        ``pacsim.evolution`` globals, so a tracer that replaces them there
        sees every call. The saturations are the two comparisons of
        ``min(max(x, lo), hi)``.
        """
        y, y_r, dt = float(y), float(y_r), float(dt)  # a caller's numpy scalar stays out of the float path
        if dt <= 0:
            raise ValueError("dt must be positive")
        c = self.config
        s = self.sliding
        net = self.net

        e = y_r - y
        e_dot = 0.0 if self._e_prev is None else (e - self._e_prev) / dt
        self._e_prev = e
        err_integral = s.err_integral = s.err_integral + e * dt

        # s_l = e + (a2/a1) de/dt + (a3/a1) int(e); u_src = alpha1 s_l, saturated to suppress chattering
        a1 = s.alpha1
        s_l = e + (s.alpha2 / a1) * e_dot + (s.alpha3 / a1) * err_integral
        hi = c.sat_limit
        lo = -hi
        u_src = a1 * s_l
        if lo > u_src:
            u_src = lo
        if hi < u_src:
            u_src = hi

        x_e = (1.0, e, e_dot, y_r)
        u_palm = network_output(x_e, net)
        u = u_src - u_palm
        if not isfinite(u):
            raise ControllerFault(f"non-finite control at step {self.steps}: u_palm={u_palm}")

        bias = variance = 0.0
        if c.evolution_enabled:
            evo = self.evo
            # the running mean of the extended input x_e
            k = evo.k = evo.k + 1
            m0, m1, m2, m3 = evo.mu_e
            evo.mu_e = (m0 + (1.0 - m0) / k, m1 + (e - m1) / k, m2 + (e_dot - m2) / k, m3 + (y_r - m3) / k)
            bias2, variance = evolution.network_bias_variance(net, evo, y_r)
            bias = sqrt(bias2)
            grow = evolution.check_grow(evo, bias)
            prune = evolution.check_prune(evo, variance)
            if grow or (prune and net.rule_count >= 2):
                net.rule_count += 1 if grow else -1
                self.events.append((self.steps * dt, "GROW" if grow else "PRUNE", net.rule_count, bias, variance))
                # re-baseline the drift detectors, as the underlying
                # process-control method does after a detection
                evo.restart_detectors()

        adapt_weights(net, e, e_dot, c, self.P, x_e, dt)
        if not self._alphas_at_max and adapt_sliding_params(s, c, e, e_dot, s_l, dt):
            self.P = p_matrix(s.alpha1, s.alpha2)
            self._alphas_at_max = (s.alpha1, s.alpha2, s.alpha3) == c.alpha_max

        self.steps += 1
        hi = c.actuator_limit
        lo = -hi
        if lo > u:
            u = lo
        if hi < u:
            u = hi
        return u, (s_l, u_src, u_palm, net.rule_count, bias, variance)

    def write_artifacts(self, out_dir, name: str) -> None:
        """``<name>_events.txt`` (time_s, event, rule_count, bias, variance per event) and
        ``<name>_rules.txt`` (rule_index, w0, ..., wN per rule, R equal rows) in ``out_dir``."""
        with open(out_dir / f"{name}_events.txt", "w") as fh:
            for t, kind, count, bias, variance in self.events:
                fh.write(f"{t:.17g}, {kind}, {count}, {bias:.17g}, {variance:.17g}\n")
        row = ", ".join("%.17g" % v for v in self.net.w)
        with open(out_dir / f"{name}_rules.txt", "w") as fh:
            fh.writelines("%d, " % i + row + "\n" for i in range(self.net.rule_count))
