"""Closed-loop parsimonious controller.

Combines the hyperplane-fuzzy network with sliding-mode weight adaptation
and the bias/variance structure learning. The control signal splits into a
robustifying term u_src = alpha1 * s_l (saturated) and the learned network
term, u = u_src - u_palm.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite, sqrt
from numbers import Real

from . import evolution
from .palm import DIM, PalmNetwork, network_output


class ControllerFault(RuntimeError):
    """Raised when a non-finite value appears anywhere in the control step."""


def p_matrix(alpha1: float, alpha2: float) -> tuple[float, float, float]:
    """(p11, p12, p22) of the symmetric P for Q = I2 as published:
    p11 = a2/a1 + 1/(2 a2), p12 = 1/(2 a1), p22 = (1 + a1)/(2 a1 a2).

    Note: this published p11 solves the Lyapunov equation only when
    alpha1 == alpha2; see lyapunov_p_matrix for the exact solution. The
    adaptation law reads only p12 and p22, which the two agree on.
    """
    if alpha1 <= 0 or alpha2 <= 0:
        raise ValueError("sliding coefficients must be positive")
    return alpha2 / alpha1 + 1.0 / (2.0 * alpha2), 1.0 / (2.0 * alpha1), (1.0 + alpha1) / (2.0 * alpha1 * alpha2)


def lyapunov_p_matrix(alpha1: float, alpha2: float) -> tuple[float, float, float]:
    """(p11, p12, p22), the exact solution of A'P + PA = -I2 for A = [[0, 1], [-a1, -a2]]."""
    if alpha1 <= 0 or alpha2 <= 0:
        raise ValueError("sliding coefficients must be positive")
    p11 = alpha2 / (2.0 * alpha1) + (1.0 + alpha1) / (2.0 * alpha2)
    return p11, 1.0 / (2.0 * alpha1), (1.0 + alpha1) / (2.0 * alpha1 * alpha2)


def adapt_weights(
    net: PalmNetwork,
    e: float,
    e_dot: float,
    c: ControllerConfig,
    P: tuple[float, float, float],
    x_e,
    dt: float,
) -> None:
    """Sliding-mode update: w <- w - dt * (gamma / R) * (e p12 + de p22) * x_e,
    with P = (p11, p12, p22).

    PALM moves rule j by lam_j * x_e; each of the R equal rules fires
    lam_j = 1/R, so the shared row moves at gain gamma / R. Entries are
    clipped to the weight bound afterwards, by the two comparisons of
    ``min(max(v, -lim), lim)``, so a NaN passes through as it does there.
    """
    _, p12, p22 = P
    g = e * p12 + e_dot * p22
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


def adapt_sliding_params(alphas: tuple, err_integral: float, c: ControllerConfig, e: float, e_dot: float, s_l: float,
                         dt: float) -> tuple[float, float, float]:
    """Self-evolve the sliding coefficients with dissimilar learning rates; returns the new alphas.

    a1 grows with |s_l||e|, a2 with |s_l||de|, a3 with |s_l||int(e)|, each
    clamped to [starting value, alpha_max].
    """
    a1, a2, a3 = alphas
    r1, r2, r3 = c.learn_rates
    lo1, lo2, lo3 = c.alphas
    hi1, hi2, hi3 = c.alpha_max
    return (
        min(hi1, max(lo1, a1 + dt * r1 * abs(s_l) * abs(e))),
        min(hi2, max(lo2, a2 + dt * r2 * abs(s_l) * abs(e_dot))),
        min(hi3, max(lo3, a3 + dt * r3 * abs(s_l) * abs(err_integral))),
    )


@dataclass
class ControllerConfig:
    """Controller settings. alphas = (alpha1, alpha2, alpha3) are the starting
    sliding coefficients: they stay fixed while learn_rates are all zero (the
    default) and otherwise self-evolve upward, clamped to [start, alpha_max].
    alphas, learn_rates and alpha_max are each a list or tuple of three real
    numbers, one per alpha (a string or bool entry is rejected); the learn
    rates and the three limits must be non-negative. Each alpha is finite and at most
    its alpha_max, gamma is finite (a negative gamma is allowed) and
    evolution_enabled is a bool.
    """

    gamma: float = 50.0
    weight_limit: float = 10.0
    actuator_limit: float = float("inf")
    sat_limit: float = 10.0
    alphas: tuple[float, float, float] = (1e-2, 1e-3, 1e-9)
    learn_rates: tuple[float, float, float] = (0.0, 0.0, 0.0)
    alpha_max: tuple[float, float, float] = (1.0, 0.5, 0.01)
    evolution_enabled: bool = True

    def __post_init__(self):
        # one real number per sliding coefficient, alpha1..alpha3; a string or a bool is no number here
        for name in ("alphas", "learn_rates", "alpha_max"):
            values = getattr(self, name)
            if not (isinstance(values, (list, tuple)) and len(values) == 3
                    and all(isinstance(v, Real) and not isinstance(v, bool) for v in values)):
                raise ValueError(f"{name} takes three values, one real number per alpha, not {values!r}")
            setattr(self, name, tuple(map(float, values)))
        alphas = a1, a2, a3 = self.alphas
        if not (0 < a1 < inf and 0 < a2 < inf and 0 <= a3 < inf):
            raise ValueError(f"alpha1 and alpha2 must be positive and alpha3 non-negative, all finite, not {alphas!r}")
        if not isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, not {self.gamma!r}")
        if not isinstance(self.evolution_enabled, bool):
            raise ValueError(f"evolution_enabled must be true or false, not {self.evolution_enabled!r}")
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
        # the sliding-mode values that change during a run: the coefficients
        # alpha1..alpha3 with their P = (p11, p12, p22), and the error integral
        self.alphas = c.alphas
        self.P = p_matrix(c.alphas[0], c.alphas[1])
        self.err_integral = 0.0
        # the running mean of x_e over the steps, and the two drift detectors
        self.mu_e = (0.0,) * DIM
        self.grow = evolution.SigmaRule()
        self.prune = evolution.SigmaRule()
        # the alphas only grow and the clamp holds each at its ceiling, so once
        # all three sit there no step moves them and their adaptation is skipped
        self._alphas_at_max = c.alphas == c.alpha_max
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
        net = self.net

        e = y_r - y
        e_dot = 0.0 if self._e_prev is None else (e - self._e_prev) / dt
        self._e_prev = e
        err_integral = self.err_integral = self.err_integral + e * dt

        # s_l = e + (a2/a1) de/dt + (a3/a1) int(e); u_src = alpha1 s_l, saturated to suppress chattering
        alphas = a1, a2, a3 = self.alphas
        s_l = e + (a2 / a1) * e_dot + (a3 / a1) * err_integral
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
            k = self.steps + 1  # this step's x_e is the k-th sample of the mean
            m0, m1, m2, m3 = self.mu_e
            mu_e = self.mu_e = (m0 + (1.0 - m0) / k, m1 + (e - m1) / k, m2 + (e_dot - m2) / k, m3 + (y_r - m3) / k)
            bias2, variance = evolution.network_bias_variance(net, mu_e, y_r)
            bias = sqrt(bias2)
            grow = evolution.check_grow(self.grow, bias)
            prune = evolution.check_prune(self.prune, variance)
            if grow or (prune and net.rule_count >= 2):
                net.rule_count += 1 if grow else -1
                self.events.append((self.steps * dt, "GROW" if grow else "PRUNE", net.rule_count, bias, variance))
                # re-baseline the drift detectors, as the underlying process-control
                # method does after a detection: stale history of the old regime
                # would keep their spread above any threshold
                self.grow = evolution.SigmaRule()
                self.prune = evolution.SigmaRule()

        adapt_weights(net, e, e_dot, c, self.P, x_e, dt)
        if not self._alphas_at_max:
            alphas = adapt_sliding_params(alphas, err_integral, c, e, e_dot, s_l, dt)
            if alphas != self.alphas:
                self.alphas, self.P = alphas, p_matrix(alphas[0], alphas[1])
                self._alphas_at_max = alphas == c.alpha_max

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
