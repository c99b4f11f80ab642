"""Closed-loop parsimonious controller and its hyperplane-fuzzy network (the PALM core).

Each fuzzy rule is a single weight vector over the extended input
[1, e, de/dt, y_r]. In PALM the rule's hyperplane doubles as antecedent (via a
point-to-plane distance) and consequent (via a dot product). Here the network
starts from one zero rule and a grow copies a rule, so all R rules share one
hyperplane: they fire equally, the antecedent drops out, and the network
output is that hyperplane's consequent. The network is that one weight row,
four Python floats, and the rule count R.

The controller combines the network with sliding-mode weight adaptation and
the bias/variance structure learning. The control signal splits into a
robustifying term u_src = alpha1 * s_l (saturated) and the learned network
term, u = u_src - u_palm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite, sqrt

from . import evolution, settings

DIM = 4  # intercept slot, then e, de/dt, y_r


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


def p_matrix(alpha1: float, alpha2: float) -> tuple[float, float, float]:
    """(p11, p12, p22), the exact solution of A'P + PA = -I2 for A = [[0, 1], [-a1, -a2]]:
    p11 = a2/(2 a1) + (1 + a1)/(2 a2), p12 = 1/(2 a1), p22 = (1 + a1)/(2 a1 a2).

    p12 and p22, the entries the adaptation law reads, are the paper's printed
    forms. Its printed p11 = a2/a1 + 1/(2 a2) equals this one only when
    alpha1 == alpha2.
    """
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
        raise FloatingPointError("non-finite rule weights after adaptation")


@dataclass(frozen=True)
class ControllerConfig:
    """Controller settings, numbers as ``pacsim.settings`` reads them.
    alphas = (alpha1, alpha2, alpha3) are the sliding coefficients, fixed for
    the run: three numbers with alpha1 and alpha2 positive and alpha3
    non-negative. gamma may be negative, the three limits are non-negative
    and may be inf, and evolution_enabled is a bool.
    """

    gamma: float = 50.0
    weight_limit: float = 10.0
    actuator_limit: float = float("inf")
    sat_limit: float = 10.0
    alphas: tuple[float, float, float] = (0.5, 0.5, 0.01)
    evolution_enabled: bool = True

    def __post_init__(self):
        alphas = self.alphas
        if not (isinstance(alphas, (list, tuple)) and len(alphas) == 3 and all(map(settings.is_number, alphas))
                and alphas[0] > 0 and alphas[1] > 0 and alphas[2] >= 0):
            raise ValueError("alphas takes three values, each a real number: alpha1 and alpha2 must be positive"
                             f" and alpha3 non-negative, all finite, not {alphas!r}")
        object.__setattr__(self, "alphas", tuple(map(float, alphas)))
        settings.set_numbers(self, ("gamma",))
        if not isinstance(self.evolution_enabled, bool):
            raise ValueError(f"evolution_enabled must be true or false, not {self.evolution_enabled!r}")
        # floats keep the clamps on u, u_src and the weights float-valued; a negative
        # limit would make each clamp return the limit whatever its input
        limits = ("weight_limit", "sat_limit", "actuator_limit")
        for name, limit in zip(limits, settings.set_numbers(self, limits, limit=True)):
            if limit < 0.0:
                raise ValueError(f"{name} must be non-negative, not {limit!r}")


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
        # P = (p11, p12, p22) of the fixed alphas, and the error integral
        self.P = p_matrix(c.alphas[0], c.alphas[1])
        self.err_integral = 0.0
        # the running mean of x_e over the steps, and the two drift detectors
        self.mu_e = (0.0,) * DIM
        self.grow = evolution.SigmaRule()
        self.prune = evolution.SigmaRule()
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
        a1, a2, a3 = c.alphas
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
            raise FloatingPointError(f"non-finite control at step {self.steps}: u_palm={u_palm}")

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
