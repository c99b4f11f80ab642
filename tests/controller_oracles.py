"""Staged oracle for the PAC control step.

``pacsim.controller.ParsimoniousController.step`` runs the step in one method
on local floats. This is the same step written as the functions it was built
from, called one after the other: the PID sum with its conditional integral,
the sliding value, the robustifying term, the extended input, the input-mean
update and the structure learning, then the weight adaptation as a
``min``/``max`` list comprehension and the log cells as a tuple. The drift
detectors push through ``sigma_rule_fires``, the sigma rule written with the
builtin ``max``. The tests hold the fused step and ``SigmaRule.fires``
bit-equal to them.
"""

import math

from pacsim import evolution
from pacsim.controller import network_output


def pid_sum(e: float, e_dot: float, err_integral: float, alphas) -> float:
    """a1 e + a3 int(e) + a2 de/dt, added in that order: the unclamped PID sum at
    gains (kp, ki, kd) = (a1, a3, a2), with int(e) taken through this step."""
    a1, a2, a3 = alphas
    return a1 * e + a3 * err_integral + a2 * e_dot


def sliding_value(e: float, e_dot: float, err_integral: float, alphas) -> float:
    """s_l = e + (a2/a1) de/dt + (a3/a1) int(e), as the PID sum over a1."""
    return pid_sum(e, e_dot, err_integral, alphas) / alphas[0]


def robustifying_term(u_sum: float, c) -> float:
    """The PID sum alpha1 * s_l, saturated to suppress chattering."""
    return min(max(u_sum, -c.sat_limit), c.sat_limit)


def extended_input(e: float, e_dot: float, y_r: float) -> tuple[float, float, float, float]:
    """Build the extended input (1, e, de/dt, y_r)."""
    return (1.0, e, e_dot, y_r)


def update_input_mean(mu_e, k: int, x_e) -> tuple[float, float, float, float]:
    """Incremental mean of the extended input: the mean mu_e of k - 1 samples moved to take x_e as the k-th."""
    m0, m1, m2, m3 = mu_e
    x0, x1, x2, x3 = x_e
    return (m0 + (x0 - m0) / k, m1 + (x1 - m1) / k, m2 + (x2 - m2) / k, m3 + (x3 - m3) / k)


def adapt_weights(net, e: float, e_dot: float, c, P, x_e, dt: float) -> None:
    """w <- w - dt * (gamma / R) * (e p12 + de p22) * x_e, clipped entry by entry with min/max."""
    _, p12, p22 = P
    g = e * p12 + e_dot * p22
    k = dt * c.gamma * g / net.rule_count
    lim = c.weight_limit
    w = net.w = [min(max(v - k * x, -lim), lim) for v, x in zip(net.w, x_e)]
    if not all(map(math.isfinite, w)):
        raise FloatingPointError("non-finite rule weights after adaptation")


def sigma_rule_fires(rule, x: float, factor: float) -> bool:
    """Push x into the ``SigmaRule`` ``rule`` field by field and test
    mean + std > mu_min + factor * max(sigma_min, 0.2 |mu_min|, 0.01)."""
    rule.count += 1
    delta = x - rule.mean
    mu = rule.mean = rule.mean + delta / rule.count
    rule._m2 += delta * (x - mu)
    sigma = rule.std = math.sqrt(max(rule._m2, 0.0) / rule.count)
    if rule.mu_min is None or mu < rule.mu_min:
        rule.mu_min = mu
    if rule.sigma_min is None or sigma < rule.sigma_min:
        rule.sigma_min = sigma
    spread = max(rule.sigma_min, evolution.SIGMA_FLOOR_REL * abs(rule.mu_min), evolution.SIGMA_FLOOR_ABS)
    fired = mu + sigma > rule.mu_min + factor * spread
    if fired:
        rule.mu_min, rule.sigma_min = mu, sigma
    return fired


def _evolve(ctl, x_e, y_r: float, t: float) -> tuple[float, float]:
    """Structure learning: grow first, prune otherwise (never both); ``t`` stamps the event.
    Returns the network's bias and variance."""
    ctl.mu_e = update_input_mean(ctl.mu_e, ctl.steps + 1, x_e)
    bias2, variance = evolution.network_bias_variance(ctl.net, ctl.mu_e, y_r)
    bias = math.sqrt(bias2)
    grow = sigma_rule_fires(ctl.grow, bias, evolution.growth_factor(bias))
    prune = sigma_rule_fires(ctl.prune, variance, 2.0 * evolution.pruning_factor(variance))
    if grow:
        ctl.net.rule_count += 1
    elif prune and ctl.net.rule_count >= 2:
        ctl.net.rule_count -= 1
    else:
        return bias, variance
    ctl.events.append((t, "GROW" if grow else "PRUNE", ctl.net.rule_count, bias, variance))
    ctl.grow, ctl.prune = evolution.SigmaRule(), evolution.SigmaRule()
    return bias, variance


def staged_step(ctl, y: float, y_r: float, dt: float):
    """One step of the ``ParsimoniousController`` ``ctl``, function by function, on its own state;
    returns (u, cells) with the cells of its ``log_columns``. The error state
    lives on ``ctl.pid``: the last error ``e``, its rate ``e_dot``, the
    unclamped sum ``u_sum`` and ``err_integral``, which takes this step's
    e dt only when the sum is within the saturation (conditional anti-windup)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    c = ctl.config
    core = ctl.pid

    y, y_r, dt = float(y), float(y_r), float(dt)
    e = y_r - y
    e_dot = 0.0 if core.e is None else (e - core.e) / dt
    core.e, core.e_dot = e, e_dot
    err_integral = core.err_integral + e * dt

    u_sum = core.u_sum = pid_sum(e, e_dot, err_integral, c.alphas)
    if math.isnan(u_sum):
        raise FloatingPointError(f"PID sum is NaN at e={e!r}, e_dot={e_dot!r}")
    if abs(u_sum) <= c.sat_limit:
        core.err_integral = err_integral
    s_l = sliding_value(e, e_dot, err_integral, c.alphas)
    u_src = robustifying_term(u_sum, c)

    x_e = extended_input(e, e_dot, y_r)
    u_palm = network_output(x_e, ctl.net)
    u = u_src - u_palm

    if not math.isfinite(u):
        raise FloatingPointError(f"non-finite control at step {ctl.steps}: u_palm={u_palm}")

    bias = variance = 0.0
    if c.evolution_enabled:
        bias, variance = _evolve(ctl, x_e, y_r, ctl.steps * dt)

    adapt_weights(ctl.net, e, e_dot, c, ctl.P, x_e, dt)

    ctl.steps += 1
    cells = (s_l, u_src, u_palm, ctl.net.rule_count, bias, variance)
    return min(max(u, -c.actuator_limit), c.actuator_limit), cells
