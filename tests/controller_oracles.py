"""Staged oracle for the PAC control step.

``pacsim.controller.ParsimoniousController.step`` runs the step in one method
on local floats. This is the same step written as the functions it was built
from, called one after the other: the sliding value, the robustifying term,
the extended input, the input-mean update and the structure learning, then
the weight adaptation as a ``min``/``max`` list comprehension and the log
cells as a tuple. The drift detectors push through ``sigma_rule_fires``, the
sigma rule written with the builtin ``max``. The tests hold the fused step and
``SigmaRule.fires`` bit-equal to them.
"""

import math

from pacsim import evolution
from pacsim.controller import ControllerFault, adapt_sliding_params, p_matrix
from pacsim.palm import network_output


def sliding_value(e: float, e_dot: float, err_integral: float, s) -> float:
    """s_l = e + (a2/a1) de/dt + (a3/a1) int(e)."""
    return e + (s.alpha2 / s.alpha1) * e_dot + (s.alpha3 / s.alpha1) * err_integral


def robustifying_term(s_l: float, s, c) -> float:
    """alpha1 * s_l, saturated to suppress chattering."""
    return min(max(s.alpha1 * s_l, -c.sat_limit), c.sat_limit)


def extended_input(e: float, e_dot: float, y_r: float) -> tuple[float, float, float, float]:
    """Build the extended input (1, e, de/dt, y_r)."""
    return (1.0, e, e_dot, y_r)


def update_input_mean(state, x_e) -> None:
    """Incremental mean of the extended input; increments the sample counter."""
    k = state.k = state.k + 1
    m0, m1, m2, m3 = state.mu_e
    x0, x1, x2, x3 = x_e
    state.mu_e = (m0 + (x0 - m0) / k, m1 + (x1 - m1) / k, m2 + (x2 - m2) / k, m3 + (x3 - m3) / k)


def adapt_weights(net, e: float, e_dot: float, c, P, x_e, dt: float) -> None:
    """w <- w - dt * (gamma / R) * (e p12 + de p22) * x_e, clipped entry by entry with min/max."""
    g = e * P.p12 + e_dot * P.p22
    k = dt * c.gamma * g / net.rule_count
    lim = c.weight_limit
    w = net.w = [min(max(v - k * x, -lim), lim) for v, x in zip(net.w, x_e)]
    if not all(map(math.isfinite, w)):
        raise ControllerFault("non-finite rule weights after adaptation")


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
    update_input_mean(ctl.evo, x_e)
    bias2, variance = evolution.network_bias_variance(ctl.net, ctl.evo, y_r)
    bias = math.sqrt(bias2)
    grow = sigma_rule_fires(ctl.evo.grow, bias, evolution.growth_factor(bias))
    prune = sigma_rule_fires(ctl.evo.prune, variance, 2.0 * evolution.pruning_factor(variance))
    if grow:
        ctl.net.rule_count += 1
    elif prune and ctl.net.rule_count >= 2:
        ctl.net.rule_count -= 1
    else:
        return bias, variance
    ctl.events.append((t, "GROW" if grow else "PRUNE", ctl.net.rule_count, bias, variance))
    ctl.evo.restart_detectors()
    return bias, variance


def staged_step(ctl, y: float, y_r: float, dt: float):
    """One step of the ``ParsimoniousController`` ``ctl``, function by function, on its own state;
    returns (u, cells) with the cells of its ``log_columns``."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    c = ctl.config
    s = ctl.sliding

    y, y_r = float(y), float(y_r)
    e = y_r - y
    e_dot = 0.0 if ctl._e_prev is None else (e - ctl._e_prev) / dt
    ctl._e_prev = e
    s.err_integral += e * dt

    s_l = sliding_value(e, e_dot, s.err_integral, s)
    u_src = robustifying_term(s_l, s, c)

    x_e = extended_input(e, e_dot, y_r)
    u_palm = network_output(x_e, ctl.net)
    u = u_src - u_palm

    if not math.isfinite(u):
        raise ControllerFault(f"non-finite control at step {ctl.steps}: u_palm={u_palm}")

    bias = variance = 0.0
    if c.evolution_enabled:
        bias, variance = _evolve(ctl, x_e, y_r, ctl.steps * dt)

    adapt_weights(ctl.net, e, e_dot, c, ctl.P, x_e, dt)
    if not ctl._alphas_at_max and adapt_sliding_params(s, c, e, e_dot, s_l, dt):
        ctl.P = p_matrix(s.alpha1, s.alpha2)
        ctl._alphas_at_max = (s.alpha1, s.alpha2, s.alpha3) == c.alpha_max

    ctl.steps += 1
    cells = (s_l, u_src, u_palm, ctl.net.rule_count, bias, variance)
    return min(max(u, -c.actuator_limit), c.actuator_limit), cells
