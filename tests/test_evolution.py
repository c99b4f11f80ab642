import math

import numpy as np
import pytest

from controller_oracles import extended_input, sigma_rule_fires, update_input_mean
from pacsim import evolution
from pacsim.controller import DIM, ControllerConfig, PalmNetwork, ParsimoniousController
from pacsim.evolution import (
    SigmaRule,
    check_grow,
    check_prune,
    growth_factor,
    network_bias_variance,
    pruning_factor,
)


def _input_mean(samples) -> tuple[float, ...]:
    """The running mean of the samples, pushed one by one from the zero mean as the controller does."""
    mu_e = (0.0,) * DIM
    for k, x in enumerate(samples, 1):
        mu_e = update_input_mean(mu_e, k, x)
    return mu_e


def test_input_mean_first_sample():
    x = extended_input(2.0, 3.0, 4.0)
    np.testing.assert_allclose(_input_mean([x]), x)


def test_input_mean_two_point():
    mu_e = _input_mean([np.array([1.0, 0.0, 0.0, 0.0]), np.array([1.0, 2.0, 2.0, 2.0])])
    np.testing.assert_allclose(mu_e, [1.0, 1.0, 1.0, 1.0])


def test_input_mean_matches_batch_mean():
    rng = np.random.default_rng(2)
    samples = rng.uniform(-5, 5, size=(1000, 4))
    np.testing.assert_allclose(_input_mean(samples), samples.mean(axis=0), atol=1e-10)


def test_bias_variance_zero_network():
    net = PalmNetwork()
    bias2, variance = network_bias_variance(net, _input_mean([extended_input(0.0, 0.0, 0.0)]), 0.0)
    assert bias2 == 0.0 and variance == 0.0


@pytest.mark.parametrize("c,y_r", [(0.3, 1.0), (0.9, -2.0), (0.5, 0.5)])
def test_bias_variance_single_intercept_rule(c, y_r):
    # symbolic: E[Y] = c, E[Y^2] = c, so var = c - c^2, bias2 = (c - y_r)^2
    net = PalmNetwork(w=np.array([c, 0.0, 0.0, 0.0]))
    bias2, variance = network_bias_variance(net, _input_mean([extended_input(0.7, -0.4, 1.3)]), y_r)
    assert bias2 == pytest.approx((c - y_r) ** 2, abs=1e-14)
    assert variance == pytest.approx(max(c - c * c, 0.0), abs=1e-14)


def test_bias_two_ways_algebraic_identity():
    # decomposition NS - Var versus the direct square
    rng = np.random.default_rng(8)
    for _ in range(100):
        w = rng.uniform(-1, 1, size=4)
        net = PalmNetwork(w=w, rule_count=3)
        mu_e = _input_mean([np.concatenate([[1.0], rng.uniform(-2, 2, 3)])])
        y_r = rng.uniform(-3, 3)
        bias2, _ = network_bias_variance(net, mu_e, y_r)
        e_y = 3.0 * float(w @ mu_e)
        e_y2 = 3.0 * float(w @ (np.asarray(mu_e)**2))
        ns = e_y2 - 2.0 * y_r * e_y + y_r**2
        var_uncl = e_y2 - e_y**2
        assert bias2 == pytest.approx(ns - var_uncl, abs=1e-12)


def _column_sum_bias_variance(s, mu, y_r):
    # E[Y] = sum_k s_k mu_k and E[Y^2] = sum_k (s_k mu_k) mu_k for the column sum s, left to right
    t = [a * m for a, m in zip(s, mu)]
    e_y = ((t[0] + t[1]) + t[2]) + t[3]
    e_y2 = ((t[0] * mu[0] + t[1] * mu[1]) + t[2] * mu[2]) + t[3] * mu[3]
    return (e_y - y_r) ** 2, max(e_y2 - e_y * e_y, 0.0)


@pytest.mark.parametrize("r", [1, 3, 95, 250])
def test_bias_variance_bit_equal_to_matrix_sums(r):
    # E[Y] and E[Y^2] are the column-sum formula with s = R * w exactly; they
    # equal the per-rule sums over PALM's R equal rows to round-off of their
    # terms, and the matrix column sum itself at R = 1
    rng = np.random.default_rng(40 + r)
    for _ in range(200):
        w = rng.uniform(-3, 3, size=4) * 10.0 ** rng.integers(-3, 3, size=4)
        mu_e = _input_mean([np.concatenate([[1.0], rng.uniform(-4, 4, 3)]) for _ in range(rng.integers(1, 5))])
        y_r = float(rng.uniform(-3, 3))
        bias2, variance = network_bias_variance(PalmNetwork(w=w, rule_count=r), mu_e, y_r)
        mu = np.asarray(mu_e)
        assert (bias2, variance) == _column_sum_bias_variance((r * w).tolist(), mu.tolist(), y_r)
        rows = np.tile(w, (r, 1))
        if r == 1:
            assert (bias2, variance) == _column_sum_bias_variance((np.ones(r) @ rows).tolist(), mu.tolist(), y_r)
        e_y = float(np.add.reduce(rows @ mu))
        e_y2 = float(np.add.reduce(rows @ (mu * mu)))
        terms = float(np.abs(rows * mu).sum())
        terms2 = float(np.abs(rows * (mu * mu)).sum())
        assert abs(math.sqrt(bias2) - abs(e_y - y_r)) <= 1e-12 * (terms + abs(y_r))
        assert abs(variance - max(e_y2 - e_y * e_y, 0.0)) <= 1e-12 * (terms2 + 2.0 * terms * terms)


def test_growth_factor_range():
    assert growth_factor(0.0) == 2.0
    assert growth_factor(1e6) == pytest.approx(0.7)
    assert pruning_factor(0.0) == 2.0
    assert pruning_factor(1e6) == pytest.approx(0.7)


def test_factors_bounded_over_sampled_signals():
    rng = np.random.default_rng(4)
    # strict lower bound holds until 1.3 exp(-s^2) is absorbed below the
    # ulp of 0.7 (s ~ 6.3); past that the factors park exactly at 0.7
    for s in rng.uniform(0, 6, size=10_000):
        g, p = growth_factor(s), pruning_factor(s)
        assert 0.7 < g <= 2.0
        assert 0.7 < p <= 2.0
    for s in rng.uniform(6, 1e6, size=1000):
        assert 0.7 <= growth_factor(s) <= 2.0
        assert 0.7 <= pruning_factor(s) <= 2.0


def test_constant_stream_never_grows_or_prunes():
    # hand-simulated: mean stays at the minimum and std stays zero
    grow, prune = SigmaRule(), SigmaRule()
    for _ in range(100):
        assert not check_grow(grow, 3.7)
        assert not check_prune(prune, 1.1)


def test_grow_fires_on_upward_drift():
    grow = SigmaRule()
    fired = [check_grow(grow, 1.0 + 0.2 * k) for k in range(50)]
    assert any(fired)


def test_minima_reset_on_grow():
    grow = SigmaRule()
    for k in range(50):
        if check_grow(grow, 1.0 + 0.2 * k):
            assert grow.mu_min == grow.mean
            assert grow.sigma_min == grow.std
            break
    else:
        pytest.fail("grow never fired")


def test_minima_never_exceed_running_stats():
    rng = np.random.default_rng(9)
    grow, prune = SigmaRule(), SigmaRule()
    for _ in range(500):
        check_grow(grow, float(rng.uniform(0, 3)))
        check_prune(prune, float(rng.uniform(0, 2)))
        assert grow.mu_min <= grow.mean + 1e-12
        assert grow.sigma_min <= grow.std + 1e-12
        assert prune.mu_min <= prune.mean + 1e-12
        assert prune.sigma_min <= prune.std + 1e-12


def _rule_bits(rule) -> list:
    """Every field of a SigmaRule, floats by float.hex."""
    floats = (rule.mean, rule.std, rule._m2, rule.mu_min, rule.sigma_min)
    return [rule.count] + [None if v is None else v.hex() for v in floats]


@pytest.mark.parametrize("seed", [3, 29])
def test_sigma_rule_bit_equal_to_max_oracle_on_random_streams(seed):
    # streams that drift up and down through zero, with exact zeros of both signs,
    # a NaN or an infinity now and then (the detector stays NaN until a restart),
    # restarts at random steps, and a NaN as the first push after every fifth restart
    rng = np.random.default_rng(seed)
    fused, oracle = (SigmaRule(), SigmaRule()), (SigmaRule(), SigmaRule())
    fires = nan_pushes = restarts = negatives = zeros = 0
    level = 0.0
    nan_next = True
    for k in range(6000):
        roll = rng.random()
        if nan_next or roll < 0.001:
            x = float(rng.choice([math.nan, math.inf, -math.inf]))
            nan_pushes += 1
        elif roll < 0.05:
            x = float(rng.choice([0.0, -0.0]))
            zeros += 1
        else:
            level += float(rng.normal(0.0, 0.05))
            x = level + float(rng.normal(0.0, rng.choice([1e-3, 0.1, 2.0])))
            negatives += x < 0.0
        factor = float(rng.uniform(0.7, 4.0))
        for got, want in zip(fused, oracle):
            fired = got.fires(x, factor)
            assert fired == sigma_rule_fires(want, x, factor), k
            assert _rule_bits(got) == _rule_bits(want), k
            fires += fired
        nan_next = False
        if rng.random() < 0.01:
            fused, oracle = (SigmaRule(), SigmaRule()), (SigmaRule(), SigmaRule())
            restarts += 1
            nan_next = restarts % 5 == 0
    assert fires > 100 and nan_pushes > 5 and restarts > 20 and negatives and zeros


def _controller_with_detectors(monkeypatch, grow, prune):
    monkeypatch.setattr(evolution, "check_grow", lambda rule, bias: grow)
    monkeypatch.setattr(evolution, "check_prune", lambda rule, variance: prune)
    return ParsimoniousController(ControllerConfig(gamma=1e-3))


def test_grow_increases_parameter_count_by_dim(monkeypatch):
    ctl = _controller_with_detectors(monkeypatch, grow=True, prune=True)
    before = ctl.parameter_count
    ctl.step(0.0, 1.0, 0.01)  # grow goes first when both detectors fire
    assert ctl.rule_count == 2
    assert ctl.parameter_count == before + DIM
    assert [kind for _, kind, *_ in ctl.events] == ["GROW"]


def test_prune_refuses_last_rule(monkeypatch):
    ctl = _controller_with_detectors(monkeypatch, grow=False, prune=True)
    ctl.net.rule_count = 3
    for _ in range(5):
        ctl.step(0.0, 1.0, 0.01)
    assert ctl.rule_count == 1
    assert [(kind, count) for _, kind, count, *_ in ctl.events] == [("PRUNE", 2), ("PRUNE", 1)]


def test_one_pass_determinism():
    rng = np.random.default_rng(17)
    stream = rng.uniform(0, 2, size=400)
    flags_a = []
    flags_b = []
    for flags in (flags_a, flags_b):
        grow, prune = SigmaRule(), SigmaRule()
        for v in stream:
            flags.append((check_grow(grow, float(v)), check_prune(prune, float(v * 0.5))))
    assert flags_a == flags_b
