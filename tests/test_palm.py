import math

import mpmath
import numpy as np
import pytest

from pacsim.palm import (
    DIM,
    PalmNetwork,
    extended_input,
    load_rules,
    membership,
    network_output,
    point_to_plane_distance,
    rule_consequent,
    save_rules,
)


def test_distance_zero_when_point_on_plane():
    w = np.array([0.5, 0.2, -0.3, 0.1])
    x_e = extended_input(1.0, 2.0, 3.0)
    y_r = 0.2 * 1.0 - 0.3 * 2.0 + 0.1 * 3.0 + 0.5
    assert point_to_plane_distance(x_e, w, y_r) == pytest.approx(0.0, abs=1e-15)


def test_distance_reduces_to_abs_reference_for_flat_rule():
    x_e = extended_input(1.0, 1.0, 5.0)
    assert point_to_plane_distance(x_e, np.zeros(4), 5.0) == pytest.approx(5.0)


def test_distance_against_monte_carlo_plane_sampling():
    # oracle: brute-force minimum distance from (x_1..x_N, y_r) to sampled
    # plane points, refined around the best sample
    rng = np.random.default_rng(7)
    for _ in range(5):
        w = rng.uniform(-1, 1, size=DIM)
        x = rng.uniform(-2, 2, size=3)
        y_r = rng.uniform(-5, 5)
        x_e = np.concatenate([[1.0], x])
        d_formula = point_to_plane_distance(x_e, w, y_r)
        if d_formula < 1e-2:
            continue
        point = np.concatenate([x, [y_r]])
        a, b0 = w[1:], w[0]

        def sample_min(center, half_width, n):
            q = center + rng.uniform(-half_width, half_width, size=(n, 3))
            z = q @ a + b0
            plane_pts = np.column_stack([q, z])
            return plane_pts[np.argmin(np.linalg.norm(plane_pts - point, axis=1))]

        best = sample_min(x, 5.0, 400_000)
        best = sample_min(best[:3], 0.2, 400_000)
        best = sample_min(best[:3], 0.01, 200_000)
        d_sampled = float(np.linalg.norm(best - point))
        assert d_formula <= d_sampled + 1e-12
        assert (d_sampled - d_formula) / d_formula <= 1e-3


def test_distance_sign_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(100):
        w = rng.uniform(-2, 2, size=DIM)
        x_e = np.concatenate([[1.0], rng.uniform(-3, 3, size=3)])
        y_r = rng.uniform(-5, 5)
        d = point_to_plane_distance(x_e, w, y_r)
        d_neg = point_to_plane_distance(x_e, -w, -y_r)
        assert d == pytest.approx(d_neg, rel=1e-12)


def test_membership_trivial_values():
    assert membership(0.0, 1.0, 5.0) == pytest.approx(1.0)
    assert membership(2.0, 2.0, 1.0) == pytest.approx(math.exp(-1.0))


def test_membership_cross_checked_against_mpmath():
    # independent exp implementation as the oracle
    got = membership(0.5, 1.0, 10.0)
    expected = float(mpmath.exp(mpmath.mpf(-5)))
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(6.7379e-3, rel=1e-4)


def test_membership_degenerate_all_planes_through_point():
    assert membership(0.0, 0.0, 50.0) == 1.0


def test_consequent_zero_weights():
    assert rule_consequent(extended_input(1, 2, 3), np.zeros(4)) == 0.0


def test_consequent_extracted_rule_example():
    # published example rule evaluated at e = 0, de = 0, y_r = 10
    w = np.array([0.0121, 0.0909, 0.4291, 0.6632])
    x_e = extended_input(0.0, 0.0, 10.0)
    assert rule_consequent(x_e, w) == pytest.approx(0.0121 + 6.632, abs=1e-12)


def test_consequent_symmetry():
    assert rule_consequent(np.ones(4), np.full(4, 0.25)) == pytest.approx(1.0)


def test_consequent_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        rule_consequent(np.ones(3), np.zeros(4))


def _reference_network_output(x_e, weights, eta, y_r):
    # straight-line reimplementation used as the oracle
    dists = []
    for w in weights:
        plane = sum(w[i + 1] * x_e[i + 1] for i in range(3)) + w[0]
        dists.append(abs(y_r - plane) / math.sqrt(1.0 + sum(v * v for v in w[1:])))
    d_max = max(dists)
    if d_max == 0:
        raw = [1.0] * len(weights)
    else:
        raw = [math.exp(-eta * d / d_max) for d in dists]
    total = sum(raw)
    lam = [r / total for r in raw]
    return sum(l * sum(wi * xi for wi, xi in zip(w, x_e)) for l, w in zip(lam, weights))


def test_network_output_single_rule_equals_consequent():
    for eta in (1.0, 5.0, 100.0):
        net = PalmNetwork(eta=eta, weights=[[0.1, -0.2, 0.3, 0.4]])
        x_e = extended_input(1.0, -1.0, 2.0)
        u, firing = network_output(x_e, net, 2.0)
        assert u == pytest.approx(rule_consequent(x_e, net.weights[0]), abs=1e-15)
        assert firing.normalized[0] == pytest.approx(1.0)


def test_network_output_duplicate_rule_invariance():
    # a network of identical rules behaves as the single rule, and appending
    # further copies leaves the output unchanged
    rng = np.random.default_rng(11)
    for _ in range(50):
        w = rng.uniform(-1, 1, size=4)
        x_e = np.concatenate([[1.0], rng.uniform(-2, 2, size=3)])
        y_r = rng.uniform(-4, 4)
        net = PalmNetwork(eta=5.0, weights=[w])
        u1, _ = network_output(x_e, net, y_r)
        for _ in range(3):
            net.add_rule(w)
            u2, _ = network_output(x_e, net, y_r)
            assert abs(u1 - u2) < 1e-12


def test_network_output_matches_reference_implementation():
    rng = np.random.default_rng(19)
    for r in (1, 3, 25, 100):
        for _ in range(200):
            weights = rng.uniform(-1, 1, size=(r, 4))
            net = PalmNetwork(eta=5.0, weights=weights)
            x_e = np.concatenate([[1.0], rng.uniform(-2, 2, size=3)])
            y_r = rng.uniform(-4, 4)
            u, _ = network_output(x_e, net, y_r)
            assert u == pytest.approx(_reference_network_output(x_e, weights.tolist(), 5.0, y_r), abs=1e-12)


def _matrix_network_output(x_e, weights, eta, y_r):
    # the matrix formula as first written with numpy's array methods; the
    # network output must keep its floating-point operations bit for bit
    a = weights[:, 1:]
    consequents = weights @ x_e
    dists = np.abs(y_r - consequents) / np.sqrt(1.0 + (a * a).sum(axis=1))
    d_max = float(dists.max())
    raw = np.ones(len(dists)) if d_max == 0.0 else np.exp(dists * (-eta / d_max))
    normalized = raw / float(raw.sum())
    return float(normalized @ consequents), raw, normalized


def test_network_output_bit_equal_to_matrix_formula():
    rng = np.random.default_rng(29)
    for r in (1, 3, 25, 100):
        for _ in range(100):
            weights = rng.uniform(-1, 1, size=(r, 4))
            x_e = np.concatenate([[1.0], rng.uniform(-2, 2, size=3)])
            y_r = rng.uniform(-4, 4)
            u, firing = network_output(x_e, PalmNetwork(eta=5.0, weights=weights), y_r)
            u_ref, raw, normalized = _matrix_network_output(x_e, weights, 5.0, y_r)
            assert u == u_ref
            assert np.array_equal(firing.raw, raw) and np.array_equal(firing.normalized, normalized)


def test_partition_of_unity_and_membership_bounds():
    rng = np.random.default_rng(23)
    for _ in range(500):
        r = rng.integers(1, 6)
        eta = rng.uniform(1, 100)
        net = PalmNetwork(eta=eta, weights=rng.uniform(-5, 5, size=(r, 4)))
        x_e = np.concatenate([[1.0], rng.uniform(-5, 5, size=3)])
        y_r = rng.uniform(-10, 10)
        _, firing = network_output(x_e, net, y_r)
        assert abs(firing.normalized.sum() - 1.0) < 1e-9
        assert np.all(firing.raw >= math.exp(-eta) - 1e-15)
        assert np.all(firing.raw <= 1.0 + 1e-15)


def test_parameter_count_identity():
    net = PalmNetwork(eta=5.0, weights=np.zeros((3, 4)))
    assert net.parameter_count == 3 * DIM == 12


def test_eta_range_enforced():
    with pytest.raises(ValueError):
        PalmNetwork(eta=0.5)
    with pytest.raises(ValueError):
        PalmNetwork(eta=101.0)


def test_rule_snapshot_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    net = PalmNetwork(eta=5.0, weights=rng.uniform(-1, 1, size=(3, 4)))
    path = tmp_path / "rules.txt"
    save_rules(net, path)
    loaded = load_rules(path)
    assert len(loaded) == 3
    np.testing.assert_array_equal(net.weights, loaded)


@pytest.mark.parametrize("weights", [np.zeros(4), np.zeros((2, 3)), np.zeros((1, 5)), np.zeros((1, 2, 4))])
def test_network_rejects_weights_of_wrong_shape(weights):
    with pytest.raises(ValueError):
        PalmNetwork(weights=weights)


@pytest.mark.parametrize("w", [np.zeros(3), np.zeros(5), np.zeros((1, 4))])
def test_add_rule_rejects_weights_of_wrong_shape(w):
    net = PalmNetwork(weights=np.zeros((1, 4)))
    with pytest.raises(ValueError):
        net.add_rule(w)
    assert net.weights.shape == (1, 4)
