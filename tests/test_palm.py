import math

import mpmath
import numpy as np
import pytest

from controller_oracles import extended_input
from palm_oracles import (
    matrix_network_output,
    membership,
    palm_network_output,
    point_to_plane_distance,
    rule_consequent,
)
from pacsim.controller import DIM, PalmNetwork, ParsimoniousController, network_output


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


def test_network_output_single_rule_equals_consequent():
    w = np.array([0.1, -0.2, 0.3, 0.4])
    x_e = extended_input(1.0, -1.0, 2.0)
    for r in (1, 3, 100):
        assert network_output(x_e, PalmNetwork(w=w, rule_count=r)) == rule_consequent(x_e, w)


def test_network_output_duplicate_rule_invariance():
    # PALM's network of R copies of one rule behaves as that single rule,
    # which is the network pacsim holds
    rng = np.random.default_rng(11)
    for _ in range(50):
        w = rng.uniform(-1, 1, size=4)
        x_e = np.concatenate([[1.0], rng.uniform(-2, 2, size=3)])
        y_r = rng.uniform(-4, 4)
        for r in (1, 2, 3, 4):
            u = network_output(x_e, PalmNetwork(w=w, rule_count=r))
            u_ref, _, _ = matrix_network_output(x_e, np.tile(w, (r, 1)), 5.0, y_r)
            assert abs(u - u_ref) < 1e-12


def test_network_output_matches_reference_implementation():
    # the two PALM oracles agree on distinct rows; on R copies they give the network output
    rng = np.random.default_rng(19)
    for r in (1, 3, 25, 100):
        for _ in range(200):
            weights = rng.uniform(-1, 1, size=(r, 4))
            x_e = np.concatenate([[1.0], rng.uniform(-2, 2, size=3)])
            y_r = rng.uniform(-4, 4)
            u, _, _ = matrix_network_output(x_e, weights, 5.0, y_r)
            assert u == pytest.approx(palm_network_output(x_e, weights.tolist(), 5.0, y_r)[0], abs=1e-12)
            copies, _, _ = palm_network_output(x_e, [weights[0].tolist()] * r, 5.0, y_r)
            assert network_output(x_e, PalmNetwork(w=weights[0], rule_count=r)) == pytest.approx(copies, abs=1e-12)


def _left_to_right(w, x_e) -> float:
    return ((w[0] * x_e[0] + w[1] * x_e[1]) + w[2] * x_e[2]) + w[3] * x_e[3]


def _near_matrix_oracle(u, u_ref, w, x_e) -> bool:
    # two summation orders of one 4-term dot product differ by at most
    # 2 * gamma_4 * sum |w_k x_k| (gamma_4 = 4u / (1 - 4u), u = 2^-53), below 1e-15 * sum |w_k x_k|
    return abs(u - u_ref) <= 1e-15 * sum(abs(a * b) for a, b in zip(w, x_e))


def test_network_output_bit_equal_to_matrix_formula():
    # PALM's one-rule network fires fully, raw / raw == 1.0, so the matrix
    # formula outputs the rule's consequent; the network sums it left to right
    rng = np.random.default_rng(29)
    for spread in (False, True):
        for _ in range(500):
            w = rng.uniform(-1, 1, size=4)
            if spread:
                w *= 10.0 ** rng.uniform(-3, 3, size=4)
            x_e = np.concatenate([[1.0], rng.uniform(-2, 2, size=3)])
            y_r = rng.uniform(-4, 4)
            u_ref, _, normalized = matrix_network_output(x_e, w[None, :], 5.0, y_r)
            assert normalized.tolist() == [1.0]
            u = network_output(x_e, PalmNetwork(w=w))
            assert u == _left_to_right(w.tolist(), x_e.tolist())
            assert _near_matrix_oracle(u, u_ref, w, x_e)
    # every plane through the point: d_max == 0 and all rules fire fully
    for r in (1, 2, 25):
        y_r = float(rng.uniform(-4, 4))
        w = np.array([y_r, *rng.uniform(-1, 1, size=2), 0.0])
        x_e = extended_input(0.0, 0.0, y_r)
        u_ref, raw, _ = matrix_network_output(x_e, np.tile(w, (r, 1)), 5.0, y_r)
        assert raw.tolist() == [1.0] * r
        u = network_output(x_e, PalmNetwork(w=w, rule_count=r))
        assert u == _left_to_right(w.tolist(), x_e)
        assert u == pytest.approx(u_ref, abs=1e-12)


def test_one_rule_fires_fully_and_outputs_its_consequent():
    # over weights and inputs of many magnitudes, the output is the rule's
    # consequent summed left to right, next to the BLAS consequent of the oracle
    rng = np.random.default_rng(37)
    for _ in range(2000):
        w = rng.uniform(-3, 3, size=(1, 4)) * 10.0 ** rng.integers(-4, 4, size=(1, 4))
        x_e = np.concatenate([[1.0], rng.uniform(-5, 5, size=3) * 10.0 ** rng.integers(-4, 4, size=3)])
        y_r = float(rng.uniform(-10, 10))
        u_ref, _, normalized = matrix_network_output(x_e, w, float(rng.uniform(1, 100)), y_r)
        assert normalized.tolist() == [1.0]
        assert u_ref == (w @ x_e)[0]
        u = network_output(x_e, PalmNetwork(w=w[0]))
        assert u == _left_to_right(w[0].tolist(), x_e.tolist())
        assert _near_matrix_oracle(u, u_ref, w[0], x_e)


def test_network_output_is_the_left_to_right_sum_on_floats():
    # the consequent of the step's own input, summed term by term from the
    # intercept on, whatever order a BLAS kernel would take
    rng = np.random.default_rng(41)
    for _ in range(20_000):
        w = (rng.uniform(-3, 3, size=4) * 10.0 ** rng.integers(-6, 6, size=4)).tolist()
        e, e_dot, y_r = (rng.uniform(-5, 5, size=3) * 10.0 ** rng.integers(-6, 6, size=3)).tolist()
        x_e = extended_input(e, e_dot, y_r)
        assert x_e == (1.0, e, e_dot, y_r)
        u = network_output(x_e, PalmNetwork(w=w, rule_count=int(rng.integers(1, 100))))
        assert type(u) is float
        assert u == ((w[0] + w[1] * e) + w[2] * e_dot) + w[3] * y_r


def test_partition_of_unity_and_membership_bounds():
    rng = np.random.default_rng(23)
    for _ in range(500):
        r = rng.integers(1, 6)
        eta = rng.uniform(1, 100)
        weights = rng.uniform(-5, 5, size=(r, 4))
        x_e = np.concatenate([[1.0], rng.uniform(-5, 5, size=3)])
        y_r = rng.uniform(-10, 10)
        _, raw, normalized = matrix_network_output(x_e, weights, eta, y_r)
        assert abs(normalized.sum() - 1.0) < 1e-9
        assert np.all(raw >= math.exp(-eta) - 1e-15)
        assert np.all(raw <= 1.0 + 1e-15)


def test_parameter_count_identity():
    net = PalmNetwork(rule_count=3)
    assert net.parameter_count == 3 * DIM == 12


def test_rule_snapshot_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    ctl = ParsimoniousController()
    net = ctl.net = PalmNetwork(w=rng.uniform(-1, 1, size=4), rule_count=3)
    ctl.write_artifacts(tmp_path, "run")
    rows = np.loadtxt(tmp_path / "run_rules.txt", delimiter=",", ndmin=2)
    assert rows[:, 0].tolist() == [0.0, 1.0, 2.0]
    np.testing.assert_array_equal(rows[:, 1:], np.tile(net.w, (3, 1)))


def test_weight_row_holds_python_floats():
    net = PalmNetwork(w=np.array([0.5, -1, 2.25, 3], dtype=np.float32))
    assert net.w == [0.5, -1.0, 2.25, 3.0]
    assert all(type(v) is float for v in net.w)
    assert all(type(v) is float for v in PalmNetwork().w)


@pytest.mark.parametrize("r", [1, 3, 250])
def test_rule_snapshot_bytes_equal_np_savetxt(tmp_path, r):
    # oracle: the rows as one (R, 1 + DIM) array written by np.savetxt
    rng = np.random.default_rng(6 + r)
    w = rng.uniform(-2, 2, size=DIM) * 10.0 ** rng.integers(-20, 20, size=DIM)
    w[1] = -0.0
    ctl = ParsimoniousController()
    ctl.net = PalmNetwork(w=w, rule_count=r)
    ctl.write_artifacts(tmp_path, "run")
    rows = np.column_stack([np.arange(r), np.tile(w, (r, 1))])
    np.savetxt(tmp_path / "oracle.txt", rows, fmt=["%d"] + ["%.17g"] * DIM, delimiter=", ")
    assert (tmp_path / "run_rules.txt").read_bytes() == (tmp_path / "oracle.txt").read_bytes()
