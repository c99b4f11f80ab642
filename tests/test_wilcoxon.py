import itertools
import math

import numpy as np
import pytest
import scipy.stats

from pacsim import stats
from pacsim.stats import _exact_p, _midranks, _normal_p, wilcoxon_signed_rank


def _loop_midranks(values):
    """Oracle: midranks by a stable sort and a walk over each run of equal values."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    sorted_vals = values[order]
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _tie_heavy(rng, n):
    """|differences| drawn from a few distinct values, so most belong to a tie group."""
    levels = rng.integers(1, max(2, n // 3) + 1)
    return np.abs(rng.integers(-levels, levels + 1, size=n) * rng.choice([0.25, 1.0, 1e-3])) + rng.choice([0.0, 0.5])


def _enumeration_p(diff):
    """Oracle: exact two-sided p by enumerating all 2^n sign assignments."""
    diff = np.asarray(diff, dtype=float)
    diff = diff[diff != 0]
    n = len(diff)
    ranks, _ = _midranks(np.abs(diff))
    w_plus = ranks[diff > 0].sum()
    w_minus = ranks[diff < 0].sum()
    w = min(w_plus, w_minus)
    total = ranks.sum()
    count = 0
    for signs in itertools.product((0, 1), repeat=n):
        wp = sum(r for r, s in zip(ranks, signs) if s)
        if wp <= w + 1e-12 or wp >= total - w - 1e-12:
            count += 1
    return count / 2.0**n


def test_identical_series_accept_null():
    a = np.linspace(0, 1, 30)
    res = wilcoxon_signed_rank(a, a)
    assert res.p == 1.0
    assert res.h == 0
    assert res.n == 0


def test_textbook_w3_rejects_at_five_percent():
    # negative differences carry ranks 1 and 2: W = 3; exact two-sided
    # p = 10/1024 for n = 10
    b = np.zeros(10)
    a = np.array([-1.0, -2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    res = wilcoxon_signed_rank(a, b)
    assert res.w == 3.0
    assert res.p == pytest.approx(_enumeration_p(a - b), abs=1e-12)
    assert res.p == pytest.approx(10.0 / 1024.0, abs=1e-12)
    assert res.p < 0.05 and res.h == 1


def test_swap_symmetry():
    rng = np.random.default_rng(3)
    a = rng.normal(size=20)
    b = rng.normal(size=20)
    r1 = wilcoxon_signed_rank(a, b)
    r2 = wilcoxon_signed_rank(b, a)
    assert r1.p == pytest.approx(r2.p, abs=1e-14)
    assert r1.h == r2.h


def test_exact_matches_enumeration_on_random_small_samples():
    rng = np.random.default_rng(11)
    for trial in range(30):
        n = int(rng.integers(6, 13))
        # integers force ties so the midrank path is exercised
        a = rng.integers(-4, 5, size=n).astype(float)
        b = rng.integers(-4, 5, size=n).astype(float)
        if np.all(a == b):
            continue
        res = wilcoxon_signed_rank(a, b)
        assert res.p == pytest.approx(_enumeration_p(a - b), abs=1e-12)


def test_exact_matches_scipy_without_ties():
    rng = np.random.default_rng(13)
    for _ in range(20):
        a = rng.normal(size=20)
        b = rng.normal(size=20)
        res = wilcoxon_signed_rank(a, b)
        ref = scipy.stats.wilcoxon(a, b, mode="exact")
        assert res.p == pytest.approx(ref.pvalue, rel=1e-10)


def test_exact_vs_normal_agree_at_boundary():
    rng = np.random.default_rng(17)
    for _ in range(50):
        diff = rng.normal(scale=1.0, size=25) + rng.uniform(-0.3, 0.3)
        ranks, sizes = _midranks(np.abs(diff))
        w_plus = ranks[diff > 0].sum()
        w_minus = ranks[diff < 0].sum()
        w = min(w_plus, w_minus)
        assert abs(_exact_p(w, ranks) - _normal_p(w, sizes)) <= 0.01


def test_normal_path_used_for_large_samples():
    rng = np.random.default_rng(19)
    a = rng.normal(size=100)
    b = a + 0.5 + rng.normal(scale=0.1, size=100)
    res = wilcoxon_signed_rank(a, b)
    ref = scipy.stats.wilcoxon(a, b, correction=True, mode="approx")
    assert res.h == 1
    assert res.p == pytest.approx(ref.pvalue, rel=1e-6)


def test_rejects_short_or_mismatched_input():
    with pytest.raises(ValueError):
        wilcoxon_signed_rank(np.zeros(5), np.zeros(5))
    with pytest.raises(ValueError):
        wilcoxon_signed_rank(np.zeros(10), np.zeros(9))


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
)
@pytest.mark.parametrize("side", ["a", "b"])
def test_rejects_non_finite_sample(bad, side):
    # a NaN used to count in n but in neither rank sum; an infinity took the top rank
    a = np.arange(1.0, 9.0)
    b = np.zeros(8)
    (a if side == "a" else b)[3] = bad
    with pytest.raises(ValueError, match="must be finite"):
        wilcoxon_signed_rank(a, b)


@pytest.mark.parametrize("alpha", [2.0, 1.0, 0.0, -0.05, math.nan, math.inf])
def test_rejects_alpha_outside_the_unit_interval(alpha):
    # p = 0.74 here: alpha 2 used to reject (h = 1), and a NaN or negative alpha never could
    a = np.array([1.0, -2.0, 3.0, -4.0, 5.0, -6.0, 7.0, 0.5])
    b = np.zeros(8)
    assert wilcoxon_signed_rank(a, b, alpha=0.999).p == 0.7421875
    with pytest.raises(ValueError, match="alpha"):
        wilcoxon_signed_rank(a, b, alpha=alpha)


def test_rejects_difference_that_overflows():
    a = np.full(8, 1e308)
    with pytest.raises(ValueError, match="must be finite"):
        wilcoxon_signed_rank(a, -a)


def _loop_midranks_and_sizes(values):
    """Oracle for ``_midranks``: the loop's ranks, and the tie-group sizes of the values in ascending order."""
    return _loop_midranks(values), np.unique(values, return_counts=True)[1]


def test_midranks_equal_the_loop_bit_for_bit():
    rng = np.random.default_rng(23)
    for _ in range(500):
        values = _tie_heavy(rng, int(rng.integers(1, 200)))
        got, want = _midranks(values), _loop_midranks_and_sizes(values)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    # without ties every rank is its position in the sorted order, and every group holds one value
    values = rng.normal(size=1000)
    ranks, sizes = _midranks(values)
    assert ranks.tobytes() == _loop_midranks(values).tobytes()
    assert sizes.tolist() == [1] * 1000


@pytest.mark.parametrize("n", [6, 12, 25, 26, 300], ids=lambda n: f"n{n}")
def test_p_values_equal_those_of_the_loop_ranks(n, monkeypatch):
    rng = np.random.default_rng(29 + n)
    pairs = []
    for _ in range(40):
        b = _tie_heavy(rng, n)
        # no zero differences, so every pair keeps its n and takes the path n chooses
        pairs.append((b + rng.choice([-1.0, -0.5, 0.5, 1.0], size=n), b))
    new = [wilcoxon_signed_rank(a, b) for a, b in pairs]
    monkeypatch.setattr(stats, "_midranks", _loop_midranks_and_sizes)
    old = [wilcoxon_signed_rank(a, b) for a, b in pairs]
    assert new == old
    assert all(res.n == n for res in new)
