"""Paired two-sided Wilcoxon signed-rank test.

Every sample and every difference must be finite. Zero differences are
dropped, tied |differences| get midranks, and the test statistic is
W = min(W+, W-). Small samples (n <= 25) use the exact null distribution of
W+ built by dynamic programming over doubled ranks (doubling keeps midranks
integral); larger samples use the normal approximation with tie correction
and a 0.5 continuity correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EXACT_LIMIT = 25


@dataclass
class WilcoxonResult:
    p: float
    h: int
    w: float
    n: int


def _midranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1-based ranks of finite values, and the sizes of their tie groups in
    ascending order: a tie group of size s that ends at rank c takes the mean
    of its ranks c - s + 1 .. c, which is c - (s - 1) / 2."""
    _, group, sizes = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(sizes) - 0.5 * (sizes - 1))[group], sizes


def _exact_p(w: float, ranks: np.ndarray) -> float:
    """Two-sided exact p: P(W+ <= w) + P(W+ >= total - w) under the null.

    Counts sign assignments by convolving over the doubled (hence integral)
    ranks; equivalent to enumerating all 2^n assignments.
    """
    doubled = np.rint(2.0 * ranks).astype(int)
    total = int(doubled.sum())
    counts = np.zeros(total + 1)
    counts[0] = 1.0
    for r in doubled:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[: total + 1 - r]
        counts = counts + shifted
    counts /= 2.0 ** len(doubled)
    w2 = int(round(2.0 * w))
    lower = counts[: w2 + 1].sum()
    upper = counts[total - w2 :].sum()
    return float(min(lower + upper, 1.0))


def _normal_p(w: float, sizes: np.ndarray) -> float:
    """Two-sided p of the normal approximation for the tie-group ``sizes`` of ``_midranks``."""
    n = int(sizes.sum())
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    # tie correction: subtract sum(t^3 - t)/48 over tie groups
    var -= float(np.sum(sizes**3 - sizes)) / 48.0
    if var <= 0:
        return 1.0
    z = (w - mean + 0.5) / math.sqrt(var)  # continuity correction toward the mean
    p = 2.0 * 0.5 * math.erfc(-z / math.sqrt(2.0))
    return float(min(p, 1.0))


def wilcoxon_signed_rank(a, b, alpha: float = 0.05) -> WilcoxonResult:
    # h = p < alpha decides nothing outside (0, 1): alpha 2 rejects at any p, a NaN never rejects
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly between 0 and 1, not {alpha!r}")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("paired samples must have equal length")
    if a.size < 6:
        raise ValueError("need at least 6 pairs")
    with np.errstate(over="ignore", invalid="ignore"):
        diff = a - b
    # a NaN would count in n but in neither rank sum, and an infinity would take the top rank
    if not np.isfinite(diff).all():
        raise ValueError("paired samples and their differences must be finite")
    diff = diff[diff != 0.0]
    n = diff.size
    if n == 0:
        return WilcoxonResult(p=1.0, h=0, w=0.0, n=0)
    ranks, sizes = _midranks(np.abs(diff))
    w_plus = float(ranks[diff > 0].sum())
    w_minus = float(ranks[diff < 0].sum())
    w = min(w_plus, w_minus)
    if n <= EXACT_LIMIT:
        p = _exact_p(w, ranks)
    else:
        p = _normal_p(w, sizes)
    return WilcoxonResult(p=p, h=int(p < alpha), w=w, n=n)
