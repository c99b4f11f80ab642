"""Frozen golden reference for short runs of the benchmark suites.

``tests/golden/suites_20s.npz`` is a ``tools/suite_diff.py`` snapshot of all
32 experiments of both suites cut to 20 s. The tests take a fresh snapshot and
hold each experiment to the golden with ``suite_diff.compare``: events, R
series and text cells exactly, y, u and the numeric summary cells within
``suite_diff.ATOL``.

Regenerate after a deliberate behaviour change with

    PYTHONPATH=src python tests/test_golden.py

which prints ``suite_diff``'s comparison against the golden it replaces, so a
declared regeneration can quote what moved, then writes the new golden.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import suite_diff  # noqa: E402

GOLDEN = ROOT / "tests" / "golden" / "suites_20s.npz"
SECONDS = 20.0
NAMES = [raw["name"] for raw in suite_diff.suite_configs(ROOT)]


@pytest.fixture(scope="module")
def golden():
    return suite_diff.load(GOLDEN)


@pytest.fixture(scope="module")
def diffs(golden):
    return suite_diff.compare(golden, suite_diff.snapshot(ROOT, SECONDS))


def test_golden_covers_every_experiment(golden):
    meta = golden[0]
    assert list(meta) == NAMES
    assert sorted(run["summary"]["controller"] for run in meta.values()) == ["pac"] * 16 + ["pid"] * 16


@pytest.mark.parametrize("name", NAMES)
def test_matches_golden(name, diffs):
    line, problems = diffs[name]
    assert problems == [], line


if __name__ == "__main__":
    snap = suite_diff.snapshot(ROOT, SECONDS)
    if GOLDEN.exists():
        suite_diff.report(suite_diff.load(GOLDEN), snap)
    suite_diff.write(GOLDEN, snap)
    print(f"wrote {GOLDEN} ({len(snap[0])} experiments)", file=sys.stderr)
